//! Host calls (`Vm::call_static_as`) give their thread slot back: a
//! long-lived VM's thread table stays the same size no matter how many
//! calls it has served, except where a finished thread must stay — it
//! roots a returned object, or it still owns a monitor.
//!
//! Every test runs on both engines: the raw oracle and the threaded
//! engine.

use ijvm_classfile::{AccessFlags, ClassBuilder, Opcode};
use ijvm_core::engine::EngineKind;
use ijvm_core::prelude::*;
use ijvm_core::thread::ThreadState;
use ijvm_core::vm::Vm;
use ijvm_minijava::{compile_to_bytes, CompileEnv};

const ENGINES: [EngineKind; 2] = [EngineKind::Raw, EngineKind::Threaded];

const STATIC: AccessFlags = AccessFlags(AccessFlags::PUBLIC.0 | AccessFlags::STATIC.0);

const SOURCE: &str = r#"
    class H {
        static int inc(int x) { return x + 1; }
        static Object make() { return new H(); }
        static int boom(int x) { throw new IllegalStateException("boom " + x); }
    }
"#;

/// A booted VM on `engine` with `SOURCE` loaded into a fresh isolate.
fn vm_on(engine: EngineKind) -> (Vm, ClassId, IsolateId) {
    let mut vm = ijvm_jsl::boot(VmOptions::isolated().with_engine(engine));
    let iso = vm.create_isolate("host");
    let loader = vm.loader_of(iso).unwrap();
    for (name, bytes) in compile_to_bytes(SOURCE, &CompileEnv::new()).unwrap() {
        vm.add_class_bytes(loader, &name, bytes);
    }
    let class = vm.load_class(loader, "H").unwrap();
    (vm, class, iso)
}

fn inc(vm: &mut Vm, class: ClassId, iso: IsolateId, x: i32) -> Value {
    vm.call_static_as(class, "inc", "(I)I", vec![Value::Int(x)], iso)
        .unwrap()
        .unwrap()
}

#[test]
fn int_calls_reuse_one_thread_slot() {
    const CALLS: i32 = 20_000;
    for engine in ENGINES {
        let (mut vm, class, iso) = vm_on(engine);
        let created0 = vm.isolate_stats(iso).unwrap().threads_created;
        let live0 = vm.isolate_stats(iso).unwrap().threads_live;
        assert_eq!(inc(&mut vm, class, iso, 0), Value::Int(1));
        let slots = vm.thread_count();
        for x in 1..CALLS {
            assert_eq!(inc(&mut vm, class, iso, x), Value::Int(x + 1));
            assert_eq!(
                vm.thread_count(),
                slots,
                "{engine:?}: call {x} kept its slot"
            );
        }
        let stats = vm.isolate_stats(iso).unwrap();
        assert_eq!(
            stats.threads_created - created0,
            CALLS as u64,
            "{engine:?}: every call still counts as a created thread"
        );
        assert_eq!(stats.threads_live, live0, "{engine:?}");
    }
}

#[test]
fn a_returned_object_keeps_its_slot_and_survives_collection() {
    for engine in ENGINES {
        let (mut vm, class, iso) = vm_on(engine);
        inc(&mut vm, class, iso, 0);
        let slots = vm.thread_count();
        let Some(Value::Ref(obj)) = vm
            .call_static_as(class, "make", "()Ljava/lang/Object;", vec![], iso)
            .unwrap()
        else {
            panic!("{engine:?}: make returns an object");
        };
        assert_eq!(
            vm.thread_count(),
            slots + 1,
            "{engine:?}: the slot roots the object"
        );
        // Later int calls are released above it.
        for x in 0..10 {
            inc(&mut vm, class, iso, x);
        }
        assert_eq!(vm.thread_count(), slots + 1, "{engine:?}");
        vm.collect_garbage(None);
        assert!(
            vm.heap().is_live(obj),
            "{engine:?}: returned object collected"
        );
        assert_eq!(&*vm.class(vm.heap().get(obj).class).name, "H");
    }
}

#[test]
fn an_uncaught_exception_is_reported_and_released() {
    for engine in ENGINES {
        let (mut vm, class, iso) = vm_on(engine);
        inc(&mut vm, class, iso, 0);
        let slots = vm.thread_count();
        for x in 0..50 {
            let err = vm
                .call_static_as(class, "boom", "(I)I", vec![Value::Int(x)], iso)
                .unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("uncaught exception java/lang/IllegalStateException: boom {x}"),
                "{engine:?}"
            );
            assert!(matches!(err, VmError::UncaughtException { .. }));
            assert_eq!(
                vm.thread_count(),
                slots,
                "{engine:?}: failed call {x} kept its slot"
            );
        }
    }
}

/// `hold(Object)` returns while still owning the argument's monitor (an
/// unbalanced `monitorenter`); `drop(Object)` exits that monitor;
/// `fresh()` returns owning the monitor of an object nothing else
/// references.
fn monitor_vm(engine: EngineKind) -> (Vm, ClassId, IsolateId, GcRef) {
    let mut vm = ijvm_jsl::boot(VmOptions::isolated().with_engine(engine));
    let iso = vm.create_isolate("locks");
    let loader = vm.loader_of(iso).unwrap();
    let mut cb = ClassBuilder::new("Locks", "java/lang/Object", AccessFlags::PUBLIC);
    let mut m = cb.method("hold", "(Ljava/lang/Object;)I", STATIC);
    m.aload(0);
    m.op(Opcode::Monitorenter);
    m.const_int(7);
    m.op(Opcode::Ireturn);
    m.done().unwrap();
    let mut m = cb.method("drop", "(Ljava/lang/Object;)I", STATIC);
    m.aload(0);
    m.op(Opcode::Monitorexit);
    m.const_int(1);
    m.op(Opcode::Ireturn);
    m.done().unwrap();
    let mut m = cb.method("fresh", "()I", STATIC);
    m.new_object("java/lang/Object");
    m.op(Opcode::Dup);
    m.invokespecial("java/lang/Object", "<init>", "()V");
    m.op(Opcode::Monitorenter);
    m.const_int(3);
    m.op(Opcode::Ireturn);
    m.done().unwrap();
    let bytes = ijvm_classfile::writer::write_class(&cb.build().unwrap()).unwrap();
    vm.add_class_bytes(loader, "Locks", bytes);
    let class = vm.load_class(loader, "Locks").unwrap();
    let lock = vm.new_string(iso, "lock").expect("heap has room");
    vm.pin(lock);
    (vm, class, iso, lock)
}

#[test]
fn a_thread_that_still_owns_a_monitor_is_not_released() {
    for engine in ENGINES {
        let (mut vm, class, iso, lock) = monitor_vm(engine);
        let slots = vm.thread_count();
        let held = vm
            .call_static_as(
                class,
                "hold",
                "(Ljava/lang/Object;)I",
                vec![Value::Ref(lock)],
                iso,
            )
            .unwrap();
        assert_eq!(held, Some(Value::Int(7)));
        assert_eq!(
            vm.thread_count(),
            slots + 1,
            "{engine:?}: the owner keeps its slot"
        );
        // The next call gets a fresh id, so it does not own the monitor.
        let err = vm
            .call_static_as(
                class,
                "drop",
                "(Ljava/lang/Object;)I",
                vec![Value::Ref(lock)],
                iso,
            )
            .unwrap_err();
        assert!(
            matches!(&err, VmError::UncaughtException { class_name, .. }
                if class_name == "java/lang/IllegalMonitorStateException"),
            "{engine:?}: {err}"
        );
        assert_eq!(vm.thread_count(), slots + 1, "{engine:?}");
        // The explicit release refuses the owner too.
        let owner = ThreadId(slots as u32);
        assert_eq!(vm.release_thread(owner).unwrap(), Some(Value::Int(7)));
        assert_eq!(vm.thread_count(), slots + 1, "{engine:?}");
    }
}

#[test]
fn a_collected_monitor_no_longer_holds_its_owners_slot() {
    for engine in ENGINES {
        let (mut vm, class, iso, _) = monitor_vm(engine);
        let slots = vm.thread_count();
        assert_eq!(
            vm.call_static_as(class, "fresh", "()I", vec![], iso)
                .unwrap(),
            Some(Value::Int(3))
        );
        assert_eq!(
            vm.thread_count(),
            slots + 1,
            "{engine:?}: the owner keeps its slot"
        );
        // The collector frees the object and its monitor with it, so the
        // owner holds nothing any more — as a restore would recount.
        vm.collect_garbage(None);
        assert_eq!(
            vm.release_thread(ThreadId(slots as u32)).unwrap(),
            Some(Value::Int(3))
        );
        assert_eq!(vm.thread_count(), slots, "{engine:?}");
    }
}

const GUEST_THREADS: &str = r#"
    class Job implements Runnable {
        static int runs = 0;
        public void run() { runs = runs + 1; }
    }
    class Starter {
        static Thread t;
        static int start() { t = new Thread(new Job()); t.start(); return 0; }
        static int alive() { if (t.isAlive()) return 1; return 0; }
        static int join() { t.join(); return Job.runs; }
    }
"#;

/// A thread the guest started with `Thread.start` keeps its slot even
/// when it has finished and is the last one: its `Thread` object still
/// names the id. Were the slot given back, the next host call would
/// take the id, and `t.isAlive()` and `t.join()` would reach the caller.
#[test]
fn a_guest_started_thread_keeps_its_slot() {
    for engine in ENGINES {
        let mut vm = ijvm_jsl::boot(VmOptions::isolated().with_engine(engine));
        let iso = vm.create_isolate("guest");
        let loader = vm.loader_of(iso).unwrap();
        for (name, bytes) in compile_to_bytes(GUEST_THREADS, &CompileEnv::new()).unwrap() {
            vm.add_class_bytes(loader, &name, bytes);
        }
        let class = vm.load_class(loader, "Starter").unwrap();
        let call =
            |vm: &mut Vm, name: &str| vm.call_static_as(class, name, "()I", vec![], iso).unwrap();
        let slots = vm.thread_count();
        assert_eq!(call(&mut vm, "start"), Some(Value::Int(0)));
        // The host call's slot sits below the guest thread's, so both stay.
        assert_eq!(vm.thread_count(), slots + 2, "{engine:?}");
        let guest = ThreadId(slots as u32 + 1);
        assert_eq!(
            vm.thread_state_of(guest).unwrap(),
            ThreadState::Terminated,
            "{engine:?}"
        );
        assert_eq!(vm.release_thread(guest).unwrap(), None, "{engine:?}");
        assert_eq!(
            vm.thread_count(),
            slots + 2,
            "{engine:?}: the guest-started thread keeps its slot"
        );
        assert_eq!(call(&mut vm, "alive"), Some(Value::Int(0)), "{engine:?}");
        assert_eq!(call(&mut vm, "join"), Some(Value::Int(1)), "{engine:?}");
    }
}

/// The decay probe: 10⁵ int calls, timed in blocks of 1,000. The median
/// block in the last tenth costs at most 1.1× the median block in the
/// first tenth — a host call does not get slower with the calls served
/// before it. Timing-based, so run it in release:
/// `cargo test --release -p ijvm-core --test host_calls -- --ignored`.
#[test]
#[ignore = "timing probe; run in release with --ignored"]
#[allow(clippy::disallowed_types)] // a timing harness: it reads the wall clock
fn host_call_cost_does_not_grow_with_calls_served() {
    use std::time::Instant;
    const BLOCK: i32 = 1_000;
    const BLOCKS: usize = 100;
    let (mut vm, class, iso) = vm_on(EngineKind::Threaded);
    let mut blocks = Vec::with_capacity(BLOCKS);
    for b in 0..BLOCKS as i32 {
        let start = Instant::now();
        for x in 0..BLOCK {
            inc(&mut vm, class, iso, b * BLOCK + x);
        }
        blocks.push(start.elapsed().as_secs_f64());
    }
    let median = |xs: &[f64]| {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let tenth = BLOCKS / 10;
    let first = median(&blocks[..tenth]);
    let last = median(&blocks[BLOCKS - tenth..]);
    assert!(
        last <= 1.1 * first,
        "last tenth {:.1} µs/block vs first {:.1} µs/block ({:.2}×)",
        last * 1e6,
        first * 1e6,
        last / first
    );
}
