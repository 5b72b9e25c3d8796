//! Behavioural tests of the VM: limits, scheduling, monitors, class
//! initialization, garbage collection, termination edge cases.

use ijvm_core::ids::MethodRef;
use ijvm_core::isolate::IsolateState;
use ijvm_core::prelude::*;
use ijvm_core::thread::ThreadState;
use ijvm_core::vm::Vm;
use ijvm_minijava::{compile_to_bytes, CompileEnv};

fn boot(options: VmOptions) -> Vm {
    ijvm_jsl::boot(options)
}

fn load(vm: &mut Vm, iso: IsolateId, src: &str, entry: &str) -> ClassId {
    let loader = vm.loader_of(iso).unwrap();
    for (name, bytes) in compile_to_bytes(src, &CompileEnv::new()).unwrap() {
        vm.add_class_bytes(loader, &name, bytes);
    }
    vm.load_class(loader, entry).unwrap()
}

fn spawn(
    vm: &mut Vm,
    class: ClassId,
    name: &str,
    desc: &str,
    args: Vec<Value>,
    iso: IsolateId,
) -> ThreadId {
    let index = vm.class(class).find_method(name, desc).unwrap();
    vm.spawn_thread(name, MethodRef { class, index }, args, iso)
        .unwrap()
}

// ---------------------------------------------------------------------
// Limits
// ---------------------------------------------------------------------

#[test]
fn heap_limit_raises_out_of_memory_error() {
    let mut o = VmOptions::isolated();
    o.heap_limit_bytes = 1 << 20;
    let mut vm = boot(o);
    let iso = vm.create_isolate("t");
    let class = load(
        &mut vm,
        iso,
        r#"
        class Hog {
            static Object[] keep = new Object[64];
            static int fill() {
                for (int i = 0; i < keep.length; i++) keep[i] = new int[65536];
                return 0;
            }
        }
        "#,
        "Hog",
    );
    let err = vm
        .call_static_as(class, "fill", "()I", vec![], iso)
        .unwrap_err();
    match err {
        VmError::UncaughtException { class_name, .. } => {
            assert_eq!(class_name, "java/lang/OutOfMemoryError");
        }
        other => panic!("expected OOM, got {other}"),
    }
}

#[test]
fn deep_recursion_raises_stack_overflow_error() {
    let mut o = VmOptions::isolated();
    o.max_frames = 128;
    let mut vm = boot(o);
    let iso = vm.create_isolate("t");
    let class = load(
        &mut vm,
        iso,
        "class R { static int down(int n) { return down(n + 1); } }",
        "R",
    );
    let err = vm
        .call_static_as(class, "down", "(I)I", vec![Value::Int(0)], iso)
        .unwrap_err();
    match err {
        VmError::UncaughtException { class_name, .. } => {
            assert_eq!(class_name, "java/lang/StackOverflowError");
        }
        other => panic!("expected SOE, got {other}"),
    }
}

#[test]
fn budget_exhaustion_is_reported() {
    let mut vm = boot(VmOptions::isolated());
    let iso = vm.create_isolate("t");
    let class = load(
        &mut vm,
        iso,
        "class L { static int forever() { int x = 0; while (true) { x = x + 1; } } }",
        "L",
    );
    let _tid = spawn(&mut vm, class, "forever", "()I", vec![], iso);
    assert_eq!(vm.run(Some(100_000)), RunOutcome::BudgetExhausted);
}

// ---------------------------------------------------------------------
// Scheduling, monitors, deadlock
// ---------------------------------------------------------------------

#[test]
fn two_monitor_deadlock_is_detected() {
    let mut vm = boot(VmOptions::isolated());
    let iso = vm.create_isolate("t");
    let class = load(
        &mut vm,
        iso,
        r#"
        class D {
            static Object a = new Object();
            static Object b = new Object();
            static void ab() {
                synchronized (a) {
                    Thread.sleep(2);
                    synchronized (b) { }
                }
            }
            static void ba() {
                synchronized (b) {
                    Thread.sleep(2);
                    synchronized (a) { }
                }
            }
        }
        "#,
        "D",
    );
    let _t1 = spawn(&mut vm, class, "ab", "()V", vec![], iso);
    let _t2 = spawn(&mut vm, class, "ba", "()V", vec![], iso);
    assert_eq!(vm.run(Some(50_000_000)), RunOutcome::Deadlock);
}

#[test]
fn synchronized_methods_are_reentrant() {
    let mut vm = boot(VmOptions::isolated());
    let iso = vm.create_isolate("t");
    let class = load(
        &mut vm,
        iso,
        r#"
        class R {
            static synchronized int nest(int n) {
                if (n <= 0) return 0;
                return 1 + nest(n - 1);
            }
        }
        "#,
        "R",
    );
    let out = vm
        .call_static_as(class, "nest", "(I)I", vec![Value::Int(10)], iso)
        .unwrap();
    assert_eq!(out, Some(Value::Int(10)));
}

#[test]
fn interrupt_breaks_sleep_with_interrupted_exception() {
    let mut vm = boot(VmOptions::isolated());
    let iso = vm.create_isolate("t");
    let class = load(
        &mut vm,
        iso,
        r#"
        class S {
            static int nap() {
                try {
                    Thread.sleep(1000000);
                    return 0;
                } catch (InterruptedException e) {
                    return 77;
                }
            }
        }
        "#,
        "S",
    );
    // A busy companion keeps the scheduler from fast-forwarding the
    // virtual clock through the sleep.
    let busy_class = load(
        &mut vm,
        iso,
        "class B { static int churn(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; } }",
        "B",
    );
    let tid = spawn(&mut vm, class, "nap", "()I", vec![], iso);
    let _busy = spawn(
        &mut vm,
        busy_class,
        "churn",
        "(I)I",
        vec![Value::Int(100_000_000)],
        iso,
    );
    let _ = vm.run(Some(100_000));
    assert!(matches!(
        vm.thread_state_of(tid).unwrap(),
        ThreadState::Sleeping { .. }
    ));
    vm.interrupt(tid);
    let _ = vm.run(Some(1_000_000));
    assert_eq!(vm.thread_result(tid), Some(Value::Int(77)));
}

// ---------------------------------------------------------------------
// Class initialization
// ---------------------------------------------------------------------

#[test]
fn clinit_runs_once_per_isolate() {
    let mut vm = boot(VmOptions::isolated());
    let a = vm.create_isolate("a");
    let b = vm.create_isolate("b");
    let src = r#"
        class Once {
            static int initCount = bump();
            static int bump() { return 1; }
            static int read() { return initCount; }
        }
    "#;
    // Both isolates share the class *code* through a delegate.
    let class = load(&mut vm, a, src, "Once");
    let la = vm.loader_of(a).unwrap();
    let lb = vm.loader_of(b).unwrap();
    vm.add_loader_delegate(lb, la);
    assert_eq!(
        vm.call_static_as(class, "read", "()I", vec![], a).unwrap(),
        Some(Value::Int(1))
    );
    assert_eq!(
        vm.call_static_as(class, "read", "()I", vec![], a).unwrap(),
        Some(Value::Int(1))
    );
    // Calling the method from isolate b migrates the thread INTO the
    // class's isolate (paper §3.1): it reads a's mirror, and b never
    // materializes one. (b would only get a mirror by a getstatic in its
    // own code — covered by the workspace integration tests.)
    assert_eq!(
        vm.call_static_as(class, "read", "()I", vec![], b).unwrap(),
        Some(Value::Int(1))
    );
    assert!(vm.class(class).mirror(a).is_some());
    assert!(vm.class(class).mirror(b).is_none());
}

#[test]
fn failed_clinit_poisons_the_class_for_that_isolate() {
    let mut vm = boot(VmOptions::isolated());
    let iso = vm.create_isolate("t");
    let class = load(
        &mut vm,
        iso,
        r#"
        class Bad {
            static int boom = explode();
            static int explode() { int[] xs = new int[1]; return xs[5]; }
            static int read() { return boom; }
        }
        "#,
        "Bad",
    );
    let first = vm
        .call_static_as(class, "read", "()I", vec![], iso)
        .unwrap_err();
    assert!(matches!(first, VmError::UncaughtException { .. }));
    let second = vm
        .call_static_as(class, "read", "()I", vec![], iso)
        .unwrap_err();
    match second {
        VmError::UncaughtException { class_name, .. } => {
            assert_eq!(class_name, "java/lang/NoClassDefFoundError");
        }
        other => panic!("expected NoClassDefFoundError, got {other}"),
    }
}

// ---------------------------------------------------------------------
// GC and pinning
// ---------------------------------------------------------------------

#[test]
fn pinned_objects_survive_collection_and_unpinned_die() {
    let mut vm = boot(VmOptions::isolated());
    let iso = vm.create_isolate("t");
    let s = vm.new_string(iso, "keep me").expect("heap has room");
    let pin = vm.pin(s);
    vm.collect_garbage(None);
    assert!(vm.heap().is_live(s));
    assert_eq!(vm.read_string(s).as_deref(), Some("keep me"));
    vm.unpin(pin);
    vm.collect_garbage(None);
    assert!(!vm.heap().is_live(s));
}

#[test]
fn pin_takes_the_lowest_free_handle() {
    let mut vm = boot(VmOptions::isolated());
    let iso = vm.create_isolate("t");
    let s = vm.new_string(iso, "x").expect("heap has room");
    let handles: Vec<usize> = (0..4).map(|_| vm.pin(s)).collect();
    vm.unpin(handles[2]);
    vm.unpin(handles[1]);
    vm.unpin(handles[1]);
    assert_eq!(vm.pin(s), handles[1]);
    assert_eq!(vm.pin(s), handles[2]);
    assert_eq!(vm.pin(s), handles[3] + 1);
}

#[test]
fn interned_strings_are_identical_within_an_isolate() {
    let mut vm = boot(VmOptions::isolated());
    let a = vm.create_isolate("a");
    let b = vm.create_isolate("b");
    let s1 = vm.intern_string(a, "tok").expect("heap has room");
    let s2 = vm.intern_string(a, "tok").expect("heap has room");
    let s3 = vm.intern_string(b, "tok").expect("heap has room");
    assert_eq!(s1, s2, "same isolate interns to the same object");
    assert_ne!(s1, s3, "different isolates have private string maps");
}

#[test]
fn unicode_strings_round_trip() {
    let mut vm = boot(VmOptions::isolated());
    let iso = vm.create_isolate("t");
    for text in [
        "",
        "ascii",
        "héllo wörld",
        "日本語テキスト",
        "mixed 漢字 and λ",
    ] {
        let s = vm.new_string(iso, text).expect("heap has room");
        assert_eq!(vm.read_string(s).as_deref(), Some(text));
    }
}

#[test]
fn gc_recomputes_live_bytes_after_release() {
    let mut vm = boot(VmOptions::isolated());
    let iso = vm.create_isolate("t");
    let class = load(
        &mut vm,
        iso,
        r#"
        class M {
            static Object held;
            static int grab() { held = new int[10000]; return 1; }
            static int drop() { held = null; return 1; }
        }
        "#,
        "M",
    );
    vm.call_static_as(class, "grab", "()I", vec![], iso)
        .unwrap();
    vm.collect_garbage(None);
    let live_holding = vm.isolate_stats(iso).unwrap().live_bytes;
    assert!(live_holding >= 40_000, "held array charged: {live_holding}");
    vm.call_static_as(class, "drop", "()I", vec![], iso)
        .unwrap();
    vm.collect_garbage(None);
    let live_after = vm.isolate_stats(iso).unwrap().live_bytes;
    assert!(
        live_after < live_holding - 39_000,
        "released: {live_after} < {live_holding}"
    );
}

// ---------------------------------------------------------------------
// Termination edge cases
// ---------------------------------------------------------------------

#[test]
fn terminate_is_idempotent_and_shared_mode_refuses() {
    let mut vm = boot(VmOptions::isolated());
    let iso = vm.create_isolate("t");
    vm.terminate_isolate(iso).unwrap();
    vm.terminate_isolate(iso).unwrap(); // second call is a no-op
    assert_ne!(vm.isolate_state(iso).unwrap(), IsolateState::Active);

    let mut shared = boot(VmOptions::shared());
    let iso = shared.create_isolate("t");
    assert!(
        shared.terminate_isolate(iso).is_err(),
        "baseline has no termination"
    );
}

#[test]
fn terminated_isolate_becomes_dead_once_unreferenced() {
    let mut vm = boot(VmOptions::isolated());
    let iso = vm.create_isolate("t");
    let class = load(
        &mut vm,
        iso,
        "class T { static Object make() { return new T(); } }",
        "T",
    );
    let obj = vm
        .call_static_as(class, "make", "()Ljava/lang/Object;", vec![], iso)
        .unwrap()
        .unwrap();
    let Value::Ref(obj) = obj else { panic!() };
    let pin = vm.pin(obj);

    vm.terminate_isolate(iso).unwrap();
    // A live instance of the isolate's class pins the isolate in
    // Terminating state (paper §3.3).
    assert_eq!(vm.isolate_state(iso).unwrap(), IsolateState::Terminating);
    vm.unpin(pin);
    // The factory thread's result slot also roots the object until
    // cleared: a call that returns a reference keeps its thread slot
    // (`Vm::release_thread`), and the result in it is a GC root.
    for t in 0..vm.thread_count() {
        vm.clear_thread_result(ThreadId(t as u32));
    }
    vm.collect_garbage(None);
    assert_eq!(vm.isolate_state(iso).unwrap(), IsolateState::Dead);
}

#[test]
fn calls_into_terminated_isolates_throw() {
    let mut vm = boot(VmOptions::isolated());
    let iso = vm.create_isolate("t");
    let class = load(
        &mut vm,
        iso,
        "class T { static int f() { return 1; } }",
        "T",
    );
    assert_eq!(
        vm.call_static_as(class, "f", "()I", vec![], iso).unwrap(),
        Some(Value::Int(1))
    );
    vm.terminate_isolate(iso).unwrap();
    // Even a fresh thread pointed at the dead isolate's code dies with
    // StoppedIsolateException... but spawning *as* the dead isolate is a
    // host error scenario; spawn from another isolate and call across.
    let other = vm.create_isolate("caller");
    let lo = vm.loader_of(other).unwrap();
    let lt = vm.loader_of(iso).unwrap();
    vm.add_loader_delegate(lo, lt);
    for (name, bytes) in compile_to_bytes(
        r#"
        class C {
            static int callDead() {
                try { return T.f(); } catch (StoppedIsolateException e) { return -9; }
            }
        }
        "#,
        &{
            let mut cenv = CompileEnv::new();
            // T's signature for the import.
            cenv.import_signature(ijvm_minijava::ClassInfo {
                internal: "T".into(),
                is_interface: false,
                superclass: Some("java/lang/Object".into()),
                interfaces: vec![],
                fields: vec![],
                methods: vec![ijvm_minijava::MethodSig {
                    name: "f".into(),
                    params: vec![],
                    ret: ijvm_minijava::Ty::Int,
                    is_static: true,
                }],
            });
            cenv
        },
    )
    .unwrap()
    {
        vm.add_class_bytes(lo, &name, bytes);
    }
    let caller = vm.load_class(lo, "C").unwrap();
    let out = vm
        .call_static_as(caller, "callDead", "()I", vec![], other)
        .unwrap();
    assert_eq!(out, Some(Value::Int(-9)));
}

// ---------------------------------------------------------------------
// Accounting plumbing
// ---------------------------------------------------------------------

#[test]
fn io_and_connection_accounting() {
    let mut vm = boot(VmOptions::isolated());
    let iso = vm.create_isolate("t");
    let class = load(
        &mut vm,
        iso,
        r#"
        class Io {
            static int chat() {
                VConnection c = VConnection.connect();
                int got = c.read(100);
                c.write(40);
                c.close();
                return got;
            }
        }
        "#,
        "Io",
    );
    let out = vm
        .call_static_as(class, "chat", "()I", vec![], iso)
        .unwrap();
    assert_eq!(out, Some(Value::Int(100)));
    let stats = vm.isolate_stats(iso).unwrap();
    assert_eq!(stats.io_read_bytes, 100);
    assert_eq!(stats.io_written_bytes, 40);
    assert_eq!(stats.connections_opened, 1);
}

#[test]
fn cpu_exact_and_sampled_both_accumulate() {
    let mut vm = boot(VmOptions::isolated());
    let iso = vm.create_isolate("t");
    let class = load(
        &mut vm,
        iso,
        "class W { static int work(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; } }",
        "W",
    );
    vm.call_static_as(class, "work", "(I)I", vec![Value::Int(200_000)], iso)
        .unwrap();
    let stats = vm.isolate_stats(iso).unwrap();
    assert!(
        stats.cpu_sampled > 500_000,
        "sampled: {}",
        stats.cpu_sampled
    );
    assert!(stats.cpu_exact > 500_000, "exact: {}", stats.cpu_exact);
    // Sampling is quantum-grained; both counters describe the same work.
    let ratio = stats.cpu_sampled as f64 / stats.cpu_exact as f64;
    assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
}

#[test]
fn metadata_footprint_grows_with_isolates() {
    let mut vm = boot(VmOptions::isolated());
    let a = vm.create_isolate("a");
    let src = "class K { static int x = 5; static int r() { return x; } }";
    let class = load(&mut vm, a, src, "K");
    vm.call_static_as(class, "r", "()I", vec![], a).unwrap();
    let one = vm.metadata_bytes();
    // A second isolate using the same class doubles its mirror storage.
    let b = vm.create_isolate("b");
    let lb = vm.loader_of(b).unwrap();
    let la = vm.loader_of(a).unwrap();
    vm.add_loader_delegate(lb, la);
    vm.call_static_as(class, "r", "()I", vec![], b).unwrap();
    let two = vm.metadata_bytes();
    assert!(
        two > one,
        "mirrors for a second isolate cost memory ({one} -> {two})"
    );
}

// ---------------------------------------------------------------------
// Strings
// ---------------------------------------------------------------------

#[test]
fn string_natives_are_exact_on_unpaired_surrogates() {
    string_natives_on_unpaired_surrogates(VmOptions::isolated());
    // Again with a collection at every allocation: the host's two
    // strings must stay pinned across the calls that allocate.
    let mut stress = VmOptions::isolated();
    stress.gc_threshold_bytes = 0;
    string_natives_on_unpaired_surrogates(stress);
}

fn string_natives_on_unpaired_surrogates(options: VmOptions) {
    let mut vm = boot(options);
    let iso = vm.create_isolate("t");
    let src = r#"
        class Str {
            static String sub(String s) { return s.substring(1, 3); }
            static String cat(String s, String t) { return s.concat(t); }
            static int eq(String s, String t) { if (s.equals(t)) return 1; return 0; }
            static int hash(String s) { return s.hashCode(); }
            static int find(String s) { return s.indexOf(55296); }
        }
    "#;
    let class = load(&mut vm, iso, src, "Str");
    let body = [u16::from(b'a'), 0xD800, u16::from(b'b')];
    let s = vm
        .new_string_utf16(iso, body.into())
        .expect("heap has room");
    vm.pin(s);
    let lossy = vm.new_string(iso, "a\u{FFFD}b").expect("heap has room");
    vm.pin(lossy);
    let call = |vm: &mut Vm, name: &str, desc: &str, args: Vec<Value>| {
        vm.call_static_as(class, name, desc, args, iso)
            .unwrap()
            .unwrap()
    };
    let chars = |vm: &Vm, v: Value| vm.string_chars(v.as_ref().unwrap()).unwrap().to_vec();

    let sub = call(
        &mut vm,
        "sub",
        "(Ljava/lang/String;)Ljava/lang/String;",
        vec![Value::Ref(s)],
    );
    assert_eq!(chars(&vm, sub), [0xD800, u16::from(b'b')]);
    let cat = call(
        &mut vm,
        "cat",
        "(Ljava/lang/String;Ljava/lang/String;)Ljava/lang/String;",
        vec![Value::Ref(s), sub],
    );
    assert_eq!(
        chars(&vm, cat),
        [
            u16::from(b'a'),
            0xD800,
            u16::from(b'b'),
            0xD800,
            u16::from(b'b')
        ]
    );
    let eq_desc = "(Ljava/lang/String;Ljava/lang/String;)I";
    let copy = vm
        .new_string_utf16(iso, body.into())
        .expect("heap has room");
    assert_eq!(
        call(
            &mut vm,
            "eq",
            eq_desc,
            vec![Value::Ref(s), Value::Ref(copy)]
        ),
        Value::Int(1)
    );
    assert_eq!(
        call(
            &mut vm,
            "eq",
            eq_desc,
            vec![Value::Ref(s), Value::Ref(lossy)]
        ),
        Value::Int(0)
    );
    let java_hash = body
        .iter()
        .fold(0i32, |h, &c| h.wrapping_mul(31).wrapping_add(i32::from(c)));
    let hash = call(
        &mut vm,
        "hash",
        "(Ljava/lang/String;)I",
        vec![Value::Ref(s)],
    );
    assert_eq!(hash, Value::Int(java_hash));
    let find = call(
        &mut vm,
        "find",
        "(Ljava/lang/String;)I",
        vec![Value::Ref(s)],
    );
    assert_eq!(find, Value::Int(1));
}

/// The frame pool actually recycles: mid-workload, a call-heavy thread
/// must hold recycled buffers (returned frames feed the pool, fused
/// invokes drain it) — and a *terminated* thread must hold none, because
/// its pool could never be drained again.
#[test]
fn frame_pool_recycles_call_frames() {
    let src = r#"
        class W {
            static int step(int x) { return x + 1; }
            static int spin(int n) {
                int acc = 0;
                for (int i = 0; i < n; i++) { acc += step(i); }
                return acc;
            }
        }
    "#;
    let mut vm = boot(VmOptions::isolated());
    let iso = vm.create_isolate("pool");
    let class = load(&mut vm, iso, src, "W");
    let tid = spawn(
        &mut vm,
        class,
        "spin",
        "(I)I",
        vec![Value::Int(10_000)],
        iso,
    );

    // Stop mid-loop: thousands of step() frames have been pushed and
    // popped, so the live thread's pool must hold recycled buffers.
    assert_eq!(vm.run(Some(60_000)), RunOutcome::BudgetExhausted);
    assert!(
        vm.thread(tid).unwrap().frame_pool.pooled() > 0,
        "call frames were never recycled"
    );

    // Run to completion: the result is right, and the terminated
    // thread's pool has been dropped (it can never be drained again).
    assert_eq!(vm.run(None), RunOutcome::Idle);
    assert_eq!(
        vm.thread_result(tid),
        Some(Value::Int(50_005_000)),
        "workload result"
    );
    let dead = vm.thread(tid).unwrap();
    assert!(dead.is_terminated());
    assert_eq!(dead.frame_pool.pooled(), 0, "terminated pool must drop");
}
