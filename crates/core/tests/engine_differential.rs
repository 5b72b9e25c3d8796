//! Differential tests: every program must behave identically under the
//! raw byte interpreter (the oracle) and in every lane of the lane table
//! (`tests/common`) — same results, console output, guest instruction
//! counts (the budget quantum is counted per logical instruction in every
//! engine), exceptions, migrations and resource-accounting totals. Each
//! lane is compared with the untraced, default-paced raw oracle of its
//! isolation mode, so the traced lanes pin the flight recorder's
//! zero-perturbation guarantee and the stress lanes pin that a
//! collection at every allocation frees nothing live. `parallel` lanes
//! run the program as one unit of a two-worker work-stealing cluster.
//!
//! The random-program proptest is heavy and runs its listed subset of
//! lanes; every other test runs every selected lane.

mod common;

use common::{Engine, Gc, Heavy, Lane, Observed};
use ijvm_core::prelude::*;
use ijvm_core::vm::Vm;
use ijvm_minijava::{compile_to_bytes, CompileEnv};
use proptest::prelude::*;

/// Spawns a thread running `method` in `iso`.
fn spawn(
    vm: &mut Vm,
    class: ClassId,
    method: &str,
    desc: &str,
    args: Vec<Value>,
    iso: IsolateId,
) -> ThreadId {
    let index = vm.class(class).find_method(method, desc).unwrap();
    vm.spawn_thread(
        &format!("call:{method}"),
        MethodRef { class, index },
        args,
        iso,
    )
    .unwrap()
}

/// Runs `vm` to completion and observes it: under a plain `Vm::run`, or
/// for a `parallel` lane as one unit of a two-worker cluster, sliced so
/// the unit crosses many quantum boundaries and is stealable between
/// them. Hands the VM back for further checks.
fn finish(lane: Lane, mut vm: Vm, tids: &[ThreadId]) -> (Observed, Vm) {
    if lane.engine != Engine::Parallel {
        let outcome = vm.run(None);
        return (Observed::of(&mut vm, outcome, tids), vm);
    }
    let mut cluster = Cluster::builder()
        .scheduler(SchedulerKind::Parallel(2))
        .slice(1_000)
        .build();
    cluster.submit(vm);
    let mut out = cluster.run();
    let observed = common::observe_cluster(&mut out, &[tids.to_vec()]).remove(0);
    (observed, out.units.remove(0).vm)
}

/// Boots a VM in `lane` at `quantum` with `src` loaded into one isolate.
fn boot(lane: Lane, quantum: u32, src: &str, entry: &str) -> (Vm, ClassId, IsolateId) {
    let mut vm = ijvm_jsl::boot(lane.options(quantum));
    let iso = vm.create_isolate("diff");
    let loader = vm.loader_of(iso).unwrap();
    for (name, bytes) in compile_to_bytes(src, &CompileEnv::new()).unwrap() {
        vm.add_class_bytes(loader, &name, bytes);
    }
    let class = vm.load_class(loader, entry).unwrap();
    (vm, class, iso)
}

/// Runs `run` in each of `lanes` and under the oracle of the lane's
/// isolation mode (once per mode), and hands each `(lane, oracle, lane's
/// run)` to `check`.
fn against_oracle<T>(lanes: Vec<Lane>, run: impl Fn(Lane) -> T, check: impl Fn(Lane, &T, &T)) {
    let mut oracles: Vec<(IsolationMode, T)> = Vec::new();
    for lane in lanes {
        let i = match oracles.iter().position(|(mode, _)| *mode == lane.isolation) {
            Some(i) => i,
            None => {
                oracles.push((lane.isolation, run(Lane::oracle(lane.isolation))));
                oracles.len() - 1
            }
        };
        check(lane, &oracles[i].1, &run(lane));
    }
}

/// Runs `C.method(args)` of one program in every lane against the raw
/// oracle.
fn assert_engines_agree(
    name: &str,
    src: &str,
    entry: &str,
    method: &str,
    desc: &str,
    args: Vec<Value>,
) {
    let run = |lane: Lane| {
        let (mut vm, class, iso) = boot(lane, 10_000, src, entry);
        let tid = spawn(&mut vm, class, method, desc, args.clone(), iso);
        finish(lane, vm, &[tid]).0
    };
    against_oracle(Lane::all(), run, |lane, oracle, seen| {
        assert_eq!(oracle, seen, "{name} diverged in {lane}")
    });
}

#[test]
fn arithmetic_and_branches_agree() {
    assert_engines_agree(
        "arith",
        r#"
        class A {
            static int mix(int n) {
                int acc = 7;
                for (int i = 1; i < n; i++) {
                    acc = acc * 31 + i;
                    if (acc > 1000000) acc = acc % 99991;
                    acc = acc ^ (acc >> 3);
                }
                return acc;
            }
        }
        "#,
        "A",
        "mix",
        "(I)I",
        vec![Value::Int(5_000)],
    );
}

#[test]
fn fields_objects_and_statics_agree() {
    assert_engines_agree(
        "fields",
        r#"
        class Node {
            int value;
            Node next;
            Node(int v) { value = v; }
        }
        class B {
            static int total;
            static int build(int n) {
                Node head = null;
                for (int i = 0; i < n; i++) {
                    Node fresh = new Node(i);
                    fresh.next = head;
                    head = fresh;
                    total = total + i;
                }
                int sum = 0;
                while (head != null) { sum += head.value; head = head.next; }
                return sum + total;
            }
        }
        "#,
        "B",
        "build",
        "(I)I",
        vec![Value::Int(2_000)],
    );
}

#[test]
fn interfaces_and_virtual_dispatch_agree() {
    assert_engines_agree(
        "dispatch",
        r#"
        interface Op { int apply(int x); }
        class Twice implements Op { public int apply(int x) { return x * 2; } }
        class Inc implements Op { public int apply(int x) { return x + 1; } }
        class C {
            static int fold(int n) {
                Op[] ops = new Op[2];
                ops[0] = new Twice();
                ops[1] = new Inc();
                int acc = 1;
                for (int i = 0; i < n; i++) {
                    acc = ops[i % 2].apply(acc) % 100003;
                }
                return acc;
            }
        }
        "#,
        "C",
        "fold",
        "(I)I",
        vec![Value::Int(3_000)],
    );
}

#[test]
fn polymorphic_virtual_calls_agree() {
    // Receivers alternate between two classes through one invokevirtual
    // site: the threaded engine's monomorphic shape cache must go
    // polymorphic (plain vtable path) without diverging from raw.
    assert_engines_agree(
        "poly-virtual",
        r#"
        class Shape { int area() { return 0; } }
        class Square extends Shape { int side; Square(int s) { side = s; } public int area() { return side * side; } }
        class Strip extends Shape { int len; Strip(int l) { len = l; } public int area() { return len * 3; } }
        class H {
            static int total(int n) {
                Shape a = new Square(3);
                Shape b = new Strip(5);
                int acc = 0;
                for (int i = 0; i < n; i++) {
                    Shape s = a;
                    if (i % 2 == 1) { s = b; }
                    acc += s.area();
                }
                return acc;
            }
        }
        "#,
        "H",
        "total",
        "(I)I",
        vec![Value::Int(2_000)],
    );
}

#[test]
fn exceptions_and_handlers_agree() {
    assert_engines_agree(
        "exceptions",
        r#"
        class D {
            static int probe(int n) {
                int caught = 0;
                for (int i = 0; i < n; i++) {
                    try {
                        if (i % 3 == 0) throw new ArithmeticException("x");
                        int[] xs = new int[2];
                        int v = xs[i % 5]; // faults when i%5 >= 2
                        caught += v;
                    } catch (ArithmeticException e) {
                        caught += 1;
                    } catch (RuntimeException e) {
                        caught += 2;
                    }
                }
                return caught;
            }
        }
        "#,
        "D",
        "probe",
        "(I)I",
        vec![Value::Int(500)],
    );
}

#[test]
fn uncaught_exceptions_agree() {
    assert_engines_agree(
        "uncaught",
        r#"
        class E {
            static int boom(int n) { return n / (n - n); }
        }
        "#,
        "E",
        "boom",
        "(I)I",
        vec![Value::Int(7)],
    );
}

#[test]
fn strings_and_clinit_agree() {
    assert_engines_agree(
        "strings",
        r#"
        class F {
            static String tag = "seed";
            static int check(int n) {
                String acc = tag;
                for (int i = 0; i < n; i++) {
                    acc = acc + "-" + i;
                }
                return acc.length();
            }
        }
        "#,
        "F",
        "check",
        "(I)I",
        vec![Value::Int(64)],
    );
}

#[test]
fn quantum_interleaving_agrees() {
    // Two threads incrementing a shared static under a small quantum
    // (forcing frequent thread switches): the deterministic scheduler
    // must interleave identically in every lane, because instruction
    // counting is per logical instruction.
    let src = r#"
        class G {
            static int hits;
            static int spin(int n) {
                for (int i = 0; i < n; i++) { hits = hits + 1; }
                return hits;
            }
        }
    "#;
    let run = |lane: Lane| {
        let (mut vm, class, iso) = boot(lane, 137, src, "G");
        let t1 = spawn(&mut vm, class, "spin", "(I)I", vec![Value::Int(600)], iso);
        let t2 = spawn(&mut vm, class, "spin", "(I)I", vec![Value::Int(600)], iso);
        finish(lane, vm, &[t1, t2]).0
    };
    against_oracle(Lane::all(), run, |lane, oracle, seen| {
        assert_eq!(oracle, seen, "interleaving diverged in {lane}")
    });
}

#[test]
fn string_ldc_caching_agrees_across_gc_epochs() {
    // String literals execute through the threaded engine's per-
    // site (isolate, gc-epoch, ref) ldc cache. A tiny GC threshold forces
    // collections mid-loop, so the cache is filled, epoch-invalidated and
    // refilled many times — and every observation (results, per-isolate
    // allocation counts, interning behaviour via `==`) must still match
    // the raw interpreter, which re-resolves through the intern map every
    // time.
    let src = r#"
        class L {
            static int spin(int n) {
                int hits = 0;
                for (int i = 0; i < n; i++) {
                    String a = "alpha";
                    String b = "beta-constant";
                    int[] garbage = new int[64];
                    garbage[0] = i;
                    if (a == "alpha") hits++;
                    hits += b.length() + garbage[0] % 3;
                }
                return hits;
            }
        }
    "#;
    // A stress lane collects at every allocation instead; its epoch
    // count is its own.
    let run = |lane: Lane| {
        let mut options = lane.options(10_000);
        if lane.gc == Gc::Default {
            options.gc_threshold_bytes = 64 << 10; // force frequent epochs
        }
        let mut vm = ijvm_jsl::boot(options);
        let iso = vm.create_isolate("ldc");
        let loader = vm.loader_of(iso).unwrap();
        for (name, bytes) in compile_to_bytes(src, &CompileEnv::new()).unwrap() {
            vm.add_class_bytes(loader, &name, bytes);
        }
        let class = vm.load_class(loader, "L").unwrap();
        let tid = spawn(&mut vm, class, "spin", "(I)I", vec![Value::Int(800)], iso);
        let (observed, vm) = finish(lane, vm, &[tid]);
        (observed, vm.gc_count())
    };
    against_oracle(
        Lane::all(),
        run,
        |lane, (oracle, oracle_gcs), (seen, gcs)| {
            assert!(
                *oracle_gcs > 2 && *gcs > 2,
                "the workload must actually cycle GC epochs (saw {oracle_gcs} and {gcs})"
            );
            assert_eq!(oracle, seen, "ldc caching diverged in {lane}");
            if lane.gc == Gc::Default {
                assert_eq!(oracle_gcs, gcs, "GC epochs diverged in {lane}");
            }
        },
    );
}

#[test]
fn isolate_termination_agrees() {
    // A callee isolate is terminated mid-workload; every isolated lane
    // must see the same StoppedIsolateException surface. The calls are
    // host calls, which no cluster runs, so the `parallel` lanes do not
    // apply.
    let callee_src = r#"
        class Svc {
            int poke(int x) { return x + 1; }
        }
        class SvcFactory {
            static Svc make() { return new Svc(); }
        }
    "#;
    let caller_src = r#"
        class Caller {
            static int call(Svc s) { return s.poke(5); }
        }
    "#;
    let run = |lane: Lane| {
        let mut vm = ijvm_jsl::boot(lane.options(10_000));
        let home = vm.create_isolate("home");
        let home_loader = vm.loader_of(home).unwrap();
        let callee = vm.create_isolate("callee");
        let callee_loader = vm.loader_of(callee).unwrap();
        let callee_classes = compile_to_bytes(callee_src, &CompileEnv::new()).unwrap();
        for (name, bytes) in &callee_classes {
            vm.add_class_bytes(callee_loader, name, bytes.clone());
        }
        vm.add_loader_delegate(home_loader, callee_loader);
        let mut cenv = CompileEnv::new();
        for (_, bytes) in &callee_classes {
            let cf = ijvm_classfile::reader::read_class(bytes).unwrap();
            cenv.import_class_file(&cf).unwrap();
        }
        for (name, bytes) in compile_to_bytes(caller_src, &cenv).unwrap() {
            vm.add_class_bytes(home_loader, &name, bytes);
        }
        let factory = vm.load_class(callee_loader, "SvcFactory").unwrap();
        let svc = vm
            .call_static_as(factory, "make", "()LSvc;", vec![], callee)
            .unwrap()
            .unwrap();
        let Value::Ref(svc_ref) = svc else {
            panic!("factory returned {svc}")
        };
        vm.pin(svc_ref);
        let caller = vm.load_class(home_loader, "Caller").unwrap();

        // Warm the inter-isolate call path (quickening the invoke site),
        // then kill the callee and call through the same site again.
        let warm = vm
            .call_static_as(caller, "call", "(LSvc;)I", vec![Value::Ref(svc_ref)], home)
            .unwrap();
        assert_eq!(warm, Some(Value::Int(6)));

        vm.terminate_isolate(callee).unwrap();
        let outcome =
            vm.call_static_as(caller, "call", "(LSvc;)I", vec![Value::Ref(svc_ref)], home);
        let uncaught = match outcome {
            Err(ijvm_core::VmError::UncaughtException { class_name, .. }) => Some(class_name),
            other => panic!("expected uncaught exception, got {other:?}"),
        };
        (uncaught, vm.migrations())
    };
    against_oracle(
        common::isolated(Lane::all())
            .into_iter()
            .filter(|l| l.engine != Engine::Parallel)
            .collect(),
        run,
        |lane, oracle, seen| {
            assert_eq!(
                oracle.0.as_deref(),
                Some("org/ijvm/StoppedIsolateException"),
                "terminated callee must poison the call"
            );
            assert_eq!(oracle, seen, "termination behaviour diverged in {lane}");
        },
    );
}

/// Regression test: a monomorphic `VirtSite` receiver→shape cache filled
/// through a hot inter-isolate virtual site must be invalidated when the
/// target isolate is terminated — the cached `CallSite` holds an
/// `Rc<CodeBody>` that would otherwise keep the dead isolate's bytecode
/// alive forever — and re-invoking through the site must still raise
/// `StoppedIsolateException` (poisoning, paper §3.3).
#[test]
fn terminated_isolate_invalidates_hot_virtual_site_caches() {
    let callee_src = r#"
        class Svc {
            int poke(int x) { return x + 1; }
        }
        class SvcFactory {
            static Svc make() { return new Svc(); }
        }
    "#;
    let caller_src = r#"
        class Caller {
            static int call(Svc s, int n) {
                int acc = 0;
                for (int i = 0; i < n; i++) { acc += s.poke(i); }
                return acc;
            }
            static Svc remake() { return SvcFactory.make(); }
        }
    "#;
    let options = VmOptions::isolated().with_engine(EngineKind::Threaded);
    let mut vm = ijvm_jsl::boot(options);
    let home = vm.create_isolate("home");
    let home_loader = vm.loader_of(home).unwrap();
    let callee = vm.create_isolate("callee");
    let callee_loader = vm.loader_of(callee).unwrap();
    let callee_classes = compile_to_bytes(callee_src, &CompileEnv::new()).unwrap();
    for (name, bytes) in &callee_classes {
        vm.add_class_bytes(callee_loader, name, bytes.clone());
    }
    vm.add_loader_delegate(home_loader, callee_loader);
    let mut cenv = CompileEnv::new();
    for (_, bytes) in &callee_classes {
        let cf = ijvm_classfile::reader::read_class(bytes).unwrap();
        cenv.import_class_file(&cf).unwrap();
    }
    for (name, bytes) in compile_to_bytes(caller_src, &cenv).unwrap() {
        vm.add_class_bytes(home_loader, &name, bytes);
    }
    let factory = vm.load_class(callee_loader, "SvcFactory").unwrap();
    let svc = vm
        .call_static_as(factory, "make", "()LSvc;", vec![], callee)
        .unwrap()
        .unwrap();
    let Value::Ref(svc_ref) = svc else {
        panic!("factory returned {svc}")
    };
    vm.pin(svc_ref);
    let caller = vm.load_class(home_loader, "Caller").unwrap();

    // Heat the virtual site so its monomorphic cache is filled, and
    // the cross-isolate static site so it fuses into a `CallSite`.
    let warm = vm
        .call_static_as(
            caller,
            "call",
            "(LSvc;I)I",
            vec![Value::Ref(svc_ref), Value::Int(64)],
            home,
        )
        .unwrap();
    assert_eq!(warm, Some(Value::Int((0..64).map(|i| i + 1).sum())));
    vm.call_static_as(caller, "remake", "()LSvc;", vec![], home)
        .unwrap();
    let cached_sites = |vm: &Vm| -> usize {
        vm.class(caller)
            .methods
            .iter()
            .filter_map(|m| m.prepared.as_ref())
            .flat_map(|p| {
                p.virt_sites
                    .borrow()
                    .iter()
                    .map(|s| s.cache.borrow().is_some() as usize)
                    .collect::<Vec<_>>()
            })
            .sum()
    };
    assert!(cached_sites(&vm) > 0, "the virtual site never went hot");

    // Fused direct-call sites whose target lives in the callee
    // isolate retain that isolate's bytecode through `Rc<CodeBody>`.
    let retained_dead_code_bytes = |vm: &Vm| -> usize {
        let callee_classes: Vec<_> = ["Svc", "SvcFactory"]
            .iter()
            .map(|n| vm.find_class(callee_loader, n).unwrap())
            .collect();
        vm.class(caller)
            .methods
            .iter()
            .filter_map(|m| m.prepared.as_ref())
            .flat_map(|p| {
                p.call_sites
                    .borrow()
                    .iter()
                    .filter(|s| callee_classes.contains(&s.target.class))
                    .map(|s| s.code.bytes.len())
                    .collect::<Vec<_>>()
            })
            .sum()
    };
    assert!(
        retained_dead_code_bytes(&vm) > 0,
        "the static site never fused"
    );

    vm.terminate_isolate(callee).unwrap();
    assert_eq!(
        cached_sites(&vm),
        0,
        "termination must drop receiver→shape caches targeting the dead isolate"
    );
    assert_eq!(
        retained_dead_code_bytes(&vm),
        0,
        "termination must swap fused call sites for empty-body stubs"
    );

    // Re-invoking through the previously-hot site must hit the
    // poisoning check, not a stale cached frame shape.
    let outcome = vm.call_static_as(
        caller,
        "call",
        "(LSvc;I)I",
        vec![Value::Ref(svc_ref), Value::Int(4)],
        home,
    );
    match outcome {
        Err(ijvm_core::VmError::UncaughtException { class_name, .. }) => {
            assert_eq!(class_name, "org/ijvm/StoppedIsolateException");
        }
        other => panic!("expected StoppedIsolateException, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Random-program proptest lane
// ---------------------------------------------------------------------

const CMP_OPS: [ijvm_classfile::Opcode; 6] = [
    ijvm_classfile::Opcode::IfIcmpeq,
    ijvm_classfile::Opcode::IfIcmpne,
    ijvm_classfile::Opcode::IfIcmplt,
    ijvm_classfile::Opcode::IfIcmpge,
    ijvm_classfile::Opcode::IfIcmpgt,
    ijvm_classfile::Opcode::IfIcmple,
];

/// Assembles a random but well-formed class `P` with a static `run()I`
/// built from structured chunks that keep the operand stack empty between
/// chunks. Besides the fusable shapes, the menu exercises call-site
/// quickening (`invokestatic` to a helper),
/// static fields, string `ldc` (the per-site cache), and allocation (GC
/// pressure + accounting), so the threaded engine's quickening transitions
/// fire under random interleavings. Every branch is a short forward skip,
/// so all programs terminate.
fn build_random_program(ops: &[u8]) -> Vec<u8> {
    use ijvm_classfile::{AccessFlags, ClassBuilder, Opcode};
    const STATIC: AccessFlags = AccessFlags(AccessFlags::PUBLIC.0 | AccessFlags::STATIC.0);

    let mut cb = ClassBuilder::new("P", "java/lang/Object", AccessFlags::PUBLIC);
    cb.field("acc", "I", STATIC);
    // Helper the random invokestatic chunks call.
    let mut h = cb.method("f", "(II)I", STATIC);
    h.iload(0);
    h.iload(1);
    h.op(Opcode::Ixor);
    h.const_int(3);
    h.op(Opcode::Iadd);
    h.op(Opcode::Ireturn);
    h.done().unwrap();

    let mut m = cb.method("run", "()I", STATIC);
    for slot in 0..4u16 {
        m.const_int(5 * slot as i32 + 2);
        m.istore(slot);
    }
    for &op in ops {
        let a = (op % 4) as u16;
        let b = (op / 4 % 4) as u16;
        let dst = (op / 16 % 4) as u16;
        let cmp = CMP_OPS[(op / 7 % 6) as usize];
        match op % 8 {
            // The accumulate shape (fuses to AddStore).
            0 => {
                m.iload(a);
                m.iload(b);
                m.op(Opcode::Iadd);
                m.istore(dst);
            }
            // Compare-with-constant branch (fuses to FusedCmpBr).
            1 => {
                let skip = m.new_label();
                m.iload(a);
                m.const_int(op as i32 * 3 - 128);
                m.branch(cmp, skip);
                m.iinc(b, 1);
                m.bind(skip);
            }
            // Compare-two-locals branch (fuses to FusedCmpBr).
            2 => {
                let skip = m.new_label();
                m.iload(a);
                m.iload(b);
                m.branch(cmp, skip);
                m.iinc(dst, -3);
                m.bind(skip);
            }
            // Static call through a fused call site.
            3 => {
                m.iload(a);
                m.iload(b);
                m.invokestatic("P", "f", "(II)I");
                m.istore(dst);
            }
            // Static field round trip (mirror indirection + init check).
            4 => {
                m.iload(a);
                m.putstatic("P", "acc", "I");
                m.getstatic("P", "acc", "I");
                m.istore(b);
            }
            // String ldc (per-site cache) — fold its length into a local.
            5 => {
                m.const_string(if op % 2 == 0 {
                    "alpha"
                } else {
                    "beta-constant"
                });
                m.invokevirtual("java/lang/String", "length", "()I");
                m.istore(dst);
            }
            // Allocation (GC pressure, accounting).
            6 => {
                m.const_int((op % 16) as i32 + 1);
                m.newarray(ijvm_classfile::descriptor::BaseType::Int);
                m.op(Opcode::Arraylength);
                m.istore(a);
            }
            // Plain arithmetic that must stay unfused.
            _ => {
                m.iinc(a, (op % 200) as i16 - 100);
            }
        }
    }
    m.iload(0);
    m.iload(1);
    m.op(Opcode::Iadd);
    m.iload(2);
    m.op(Opcode::Iadd);
    m.iload(3);
    m.op(Opcode::Ixor);
    m.op(Opcode::Ireturn);
    m.done().unwrap();
    ijvm_classfile::writer::write_class(&cb.build().unwrap()).unwrap()
}

/// Runs the random program in `lane` at `quantum`.
fn run_random_program(bytes: &[u8], lane: Lane, quantum: u32) -> Observed {
    let mut vm = ijvm_jsl::boot(lane.options(quantum));
    let iso = vm.create_isolate("prog");
    let loader = vm.loader_of(iso).unwrap();
    vm.add_class_bytes(loader, "P", bytes.to_vec());
    let class = vm.load_class(loader, "P").unwrap();
    let tid = spawn(&mut vm, class, "run", "()I", vec![], iso);
    finish(lane, vm, &[tid]).0
}

proptest! {
    /// Random programs at random quanta, in the lanes listed for them:
    /// identical results, exceptions, vclock, migrations, console and
    /// per-isolate accounting to the raw oracle. Tiny quanta suspend
    /// threads inside fused patterns, which must de-fuse at the boundary:
    /// the vclock must also equal the threaded engine's at a quantum no
    /// program exhausts.
    #[test]
    fn random_programs_agree_across_engines(
        ops in proptest::collection::vec(any::<u8>(), 0..100),
        quantum in 1u32..500,
    ) {
        let bytes = build_random_program(&ops);
        let mut oracles: Vec<(IsolationMode, Observed)> = Vec::new();
        for lane in Lane::heavy(Heavy::Programs) {
            let i = match oracles.iter().position(|(mode, _)| *mode == lane.isolation) {
                Some(i) => i,
                None => {
                    oracles.push((lane.isolation, run_random_program(&bytes, Lane::oracle(lane.isolation), quantum)));
                    oracles.len() - 1
                }
            };
            let observed = run_random_program(&bytes, lane, quantum);
            prop_assert_eq!(&oracles[i].1, &observed, "random program diverged in {} (quantum {})", lane, quantum);
        }
        if let Some((mode, oracle)) = oracles.first() {
            let wide = Lane { engine: Engine::Threaded, ..Lane::oracle(*mode) };
            let wide = run_random_program(&bytes, wide, 1_000_000);
            prop_assert_eq!(oracle.vclock, wide.vclock, "vclock depends on the quantum ({})", quantum);
        }
    }
}
