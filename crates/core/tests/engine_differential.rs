//! Differential tests: every program must behave identically under the
//! raw byte interpreter and the direct-threaded handler engine (fused
//! and unfused) — same results, same console output, same guest
//! instruction counts (the budget quantum is counted per logical
//! instruction in both engines), same exceptions, and the same
//! resource-accounting totals.
//!
//! The combinations compared are env-var selectable so CI can run them
//! as a matrix whose job name alone attributes a per-mode failure:
//!
//! * `IJVM_DIFF_ISOLATION` — `shared`, `isolated`, or unset for both;
//! * `IJVM_DIFF_ENGINE` — the candidate compared against the raw oracle:
//!   `threaded`, `threaded-nofuse`, `parallel`, `parallel-nofuse`,
//!   `raw` (a control lane), or unset for threaded fused and unfused;
//! * `IJVM_DIFF_TRACE` — `full` runs every *candidate* with the flight
//!   recorder on ([`TraceConfig::Full`]) while the oracle stays
//!   untraced, pinning the tracing layer's zero-perturbation guarantee:
//!   results, console, vclock, migrations and exact accounting must all
//!   stay bit-identical with tracing enabled.

use ijvm_core::engine::EngineKind;
use ijvm_core::prelude::*;
use ijvm_core::vm::Vm;
use ijvm_minijava::{compile_to_bytes, CompileEnv};
use proptest::prelude::*;

/// A candidate engine configuration compared against the raw oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Candidate {
    engine: EngineKind,
    superinstructions: bool,
    /// Run through the parallel work-stealing cluster scheduler
    /// (`SchedulerKind::Parallel(2)`, sliced) instead of a plain
    /// `Vm::run` — the whole observation set must still match the raw
    /// oracle bit for bit.
    cluster: bool,
    /// Run with the flight recorder on (`TraceConfig::Full`); the
    /// observation set must still match the untraced oracle.
    trace: bool,
}

/// Whether `IJVM_DIFF_TRACE=full` asks for traced candidates.
fn trace_lane() -> bool {
    match std::env::var("IJVM_DIFF_TRACE").as_deref() {
        Ok("full") => true,
        Ok(other) if !other.is_empty() => panic!("bad IJVM_DIFF_TRACE {other:?}"),
        _ => false,
    }
}

/// Isolation modes selected by `IJVM_DIFF_ISOLATION`.
fn selected_modes() -> Vec<IsolationMode> {
    match std::env::var("IJVM_DIFF_ISOLATION").as_deref() {
        Ok("shared") => vec![IsolationMode::Shared],
        Ok("isolated") => vec![IsolationMode::Isolated],
        Ok(other) if !other.is_empty() => panic!("bad IJVM_DIFF_ISOLATION {other:?}"),
        _ => vec![IsolationMode::Shared, IsolationMode::Isolated],
    }
}

/// Candidate engines selected by `IJVM_DIFF_ENGINE`.
fn selected_candidates() -> Vec<Candidate> {
    let trace = trace_lane();
    let threaded = Candidate {
        engine: EngineKind::Threaded,
        superinstructions: true,
        cluster: false,
        trace,
    };
    let threaded_nofuse = Candidate {
        engine: EngineKind::Threaded,
        superinstructions: false,
        cluster: false,
        trace,
    };
    match std::env::var("IJVM_DIFF_ENGINE").as_deref() {
        Ok("threaded") => vec![threaded],
        Ok("threaded-nofuse") => vec![threaded_nofuse],
        // Cluster lanes: the default engine driven by the parallel
        // work-stealing scheduler, fused and unfused.
        Ok("parallel") => vec![Candidate {
            cluster: true,
            ..threaded
        }],
        Ok("parallel-nofuse") => vec![Candidate {
            cluster: true,
            ..threaded_nofuse
        }],
        // Control lane: the oracle against itself, catching harness bugs
        // (and, with IJVM_DIFF_TRACE=full, traced-raw vs untraced-raw).
        Ok("raw") => vec![Candidate {
            engine: EngineKind::Raw,
            superinstructions: true,
            cluster: false,
            trace,
        }],
        Ok(other) if !other.is_empty() => panic!("bad IJVM_DIFF_ENGINE {other:?}"),
        _ => vec![threaded, threaded_nofuse],
    }
}

/// Everything we compare between engines after one run.
#[derive(Debug, PartialEq)]
struct Observed {
    result: Option<String>,
    error: Option<String>,
    vclock: u64,
    migrations: u64,
    console: Vec<String>,
    cpu_exact: Vec<u64>,
    cpu_sampled_total: u64,
    allocated_objects: Vec<u64>,
}

fn run_program(
    src: &str,
    entry: &str,
    method: &str,
    desc: &str,
    args: Vec<Value>,
    mode: IsolationMode,
    candidate: Candidate,
) -> Observed {
    let mut options = match mode {
        IsolationMode::Shared => VmOptions::shared(),
        IsolationMode::Isolated => VmOptions::isolated(),
    }
    .with_engine(candidate.engine)
    .with_superinstructions(candidate.superinstructions);
    if candidate.trace {
        options = options.with_trace(TraceConfig::Full);
    }
    let mut vm = ijvm_jsl::boot(options);
    let iso = vm.create_isolate("diff");
    let loader = vm.loader_of(iso).unwrap();
    for (name, bytes) in compile_to_bytes(src, &CompileEnv::new()).unwrap() {
        vm.add_class_bytes(loader, &name, bytes);
    }
    let class = vm.load_class(loader, entry).unwrap();
    if candidate.cluster {
        return run_in_cluster(vm, class, method, desc, args, iso);
    }
    let outcome = vm.call_static_as(class, method, desc, args, iso);
    observe(&mut vm, outcome)
}

/// Runs the prepared program as one unit of a two-worker parallel
/// cluster (sliced, so the unit crosses many quantum boundaries and is
/// stealable between them), then reports the outcome exactly as
/// `Vm::call_static_as` would.
fn run_in_cluster(
    mut vm: Vm,
    class: ClassId,
    method: &str,
    desc: &str,
    args: Vec<Value>,
    iso: IsolateId,
) -> Observed {
    use ijvm_core::sched::{Cluster, SchedulerKind};
    let index = vm.class(class).find_method(method, desc).unwrap();
    let mref = MethodRef { class, index };
    let tid = vm
        .spawn_thread(&format!("call:{method}"), mref, args, iso)
        .unwrap();
    let mut cluster = Cluster::builder()
        .scheduler(SchedulerKind::Parallel(2))
        .slice(1_000)
        .build();
    let unit = cluster.submit(vm);
    let mut out = cluster.run();
    // `units` is indexed by UnitId regardless of completion order.
    let finished = out.units.remove(unit.id().index() as usize);
    let mut vm = finished.vm;
    let outcome = match finished.report.outcome {
        RunOutcome::Deadlock | RunOutcome::Blocked => Err(ijvm_core::VmError::Deadlock),
        RunOutcome::BudgetExhausted => Err(ijvm_core::VmError::BudgetExhausted),
        // The wildcard covers Idle (and, RunOutcome being
        // #[non_exhaustive], any future outcome defaults to "ran to
        // completion, read the thread result").
        _ => vm.thread_outcome(tid),
    };
    // The cluster aggregate (fed only by worker buffers draining at
    // migration points) must agree with the in-VM exact counters.
    for i in 0..vm.isolate_count() {
        let iso = IsolateId(i as u16);
        assert_eq!(
            out.accounts.cpu_exact(unit.id(), iso),
            vm.isolate_stats(iso).unwrap().cpu_exact,
            "cluster aggregate diverged for {iso}"
        );
    }
    observe(&mut vm, outcome)
}

fn observe(vm: &mut Vm, outcome: ijvm_core::Result<Option<Value>>) -> Observed {
    let (result, error) = match outcome {
        Ok(v) => (v.map(|v| format!("{v}")), None),
        Err(e) => (None, Some(e.to_string())),
    };
    let snaps = vm.metrics().isolates;
    Observed {
        result,
        error,
        vclock: vm.vclock(),
        migrations: vm.migrations(),
        console: vm.take_console(),
        cpu_exact: snaps.iter().map(|s| s.stats.cpu_exact).collect(),
        cpu_sampled_total: snaps.iter().map(|s| s.stats.cpu_sampled).sum(),
        allocated_objects: snaps.iter().map(|s| s.stats.allocated_objects).collect(),
    }
}

/// Runs one program under the raw oracle and every selected candidate in
/// every selected isolation mode, asserting the observations match
/// exactly.
fn assert_engines_agree(
    name: &str,
    src: &str,
    entry: &str,
    method: &str,
    desc: &str,
    args: Vec<Value>,
) {
    let oracle = Candidate {
        engine: EngineKind::Raw,
        superinstructions: true,
        cluster: false,
        trace: false,
    };
    for mode in selected_modes() {
        let raw = run_program(src, entry, method, desc, args.clone(), mode, oracle);
        for candidate in selected_candidates() {
            let observed = run_program(src, entry, method, desc, args.clone(), mode, candidate);
            assert_eq!(
                raw, observed,
                "{name} diverged in {mode:?} mode under {candidate:?}"
            );
        }
    }
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
    // Two threads incrementing a shared static under a small quantum:
    // the deterministic scheduler must interleave identically under both
    // engines, because instruction counting is per logical instruction.
    let src = r#"
        class G {
            static int hits;
            static int spin(int n) {
                for (int i = 0; i < n; i++) { hits = hits + 1; }
                return hits;
            }
        }
    "#;
    let oracle = Candidate {
        engine: EngineKind::Raw,
        superinstructions: true,
        cluster: false,
        trace: false,
    };
    for mode in selected_modes() {
        let mut seen = Vec::new();
        for candidate in std::iter::once(oracle).chain(selected_candidates()) {
            let mut options = match mode {
                IsolationMode::Shared => VmOptions::shared(),
                IsolationMode::Isolated => VmOptions::isolated(),
            }
            .with_engine(candidate.engine)
            .with_superinstructions(candidate.superinstructions);
            if candidate.trace {
                options = options.with_trace(TraceConfig::Full);
            }
            options.quantum = 137; // force frequent thread switches
            let mut vm = ijvm_jsl::boot(options);
            let iso = vm.create_isolate("diff");
            let loader = vm.loader_of(iso).unwrap();
            for (name, bytes) in compile_to_bytes(src, &CompileEnv::new()).unwrap() {
                vm.add_class_bytes(loader, &name, bytes);
            }
            let class = vm.load_class(loader, "G").unwrap();
            let index = {
                let mref = vm.class(class).find_method("spin", "(I)I").unwrap();
                MethodRef { class, index: mref }
            };
            let t1 = vm
                .spawn_thread("a", index, vec![Value::Int(600)], iso)
                .unwrap();
            let t2 = vm
                .spawn_thread("b", index, vec![Value::Int(600)], iso)
                .unwrap();
            assert_eq!(vm.run(None), RunOutcome::Idle);
            let r1 = vm.thread_result(t1);
            let r2 = vm.thread_result(t2);
            seen.push((
                r1.map(|v| v.to_string()),
                r2.map(|v| v.to_string()),
                vm.vclock(),
            ));
        }
        for (i, s) in seen.iter().enumerate().skip(1) {
            assert_eq!(
                &seen[0], s,
                "interleaving diverged in {mode:?} mode (lane {i})"
            );
        }
    }
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
    let oracle = Candidate {
        engine: EngineKind::Raw,
        superinstructions: true,
        cluster: false,
        trace: false,
    };
    for mode in selected_modes() {
        let mut seen = Vec::new();
        for candidate in std::iter::once(oracle).chain(selected_candidates()) {
            let mut options = match mode {
                IsolationMode::Shared => VmOptions::shared(),
                IsolationMode::Isolated => VmOptions::isolated(),
            }
            .with_engine(candidate.engine)
            .with_superinstructions(candidate.superinstructions);
            if candidate.trace {
                options = options.with_trace(TraceConfig::Full);
            }
            options.gc_threshold_bytes = 64 << 10; // force frequent epochs
            let mut vm = ijvm_jsl::boot(options);
            let iso = vm.create_isolate("ldc");
            let loader = vm.loader_of(iso).unwrap();
            for (name, bytes) in compile_to_bytes(src, &CompileEnv::new()).unwrap() {
                vm.add_class_bytes(loader, &name, bytes);
            }
            let class = vm.load_class(loader, "L").unwrap();
            let outcome = vm.call_static_as(class, "spin", "(I)I", vec![Value::Int(800)], iso);
            let gc_runs = vm.gc_count();
            seen.push((observe(&mut vm, outcome), gc_runs));
        }
        assert!(
            seen[0].1 > 2,
            "the workload must actually cycle GC epochs (saw {})",
            seen[0].1
        );
        for (i, s) in seen.iter().enumerate().skip(1) {
            assert_eq!(&seen[0], s, "ldc caching diverged in {mode:?} (lane {i})");
        }
    }
}

#[test]
fn isolate_termination_agrees() {
    // A callee isolate is terminated mid-workload; both engines must see
    // the same StoppedIsolateException surface.
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
    let oracle = Candidate {
        engine: EngineKind::Raw,
        superinstructions: true,
        cluster: false,
        trace: false,
    };
    let mut seen = Vec::new();
    for candidate in std::iter::once(oracle).chain(selected_candidates()) {
        let mut options = VmOptions::isolated()
            .with_engine(candidate.engine)
            .with_superinstructions(candidate.superinstructions);
        if candidate.trace {
            options = options.with_trace(TraceConfig::Full);
        }
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
        seen.push((uncaught, vm.migrations()));
    }
    for (i, s) in seen.iter().enumerate().skip(1) {
        assert_eq!(&seen[0], s, "termination behaviour diverged (lane {i})");
    }
    assert_eq!(
        seen[0].0.as_deref(),
        Some("org/ijvm/StoppedIsolateException"),
        "terminated callee must poison the call"
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
/// chunks. Compared to the superinstruction generator, the menu here also
/// exercises call-site quickening (`invokestatic` to a helper),
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

/// Runs the random program under one engine configuration, returning the
/// full observation set.
fn run_random_program(
    bytes: &[u8],
    mode: IsolationMode,
    candidate: Candidate,
    quantum: u32,
) -> Observed {
    let mut options = match mode {
        IsolationMode::Shared => VmOptions::shared(),
        IsolationMode::Isolated => VmOptions::isolated(),
    }
    .with_engine(candidate.engine)
    .with_superinstructions(candidate.superinstructions);
    if candidate.trace {
        options = options.with_trace(TraceConfig::Full);
    }
    options.quantum = quantum;
    let mut vm = ijvm_jsl::boot(options);
    let iso = vm.create_isolate("prog");
    let loader = vm.loader_of(iso).unwrap();
    vm.add_class_bytes(loader, "P", bytes.to_vec());
    let class = vm.load_class(loader, "P").unwrap();
    let outcome = vm.call_static_as(class, "run", "()I", vec![], iso);
    observe(&mut vm, outcome)
}

proptest! {
    /// Raw vs Threaded (fused and unfused) over random
    /// programs, random quanta, and both isolation modes: identical
    /// results, exceptions, vclock, migrations, console, and per-isolate
    /// accounting traces.
    #[test]
    fn random_programs_agree_across_engines(
        ops in proptest::collection::vec(any::<u8>(), 0..100),
        quantum in 1u32..500,
    ) {
        let bytes = build_random_program(&ops);
        let oracle = Candidate { engine: EngineKind::Raw, superinstructions: true, cluster: false, trace: false };
        for mode in [IsolationMode::Shared, IsolationMode::Isolated] {
            let raw = run_random_program(&bytes, mode, oracle, quantum);
            for superinstructions in [true, false] {
                let candidate = Candidate { engine: EngineKind::Threaded, superinstructions, cluster: false, trace: trace_lane() };
                let observed = run_random_program(&bytes, mode, candidate, quantum);
                prop_assert_eq!(
                    &raw,
                    &observed,
                    "random program diverged in {:?} mode under {:?} (quantum {})",
                    mode,
                    candidate,
                    quantum
                );
            }
        }
    }
}
