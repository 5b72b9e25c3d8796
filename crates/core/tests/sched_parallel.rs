//! Cross-mode scheduler tests: the same program set must behave
//! identically under the deterministic cluster scheduler (the oracle)
//! and the parallel work-stealing scheduler at any worker count — same
//! per-unit results, errors, console output, virtual clocks and
//! migration counts, and **bit-identical per-isolate exact CPU**, both
//! inside each unit's VM and in the cluster-level aggregate that worker
//! buffers drain into at migration points. Only which OS worker ran
//! which slice may differ.
//!
//! Every test runs in every VM configuration of the lane table
//! (`tests/common`, [`Lane::configs`]), or in its isolated ones where it
//! kills an isolate or counts per-isolate CPU. The proptest is heavy and
//! runs the lanes listed for [`Heavy::SchedSets`].

mod common;

use common::{
    assert_modes_agree, build_vm, isolated, run_scenario, Heavy, Lane, Scenario, UnitSpec,
};
use ijvm_core::prelude::*;
use ijvm_core::sched::Cluster;
use ijvm_minijava::{compile_to_bytes, CompileEnv};
use proptest::prelude::*;

/// A unit running `src`'s `entry.method(n)` on one thread per `n`.
fn program(
    src: &str,
    entry: &'static str,
    method: &'static str,
    thread_args: Vec<i32>,
) -> UnitSpec {
    UnitSpec {
        src: src.to_owned(),
        entry,
        method,
        thread_args,
    }
}

fn fixed_program_set() -> Vec<UnitSpec> {
    let arith = r#"
        class Arith {
            static int spin(int n) {
                int acc = 7;
                for (int i = 0; i < n; i++) {
                    acc = acc * 31 + i;
                    if (acc > 1000000) acc = acc % 99991;
                }
                return acc;
            }
        }
    "#;
    let alloc_print = r#"
        class AllocPrint {
            static int run(int n) {
                int total = 0;
                for (int i = 0; i < n; i++) {
                    int[] chunk = new int[16];
                    chunk[0] = i;
                    total += chunk[0] % 7;
                    if (i % 50 == 0) println("mark " + i);
                }
                return total;
            }
        }
    "#;
    let interleave = r#"
        class Shared {
            static int hits;
            static int spin(int n) {
                for (int i = 0; i < n; i++) { hits = hits + 1; }
                return hits;
            }
        }
    "#;
    let faulty = r#"
        class Faulty {
            static int boom(int n) { return n / (n - n); }
        }
    "#;
    vec![
        program(arith, "Arith", "spin", vec![4_000]),
        program(alloc_print, "AllocPrint", "run", vec![400]),
        // Two green threads over one static: the unit-internal scheduler
        // interleaving must be reproduced wherever the unit runs.
        program(interleave, "Shared", "spin", vec![700, 700]),
        program(faulty, "Faulty", "boom", vec![9]),
        program(arith, "Arith", "spin", vec![1_500]),
    ]
}

/// A whole VM is a `Send` execution unit — the property the scheduler is
/// built on, re-asserted here from outside the crate.
#[test]
fn vm_units_are_send() {
    fn is_send<T: Send>() {}
    is_send::<Vm>();
}

#[test]
fn parallel_matches_deterministic_on_fixed_set() {
    let programs = fixed_program_set();
    for lane in Lane::configs() {
        // Small quantum + slice: many slice boundaries, so units really
        // do bounce between workers mid-run.
        let run = assert_modes_agree(lane, &Scenario::new(&programs, 300, 600));
        for (u, o) in run.units.iter().enumerate() {
            assert_eq!(o.outcome, RunOutcome::Idle, "{lane}: unit {u}");
            assert!(run.slices[u] > 0, "{lane}: unit {u} never ran");
        }
        // The faulty unit's entry thread died with the expected exception.
        assert!(
            run.units[3].results[0]
                .as_ref()
                .unwrap_err()
                .contains("ArithmeticException"),
            "{lane}: faulty unit: {:?}",
            run.units[3].results
        );
    }
}

/// A unit hosting two isolates with inter-isolate calls: per-isolate
/// attribution inside the unit (thread migration, §3.1/3.2) must be
/// preserved by the cluster, and the aggregate must match per isolate.
#[test]
fn multi_isolate_unit_accounting_is_exact() {
    for lane in isolated(Lane::configs()) {
        let callee_src = r#"
            class Svc {
                static int work(int x) {
                    int acc = x;
                    for (int i = 0; i < 40; i++) { acc = acc * 17 + i; }
                    return acc % 65536;
                }
            }
        "#;
        let caller_src = r#"
            class Caller {
                static int drive(int n) {
                    int acc = 0;
                    for (int i = 0; i < n; i++) { acc += Svc.work(i) % 1024; }
                    return acc;
                }
            }
        "#;
        let build = |quantum: u32| -> (Vm, ThreadId) {
            let mut vm = ijvm_jsl::boot(lane.options(quantum));
            let home = vm.create_isolate("home");
            let home_loader = vm.loader_of(home).unwrap();
            let callee = vm.create_isolate("callee");
            let callee_loader = vm.loader_of(callee).unwrap();
            let callee_classes = compile_to_bytes(callee_src, &CompileEnv::new()).unwrap();
            let mut cenv = CompileEnv::new();
            for (name, bytes) in &callee_classes {
                vm.add_class_bytes(callee_loader, name, bytes.clone());
                let cf = ijvm_classfile::reader::read_class(bytes).unwrap();
                cenv.import_class_file(&cf).unwrap();
            }
            vm.add_loader_delegate(home_loader, callee_loader);
            for (name, bytes) in compile_to_bytes(caller_src, &cenv).unwrap() {
                vm.add_class_bytes(home_loader, &name, bytes);
            }
            let class = vm.load_class(home_loader, "Caller").unwrap();
            let index = vm.class(class).find_method("drive", "(I)I").unwrap();
            let mref = MethodRef { class, index };
            let tid = vm
                .spawn_thread("drive", mref, vec![Value::Int(250)], home)
                .unwrap();
            (vm, tid)
        };

        // Plain in-VM oracle: no cluster at all.
        let (mut plain, plain_tid) = build(200);
        assert_eq!(plain.run(None), RunOutcome::Idle, "{lane}");
        let plain_result = plain.thread_outcome(plain_tid).unwrap();
        let plain_cpu: Vec<u64> = plain
            .metrics()
            .isolates
            .iter()
            .map(|s| s.stats.cpu_exact)
            .collect();
        assert!(
            plain.migrations() > 0,
            "{lane}: workload must migrate isolates"
        );

        for kind in [
            SchedulerKind::Deterministic,
            SchedulerKind::Parallel(2),
            SchedulerKind::Parallel(4),
        ] {
            let (vm, tid) = build(200);
            let mut cluster = Cluster::builder().scheduler(kind).slice(350).build();
            let unit = cluster.submit(vm);
            let outcome = cluster.run();
            let vm = &outcome.unit(&unit).vm;
            assert_eq!(
                vm.thread_outcome(tid).unwrap(),
                plain_result,
                "{lane}: {kind:?}"
            );
            let cpu: Vec<u64> = vm
                .metrics()
                .isolates
                .iter()
                .map(|s| s.stats.cpu_exact)
                .collect();
            assert_eq!(
                cpu, plain_cpu,
                "{lane}: {kind:?}: per-isolate exact CPU diverged"
            );
            for (i, &expect) in plain_cpu.iter().enumerate() {
                assert_eq!(
                    outcome.accounts.cpu_exact(unit.id(), IsolateId(i as u16)),
                    expect,
                    "{kind:?}: aggregate for isolate {i} diverged"
                );
            }
            assert_eq!(
                outcome.accounts.total_cpu_exact(),
                plain_cpu.iter().sum::<u64>()
            );
        }
    }
}

/// Termination requested *before* the run is delivered ahead of the
/// unit's first slice: the workload never executes a single instruction.
#[test]
fn pre_run_termination_is_delivered_before_first_slice() {
    for lane in isolated(Lane::configs()) {
        let program = program(
            r#"
                class Loop {
                    static int spin(int n) {
                        int acc = 0;
                        while (true) { acc = acc + 1; }
                        return acc;
                    }
                }
            "#,
            "Loop",
            "spin",
            vec![1],
        );
        let (vm, tids) = build_vm(&program, lane.options(500));
        let mut cluster = Cluster::builder()
            .scheduler(SchedulerKind::Parallel(2))
            .slice(500)
            .build();
        let unit = cluster.submit(vm);
        // A single-isolate unit's workload isolate is the first one created
        // (the system library lives on the bootstrap loader, not in an
        // isolate of its own).
        unit.terminate(IsolateId(0));
        let outcome = cluster.run();
        let vm = &outcome.unit(&unit).vm;
        assert_eq!(
            outcome.unit(&unit).report.outcome,
            RunOutcome::Idle,
            "{lane}"
        );
        assert_ne!(
            vm.isolate_state(IsolateId(0)).unwrap(),
            IsolateState::Active,
            "the isolate must be terminated"
        );
        let err = vm.thread_outcome(tids[0]).unwrap_err().to_string();
        assert!(
            err.contains("StoppedIsolateException"),
            "expected StoppedIsolateException, got {err}"
        );
        assert_eq!(
            outcome.accounts.cpu_exact(unit.id(), IsolateId(0)),
            0,
            "a pre-run kill must land before any instruction is charged"
        );
    }
}

/// Cross-worker termination mid-run: an infinite loop spinning on some
/// worker is stopped at its next quantum boundary when another OS thread
/// files the kill — the paper-§3.3 protocol delivered across cores.
#[test]
fn cross_worker_termination_stops_spinning_unit() {
    for lane in isolated(Lane::configs()) {
        let spin = program(
            r#"
                class Hog {
                    static int spin(int n) {
                        int acc = 0;
                        while (true) { acc = acc + 1; }
                        return acc;
                    }
                }
            "#,
            "Hog",
            "spin",
            vec![1],
        );
        let (vm, tids) = build_vm(&spin, lane.options(400));
        let mut cluster = Cluster::builder()
            .scheduler(SchedulerKind::Parallel(2))
            .slice(400)
            .build();
        let unit = cluster.submit(vm);
        let killer_handle = unit.clone();
        let killer = std::thread::spawn(move || {
            // Let the hog actually run a few quanta first. A host-side test
            // thread may sleep — the clippy ban targets VM code.
            #[allow(clippy::disallowed_methods)]
            std::thread::sleep(std::time::Duration::from_millis(20));
            killer_handle.terminate(IsolateId(0));
        });
        let outcome = cluster.run();
        killer.join().unwrap();
        let vm = &outcome.unit(&unit).vm;
        assert_eq!(
            outcome.unit(&unit).report.outcome,
            RunOutcome::Idle,
            "{lane}"
        );
        let err = vm.thread_outcome(tids[0]).unwrap_err().to_string();
        assert!(
            err.contains("StoppedIsolateException"),
            "expected StoppedIsolateException, got {err}"
        );
        // Everything the hog burned before the kill is charged exactly:
        // aggregate and in-VM exact CPU agree even for a killed isolate.
        assert_eq!(
            outcome.accounts.cpu_exact(unit.id(), IsolateId(0)),
            vm.isolate_stats(IsolateId(0)).unwrap().cpu_exact,
            "kill path lost exactly-counted CPU"
        );
    }
}

/// The documented `ClusterOutcome::units` invariant: entries are indexed
/// by `UnitId` no matter in which order units *complete*. Unit sizes are
/// chosen so completion order (1, 2, 0) inverts submission order under
/// the deterministic scheduler, and parallel runs shuffle it further.
#[test]
fn outcome_units_indexed_by_unit_id_regardless_of_completion_order() {
    for lane in Lane::configs() {
        let spin = |n: i32| {
            program(
                r#"
                class Arith {
                    static int spin(int n) {
                        int acc = 7;
                        for (int i = 0; i < n; i++) { acc = acc * 31 + i; }
                        return acc % 65536;
                    }
                }
            "#,
                "Arith",
                "spin",
                vec![n],
            )
        };
        // Long, tiny, medium: unit 0 finishes last, unit 1 first.
        let programs = [spin(6_000), spin(10), spin(1_500)];
        for kind in [
            SchedulerKind::Deterministic,
            SchedulerKind::Parallel(2),
            SchedulerKind::Parallel(4),
        ] {
            let mut cluster = Cluster::builder().scheduler(kind).slice(200).build();
            let mut handles = Vec::new();
            let mut tids = Vec::new();
            for p in &programs {
                let (vm, unit_tids) = build_vm(p, lane.options(200));
                handles.push(cluster.submit(vm));
                tids.push(unit_tids[0]);
            }
            let outcome = cluster.run();
            // Slice counts prove completion order differed from unit order.
            assert!(
                outcome.units[1].report.slices < outcome.units[0].report.slices,
                "{kind:?}: the tiny unit should finish in fewer slices"
            );
            for (u, handle) in handles.iter().enumerate() {
                let unit = outcome.unit(handle);
                assert_eq!(unit.report.id, handle.id(), "{lane}");
                assert_eq!(unit.report.id.index() as usize, u, "{lane}");
                // Each unit's VM really is the one submitted under that id:
                // its entry thread computed that unit's expected value.
                let expect = {
                    let mut acc = 7i32;
                    for i in 0..programs[u].thread_args[0] {
                        acc = acc.wrapping_mul(31).wrapping_add(i);
                    }
                    (acc % 65536).to_string()
                };
                let got = unit.vm.thread_outcome(tids[u]).unwrap().unwrap();
                assert_eq!(
                    got.to_string(),
                    expect,
                    "{lane}: {kind:?}: unit {u} mismatch"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Accounting exactness under migration: for random program sets,
    /// worker counts, quanta and slice lengths, total charged CPU per
    /// isolate is identical between `Deterministic` and `Parallel(n)`
    /// runs, and results/console/poisoning match per unit.
    #[test]
    fn parallel_runs_match_deterministic(
        sizes in proptest::collection::vec(1u32..2_000, 1..6),
        workers in 1usize..5,
        quantum in 50u32..800,
        slice in 100u64..2_000,
    ) {
        let arith = r#"
            class Arith {
                static int spin(int n) {
                    int acc = 3;
                    for (int i = 0; i < n; i++) {
                        acc = acc * 31 + i;
                        if (acc > 100000) acc = acc % 9973;
                    }
                    return acc;
                }
            }
        "#;
        let programs: Vec<UnitSpec> = sizes
            .iter()
            .map(|&n| program(arith, "Arith", "spin", vec![n as i32]))
            .collect();
        let scenario = Scenario::new(&programs, quantum, slice);
        for lane in Lane::heavy(Heavy::SchedSets) {
            let oracle = run_scenario(lane, &scenario, SchedulerKind::Deterministic).units;
            let parallel = run_scenario(lane, &scenario, SchedulerKind::Parallel(workers)).units;
            prop_assert_eq!(oracle, parallel, "{}", lane);
        }
    }
}
