//! The differential lane table and the harness every cross-configuration
//! suite shares.
//!
//! I-JVM's contract is that no configuration changes what a program
//! does: results, console, vclock, migrations and exact per-isolate CPU
//! are the same under either engine, either isolation mode, either
//! scheduler, with the flight recorder on or off, and whether the
//! collector runs at its default pace or at every allocation. A [`Lane`]
//! is one such configuration, and [`TABLE`] lists the lanes the suites
//! run (differential testing in McKeeman's sense: the same input through
//! configurations that must agree).
//!
//! * A cheap test runs every selected lane ([`Lane::all`]). A suite that
//!   runs every scheduler mode itself runs [`Lane::configs`], where a
//!   `parallel` lane folds into its `threaded` twin.
//! * A heavy test runs the subset its [`Heavy`] tag marks in the table
//!   ([`Lane::heavy`]). Together the subsets cover every lane.
//! * `IJVM_DIFF_ENGINE` (`raw`, `threaded`, `parallel`),
//!   `IJVM_DIFF_ISOLATION` (`shared`, `isolated`) and `IJVM_DIFF_TRACE`
//!   (`off`, `full`) filter the table; any other value panics. Under a
//!   filter a heavy test runs every selected lane and every lane runs
//!   all worker counts ([`Lane::modes`]), so a CI matrix of filters runs
//!   the whole cross product, each lane in one job.
//!
//! Each suite prints the table once, to stderr.

// Each suite uses its own part of the harness.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Mutex, Once};

use ijvm_core::prelude::*;
use ijvm_minijava::{compile_to_bytes, CompileEnv};

/// What executes the guest code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The raw byte interpreter: the oracle.
    Raw,
    /// The pre-decoded direct-threaded engine (the default), run by a
    /// plain `Vm::run`.
    Threaded,
    /// The threaded engine run as one unit of a two-worker work-stealing
    /// cluster, so it crosses many slice boundaries and may change
    /// workers between them.
    Parallel,
}

/// When the collector runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gc {
    /// The default pacing.
    Default,
    /// `gc_threshold_bytes = 0`: every checked allocation collects first,
    /// so a reference held without a root is freed, and its slot reused,
    /// at the next allocation.
    Stress,
}

/// One configuration every suite must observe identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lane {
    pub engine: Engine,
    pub isolation: IsolationMode,
    /// The flight recorder on (`TraceConfig::Full`).
    pub trace: bool,
    pub gc: Gc,
}

/// Tests too slow to run in every lane of a plain `cargo test`. Each runs
/// the lanes whose rows list it ([`Lane::heavy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Heavy {
    /// `engine_differential::random_programs_agree_across_engines`.
    Programs,
    /// `port_scaling`'s three 256-unit topologies (about 10 s per lane in
    /// a debug build).
    Topologies,
    /// `port_messaging::random_ping_pong_matches_across_modes`.
    PingPong,
    /// `sched_parallel::parallel_runs_match_deterministic`.
    SchedSets,
}

/// One row of the lane table.
pub struct Row {
    pub lane: Lane,
    pub heavy: &'static [Heavy],
}

const fn row(
    engine: Engine,
    isolation: IsolationMode,
    trace: bool,
    gc: Gc,
    heavy: &'static [Heavy],
) -> Row {
    Row {
        lane: Lane {
            engine,
            isolation,
            trace,
            gc,
        },
        heavy,
    }
}

use Engine::{Parallel, Raw, Threaded};
use Heavy::{PingPong, Programs, SchedSets, Topologies};
use IsolationMode::{Isolated, Shared};

/// The lane table. The first row is the default configuration.
///
/// The stress rows leave out one test of another suite:
/// `wire_codec::decode_time_is_linear_in_object_count` times a decode,
/// and under stress every allocation re-marks the live set, so the
/// decode is quadratic by construction.
#[rustfmt::skip]
pub const TABLE: &[Row] = &[
    //  engine    isolation trace  gc           heavy tests
    row(Threaded, Isolated, false, Gc::Default, &[Programs, Topologies, PingPong, SchedSets]),
    row(Threaded, Shared,   false, Gc::Default, &[PingPong]),
    row(Parallel, Isolated, false, Gc::Default, &[Programs]),
    row(Parallel, Shared,   false, Gc::Default, &[PingPong]),
    row(Threaded, Isolated, true,  Gc::Default, &[SchedSets]),
    row(Threaded, Shared,   true,  Gc::Default, &[PingPong]),
    row(Parallel, Isolated, true,  Gc::Default, &[SchedSets]),
    row(Raw,      Isolated, true,  Gc::Default, &[PingPong]),
    row(Threaded, Isolated, false, Gc::Stress,  &[PingPong]),
    row(Raw,      Isolated, false, Gc::Stress,  &[PingPong]),
];

impl Lane {
    /// The default configuration: threaded, isolated, untraced, default
    /// pacing.
    pub const DEFAULT: Lane = TABLE[0].lane;

    /// The raw oracle for `isolation`: untraced, default pacing.
    pub fn oracle(isolation: IsolationMode) -> Lane {
        Lane {
            engine: Raw,
            isolation,
            trace: false,
            gc: Gc::Default,
        }
    }

    /// Every lane the environment selects.
    pub fn all() -> Vec<Lane> {
        print_table_once();
        TABLE
            .iter()
            .map(|r| r.lane)
            .filter(|l| l.selected())
            .collect()
    }

    /// The selected lanes that differ in their VM options, for suites
    /// that run every scheduler mode themselves: a `parallel` lane folds
    /// into its `threaded` twin, or stands for it when a filter selects
    /// only `parallel`.
    pub fn configs() -> Vec<Lane> {
        let mut out: Vec<Lane> = Vec::new();
        for lane in Lane::all() {
            if !out.iter().any(|l| l.config() == lane.config()) {
                out.push(lane);
            }
        }
        out
    }

    /// The lanes `heavy` runs: those whose rows list it, or every
    /// selected lane under a filter. A test that runs every scheduler
    /// mode itself takes [`Lane::configs`], and a row it is listed on
    /// stands for its configuration, so a `parallel` row names the run
    /// of its `threaded` twin.
    pub fn heavy(heavy: Heavy) -> Vec<Lane> {
        let folds = heavy != Heavy::Programs;
        let lanes = if folds { Lane::configs() } else { Lane::all() };
        if filtered() {
            return lanes;
        }
        let listed = |l: &Lane| {
            TABLE.iter().any(|r| {
                r.heavy.contains(&heavy)
                    && if folds {
                        r.lane.config() == l.config()
                    } else {
                        r.lane == *l
                    }
            })
        };
        lanes.into_iter().filter(listed).collect()
    }

    /// The same lane with the recorder off and default pacing: what a
    /// stressed run must match.
    pub fn plain(self) -> Lane {
        Lane {
            trace: false,
            gc: Gc::Default,
            ..self
        }
    }

    /// The scheduler modes a cluster suite runs the lane in: the
    /// deterministic oracle, then the parallel scheduler at 1, 2 and 4
    /// workers in the default lane or under a filter, and at 2 workers
    /// elsewhere. The worker count is a scheduler setting, independent
    /// of what a lane varies, so crossing it with every lane in a plain
    /// `cargo test` would only repeat the default lane's check.
    pub fn modes(self) -> Vec<SchedulerKind> {
        let workers: &[usize] = if self == Lane::DEFAULT || filtered() {
            &[1, 2, 4]
        } else {
            &[2]
        };
        let parallel = workers.iter().map(|&w| SchedulerKind::Parallel(w));
        std::iter::once(SchedulerKind::Deterministic)
            .chain(parallel)
            .collect()
    }

    /// What the lane's VM options depend on.
    fn config(self) -> (EngineKind, IsolationMode, bool, Gc) {
        (self.kind(), self.isolation, self.trace, self.gc)
    }

    /// The engine the VM is built with.
    pub fn kind(self) -> EngineKind {
        match self.engine {
            Raw => EngineKind::Raw,
            Threaded | Parallel => EngineKind::Threaded,
        }
    }

    /// The lane's VM options at `quantum`.
    pub fn options(self, quantum: u32) -> VmOptions {
        let mut options = match self.isolation {
            Shared => VmOptions::shared(),
            Isolated => VmOptions::isolated(),
        }
        .with_engine(self.kind());
        options.quantum = quantum;
        if self.trace {
            options.trace = TraceConfig::Full;
        }
        if self.gc == Gc::Stress {
            options.gc_threshold_bytes = 0;
        }
        options
    }

    fn selected(self) -> bool {
        filter(
            "IJVM_DIFF_ENGINE",
            &[("raw", Raw), ("threaded", Threaded), ("parallel", Parallel)],
            self.engine,
        ) && filter(
            "IJVM_DIFF_ISOLATION",
            &[("shared", Shared), ("isolated", Isolated)],
            self.isolation,
        ) && filter(
            "IJVM_DIFF_TRACE",
            &[("off", false), ("full", true)],
            self.trace,
        )
    }
}

impl std::fmt::Display for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let engine = match self.engine {
            Raw => "raw",
            Threaded => "threaded",
            Parallel => "parallel",
        };
        let isolation = match self.isolation {
            Shared => "shared",
            Isolated => "isolated",
        };
        write!(f, "{engine}/{isolation}")?;
        if self.trace {
            f.write_str("/traced")?;
        }
        if self.gc == Gc::Stress {
            f.write_str("/stress")?;
        }
        Ok(())
    }
}

const FILTERS: [&str; 3] = ["IJVM_DIFF_ENGINE", "IJVM_DIFF_ISOLATION", "IJVM_DIFF_TRACE"];

/// Whether `var` lets `actual` through; an unknown value panics.
fn filter<T: PartialEq + Copy>(var: &str, values: &[(&str, T)], actual: T) -> bool {
    match std::env::var(var) {
        Ok(v) if !v.is_empty() => match values.iter().find(|(name, _)| *name == v) {
            Some(&(_, want)) => want == actual,
            None => panic!("bad {var} {v:?}"),
        },
        _ => true,
    }
}

fn filtered() -> bool {
    FILTERS
        .iter()
        .any(|var| std::env::var(var).is_ok_and(|v| !v.is_empty()))
}

/// Prints the table to stderr once per suite. It writes to the stream
/// directly, past the test harness's output capture.
fn print_table_once() {
    static PRINTED: Once = Once::new();
    PRINTED.call_once(|| {
        let mut out = String::from("lane table (* = selected; heavy tests in brackets):\n");
        for r in TABLE {
            let mark = if r.lane.selected() { '*' } else { ' ' };
            out.push_str(&format!(
                "  {mark} {:<26} {:?}\n",
                r.lane.to_string(),
                r.heavy
            ));
        }
        let _ = std::io::stderr().write_all(out.as_bytes());
    });
}

// ---------------------------------------------------------------------
// Building and observing units
// ---------------------------------------------------------------------

/// One unit of a scenario: a mini-Java program and its `(I)I` entry
/// threads.
pub struct UnitSpec {
    pub src: String,
    pub entry: &'static str,
    pub method: &'static str,
    /// One entry thread per element, each with this argument.
    pub thread_args: Vec<i32>,
}

/// Compiled classes: `(name, class-file bytes)`.
type Classes = Vec<(String, Vec<u8>)>;

/// Classes compiled once per distinct source: a 256-unit topology reuses
/// a handful of programs, and recompiling them per unit would dominate
/// its suite's runtime.
fn classes_for(src: &str) -> Classes {
    static CLASSES: Mutex<BTreeMap<String, Classes>> = Mutex::new(BTreeMap::new());
    let mut cache = CLASSES.lock().unwrap();
    cache
        .entry(src.to_owned())
        .or_insert_with(|| compile_to_bytes(src, &CompileEnv::new()).unwrap())
        .clone()
}

/// Boots a VM, loads `spec` into one isolate and spawns its entry
/// threads; nothing runs yet.
pub fn build_vm(spec: &UnitSpec, options: VmOptions) -> (Vm, Vec<ThreadId>) {
    let mut vm = ijvm_jsl::boot(options);
    let iso = vm.create_isolate("unit");
    let loader = vm.loader_of(iso).unwrap();
    for (name, bytes) in classes_for(&spec.src) {
        vm.add_class_bytes(loader, &name, bytes);
    }
    let class = vm.load_class(loader, spec.entry).unwrap();
    let index = vm.class(class).find_method(spec.method, "(I)I").unwrap();
    let mref = MethodRef { class, index };
    let tids = spec
        .thread_args
        .iter()
        .map(|&n| {
            vm.spawn_thread("entry", mref, vec![Value::Int(n)], iso)
                .unwrap()
        })
        .collect();
    (vm, tids)
}

/// A unit exporting `echo` (`x * 3 + 7`); it prints `echo up` once
/// exported.
pub fn echo_server() -> UnitSpec {
    UnitSpec {
        src: r#"
            class Echo {
                int handle(int x) { return x * 3 + 7; }
            }
            class Boot {
                static int start(int n) {
                    Service.export("echo", new Echo());
                    println("echo up");
                    return n;
                }
            }
        "#
        .to_owned(),
        entry: "Boot",
        method: "start",
        thread_args: vec![1],
    }
}

/// A unit calling `echo` `calls` times and returning the sum of the
/// replies; it prints every 16th call.
pub fn pinging_client(calls: i32) -> UnitSpec {
    UnitSpec {
        src: r#"
            class Client {
                static int drive(int n) {
                    int acc = 0;
                    for (int i = 0; i < n; i++) {
                        acc += Service.call("echo", i);
                        if (i % 16 == 0) println("ping " + i);
                    }
                    return acc;
                }
            }
        "#
        .to_owned(),
        entry: "Client",
        method: "drive",
        thread_args: vec![calls],
    }
}

/// Everything compared between configurations for one finished VM.
#[derive(Debug, PartialEq)]
pub struct Observed {
    pub results: Vec<Result<Option<String>, String>>,
    pub outcome: RunOutcome,
    pub vclock: u64,
    pub migrations: u64,
    pub console: Vec<String>,
    pub cpu_exact: Vec<u64>,
    pub cpu_sampled: Vec<u64>,
    pub allocated_objects: Vec<u64>,
}

impl Observed {
    /// Observes `vm` after a run that ended with `outcome`, reading the
    /// outcome of each thread in `tids`.
    pub fn of(vm: &mut Vm, outcome: RunOutcome, tids: &[ThreadId]) -> Observed {
        let snaps = vm.metrics().isolates;
        Observed {
            results: tids
                .iter()
                .map(|&tid| {
                    vm.thread_outcome(tid)
                        .map(|v| v.map(|v| v.to_string()))
                        .map_err(|e| e.to_string())
                })
                .collect(),
            outcome,
            vclock: vm.vclock(),
            migrations: vm.migrations(),
            console: vm.take_console(),
            cpu_exact: snaps.iter().map(|s| s.stats.cpu_exact).collect(),
            cpu_sampled: snaps.iter().map(|s| s.stats.cpu_sampled).collect(),
            allocated_objects: snaps.iter().map(|s| s.stats.allocated_objects).collect(),
        }
    }
}

/// Observes every unit of a finished cluster run; `tids[u]` are unit
/// `u`'s entry threads. The cluster aggregate, fed only by worker
/// buffers draining at migration points, must equal each VM's exact
/// counters.
pub fn observe_cluster(outcome: &mut ClusterOutcome, tids: &[Vec<ThreadId>]) -> Vec<Observed> {
    let accounts = &outcome.accounts;
    let mut observed = Vec::new();
    for (u, unit) in outcome.units.iter_mut().enumerate() {
        let report = unit.report;
        assert_eq!(report.id.index() as usize, u, "units indexed by UnitId");
        let o = Observed::of(&mut unit.vm, report.outcome, &tids[u]);
        let aggregate: Vec<u64> = (0..o.cpu_exact.len())
            .map(|i| accounts.cpu_exact(report.id, IsolateId(i as u16)))
            .collect();
        assert_eq!(
            aggregate, o.cpu_exact,
            "unit {u}: cluster aggregate diverged from in-VM exact CPU"
        );
        observed.push(o);
    }
    observed
}

// ---------------------------------------------------------------------
// Cluster scenarios
// ---------------------------------------------------------------------

/// A set of units run together in one cluster.
pub struct Scenario<'a> {
    pub specs: &'a [UnitSpec],
    pub quantum: u32,
    pub slice: u64,
    /// Per-unit mailbox quota `(messages, bytes)`.
    pub quota: Option<(u32, u64)>,
    /// Deterministic mid-run kills: `(unit index, isolate, unit vclock)`.
    pub kills: &'a [(usize, IsolateId, u64)],
}

impl<'a> Scenario<'a> {
    pub fn new(specs: &'a [UnitSpec], quantum: u32, slice: u64) -> Scenario<'a> {
        Scenario {
            specs,
            quantum,
            slice,
            quota: None,
            kills: &[],
        }
    }
}

/// What one cluster run of a scenario left.
pub struct Run {
    pub units: Vec<Observed>,
    /// The aggregate metrics, when the run was traced.
    pub metrics: Option<ClusterMetrics>,
    pub hub_stats: HubStats,
    pub slices: Vec<u64>,
}

/// Runs `scenario` in `lane` under `kind`.
pub fn run_scenario(lane: Lane, scenario: &Scenario, kind: SchedulerKind) -> Run {
    let mut builder = Cluster::builder().scheduler(kind).slice(scenario.slice);
    if let Some((msgs, bytes)) = scenario.quota {
        builder = builder.mailbox_quota(msgs, bytes);
    }
    let mut cluster = builder.build();
    let mut handles: Vec<UnitHandle> = Vec::new();
    let mut tids = Vec::new();
    for spec in scenario.specs {
        let (vm, unit_tids) = build_vm(spec, lane.options(scenario.quantum));
        handles.push(cluster.submit(vm));
        tids.push(unit_tids);
    }
    for &(u, iso, at_vclock) in scenario.kills {
        handles[u].terminate_at(iso, at_vclock);
    }
    let mut outcome = cluster.run();
    assert_eq!(
        outcome.units.len(),
        scenario.specs.len(),
        "every unit must finish"
    );
    let slices = outcome.units.iter().map(|u| u.report.slices).collect();
    Run {
        units: observe_cluster(&mut outcome, &tids),
        metrics: outcome.metrics,
        hub_stats: outcome.hub_stats,
        slices,
    }
}

/// Runs `scenario` in `lane` under the deterministic oracle, traced so
/// its metrics can be asserted, and in the lane's other modes
/// ([`Lane::modes`]) in its own trace setting: every unit's
/// observations must be identical. A stress lane must also match its
/// plain twin. Returns the oracle's run.
pub fn assert_modes_agree(lane: Lane, scenario: &Scenario) -> Run {
    let oracle = run_scenario(
        Lane {
            trace: true,
            ..lane
        },
        scenario,
        SchedulerKind::Deterministic,
    );
    for kind in lane.modes().into_iter().skip(1) {
        let parallel = run_scenario(lane, scenario, kind);
        assert_eq!(
            oracle.units, parallel.units,
            "{lane}: {kind:?} diverged from the deterministic oracle"
        );
    }
    if lane.gc == Gc::Stress {
        let plain = run_scenario(lane.plain(), scenario, SchedulerKind::Deterministic);
        assert_eq!(
            oracle.units,
            plain.units,
            "{lane}: diverged from {}",
            lane.plain()
        );
    }
    oracle
}

/// The isolated lanes of `lanes`: isolate termination and exact
/// accounting exist only there.
pub fn isolated(lanes: Vec<Lane>) -> Vec<Lane> {
    lanes
        .into_iter()
        .filter(|l| l.isolation == Isolated)
        .collect()
}
