//! Scaling differential tests for the sharded `PortHub`: downsized
//! 256-unit topologies (fan-in flood, all-to-all ping cliques, a
//! revocation storm landing on a saturated fixpoint) asserted
//! bit-identical across the deterministic oracle and the parallel
//! work-stealing scheduler at 1, 2 and 4 workers.
//!
//! The corpus is built so that every guest-visible observation is
//! *commutative* over message arrival order: handlers are pure
//! functions of their payload, counters only ever accumulate, and each
//! mailbox with more than one producer carries no order-sensitive
//! state. Arrival interleaving into an MPSC ring differs between
//! scheduler modes by design — what must not differ is any result,
//! console line, vclock or exact CPU charge, and that is exactly what
//! these tests pin down at a unit count where the sharded registry,
//! the per-unit rings and the batched wake sweeps are all exercised
//! across every shard.
//!
//! Crosses with the CI differential matrix via `IJVM_DIFF_ENGINE` /
//! `IJVM_DIFF_ISOLATION` exactly like `port_messaging.rs`, and runs
//! standalone as the CI `scaling` job under the parallel scheduler.

use std::collections::BTreeMap;

use ijvm_core::engine::EngineKind;
use ijvm_core::prelude::*;
use ijvm_core::sched::UnitHandle;
use ijvm_minijava::{compile_to_bytes, CompileEnv};

fn engine_lane() -> (EngineKind, bool) {
    match std::env::var("IJVM_DIFF_ENGINE").as_deref() {
        Ok("threaded") | Ok("parallel") => (EngineKind::Threaded, true),
        Ok("threaded-nofuse") | Ok("parallel-nofuse") => (EngineKind::Threaded, false),
        Ok("raw") => (EngineKind::Raw, true),
        Ok(other) if !other.is_empty() => panic!("bad IJVM_DIFF_ENGINE {other:?}"),
        _ => (EngineKind::Threaded, true),
    }
}

fn isolation_lane() -> IsolationMode {
    match std::env::var("IJVM_DIFF_ISOLATION").as_deref() {
        Ok("shared") => IsolationMode::Shared,
        Ok("isolated") => IsolationMode::Isolated,
        Ok(other) if !other.is_empty() => panic!("bad IJVM_DIFF_ISOLATION {other:?}"),
        _ => IsolationMode::Isolated,
    }
}

fn lane_options(quantum: u32, trace: bool) -> VmOptions {
    let (engine, fuse) = engine_lane();
    let mut options = match isolation_lane() {
        IsolationMode::Shared => VmOptions::shared(),
        IsolationMode::Isolated => VmOptions::isolated(),
    }
    .with_engine(engine)
    .with_superinstructions(fuse);
    options.quantum = quantum;
    if trace {
        options.trace = TraceConfig::Full;
    }
    options
}

/// One unit of a scenario: a minijava program with `(I)I` entry threads.
struct UnitSpec {
    src: String,
    entry: &'static str,
    method: &'static str,
    thread_args: Vec<i32>,
}

/// Classes compiled once per distinct source — at 256 units a topology
/// reuses a handful of programs, and recompiling them per unit would
/// dominate the suite's runtime.
#[derive(Default)]
struct CompileCache {
    classes: BTreeMap<String, Vec<(String, Vec<u8>)>>,
}

impl CompileCache {
    fn classes_for(&mut self, src: &str) -> &[(String, Vec<u8>)] {
        self.classes
            .entry(src.to_owned())
            .or_insert_with(|| compile_to_bytes(src, &CompileEnv::new()).unwrap())
    }
}

fn build_vm(
    cache: &mut CompileCache,
    spec: &UnitSpec,
    quantum: u32,
    trace: bool,
) -> (Vm, Vec<ThreadId>) {
    let mut vm = ijvm_jsl::boot(lane_options(quantum, trace));
    let iso = vm.create_isolate("unit");
    let loader = vm.loader_of(iso).unwrap();
    for (name, bytes) in cache.classes_for(&spec.src) {
        vm.add_class_bytes(loader, name, bytes.clone());
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

/// Everything compared across scheduler modes for one finished unit.
#[derive(Debug, PartialEq)]
struct Observed {
    results: Vec<Result<Option<String>, String>>,
    outcome: RunOutcome,
    vclock: u64,
    console: Vec<String>,
    cpu_exact: Vec<u64>,
    aggregate_cpu: Vec<u64>,
}

/// Runs a scenario under `kind`, returning per-unit observations, the
/// aggregate metrics when tracing is on, and the end-of-run hub
/// snapshot.
fn run_scenario(
    specs: &[UnitSpec],
    kind: SchedulerKind,
    quantum: u32,
    slice: u64,
    quota: Option<(u32, u64)>,
    trace: bool,
    kills: &[(usize, IsolateId, u64)],
) -> (Vec<Observed>, Option<ClusterMetrics>, HubStats, Vec<u64>) {
    let mut builder = Cluster::builder().scheduler(kind).slice(slice);
    if let Some((msgs, bytes)) = quota {
        builder = builder.mailbox_quota(msgs, bytes);
    }
    let mut cluster = builder.build();
    let mut cache = CompileCache::default();
    let mut handles: Vec<UnitHandle> = Vec::new();
    let mut tids = Vec::new();
    for spec in specs {
        let (vm, unit_tids) = build_vm(&mut cache, spec, quantum, trace);
        handles.push(cluster.submit(vm));
        tids.push(unit_tids);
    }
    for &(u, iso, at_vclock) in kills {
        handles[u].terminate_at(iso, at_vclock);
    }
    let mut outcome = cluster.run();
    assert_eq!(outcome.units.len(), specs.len(), "every unit must finish");
    let accounts = &outcome.accounts;
    let mut observed = Vec::new();
    let mut slices = Vec::new();
    for (u, unit_outcome) in outcome.units.iter_mut().enumerate() {
        let report = unit_outcome.report;
        slices.push(report.slices);
        let vm = &mut unit_outcome.vm;
        let snaps = vm.metrics().isolates;
        observed.push(Observed {
            results: tids[u]
                .iter()
                .map(|&tid| {
                    vm.thread_outcome(tid)
                        .map(|v| v.map(|v| v.to_string()))
                        .map_err(|e| e.to_string())
                })
                .collect(),
            outcome: report.outcome,
            vclock: vm.vclock(),
            console: vm.take_console(),
            cpu_exact: snaps.iter().map(|s| s.stats.cpu_exact).collect(),
            aggregate_cpu: (0..vm.isolate_count())
                .map(|i| accounts.cpu_exact(report.id, IsolateId(i as u16)))
                .collect(),
        });
    }
    (observed, outcome.metrics, outcome.hub_stats, slices)
}

/// Runs a scenario under the oracle and every worker count, asserting
/// bit-identical observations, and returns the oracle's observations
/// plus its (traced) metrics for schedule-*independent* assertions.
fn assert_modes_agree(
    specs: &[UnitSpec],
    quantum: u32,
    slice: u64,
    quota: Option<(u32, u64)>,
    kills: &[(usize, IsolateId, u64)],
) -> (Vec<Observed>, ClusterMetrics) {
    let (oracle, metrics, _, _) = run_scenario(
        specs,
        SchedulerKind::Deterministic,
        quantum,
        slice,
        quota,
        true,
        kills,
    );
    for (u, o) in oracle.iter().enumerate() {
        assert_eq!(
            o.aggregate_cpu, o.cpu_exact,
            "unit {u}: cluster aggregate diverged from in-VM exact CPU"
        );
    }
    for workers in [1usize, 2, 4] {
        let (parallel, _, _, _) = run_scenario(
            specs,
            SchedulerKind::Parallel(workers),
            quantum,
            slice,
            quota,
            false,
            kills,
        );
        assert_eq!(
            oracle, parallel,
            "Parallel({workers}) diverged from the deterministic oracle"
        );
    }
    (oracle, metrics.expect("oracle ran with tracing on"))
}

/// A flooder for the fan-in topology: a blocking handshake (so the
/// flood hits quota admission, not the unresolved path), then `n`
/// fire-and-forget oneways.
fn fan_in_flooder(n: i32) -> UnitSpec {
    UnitSpec {
        src: r#"
            class Flooder {
                static int drive(int n) {
                    int ack = Service.call("sink", 0 - 1);
                    for (int i = 0; i < n; i++) {
                        Port.send("sink", i);
                    }
                    return n + ack;
                }
            }
        "#
        .to_owned(),
        entry: "Flooder",
        method: "drive",
        thread_args: vec![n],
    }
}

/// 255 flooders against one sink: the deepest fan-in the downsized
/// corpus exercises. The sink's state is purely accumulative (a served
/// counter and one milestone line at the exact total), so arrival
/// interleaving — which *does* differ across modes at 255 concurrent
/// producers on one MPSC ring — cannot leak into any observation.
#[test]
fn fan_in_flood_256_units_across_modes() {
    let clients = 255usize;
    let per_client = 3i32;
    let total = clients as i64 * per_client as i64;
    let sink = UnitSpec {
        src: format!(
            r#"
            class Sink {{
                static int served;
                int handle(int x) {{
                    if (x < 0) return 7;
                    Sink.served += 1;
                    if (Sink.served == {total}) println("served " + Sink.served);
                    return 0;
                }}
            }}
            class Boot {{
                static int start(int n) {{
                    Service.export("sink", new Sink());
                    return n;
                }}
            }}
            "#
        ),
        entry: "Boot",
        method: "start",
        thread_args: vec![1],
    };
    let mut specs = vec![sink];
    specs.extend((0..clients).map(|_| fan_in_flooder(per_client)));
    let (oracle, metrics) = assert_modes_agree(&specs, 2_000, 4_000, Some((8, 1 << 20)), &[]);
    for c in 0..clients {
        assert_eq!(
            oracle[1 + c].results[0],
            Ok(Some((per_client as i64 + 7).to_string())),
            "flooder {c} completed its handshake and flood"
        );
    }
    assert_eq!(
        oracle[0].console,
        vec![format!("served {total}")],
        "the sink served every flooded message"
    );
    assert_eq!(metrics.totals.oneways_sent, total as u64);
    assert_eq!(
        metrics.totals.calls_served,
        total as u64 + clients as u64,
        "every oneway plus one handshake per flooder"
    );
    assert!(
        metrics.totals.mailbox_high_water <= 8 + clients as u64,
        "fan-in stayed bounded (high water {})",
        metrics.totals.mailbox_high_water
    );
}

/// 256 units in 16 all-to-all cliques of 16: every unit exports its own
/// service and calls each clique peer exactly once, with unit identity
/// flowing through the thread argument so one program serves all 256
/// units. Exercises every registry shard (the names `ping0`..`ping255`
/// hash across all of them), the unresolved-request path (calls race
/// peers' exports), and blocking round trips in both directions at
/// once.
#[test]
fn all_to_all_ping_cliques_256_units_across_modes() {
    let units = 256usize;
    let clique = 16usize;
    let spec_for = |u: usize| UnitSpec {
        src: r#"
            class Ping {
                int handle(int x) { return x + 1; }
            }
            class Node {
                static int drive(int u) {
                    Service.export("ping" + u, new Ping());
                    int base = (u / 16) * 16;
                    int acc = 0;
                    for (int v = base; v < base + 16; v++) {
                        if (v != u) acc += Service.call("ping" + v, u);
                    }
                    return acc;
                }
            }
        "#
        .to_owned(),
        entry: "Node",
        method: "drive",
        thread_args: vec![u as i32],
    };
    let specs: Vec<UnitSpec> = (0..units).map(spec_for).collect();
    let (oracle, metrics) = assert_modes_agree(&specs, 2_000, 4_000, None, &[]);
    for (u, o) in oracle.iter().enumerate() {
        // Each of the 15 peers echoes back u + 1.
        let expect = (clique as i64 - 1) * (u as i64 + 1);
        assert_eq!(
            o.results[0],
            Ok(Some(expect.to_string())),
            "unit {u} pinged its whole clique"
        );
    }
    let calls = (units * (clique - 1)) as u64;
    assert_eq!(metrics.totals.calls_sent, calls);
    assert_eq!(metrics.totals.calls_served, calls);
}

/// A client that saturates its partner server then blocks inside it: a
/// handshake, a quota-parked oneway flood, then a `stall` call whose
/// handler blocks the server's pump forever. Each client/server pair is
/// independent (single producer per mailbox), so the whole 128-pair
/// system converges to a deterministic fixpoint — which is what lets a
/// mid-run kill land bit-identically in every mode.
fn pair_client(pair: usize, flood: i32) -> UnitSpec {
    UnitSpec {
        src: format!(
            r#"
            class Client {{
                static int drive(int n) {{
                    int ack = Service.call("echo{pair}", 0 - 1);
                    for (int i = 0; i < n; i++) {{
                        Port.send("echo{pair}", i);
                    }}
                    return ack + Service.call("echo{pair}", 0 - 2);
                }}
            }}
            "#
        ),
        entry: "Client",
        method: "drive",
        thread_args: vec![flood],
    }
}

fn pair_server(pair: usize) -> UnitSpec {
    UnitSpec {
        src: format!(
            r#"
            class Echo {{
                int handle(int x) {{
                    if (x == 0 - 1) return 0;
                    if (x == 0 - 2) return Service.call("gone", x);
                    return x;
                }}
            }}
            class Boot {{
                static int start(int n) {{
                    Service.export("echo{pair}", new Echo());
                    return n;
                }}
            }}
            "#
        ),
        entry: "Boot",
        method: "start",
        thread_args: vec![1],
    }
}

/// The revocation storm: 128 saturated client/server pairs converge to
/// their blocked fixpoint (client parked inside a `stall` call, server
/// pump parked on a service nobody exports), then 64 server isolates
/// are terminated at once, and one more at cluster stall. Every
/// revocation must fail its client's in-flight call back
/// deterministically; the untouched pairs must stay at their fixpoint —
/// bit-identically in every scheduler mode.
#[test]
fn revocation_storm_during_saturation_across_modes() {
    if isolation_lane() == IsolationMode::Shared {
        return; // no isolate termination in the shared lane
    }
    let pairs = 128usize;
    let flood = 4i32;
    let mut specs: Vec<UnitSpec> = Vec::new();
    for p in 0..pairs {
        specs.push(pair_server(p));
        specs.push(pair_client(p, flood));
    }
    // Every server converges to the same vclock: the pairs differ only
    // in a service name, and each server's mailbox has one producer. A
    // server reaches that vclock only at its blocked fixpoint, so a kill
    // aimed there lands at the fixpoint in every mode. One pair run
    // alone measures it.
    let quota = Some((2, 1 << 20));
    let (pair, _, _, _) = run_scenario(
        &specs[..2],
        SchedulerKind::Deterministic,
        2_000,
        4_000,
        quota,
        false,
        &[],
    );
    let converged = pair[0].vclock;
    // Kill every even pair's server (unit index 2 * p) there. Pair 1's
    // server is killed one instruction past it, a point it never
    // reaches: that kill lands at cluster stall instead.
    let mut kills: Vec<(usize, IsolateId, u64)> = (0..pairs)
        .step_by(2)
        .map(|p| (2 * p, IsolateId(0), converged))
        .collect();
    kills.push((2, IsolateId(0), converged + 1));
    let (oracle, metrics) = assert_modes_agree(&specs, 2_000, 4_000, quota, &kills);
    for p in 0..pairs {
        let client = &oracle[2 * p + 1];
        if p % 2 == 0 || p == 1 {
            assert!(
                client.results[0].is_err(),
                "pair {p}: the revocation failed the client's in-flight \
                 stall call back, got {:?}",
                client.results[0]
            );
        } else {
            assert_eq!(
                client.outcome,
                RunOutcome::Blocked,
                "pair {p}: untouched pair stays at its blocked fixpoint"
            );
            assert_eq!(
                oracle[2 * p].vclock,
                converged,
                "pair {p}: server converged where the lone pair's did"
            );
        }
    }
    let at_kill = |u: usize| (oracle[u].vclock, &oracle[u].cpu_exact);
    assert_eq!(
        (at_kill(2), at_kill(3)),
        (at_kill(0), at_kill(1)),
        "the stall kill stops pair 1 where the fixpoint kill stops pair 0"
    );
    assert!(
        metrics.totals.quota_parks > 0,
        "the floods saturated the 2-message quota before the storm"
    );
}

/// Satellite fix regression: the end-of-run [`HubStats`] snapshot of a
/// flood frozen mid-flight (the pump blocks forever, the flooder stays
/// quota-parked) must reconcile with the `VmMetrics` counters — the
/// coherent cross-shard collection is what makes `admitted`, `queued`
/// and `parked_senders` mutually consistent instead of torn between
/// shard locks.
#[test]
fn hub_snapshot_reconciles_with_metrics_mid_flood() {
    let quota = 4u32;
    let specs = vec![
        fan_in_flooder(64),
        UnitSpec {
            src: r#"
                class Sink {
                    int handle(int x) {
                        if (x < 0) return 7;
                        return Service.call("gone", x);
                    }
                }
                class Boot {
                    static int start(int n) {
                        Service.export("sink", new Sink());
                        return n;
                    }
                }
            "#
            .to_owned(),
            entry: "Boot",
            method: "start",
            thread_args: vec![1],
        },
    ];
    let (oracle, metrics, stats, _) = run_scenario(
        &specs,
        SchedulerKind::Deterministic,
        2_000,
        4_000,
        Some((quota, 1 << 20)),
        true,
        &[],
    );
    let metrics = metrics.expect("traced run");
    assert_eq!(oracle[0].outcome, RunOutcome::Blocked, "flooder parked");
    assert_eq!(oracle[1].outcome, RunOutcome::Blocked, "pump blocked");
    // The sink's pump blocked on `gone` before serving any flood
    // message, so the snapshot freezes the flood at full quota: the
    // admitted window is exactly `quota` and the flooder is parked.
    let sink = stats
        .mailboxes
        .iter()
        .find(|m| m.unit == 1)
        .expect("the sink's mailbox is mid-flood, so its row is live");
    assert_eq!(
        sink.admitted_messages, quota,
        "snapshot admitted window is the full quota"
    );
    assert_eq!(sink.parked_senders, 1, "the flooder's waiter is visible");
    assert!(
        sink.queued <= sink.admitted_messages as usize,
        "queued ({}) cannot exceed the admitted window ({})",
        sink.queued,
        sink.admitted_messages
    );
    assert_eq!(
        stats.unresolved_requests, 1,
        "the pump's `gone` call parks as the only unresolved request"
    );
    // Reconcile with the VM-side counters: every park the metrics saw
    // beyond the unparks is a waiter the snapshot must still show.
    assert_eq!(
        metrics.totals.quota_parks - metrics.totals.quota_unparks,
        sink.parked_senders as u64,
        "outstanding parks (parks {} - unparks {}) match the snapshot",
        metrics.totals.quota_parks,
        metrics.totals.quota_unparks
    );
}
