//! Scaling differential tests for the sharded `PortHub`: downsized
//! 256-unit topologies (fan-in flood, all-to-all ping cliques, a
//! revocation storm landing on a saturated fixpoint) asserted
//! bit-identical across the deterministic oracle and the parallel
//! work-stealing scheduler ([`Lane::modes`]).
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
//! The three topologies are heavy: each runs the lanes the lane table
//! (`tests/common`) lists for [`Heavy::Topologies`], or every
//! selected lane under a filter. The hub snapshot test runs every VM
//! configuration. The CI `scaling` job runs the suite in release under
//! `IJVM_DIFF_ENGINE=parallel`.

mod common;

use common::{assert_modes_agree, isolated, run_scenario, Heavy, Lane, Scenario, UnitSpec};
use ijvm_core::prelude::*;

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
    for lane in Lane::heavy(Heavy::Topologies) {
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
        let scenario = Scenario {
            quota: Some((8, 1 << 20)),
            ..Scenario::new(&specs, 2_000, 4_000)
        };
        let run = assert_modes_agree(lane, &scenario);
        let (oracle, metrics) = (run.units, run.metrics.unwrap());
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
        assert_eq!(metrics.totals.oneways_sent, total as u64, "{lane}");
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
    for lane in Lane::heavy(Heavy::Topologies) {
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
        let run = assert_modes_agree(lane, &Scenario::new(&specs, 2_000, 4_000));
        let (oracle, metrics) = (run.units, run.metrics.unwrap());
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
        assert_eq!(metrics.totals.calls_sent, calls, "{lane}");
        assert_eq!(metrics.totals.calls_served, calls, "{lane}");
    }
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
    for lane in isolated(Lane::heavy(Heavy::Topologies)) {
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
        let pair = Scenario {
            quota,
            ..Scenario::new(&specs[..2], 2_000, 4_000)
        };
        let converged = run_scenario(lane, &pair, SchedulerKind::Deterministic).units[0].vclock;
        // Kill every even pair's server (unit index 2 * p) there. Pair 1's
        // server is killed one instruction past it, a point it never
        // reaches: that kill lands at cluster stall instead.
        let mut kills: Vec<(usize, IsolateId, u64)> = (0..pairs)
            .step_by(2)
            .map(|p| (2 * p, IsolateId(0), converged))
            .collect();
        kills.push((2, IsolateId(0), converged + 1));
        let scenario = Scenario {
            quota,
            kills: &kills,
            ..Scenario::new(&specs, 2_000, 4_000)
        };
        let run = assert_modes_agree(lane, &scenario);
        let (oracle, metrics) = (run.units, run.metrics.unwrap());
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
}

/// Satellite fix regression: the end-of-run [`HubStats`] snapshot of a
/// flood frozen mid-flight (the pump blocks forever, the flooder stays
/// quota-parked) must reconcile with the `VmMetrics` counters — the
/// coherent cross-shard collection is what makes `admitted`, `queued`
/// and `parked_senders` mutually consistent instead of torn between
/// shard locks.
#[test]
fn hub_snapshot_reconciles_with_metrics_mid_flood() {
    for lane in Lane::configs() {
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
        let scenario = Scenario {
            quota: Some((quota, 1 << 20)),
            ..Scenario::new(&specs, 2_000, 4_000)
        };
        let traced = Lane {
            trace: true,
            ..lane
        };
        let run = run_scenario(traced, &scenario, SchedulerKind::Deterministic);
        let (oracle, stats) = (run.units, run.hub_stats);
        let metrics = run.metrics.expect("traced run");
        assert_eq!(
            oracle[0].outcome,
            RunOutcome::Blocked,
            "{lane}: flooder parked"
        );
        assert_eq!(
            oracle[1].outcome,
            RunOutcome::Blocked,
            "{lane}: pump blocked"
        );
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
        assert_eq!(
            sink.parked_senders, 1,
            "{lane}: the flooder's waiter is visible"
        );
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
}
