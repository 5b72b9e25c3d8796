//! Cross-unit messaging differential tests: two-unit (and three-unit)
//! service-call programs must behave bit-identically under the
//! deterministic cluster scheduler (the oracle) and the parallel
//! work-stealing scheduler at any worker count — same per-thread
//! results, console output, virtual clocks, and per-isolate exact CPU
//! **including the sender-pays copy charges**, both in each unit's VM
//! and in the cluster aggregate. The corpus is ping-pong shaped: each
//! mailbox has a single in-flight source at a time, so the message
//! schedule is forced by data dependence and the cross-mode comparison
//! is exact.
//!
//! Every test runs in every VM configuration of the lane table
//! (`tests/common`, [`Lane::configs`]), except the random ping-pong
//! proptest, which is heavy and runs the lanes listed for
//! [`Heavy::PingPong`].

mod common;

use common::{
    assert_modes_agree, echo_server, isolated, pinging_client, run_scenario, Heavy, Lane, Scenario,
    UnitSpec,
};
use ijvm_core::port::MSG_BASE_COST;
use ijvm_core::prelude::*;
use ijvm_minijava::{compile_to_bytes, CompileEnv};
use proptest::prelude::*;

/// Two-unit int ping-pong: the client (submitted *first*, so its opening
/// call exercises the waiting-for-export path) drives the server's
/// `echo` service; results, console, vclock and per-isolate exact CPU —
/// with the sender-pays copy charges — are bit-identical across modes.
#[test]
fn int_ping_pong_matches_across_modes() {
    for lane in Lane::configs() {
        let calls = 48;
        let specs = vec![pinging_client(calls), echo_server()];
        let oracle = assert_modes_agree(lane, &Scenario::new(&specs, 300, 600)).units;
        let expect: i64 = (0..calls as i64).map(|i| i * 3 + 7).sum();
        assert_eq!(
            oracle[0].results[0],
            Ok(Some(expect.to_string())),
            "client computed through the service"
        );
        assert_eq!(oracle[1].outcome, RunOutcome::Idle, "{lane}");
        assert!(oracle[1].console.contains(&"echo up".to_owned()), "{lane}");

        // Sender-pays: in isolated mode the client's exact CPU exceeds its
        // sampled (purely interpreted) CPU by exactly one request charge per
        // call, and the server's by exactly one reply charge per call
        // (an int payload is 5 wire bytes).
        if lane.isolation == IsolationMode::Isolated {
            let per_msg = MSG_BASE_COST + 5;
            let client = &oracle[0];
            assert_eq!(
                client.cpu_exact[0] - client.cpu_sampled[0],
                calls as u64 * per_msg,
                "client pays for its request copies"
            );
            let server = &oracle[1];
            assert_eq!(
                server.cpu_exact[0] - server.cpu_sampled[0],
                calls as u64 * per_msg,
                "server pays for its reply copies"
            );
        }
    }
}

/// Object-graph calls: a cyclic two-node graph crosses the unit
/// boundary in both directions, preserving cycles, with classes
/// resolved by name at the receiver.
#[test]
fn object_graph_round_trip_matches_across_modes() {
    for lane in Lane::configs() {
        let server = UnitSpec {
            src: r#"
                class Pair { Pair other; int v; }
                class Reverse {
                    Object handle(Object o) {
                        Pair p = (Pair) o;
                        Pair q = new Pair();
                        q.v = p.v + p.other.v * 10;
                        q.other = q;
                        return q;
                    }
                }
                class Boot {
                    static int start(int n) {
                        Service.export("rev", new Reverse());
                        return n;
                    }
                }
            "#
            .to_owned(),
            entry: "Boot",
            method: "start",
            thread_args: vec![1],
        };
        let client = UnitSpec {
            src: r#"
                class Pair { Pair other; int v; }
                class Client {
                    static int drive(int n) {
                        int acc = 0;
                        for (int i = 0; i < n; i++) {
                            Pair a = new Pair();
                            Pair b = new Pair();
                            a.v = i;
                            b.v = i + 1;
                            a.other = b;
                            b.other = a;
                            Pair r = (Pair) Service.call("rev", a);
                            acc += r.v;
                            if (r.other == r) acc += 1;
                        }
                        return acc;
                    }
                }
            "#
            .to_owned(),
            entry: "Client",
            method: "drive",
            thread_args: vec![12],
        };
        let oracle = assert_modes_agree(lane, &Scenario::new(&[server, client], 250, 500)).units;
        // Each call returns v = i + (i+1)*10, cycle check adds 1.
        let expect: i64 = (0..12i64).map(|i| i + (i + 1) * 10 + 1).sum();
        assert_eq!(oracle[1].results[0], Ok(Some(expect.to_string())), "{lane}");
    }
}

/// One-way `Port.send` messages are delivered in order ahead of a
/// closing `Service.call` on the same service (one mailbox, one pump,
/// FIFO end to end).
#[test]
fn oneway_sends_are_ordered_before_calls() {
    for lane in Lane::configs() {
        let server = UnitSpec {
            src: r#"
                class Counter {
                    static int ticks;
                    int handle(int x) { ticks = ticks + x; return ticks; }
                }
                class Boot {
                    static int start(int n) {
                        Service.export("tick", new Counter());
                        return n;
                    }
                }
            "#
            .to_owned(),
            entry: "Boot",
            method: "start",
            thread_args: vec![1],
        };
        let client = UnitSpec {
            src: r#"
                class Client {
                    static int drive(int n) {
                        for (int i = 0; i < n; i++) {
                            Port.send("tick", 10);
                        }
                        return Service.call("tick", 1);
                    }
                }
            "#
            .to_owned(),
            entry: "Client",
            method: "drive",
            thread_args: vec![7],
        };
        let oracle = assert_modes_agree(lane, &Scenario::new(&[server, client], 300, 700)).units;
        // All 7 sends land before the call: 7*10 + 1.
        assert_eq!(oracle[1].results[0], Ok(Some("71".to_owned())), "{lane}");
    }
}

/// Three units: one client alternating between two servers — each
/// mailbox still has a single in-flight source, so the schedule stays
/// forced while units genuinely interleave.
#[test]
fn three_unit_pipeline_matches_across_modes() {
    for lane in Lane::configs() {
        let double = UnitSpec {
            src: r#"
                class D { int handle(int x) { return x * 2; } }
                class Boot {
                    static int start(int n) {
                        Service.export("double", new D());
                        return n;
                    }
                }
            "#
            .to_owned(),
            entry: "Boot",
            method: "start",
            thread_args: vec![1],
        };
        let inc = UnitSpec {
            src: r#"
                class I { int handle(int x) { return x + 1; } }
                class Boot {
                    static int start(int n) {
                        Service.export("inc", new I());
                        return n;
                    }
                }
            "#
            .to_owned(),
            entry: "Boot",
            method: "start",
            thread_args: vec![1],
        };
        let client = UnitSpec {
            src: r#"
                class Client {
                    static int drive(int n) {
                        int acc = 1;
                        for (int i = 0; i < n; i++) {
                            acc = Service.call("double", acc) % 65536;
                            acc = Service.call("inc", acc);
                        }
                        return acc;
                    }
                }
            "#
            .to_owned(),
            entry: "Client",
            method: "drive",
            thread_args: vec![20],
        };
        let oracle =
            assert_modes_agree(lane, &Scenario::new(&[client, double, inc], 200, 450)).units;
        let mut acc = 1i64;
        for _ in 0..20 {
            acc = (acc * 2) % 65536;
            acc += 1;
        }
        assert_eq!(oracle[0].results[0], Ok(Some(acc.to_string())), "{lane}");
    }
}

/// Deterministic mid-call termination: the serving isolate is killed —
/// via the vclock-addressed `terminate_at`, the *same* execution point
/// in every scheduler mode — while its handler spins. The caller
/// fails with `ServiceRevokedException`, both sides' exact CPU matches
/// the aggregate, and the whole observation set is bit-identical across
/// modes. Skipped in the shared-isolation lane (no termination there).
#[test]
fn mid_call_termination_revokes_with_exact_cpu() {
    for lane in isolated(Lane::configs()) {
        let server = UnitSpec {
            src: r#"
                class Hog {
                    int handle(int x) {
                        int acc = x;
                        while (true) { acc = acc + 1; }
                        return acc;
                    }
                }
                class Boot {
                    static int start(int n) {
                        Service.export("hog", new Hog());
                        return n;
                    }
                }
            "#
            .to_owned(),
            entry: "Boot",
            method: "start",
            thread_args: vec![1],
        };
        let client = UnitSpec {
            src: r#"
                class Client {
                    static int drive(int n) {
                        return Service.call("hog", n);
                    }
                }
            "#
            .to_owned(),
            entry: "Client",
            method: "drive",
            thread_args: vec![5],
        };
        // The server's workload isolate is its first one. Its export takes
        // about a dozen instructions; past that, its vclock advances only in
        // the handler, which is compute-only once its request lands, so a
        // kill aimed at 1800 lands on the same quantum boundary in every
        // mode, after the handler has spun for at least two full slices.
        let kills = [(0usize, IsolateId(0), 1_800u64)];
        let oracle = assert_modes_agree(
            lane,
            &Scenario {
                kills: &kills,
                ..Scenario::new(&[server, client], 300, 600)
            },
        )
        .units;

        let server_obs = &oracle[0];
        let client_obs = &oracle[1];
        let err = client_obs.results[0].as_ref().unwrap_err();
        assert!(
            err.contains("ServiceRevokedException"),
            "expected ServiceRevokedException at the caller, got {err}"
        );
        // The hog burned real slices before the kill, all charged exactly.
        assert!(
            server_obs.cpu_exact[0] > 1000,
            "handler should have spun before the kill: {:?}",
            server_obs.cpu_exact
        );
        // Sender-pays on the failed call: the client paid for its request
        // copy; no reply payload was ever produced, so the server's exact
        // CPU carries no copy charge at all.
        assert_eq!(
            client_obs.cpu_exact[0] - client_obs.cpu_sampled[0],
            MSG_BASE_COST + 5,
            "client still pays for the request copy of the failed call"
        );
        assert_eq!(
            server_obs.cpu_exact[0], server_obs.cpu_sampled[0],
            "a revoked call produces no reply copy to charge"
        );
    }
}

/// Revocation *before* the request is served fails the mailbox-resident
/// call, and later calls fail fast at the send site; a guest can catch
/// `ServiceRevokedException` and carry on.
#[test]
fn revoked_service_fails_pending_and_future_calls() {
    for lane in isolated(Lane::configs()) {
        let server = echo_server();
        let client = UnitSpec {
            src: r#"
                class Client {
                    static int drive(int n) {
                        int acc = n;
                        try {
                            acc += Service.call("echo", 1);
                        } catch (ServiceRevokedException e) {
                            acc += 1000;
                            println("revoked:pending");
                        }
                        try {
                            acc += Service.call("echo", 2);
                        } catch (ServiceRevokedException e) {
                            acc += 2000;
                            println("revoked:fresh");
                        }
                        return acc;
                    }
                }
            "#
            .to_owned(),
            entry: "Client",
            method: "drive",
            thread_args: vec![5],
        };
        // Kill the server's isolate at the vclock it reaches right after its
        // export, where it sits blocked until mail arrives — measured by
        // running the server alone. The client's first call is already in
        // (or on its way to) the mailbox and is failed there; its second
        // call fails fast at the hub.
        let alone = Scenario::new(std::slice::from_ref(&server), 300, 600);
        let exported = run_scenario(lane, &alone, SchedulerKind::Deterministic).units[0].vclock;
        let kills = [(0usize, IsolateId(0), exported)];
        let oracle = assert_modes_agree(
            lane,
            &Scenario {
                kills: &kills,
                ..Scenario::new(&[server, client], 300, 600)
            },
        )
        .units;
        assert_eq!(oracle[1].results[0], Ok(Some("3005".to_owned())), "{lane}");
        assert_eq!(
            oracle[1].console,
            vec!["revoked:pending".to_owned(), "revoked:fresh".to_owned()]
        );
    }
}

/// `Service.callAt` addresses a specific unit even when several units
/// export the same name (sharding), and `Service.unit()` reports the
/// unit's own address.
#[test]
fn call_at_addresses_units() {
    for lane in Lane::configs() {
        let shard = |bias: i32| UnitSpec {
            src: format!(
                r#"
                class Shard {{
                    int handle(int x) {{ return x + {bias} + Service.unit() * 100; }}
                }}
                class Boot {{
                    static int start(int n) {{
                        Service.export("shard", new Shard());
                        return n;
                    }}
                }}
                "#
            ),
            entry: "Boot",
            method: "start",
            thread_args: vec![1],
        };
        // The addressed calls come first: each waits for its own unit's
        // export, so by the time the bare-name call resolves, *both* shards
        // have exported and "lowest exporting unit" is schedule-independent
        // (a bare-name call racing a still-pending export may resolve to a
        // later unit — use callAt where that matters).
        let client = UnitSpec {
            src: r#"
                class Client {
                    static int drive(int n) {
                        int first = Service.callAt(0, "shard", n);
                        int second = Service.callAt(1, "shard", n);
                        int lowest = Service.call("shard", n);
                        return lowest * 1000000 + first * 1000 + second;
                    }
                }
            "#
            .to_owned(),
            entry: "Client",
            method: "drive",
            thread_args: vec![3],
        };
        let oracle = assert_modes_agree(
            lane,
            &Scenario::new(&[shard(10), shard(20), client], 300, 600),
        )
        .units;
        // unit0: 3+10+0 = 13; unit1: 3+20+100 = 123; bare name → unit0.
        assert_eq!(
            oracle[2].results[0],
            Ok(Some("13013123".to_owned())),
            "{lane}"
        );
    }
}

/// Local (unattached) VMs still serve same-VM `Service.call`s — the
/// pump machinery without any cluster, with the same sender-pays
/// charges across the two isolates.
#[test]
fn unattached_vm_serves_local_calls() {
    for lane in Lane::configs() {
        let mut vm = ijvm_jsl::boot(lane.options(500));
        let server_iso = vm.create_isolate("server");
        let server_loader = vm.loader_of(server_iso).unwrap();
        let server_src = r#"
            class Echo { int handle(int x) { return x + 41; } }
            class Boot {
                static int start(int n) {
                    Service.export("echo", new Echo());
                    return n;
                }
            }
        "#;
        for (name, bytes) in compile_to_bytes(server_src, &CompileEnv::new()).unwrap() {
            vm.add_class_bytes(server_loader, &name, bytes);
        }
        let boot = vm.load_class(server_loader, "Boot").unwrap();
        vm.call_static_as(boot, "start", "(I)I", vec![Value::Int(0)], server_iso)
            .unwrap();

        let client_iso = vm.create_isolate("client");
        let client_loader = vm.loader_of(client_iso).unwrap();
        let client_src = r#"
            class Client {
                static int drive(int n) { return Service.call("echo", n); }
            }
        "#;
        for (name, bytes) in compile_to_bytes(client_src, &CompileEnv::new()).unwrap() {
            vm.add_class_bytes(client_loader, &name, bytes);
        }
        let client = vm.load_class(client_loader, "Client").unwrap();
        let out = vm
            .call_static_as(client, "drive", "(I)I", vec![Value::Int(1)], client_iso)
            .unwrap();
        assert_eq!(out, Some(Value::Int(42)), "{lane}");
    }
}

/// A `StoppedIsolateException` escaping a handler because it called
/// into some *other* terminated isolate must fail only that one call —
/// the service itself is not revoked and keeps serving.
#[test]
fn foreign_isolate_sie_fails_call_without_revoking_service() {
    for lane in isolated(Lane::configs()) {
        let mut vm = ijvm_jsl::boot(lane.options(500));
        let victim_iso = vm.create_isolate("victim");
        let victim_loader = vm.loader_of(victim_iso).unwrap();
        let victim_src = r#"
            class Bad { static int boom(int x) { return x + 100; } }
        "#;
        let victim_classes = compile_to_bytes(victim_src, &CompileEnv::new()).unwrap();
        let mut cenv = CompileEnv::new();
        for (name, bytes) in &victim_classes {
            vm.add_class_bytes(victim_loader, name, bytes.clone());
            let cf = ijvm_classfile::reader::read_class(bytes).unwrap();
            cenv.import_class_file(&cf).unwrap();
        }

        let server_iso = vm.create_isolate("server");
        let server_loader = vm.loader_of(server_iso).unwrap();
        vm.add_loader_delegate(server_loader, victim_loader);
        let server_src = r#"
            class Svc {
                int handle(int x) {
                    if (x == 0) return Bad.boom(x);
                    return x + 5;
                }
            }
            class Boot {
                static int start(int n) {
                    Service.export("svc", new Svc());
                    return n;
                }
            }
        "#;
        for (name, bytes) in compile_to_bytes(server_src, &cenv).unwrap() {
            vm.add_class_bytes(server_loader, &name, bytes);
        }
        let boot = vm.load_class(server_loader, "Boot").unwrap();
        vm.call_static_as(boot, "start", "(I)I", vec![Value::Int(0)], server_iso)
            .unwrap();
        // Warm the poisoned path's class, then kill the victim isolate.
        vm.terminate_isolate(victim_iso).unwrap();

        let client_iso = vm.create_isolate("client");
        let client_loader = vm.loader_of(client_iso).unwrap();
        let client_src = r#"
            class Client {
                static int drive(int n) { return Service.call("svc", n); }
            }
        "#;
        for (name, bytes) in compile_to_bytes(client_src, &CompileEnv::new()).unwrap() {
            vm.add_class_bytes(client_loader, &name, bytes);
        }
        let client = vm.load_class(client_loader, "Client").unwrap();

        // The poisoned path fails that one call (handler failure, not a
        // revocation)...
        let err = vm
            .call_static_as(client, "drive", "(I)I", vec![Value::Int(0)], client_iso)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("StoppedIsolateException") && !err.contains("ServiceRevoked"),
            "expected a handler failure mentioning the foreign SIE, got {err}"
        );
        // ...and the service keeps serving.
        let out = vm
            .call_static_as(client, "drive", "(I)I", vec![Value::Int(7)], client_iso)
            .unwrap();
        assert_eq!(out, Some(Value::Int(12)), "{lane}: service must survive");
    }
}

/// `Vm::retract_service` + re-export replaces a service in place — the
/// OSGi `registerService`-over-an-existing-name semantics.
#[test]
fn retract_and_reexport_replaces_service() {
    for lane in Lane::configs() {
        let mut vm = ijvm_jsl::boot(lane.options(500));
        let iso = vm.create_isolate("host");
        let loader = vm.loader_of(iso).unwrap();
        let src = r#"
            class V1 { int handle(int x) { return x + 1; } }
            class V2 { int handle(int x) { return x + 100; } }
            class Boot {
                static int mk(int which) {
                    if (which == 1) { Service.export("svc", new V1()); }
                    else { Service.export("svc", new V2()); }
                    return which;
                }
            }
            class Client {
                static int drive(int n) { return Service.call("svc", n); }
            }
        "#;
        for (name, bytes) in compile_to_bytes(src, &CompileEnv::new()).unwrap() {
            vm.add_class_bytes(loader, &name, bytes);
        }
        let boot = vm.load_class(loader, "Boot").unwrap();
        let client = vm.load_class(loader, "Client").unwrap();
        vm.call_static_as(boot, "mk", "(I)I", vec![Value::Int(1)], iso)
            .unwrap();
        let out = vm
            .call_static_as(client, "drive", "(I)I", vec![Value::Int(5)], iso)
            .unwrap();
        assert_eq!(out, Some(Value::Int(6)), "{lane}: v1 serves");

        assert!(
            vm.retract_service("svc"),
            "{lane}: service exists to retract"
        );
        assert!(!vm.retract_service("svc"), "{lane}: already retracted");
        vm.call_static_as(boot, "mk", "(I)I", vec![Value::Int(2)], iso)
            .unwrap();
        let out = vm
            .call_static_as(client, "drive", "(I)I", vec![Value::Int(5)], iso)
            .unwrap();
        assert_eq!(out, Some(Value::Int(105)), "{lane}: v2 replaced v1");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random ping-pong shapes: call counts, handler weight, quantum,
    /// slice and worker count — the deterministic and parallel runs must
    /// observe identical units, including exact CPU with copy charges.
    #[test]
    fn random_ping_pong_matches_across_modes(
        calls in 1i32..60,
        weight in 1i32..30,
        obj_every in 1i32..8,
        quantum in 80u32..600,
        slice in 150u64..1_500,
        workers in 1usize..5,
    ) {
        let server = UnitSpec {
            src: format!(
                r#"
                class Pair {{ Pair other; int v; }}
                class IntSvc {{
                    int handle(int x) {{
                        int acc = x;
                        for (int i = 0; i < {weight}; i++) {{ acc = acc * 31 + i; }}
                        return acc % 65536;
                    }}
                }}
                class ObjSvc {{
                    Object handle(Object o) {{
                        Pair p = (Pair) o;
                        Pair q = new Pair();
                        q.v = p.v * 2;
                        q.other = q;
                        return q;
                    }}
                }}
                class Boot {{
                    static int start(int n) {{
                        Service.export("svc", new IntSvc());
                        Service.export("svcobj", new ObjSvc());
                        return n;
                    }}
                }}
                "#
            ),
            entry: "Boot",
            method: "start",
            thread_args: vec![1],
        };
        let client = UnitSpec {
            src: format!(
                r#"
                class Pair {{ Pair other; int v; }}
                class Client {{
                    static int drive(int n) {{
                        int acc = 0;
                        for (int i = 0; i < n; i++) {{
                            if (i % {obj_every} == 0) {{
                                Pair a = new Pair();
                                a.v = i;
                                a.other = a;
                                Pair r = (Pair) Service.call("svcobj", a);
                                acc += r.v;
                            }} else {{
                                acc += Service.call("svc", i);
                            }}
                            acc = acc % 1000000;
                        }}
                        return acc;
                    }}
                }}
                "#
            ),
            entry: "Client",
            method: "drive",
            thread_args: vec![calls],
        };
        let specs = vec![server, client];
        let scenario = Scenario::new(&specs, quantum, slice);
        for lane in Lane::heavy(Heavy::PingPong) {
            let oracle = run_scenario(lane, &scenario, SchedulerKind::Deterministic).units;
            prop_assert!(oracle[1].results[0].is_ok(), "{}: client failed: {:?}", lane, oracle[1].results);
            let parallel = run_scenario(lane, &scenario, SchedulerKind::Parallel(workers)).units;
            prop_assert_eq!(oracle, parallel, "{}", lane);
        }
    }
}
