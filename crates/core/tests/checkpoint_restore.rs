//! Checkpoint/restore differential tests: a unit checkpointed at a
//! quantum boundary must produce the *same image bytes* under the
//! deterministic oracle and the parallel scheduler at any worker
//! count, the checkpoint itself must not perturb the run, and a
//! restored unit must resume to a final state bit-identical to the
//! uninterrupted run — same per-thread results, console output,
//! virtual clock and per-isolate exact CPU, both in-VM and in the
//! cluster aggregate.
//!
//! Every test runs in every VM configuration of the lane table
//! (`tests/common`, [`Lane::configs`]). Two tests restore an image under
//! the other engine: images carry no prepared code, so restore *must*
//! re-derive it lazily — if it ever serialized quickening state, the
//! cross-engine resume would diverge.

mod common;

use common::{
    build_vm, echo_server, isolated, observe_cluster, pinging_client, Gc, Lane, Observed, UnitSpec,
};
use ijvm_core::prelude::*;
use ijvm_minijava::{compile_to_bytes, CompileEnv};
use proptest::prelude::*;
use std::sync::OnceLock;

/// A self-contained two-thread compute workload that spans many slices
/// at quantum 200 / slice 400: loops, allocation (string building in
/// `println`) and interleaved green threads.
fn compute_unit() -> UnitSpec {
    UnitSpec {
        src: r#"
            class Work {
                static int busy(int n) {
                    int acc = 7;
                    for (int i = 0; i < n; i++) {
                        acc = acc * 31 + i;
                        if (i % 64 == 0) println("tick " + i + " " + acc);
                    }
                    return acc;
                }
            }
        "#
        .to_owned(),
        entry: "Work",
        method: "busy",
        thread_args: vec![520, 521],
    }
}

const QUANTUM: u32 = 200;
const SLICE: u64 = 400;
/// Where the compute unit is checkpointed and killed. It is compute-only,
/// so its quantum boundaries, and the first one at or past each of
/// these vclocks, are the same under every schedule. Neither lies on a
/// slice boundary, so the slice cap is exercised too.
const CUT_VCLOCK: u64 = 1_000;
const KILL_VCLOCK: u64 = 1_500;

/// Runs `spec` alone in `lane` under `kind`; optionally checkpoints at
/// the given vclock; returns (observed, image-if-requested).
fn run_single(
    lane: Lane,
    spec: &UnitSpec,
    kind: SchedulerKind,
    checkpoint_at: Option<u64>,
) -> (Vec<Observed>, Option<UnitImage>) {
    let mut cluster = Cluster::builder()
        .scheduler(kind)
        .slice(SLICE)
        .vm_options(lane.options(QUANTUM))
        .build();
    let (vm, tids) = build_vm(spec, lane.options(QUANTUM));
    let handle = cluster.submit(vm);
    let ticket = checkpoint_at.map(|v| handle.checkpoint_at(v));
    let mut outcome = cluster.run();
    let observed = observe_cluster(&mut outcome, &[tids]);
    let image = ticket.map(|t| {
        t.wait()
            .expect("compute unit is quiescent at every boundary")
    });
    (observed, image)
}

/// Resumes `image` under `kind` and observes the finished unit,
/// optionally restoring with `restore_options` instead of the lane's.
fn resume_single(
    lane: Lane,
    image: &UnitImage,
    kind: SchedulerKind,
    tids: &[ThreadId],
    restore_options: Option<VmOptions>,
) -> Vec<Observed> {
    let mut cluster = Cluster::builder()
        .scheduler(kind)
        .slice(SLICE)
        .vm_options(restore_options.unwrap_or_else(|| lane.options(QUANTUM)))
        .build();
    cluster
        .submit_image(image, ijvm_jsl::install_natives)
        .expect("image restores under matching hard options");
    let mut outcome = cluster.run();
    observe_cluster(&mut outcome, &[tids.to_vec()])
}

/// The tentpole acceptance test: checkpoint → restore → resume
/// mid-run is bit-identical to the uninterrupted run — results,
/// console, vclock and exact CPU — in every mode of the lane, the image
/// bytes are identical in every mode, and taking the checkpoint does not
/// perturb the donor run.
#[test]
fn mid_run_checkpoint_restore_is_bit_identical_across_modes() {
    for lane in Lane::configs() {
        let spec = compute_unit();
        let (_, tids) = build_vm(&spec, lane.options(QUANTUM)); // tids are positional; same every build
        let (baseline, _) = run_single(lane, &spec, SchedulerKind::Deterministic, None);
        if lane.gc == Gc::Stress {
            let (plain, _) = run_single(lane.plain(), &spec, SchedulerKind::Deterministic, None);
            assert_eq!(baseline, plain, "{lane} diverged from {}", lane.plain());
        }
        assert!(
            baseline[0].console.len() > 8,
            "workload should span many slices: {:?}",
            baseline[0].console
        );

        let mut oracle_image: Option<UnitImage> = None;
        for kind in lane.modes() {
            // Uninterrupted run matches the oracle in this mode.
            let (plain, _) = run_single(lane, &spec, kind, None);
            assert_eq!(baseline, plain, "{lane}: {kind:?} diverged uninterrupted");

            // Checkpointing mid-run does not perturb the donor.
            let (with_ckpt, image) = run_single(lane, &spec, kind, Some(CUT_VCLOCK));
            assert_eq!(
                baseline, with_ckpt,
                "{lane}: {kind:?} perturbed by checkpoint"
            );

            // The image bytes are identical in every scheduler mode.
            let image = image.unwrap();
            match &oracle_image {
                None => oracle_image = Some(image.clone()),
                Some(oracle) => assert_eq!(
                    oracle.as_bytes(),
                    image.as_bytes(),
                    "{lane}: {kind:?} produced different image bytes than the oracle"
                ),
            }

            // Restoring and resuming under every mode reaches the same
            // final state as the uninterrupted run.
            for resume_kind in lane.modes() {
                let resumed = resume_single(lane, &image, resume_kind, &tids[..], None);
                assert_eq!(
                    baseline, resumed,
                    "{lane}: capture under {kind:?}, resume under {resume_kind:?} diverged"
                );
            }
        }

        // The slice cap cut the image at the first quantum boundary at or
        // past its vclock, not at the end of the slice around it.
        let natives = ijvm_jsl::install_natives;
        let restored =
            ijvm_core::checkpoint::restore(&oracle_image.unwrap(), lane.options(QUANTUM), natives);
        let cut = restored.expect("image restores").vclock();
        assert!(
            (CUT_VCLOCK..CUT_VCLOCK + QUANTUM as u64).contains(&cut),
            "cut at {cut}"
        );
    }
}

/// A checkpoint filed past the unit's lifetime settles at unit
/// completion with the final image ("at vclock V or completion,
/// whichever comes first"); restoring it yields an already-finished
/// unit with the full observable history intact.
#[test]
fn checkpoint_past_completion_settles_with_final_image() {
    for lane in Lane::configs() {
        let spec = compute_unit();
        let (_, tids) = build_vm(&spec, lane.options(QUANTUM));
        let (baseline, image) =
            run_single(lane, &spec, SchedulerKind::Deterministic, Some(u64::MAX));
        let image = image.unwrap();
        let resumed = resume_single(lane, &image, SchedulerKind::Deterministic, &tids[..], None);
        assert_eq!(
            baseline, resumed,
            "{lane}: final image must replay to the final state"
        );
        assert_eq!(resumed[0].outcome, RunOutcome::Idle);
    }
}

/// Crash-restart with in-flight traffic: a server checkpointed while a
/// client drives it is captured only once every cross-unit call has
/// drained to a boundary (the delivery point retries non-quiescent
/// captures), the image bytes agree across scheduler modes, and
/// `submit_image` re-exports the service under its **original** name —
/// a fresh client in a fresh cluster reaches `echo` without the server
/// re-running class initialization.
#[test]
fn restored_server_re_exports_service_under_original_name() {
    for lane in Lane::configs() {
        let calls = 24;
        let mut oracle_image: Option<UnitImage> = None;
        for kind in lane.modes() {
            let mut cluster = Cluster::builder()
                .scheduler(kind)
                .slice(SLICE)
                .vm_options(lane.options(QUANTUM))
                .build();
            let server = echo_server();
            let client = pinging_client(calls);
            let (server_vm, _) = build_vm(&server, lane.options(QUANTUM));
            let (client_vm, _) = build_vm(&client, lane.options(QUANTUM));
            let server_handle = cluster.submit(server_vm);
            cluster.submit(client_vm);
            // A vclock the server never reaches: the ticket settles when the
            // cluster stalls, i.e. after all in-flight calls drained.
            let ticket = server_handle.checkpoint_at(u64::MAX);
            cluster.run();
            let image = ticket.wait().expect("drained server is quiescent");
            match &oracle_image {
                None => oracle_image = Some(image),
                Some(oracle) => assert_eq!(
                    oracle.as_bytes(),
                    image.as_bytes(),
                    "{lane}: {kind:?} captured different server image bytes"
                ),
            }
        }
        let image = oracle_image.unwrap();

        // Crash-restart: fresh cluster, fresh client, same service name.
        let calls2 = 48;
        let mut cluster = Cluster::builder()
            .scheduler(SchedulerKind::Deterministic)
            .slice(SLICE)
            .vm_options(lane.options(QUANTUM))
            .build();
        let restored = cluster
            .submit_image(&image, ijvm_jsl::install_natives)
            .expect("server image restores");
        let _ = &restored;
        let (client_vm, client_tids) = build_vm(&pinging_client(calls2), lane.options(QUANTUM));
        cluster.submit(client_vm);
        let mut outcome = cluster.run();
        let server_tids = vec![ThreadId(0)];
        let observed = observe_cluster(&mut outcome, &[server_tids, client_tids]);
        let expect: i64 = (0..calls2 as i64).map(|i| i * 3 + 7).sum();
        assert_eq!(
            observed[1].results[0],
            Ok(Some(expect.to_string())),
            "fresh client must reach the restored service under its original name"
        );
        // Class init did not re-run on restore: the boot marker was printed
        // exactly once, before the checkpoint.
        let markers = observed[0]
            .console
            .iter()
            .filter(|l| *l == "echo up")
            .count();
        assert_eq!(markers, 1, "restore must not re-run <clinit>/boot code");
    }
}

/// A warmed service unit whose `<clinit>` is expensive and observable:
/// `Table.sum` is computed by a static initializer that also prints a
/// marker, so a fork that re-ran class init would both duplicate the
/// marker and recompute the table.
fn warmed_server_spec() -> UnitSpec {
    UnitSpec {
        src: r#"
            class Table {
                static int sum = fill();
                static int fill() {
                    int s = 0;
                    for (int i = 0; i < 500; i++) s += i * i;
                    println("warm-init");
                    return s;
                }
            }
            class Svc {
                int handle(int x) { return x + Table.sum; }
            }
            class Boot {
                static int start(int n) {
                    Service.export("svc", new Svc());
                    return Table.sum;
                }
            }
        "#
        .to_owned(),
        entry: "Boot",
        method: "start",
        thread_args: vec![1],
    }
}

fn table_sum() -> i64 {
    (0..500i64).map(|i| i * i).sum()
}

/// Boots and warms the server once, runs it to idle *unattached*, and
/// captures its image directly via [`Vm::checkpoint`].
fn warmed_server_image(options: VmOptions) -> UnitImage {
    let (mut vm, tids) = build_vm(&warmed_server_spec(), options);
    assert_eq!(vm.run(None), RunOutcome::Idle, "warmup must finish");
    assert_eq!(
        vm.thread_outcome(tids[0]).unwrap().unwrap().to_string(),
        table_sum().to_string(),
        "warmup computed the table"
    );
    vm.checkpoint().expect("idle warmed unit is quiescent")
}

/// Snapshot-fork scale-out: one warmed image forked as N units serves N
/// clients under renamed services `svc#k`, without re-running class
/// initialization in any clone (asserted via the `<clinit>` side-effect
/// marker), bit-identically across scheduler modes.
#[test]
fn fork_n_serves_renamed_services_without_reinit() {
    for lane in Lane::configs() {
        let image = warmed_server_image(lane.options(QUANTUM));
        let n = 4usize;
        let calls = 12;
        let sum = table_sum();
        let expect_client: i64 = (0..calls as i64).map(|i| i + sum).sum();

        let mut oracle: Option<Vec<Observed>> = None;
        for kind in lane.modes() {
            let mut cluster = Cluster::builder()
                .scheduler(kind)
                .slice(SLICE)
                .vm_options(lane.options(QUANTUM))
                .build();
            let forks = cluster
                .submit_image_n(&image, n, ijvm_jsl::install_natives)
                .expect("warmed image forks");
            assert_eq!(forks.len(), n);
            let mut tids: Vec<Vec<ThreadId>> = (0..n).map(|_| vec![ThreadId(0)]).collect();
            let mut client_handles: Vec<UnitHandle> = Vec::new();
            for k in 0..n {
                let spec = UnitSpec {
                    src: format!(
                        r#"
                        class Client {{
                            static int drive(int n) {{
                                int acc = 0;
                                for (int i = 0; i < n; i++) {{
                                    acc += Service.call("svc#{k}", i);
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
                let (vm, client_tids) = build_vm(&spec, lane.options(QUANTUM));
                client_handles.push(cluster.submit(vm));
                tids.push(client_tids);
            }
            let mut outcome = cluster.run();
            let observed = observe_cluster(&mut outcome, &tids);
            for k in 0..n {
                let fork = &observed[k];
                // The warmup result survived the fork: statics were
                // restored, not re-initialized.
                assert_eq!(
                    fork.results[0],
                    Ok(Some(table_sum().to_string())),
                    "fork {k}: warmup thread result must survive the fork"
                );
                let markers = fork.console.iter().filter(|l| *l == "warm-init").count();
                assert_eq!(markers, 1, "fork {k} re-ran <clinit> ({kind:?})");
                let client = &observed[n + k];
                assert_eq!(
                    client.results[0],
                    Ok(Some(expect_client.to_string())),
                    "client {k} must reach svc#{k} ({kind:?})"
                );
            }
            match &oracle {
                None => oracle = Some(observed),
                Some(oracle) => assert_eq!(
                    oracle, &observed,
                    "{lane}: {kind:?} diverged from the deterministic oracle"
                ),
            }
        }
    }
}

/// A checkpoint captured under one engine restores and resumes under
/// the other (a soft option — the image carries no prepared code), and
/// the resumed run is bit-identical to the uninterrupted run. This is
/// exactly the "restore rebuilds `PreparedCode` lazily" guarantee: a
/// raw-engine image resumed under the threaded engine re-quickens from
/// scratch and still passes the engine differential.
#[test]
fn cross_engine_restore_requickens_lazily() {
    for lane in Lane::configs() {
        let other = match lane.kind() {
            EngineKind::Raw => EngineKind::Threaded,
            _ => EngineKind::Raw,
        };
        let spec = compute_unit();
        let (_, tids) = build_vm(&spec, lane.options(QUANTUM));
        let (baseline, image) =
            run_single(lane, &spec, SchedulerKind::Deterministic, Some(CUT_VCLOCK));
        let resumed = resume_single(
            lane,
            &image.unwrap(),
            SchedulerKind::Deterministic,
            &tids[..],
            Some(lane.options(QUANTUM).with_engine(other)),
        );
        assert_eq!(
            baseline, resumed,
            "{lane}: image resumed under {other:?} diverged"
        );
    }
}

/// Restore-then-terminate: a restored unit is a first-class citizen of
/// isolate termination. Killing its workload isolate stops its threads
/// and reclaims its heap exactly as it would in a never-checkpointed
/// unit killed at the same execution point — the vclock travels in the
/// image, so the same kill vclock lands on the identical quantum
/// boundary in both and must observe bit-identical aftermath, live-heap
/// stats included.
#[test]
fn restore_then_terminate_reclaims_everything() {
    for lane in isolated(Lane::configs()) {
        let spec = compute_unit();
        let (_, tids) = build_vm(&spec, lane.options(QUANTUM));

        // Baseline: plain unit, killed mid-run.
        let mut cluster = Cluster::builder()
            .scheduler(SchedulerKind::Deterministic)
            .slice(SLICE)
            .vm_options(lane.options(QUANTUM))
            .build();
        let (vm, _) = build_vm(&spec, lane.options(QUANTUM));
        let handle = cluster.submit(vm);
        handle.terminate_at(IsolateId(0), KILL_VCLOCK);
        let mut outcome = cluster.run();
        let baseline = observe_cluster(&mut outcome, std::slice::from_ref(&tids));
        let baseline_live = {
            let snaps = outcome.units[0].vm.metrics().isolates;
            (snaps[0].stats.live_objects, snaps[0].stats.live_bytes)
        };

        // Donor: same workload, checkpointed earlier, left unkilled.
        let (_, image) = run_single(lane, &spec, SchedulerKind::Deterministic, Some(CUT_VCLOCK));
        let image = image.unwrap();

        // Restored: resumed from the image and killed at the same vclock —
        // the same absolute execution point as the baseline kill.
        let mut cluster = Cluster::builder()
            .scheduler(SchedulerKind::Deterministic)
            .slice(SLICE)
            .vm_options(lane.options(QUANTUM))
            .build();
        let handle = cluster
            .submit_image(&image, ijvm_jsl::install_natives)
            .expect("image restores");
        handle.terminate_at(IsolateId(0), KILL_VCLOCK);
        let mut outcome = cluster.run();
        let observed = observe_cluster(&mut outcome, std::slice::from_ref(&tids));
        assert_eq!(
            baseline, observed,
            "{lane}: terminating a restored unit must match terminating a plain one"
        );
        let vm = &outcome.units[0].vm;
        assert_ne!(
            vm.isolate_state(IsolateId(0)).unwrap(),
            IsolateState::Active,
            "restored unit's workload isolate must be terminable"
        );
        for (i, result) in observed[0].results.iter().enumerate() {
            let err = result
                .as_ref()
                .expect_err("threads of a terminated isolate cannot produce results");
            assert!(
                err.contains("StoppedIsolateException"),
                "thread {i}: expected StoppedIsolateException, got {err}"
            );
        }
        // Termination ran a full collection: only the handful of
        // host-rooted objects (thread mirrors, the in-flight exceptions)
        // survive, identically to the never-checkpointed baseline.
        let snaps = vm.metrics().isolates;
        let live = (snaps[0].stats.live_objects, snaps[0].stats.live_bytes);
        assert_eq!(
            live, baseline_live,
            "restore must not leak heap past termination"
        );
        assert!(
            live.0 < snaps[0].stats.allocated_objects,
            "termination should have reclaimed workload objects: {live:?} live of {} allocated",
            snaps[0].stats.allocated_objects
        );
    }
}

/// Host calls reuse released thread slots by position, so a VM
/// captured between two batches of host calls and restored under the
/// other engine must end the second batch in the same image as the VM
/// that was never captured. Each batch makes int calls (released), a
/// failing call (released), an object-returning call (kept: it roots
/// the object) and, last, a call that returns still owning a monitor
/// (kept). The restored VM recounts that owner's monitors from the heap,
/// so an explicit release of the owner's slot is refused on both copies.
#[test]
fn host_call_batches_image_identically_across_restore() {
    for lane in Lane::configs() {
        use ijvm_classfile::{AccessFlags, ClassBuilder, Opcode};

        let options = lane.options(QUANTUM);
        let other = if lane.kind() == EngineKind::Raw {
            EngineKind::Threaded
        } else {
            EngineKind::Raw
        };
        let mut vm = ijvm_jsl::boot(options.clone());
        let iso = vm.create_isolate("host");
        let loader = vm.loader_of(iso).unwrap();
        let src = r#"
            class H {
                static int n = 0;
                static int inc(int x) { n = n + x; return n; }
                static Object make() { return new H(); }
                static int boom(int x) { throw new IllegalStateException("boom " + x); }
            }
        "#;
        for (name, bytes) in compile_to_bytes(src, &CompileEnv::new()).unwrap() {
            vm.add_class_bytes(loader, &name, bytes);
        }
        let mut cb = ClassBuilder::new("Locks", "java/lang/Object", AccessFlags::PUBLIC);
        let mut m = cb.method(
            "hold",
            "(Ljava/lang/Object;)I",
            AccessFlags(AccessFlags::PUBLIC.0 | AccessFlags::STATIC.0),
        );
        m.aload(0);
        m.op(Opcode::Monitorenter);
        m.const_int(7);
        m.op(Opcode::Ireturn);
        m.done().unwrap();
        let bytes = ijvm_classfile::writer::write_class(&cb.build().unwrap()).unwrap();
        vm.add_class_bytes(loader, "Locks", bytes);
        let h = vm.load_class(loader, "H").unwrap();
        let locks = vm.load_class(loader, "Locks").unwrap();

        let batch = |vm: &mut Vm, k: i32| {
            let lock = vm
                .new_string(iso, &format!("lock{k}"))
                .expect("heap has room");
            vm.pin(lock);
            let mut results = Vec::new();
            for x in 0..20 {
                let r = vm.call_static_as(h, "inc", "(I)I", vec![Value::Int(k * 100 + x)], iso);
                results.push(format!("{r:?}"));
            }
            let err = vm
                .call_static_as(h, "boom", "(I)I", vec![Value::Int(k)], iso)
                .unwrap_err();
            results.push(err.to_string());
            let obj = vm
                .call_static_as(h, "make", "()Ljava/lang/Object;", vec![], iso)
                .unwrap();
            results.push(format!("{obj:?}"));
            let held = vm.call_static_as(
                locks,
                "hold",
                "(Ljava/lang/Object;)I",
                vec![Value::Ref(lock)],
                iso,
            );
            results.push(format!("{held:?}"));
            (results, vm.thread_count())
        };

        let first = batch(&mut vm, 0);
        let image = vm.checkpoint().expect("a host-held VM is quiescent");
        let mut restored = ijvm_core::checkpoint::restore(
            &image,
            options.with_engine(other),
            ijvm_jsl::install_natives,
        )
        .expect("image restores under the other engine");
        assert_eq!(restored.thread_count(), first.1);

        let mut finals = Vec::new();
        for vm in [&mut vm, &mut restored] {
            let owner = ThreadId(vm.thread_count() as u32 - 1);
            assert_eq!(vm.release_thread(owner).unwrap(), Some(Value::Int(7)));
            assert_eq!(
                vm.thread_count(),
                first.1,
                "the monitor owner keeps its slot"
            );
            let second = batch(vm, 1);
            finals.push((second, vm.checkpoint().unwrap().into_bytes()));
        }
        assert_eq!(finals[0].0, finals[1].0, "second batch results");
        // Two slots per batch stay: the object root and the monitor owner.
        assert_eq!(finals[0].0 .1, first.1 + 2);
        assert!(
            finals[0].1 == finals[1].1,
            "final images differ ({} vs {} bytes)",
            finals[0].1.len(),
            finals[1].1.len()
        );
    }
}

/// A small but fully populated donor image for hostile-input tests.
fn fuzz_image_bytes() -> &'static [u8] {
    static IMG: OnceLock<Vec<u8>> = OnceLock::new();
    IMG.get_or_init(|| warmed_server_image(Lane::DEFAULT.options(QUANTUM)).into_bytes())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every single-byte corruption of a valid image is rejected by
    /// validation — header, section table and per-section checksums
    /// between them cover every byte — and never panics.
    #[test]
    fn corrupted_images_are_rejected(pos in 0usize..1 << 20, mask in 1u8..=255u8) {
        let mut bytes = fuzz_image_bytes().to_vec();
        let i = pos % bytes.len();
        bytes[i] ^= mask;
        prop_assert!(
            UnitImage::from_bytes(bytes).is_err(),
            "flipping byte {i} went undetected"
        );
    }

    /// Every strict prefix of a valid image is rejected without a
    /// panic — no count field causes a blind allocation or over-read.
    #[test]
    fn truncated_images_are_rejected(len in 0usize..1 << 20) {
        let bytes = fuzz_image_bytes();
        let l = len % bytes.len();
        prop_assert!(
            UnitImage::from_bytes(bytes[..l].to_vec()).is_err(),
            "truncating to {l} bytes went undetected"
        );
    }
}
