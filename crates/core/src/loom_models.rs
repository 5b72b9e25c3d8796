//! Concurrency models for the cluster's hand-rolled protocols, run
//! under `--cfg loom`:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p ijvm-core --lib loom_
//! ```
//!
//! Each model is a small bounded scenario over the *production* types
//! (`TraceRing`, `WorkerCpuBuffer`/`ClusterAccounts`, `PortHub`) whose
//! assertions state the protocol's contract: no event lost in the
//! trace-ring handoff, no instruction lost or doubled in CPU
//! accounting, no lost wake-up token, no lost quota release. They live
//! in the crate (not `tests/`) because the protocols are crate-private
//! by design — embedders only see their effects.
//!
//! Offline, `loom` resolves to `crates/devstubs/loom`: an
//! API-compatible stand-in that stress-runs each model many times with
//! randomized preemption at every wrapped lock/atomic operation — a
//! stress harness, not a proof. With the real loom crate in place the
//! same models upgrade to exhaustive interleaving exploration
//! unchanged; the product types keep their `std` primitives either
//! way, so real loom explores the schedule space at the model's own
//! synchronization points (spawn/join/lock), which is where these
//! protocols branch.

use crate::accounting::{ClusterAccounts, WorkerCpuBuffer};
use crate::ids::IsolateId;
use crate::mailbox::Mailbox;
use crate::port::{Envelope, MailboxQuota, PayloadKind, PortHub, SendOutcome};
use crate::sched::UnitId;
use crate::trace::{EventKind, TraceEvent, TraceRing};
use loom::sync::{Arc, Mutex};
use loom::thread;

fn ev(thread_id: u8, payload: u64) -> TraceEvent {
    TraceEvent {
        vclock: payload,
        payload,
        wall_us: 0,
        kind: EventKind::QuantumEnd,
        unit: 0,
        isolate: 0,
        thread: thread_id,
    }
}

/// The worker-trace handoff (`sched.rs`): each worker records into a
/// ring it exclusively owns, then moves the whole ring through a mutex
/// exactly once at loop exit; the merger drains after every worker has
/// joined. Contract: every recorded event arrives, in per-worker
/// order, with an exact drop count.
#[test]
fn loom_trace_ring_single_writer_handoff() {
    loom::model(|| {
        const PER_WORKER: u64 = 6;
        let merged: Arc<Mutex<Vec<TraceRing>>> = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = (0..2u8)
            .map(|w| {
                let merged = Arc::clone(&merged);
                thread::spawn(move || {
                    // Capacity 4 < 6 pushes: the ring wraps, which the
                    // drop accounting must state exactly.
                    let mut ring = TraceRing::with_capacity(4);
                    for i in 0..PER_WORKER {
                        ring.push(ev(w, i));
                    }
                    merged.lock().unwrap().push(ring);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut rings = merged.lock().unwrap();
        assert_eq!(rings.len(), 2, "each worker hands off exactly one ring");
        for ring in rings.iter_mut() {
            assert_eq!(ring.dropped_events(), PER_WORKER - 4);
            let events = ring.drain_ordered();
            assert_eq!(events.len(), 4, "newest `capacity` events survive");
            let w = events[0].thread;
            for (i, e) in events.iter().enumerate() {
                assert_eq!(e.thread, w, "rings never interleave writers");
                assert_eq!(
                    e.payload,
                    (PER_WORKER - 4) + i as u64,
                    "per-worker order preserved, oldest dropped first"
                );
            }
        }
    });
}

/// CPU exactness across the buffer/drain protocol (`accounting.rs`):
/// workers coalesce charges into private buffers and drain into the
/// shared accounts before any migration point. Contract: after all
/// drains, the cluster total equals the sum recorded — no instruction
/// lost or double-charged under any interleaving.
#[test]
fn loom_worker_cpu_buffer_drain_exactness() {
    loom::model(|| {
        let accounts = Arc::new(Mutex::new(ClusterAccounts::default()));
        let handles: Vec<_> = (0..2u32)
            .map(|w| {
                let accounts = Arc::clone(&accounts);
                thread::spawn(move || {
                    let unit = UnitId::new(w);
                    let mut buf = WorkerCpuBuffer::default();
                    // Two slices with a mid-run drain (a migration
                    // point), exercising coalescing and re-use.
                    buf.record(unit, IsolateId(0), 100);
                    buf.record(unit, IsolateId(1), 10);
                    buf.drain_into(&mut accounts.lock().unwrap());
                    assert!(buf.is_empty(), "drain leaves nothing in flight");
                    buf.record(unit, IsolateId(0), 1);
                    buf.drain_into(&mut accounts.lock().unwrap());
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let accounts = accounts.lock().unwrap();
        assert_eq!(accounts.total_cpu_exact(), 2 * 111);
        for w in 0..2 {
            assert_eq!(accounts.cpu_exact(UnitId::new(w), IsolateId(0)), 101);
            assert_eq!(accounts.cpu_exact(UnitId::new(w), IsolateId(1)), 10);
        }
    });
}

/// The MPSC mailbox ring (`mailbox.rs`): concurrent senders `post`
/// into a unit's mailbox while the owning unit — the single consumer —
/// drains. Contract: every posted envelope is delivered exactly once
/// (no loss across the ring→overflow spill, no double-delivery), and
/// each producer's envelopes arrive in the order it posted them.
#[test]
fn loom_mailbox_mpsc_no_loss_no_dup() {
    loom::model(|| {
        const PER_PRODUCER: u64 = 4;
        let mb = Arc::new(Mailbox::default());
        let producers: Vec<_> = (0..2u64)
            .map(|p| {
                let mb = Arc::clone(&mb);
                thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        mb.post(Envelope::Reply {
                            call: p * PER_PRODUCER + i,
                            result: Ok((PayloadKind::Int, Vec::new())),
                        });
                    }
                })
            })
            .collect();
        // The consumer drains concurrently with the producers (the
        // racing drains may see any prefix of each producer's posts),
        // then once more after both joins to collect the remainder.
        let mut got = Vec::new();
        mb.drain_into(&mut got);
        for p in producers {
            p.join().unwrap();
        }
        mb.drain_into(&mut got);
        assert!(mb.is_idle(), "final drain leaves the mailbox idle");
        let calls: Vec<u64> = got
            .iter()
            .map(|e| match e {
                Envelope::Reply { call, .. } => *call,
                Envelope::Request { .. } => unreachable!("only replies posted"),
            })
            .collect();
        assert_eq!(
            calls.len() as u64,
            2 * PER_PRODUCER,
            "every post delivered, none doubled"
        );
        for p in 0..2u64 {
            let mine: Vec<u64> = calls
                .iter()
                .copied()
                .filter(|c| c / PER_PRODUCER == p)
                .collect();
            let expect: Vec<u64> = (0..PER_PRODUCER).map(|i| p * PER_PRODUCER + i).collect();
            assert_eq!(mine, expect, "per-producer FIFO survives the drain");
        }
    });
}

/// The hub wake-token protocol (`port.rs` / `sched.rs`): a post sets
/// the unit's token and the `woken_flag` mirror under one lock; the
/// scheduler's sweep drains tokens and clears the flag. Contract: a
/// completed post is never lost — whatever sweeps run concurrently,
/// the token set observed across all sweeps plus a final sweep
/// contains the posted-to unit exactly once, and its mail is there.
#[test]
fn loom_hub_wake_token_not_lost() {
    loom::model(|| {
        let hub = Arc::new(PortHub::with_quota(MailboxQuota::UNBOUNDED));
        let dest = UnitId::new(0);
        let sender = UnitId::new(1);
        hub.export(dest, std::sync::Arc::from("svc"));

        let poster = {
            let hub = Arc::clone(&hub);
            thread::spawn(move || {
                let out = hub
                    .send_request(sender, None, "svc", PayloadKind::Int, vec![1, 2], false)
                    .expect("not revoked");
                assert!(matches!(out, SendOutcome::Sent(_)));
            })
        };
        // A concurrent sweep, racing the post: it may legitimately see
        // nothing (the fast-path flag read can only miss a post that
        // has not completed), but anything it drains is recorded.
        let sweeper = {
            let hub = Arc::clone(&hub);
            thread::spawn(move || {
                let mut seen = Vec::new();
                if hub.has_woken() {
                    hub.drain_woken_into(&mut seen);
                }
                seen
            })
        };
        poster.join().unwrap();
        let mut tokens = sweeper.join().unwrap();
        // Post happens-before this join; the final sweep must find the
        // token unless the racing sweep already did.
        if hub.has_woken() {
            hub.drain_woken_into(&mut tokens);
        }
        assert_eq!(
            tokens.iter().filter(|&&u| u == dest.index()).count(),
            1,
            "the completed post's wake token is observed exactly once"
        );
        assert!(hub.has_mail(dest), "the mail behind the token is there");
        assert!(!hub.quiescent());
        let mut mail = Vec::new();
        hub.take_mail_into(dest, &mut mail);
        assert_eq!(mail.len(), 1);
    });
}

/// The quota park/retry protocol (`port.rs`): an over-quota sender
/// registers a `(dest, sender)` waiter pair under the same lock as the
/// failed admission check; a boundary flush that brings the
/// destination back under quota turns the pair into a wake token.
/// Contract: the release cannot be lost — whether it lands before or
/// after the sender parks, the sender's retry check observes an
/// admitting destination and its re-send is admitted.
#[test]
fn loom_quota_park_release_not_lost() {
    loom::model(|| {
        let hub = Arc::new(PortHub::with_quota(MailboxQuota {
            max_messages: 1,
            max_bytes: u64::MAX,
        }));
        let dest = UnitId::new(0);
        let sender = UnitId::new(1);
        hub.export(dest, std::sync::Arc::from("svc"));
        // Fill the quota, then park the sender on it.
        let first = hub
            .send_request(sender, None, "svc", PayloadKind::Int, vec![9], false)
            .expect("not revoked");
        assert!(matches!(first, SendOutcome::Sent(_)));
        let parked = hub
            .send_request(sender, None, "svc", PayloadKind::Int, vec![7], false)
            .expect("not revoked");
        assert!(matches!(parked, SendOutcome::OverQuota { .. }));

        // The destination serves the first request and flushes at its
        // boundary, racing the sender's retry-readiness checks.
        let server = {
            let hub = Arc::clone(&hub);
            thread::spawn(move || {
                let mut mail = Vec::new();
                hub.take_mail_into(dest, &mut mail);
                assert_eq!(mail.len(), 1);
                let mut outbox = Vec::new();
                hub.flush_boundary(dest, &mut outbox, 1, 1);
            })
        };
        let retrier = {
            let hub = Arc::clone(&hub);
            // May run before the release (not ready) or after (ready);
            // either way it must not consume the waiter registration.
            thread::spawn(move || hub.retry_ready(sender))
        };
        server.join().unwrap();
        let _early = retrier.join().unwrap();
        // The release happened-before this point. The registration is
        // still in place (only the sender's own sweep clears it), so
        // readiness must be observable now, the wake token must exist,
        // and the actual retry must be admitted.
        assert!(
            hub.retry_ready(sender),
            "quota release observed by the sender's park-lock re-check"
        );
        let mut tokens = Vec::new();
        assert!(hub.has_woken());
        hub.drain_woken_into(&mut tokens);
        assert!(tokens.contains(&sender.index()), "release woke the sender");
        hub.clear_quota_waits(sender);
        let retried = hub
            .send_request(sender, None, "svc", PayloadKind::Int, vec![7], false)
            .expect("not revoked");
        assert!(
            matches!(retried, SendOutcome::Sent(_)),
            "the re-send after the release is admitted"
        );
    });
}
