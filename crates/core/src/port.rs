//! The inter-unit service/message layer — cross-unit communication for
//! the cluster scheduler (the ROADMAP's "distributed OSGi" step).
//!
//! Cluster units ([`crate::sched`]) are share-nothing `Send` VMs: no
//! reference ever crosses a unit boundary. This module lets them
//! communicate anyway, with the copying semantics the paper's Table 1
//! attributes to Incommunicado-style links: a unit **exports** named
//! services, and guest code on any unit **calls** them with arguments
//! deep-copied through the [`crate::wire`] codec into the target unit's
//! mailbox.
//!
//! ```text
//!   unit A (caller)                hub                unit B (exporter)
//!   ─────────────────          ──────────          ─────────────────────
//!   Service.call ──serialize──▶ mailbox[B] ──drain──▶ pump thread runs
//!     thread blocks             (woken: B)            handler.handle(arg)
//!     (BlockedOnPort)                                     │ return
//!   resume ◀──deserialize── mailbox[A] ◀──serialize──────┘
//! ```
//!
//! **Host-side registry.** The `PortHub` (crate-private; embedders see
//! the read-only [`HubStats`] snapshot) is shared by every unit of one
//! cluster. Its registry is keyed by `(UnitId, name)` — units are
//! *addressable*: the same service name may be exported by several units
//! (sharding), and `Service.callAt(unit, name, x)` targets one
//! explicitly while `Service.call(name, x)` resolves to the lowest
//! exporting unit. Calls made before the service is exported wait in the
//! hub and are delivered on export (service-tracker semantics).
//!
//! **Service pumps.** Exporting spawns one *pump* green thread per
//! service in the exporting VM. A pump has no guest loop: it parks in
//! [`ThreadState::ServicePump`] with an empty frame stack, and request
//! delivery pushes a `handler.handle(arg)` frame onto it directly.
//! Draining its last frame completes the request — the interpreter's
//! thread-exit path hands the result back here (`pump_completed`),
//! which serializes the reply, posts it, and re-parks (or immediately
//! re-dispatches) the pump. One pump serves one request at a time, so
//! each service processes its mailbox strictly in arrival order — the
//! property the cross-scheduler differential tests pin.
//!
//! **Sender-pays accounting (paper §3.2 lifted across units).** Copy
//! cost is charged through `crate::accounting::ResourceStats::charge_cpu`
//! to the isolate that *produces* the bytes: the calling isolate pays
//! for the request's serialization, the serving isolate pays for the
//! reply's. The charge is a deterministic function of the payload
//! ([`MSG_BASE_COST`] plus one unit per byte), so per-isolate `cpu_exact`
//! stays bit-identical across scheduler modes.
//!
//! **Delivery points.** Mailboxes are drained only at quantum
//! boundaries, by the scheduler, when it picks the unit up
//! (`Vm::port_drain`); replies are posted when the pump's handler
//! frame returns. Both are deterministic points of the executing VM's
//! own instruction stream, which is what keeps a two-unit ping-pong
//! bit-identical between `Deterministic` and `Parallel(n)` — only the
//! wall-clock time at which a parked unit is resumed may differ. The
//! guarantee is per *message schedule*: when guest code itself races —
//! two units sending to one mailbox concurrently, or a bare-name call
//! racing a same-named export on another unit — arrival (and hence
//! resolution) order is scheduling-dependent in parallel mode. Use
//! data-dependent shapes (request→reply chains) or `callAt` addressing
//! where cross-mode bit-identity matters; the differential corpus does.
//!
//! **Revocation (paper §3.3 lifted across units).** Terminating an
//! isolate drops every service it exported: pending and in-flight calls
//! fail at the caller with `org/ijvm/ServiceRevokedException`, future
//! calls fail immediately, and the pump threads die with the isolate.

use crate::ids::{IsolateId, MethodRef, ThreadId};
use crate::mailbox::Mailbox;
use crate::natives::NativeResult;
use crate::sched::UnitId;
use crate::thread::{ThreadState, VmThread};
use crate::value::{GcRef, Value};
use crate::vm::Vm;
use ijvm_classfile::{AccessFlags, ClassBuilder, ClassFile};
// lint: allow(determinism) — import only; each HashMap field below
// carries its own iteration-order justification.
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};

/// Exception raised at a caller whose in-flight or future call targets a
/// service of a terminated isolate.
pub(crate) const SERVICE_REVOKED_EXCEPTION: &str = "org/ijvm/ServiceRevokedException";

/// Fixed per-message accounting charge, on top of one exactly-counted
/// "instruction" per serialized byte. Charged to the *sender's* isolate
/// through `crate::accounting::ResourceStats::charge_cpu` at the point
/// the copy is produced.
pub const MSG_BASE_COST: u64 = 16;

/// Which handler overload a payload dispatches to (and how the reply is
/// decoded at the caller).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PayloadKind {
    /// `int handle(int)` — primitive fast path, no object graph.
    Int,
    /// `Object handle(Object)` — full deep-copied object graphs.
    Obj,
}

impl PayloadKind {
    fn handle_descriptor(self) -> &'static str {
        match self {
            PayloadKind::Int => "(I)I",
            PayloadKind::Obj => "(Ljava/lang/Object;)Ljava/lang/Object;",
        }
    }
}

/// Why a call could not complete, shipped back in the reply envelope.
#[derive(Debug, Clone)]
pub(crate) enum ReplyError {
    /// The serving isolate was terminated (before or during the call).
    Revoked(String),
    /// The handler threw, or the request could not be decoded.
    Failed(String),
}

/// A message in a unit's mailbox.
#[derive(Debug)]
pub(crate) enum Envelope {
    /// A service call (or one-way send) from another unit.
    Request {
        /// Hub-assigned call id, echoed in the reply.
        call: u64,
        /// Unit to post the reply to.
        reply_to: UnitId,
        /// Target service name.
        service: Arc<str>,
        /// Payload kind (selects the handler overload).
        kind: PayloadKind,
        /// Wire-encoded argument.
        bytes: Vec<u8>,
        /// `true` for `Port.send`: no reply is ever produced.
        oneway: bool,
    },
    /// The outcome of a request this unit made earlier.
    Reply {
        /// The call this answers.
        call: u64,
        /// Wire-encoded result, or the failure.
        result: Result<(PayloadKind, Vec<u8>), ReplyError>,
    },
}

/// Failure modes of [`PortHub::send_request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SendError {
    /// Every matching export has been revoked.
    Revoked,
}

/// Successful outcomes of [`PortHub::send_request`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum SendOutcome {
    /// Admitted and routed; the reply will carry this call id.
    Sent(u64),
    /// The destination unit is over its mailbox quota. The payload is
    /// handed back so the sender can park and retry; the sending unit is
    /// registered for a wake-up token when the destination drains. The
    /// resolved destination rides along so the sender's park/retry
    /// bookkeeping stays shard-local (no hub-wide scans at pickup).
    OverQuota {
        /// The serialized payload, returned for the retry.
        bytes: Vec<u8>,
        /// The resolved destination unit whose quota rejected the send.
        dest: u32,
    },
}

/// Per-unit mailbox admission quota — the hub's flow control. A
/// destination whose admitted-but-unserved requests reach either bound
/// stops admitting: senders park in
/// [`crate::thread::ThreadState::BlockedOnQuota`] instead of failing
/// (and instead of growing the victim's heap), and their sends are
/// retried at quantum boundaries as the destination drains. Replies are
/// exempt — a full mailbox must never stop a reply from unblocking its
/// caller, or two units calling each other could deadlock on quota.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MailboxQuota {
    /// Maximum admitted-but-unserved requests per destination unit.
    pub(crate) max_messages: u32,
    /// Maximum admitted-but-unserved request payload bytes per
    /// destination unit.
    pub(crate) max_bytes: u64,
}

impl MailboxQuota {
    /// No flow control — the default.
    pub(crate) const UNBOUNDED: MailboxQuota = MailboxQuota {
        max_messages: u32::MAX,
        max_bytes: u64::MAX,
    };

    /// Admission check against the current usage. Strict comparison so a
    /// single oversized message still gets through an empty mailbox —
    /// quota throttles floods, it never wedges a sender permanently.
    fn admits(&self, msgs: u32, bytes: u64) -> bool {
        msgs < self.max_messages && bytes < self.max_bytes
    }

    /// `true` for [`MailboxQuota::UNBOUNDED`] — every admission check
    /// passes and no sender can ever park, so the hub skips the quota
    /// cell entirely on such clusters (admission counters stay zero in
    /// [`MailboxStat`]; there is no admitted-but-unserved bound to
    /// report against).
    fn is_unbounded(&self) -> bool {
        *self == MailboxQuota::UNBOUNDED
    }
}

impl Default for MailboxQuota {
    fn default() -> Self {
        MailboxQuota::UNBOUNDED
    }
}

/// Number of service-registry shards — a power of two. Contention on
/// the registry is per shard (per service-name neighborhood), not per
/// cluster.
const REGISTRY_SHARDS: usize = 16;

/// Deterministic shard routing: FNV-1a over the service name's bytes.
/// A pure, platform-independent function of the name — the proptest
/// lane in this module's tests pins that, which is what lets a sharded
/// registry coexist with the bit-identical differential contract.
pub(crate) fn shard_of(name: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h as usize) & (REGISTRY_SHARDS - 1)
}

/// One shard of the service registry: the exports whose names hash
/// here, plus the unresolved requests awaiting such an export.
/// Resolution and unresolved-parking for one name share this shard's
/// lock, so an export can never slip between a send's registry miss and
/// its park.
#[derive(Debug, Default)]
struct RegistryShard {
    /// Exports by name, then by exporting unit, to the export's revoked
    /// flag (set by isolate termination: calls fail with
    /// `ServiceRevoked`). Both levels are `BTreeMap` so bare-name
    /// resolution deterministically picks the lowest exporting unit,
    /// independent of export order.
    services: BTreeMap<Arc<str>, BTreeMap<UnitId, bool>>,
    /// Requests parked awaiting an export (service-tracker semantics):
    /// `(name, unit filter, envelope)`.
    unresolved: Vec<(Arc<str>, Option<UnitId>, Envelope)>,
}

/// The per-unit mailbox table plus the wake-token bitmap. Grows (under
/// the write lock) the first time a unit index is addressed; steady
/// state takes the read lock only, so posts from many senders proceed
/// in parallel and never contend with the registry shards or with the
/// receiving unit's drain.
#[derive(Debug, Default)]
struct MailTable {
    boxes: Vec<Arc<Mailbox>>,
    /// One bit per unit with fresh mail (or a quota-release token) since
    /// the scheduler's last sweep. A sweep is one word-scan — O(units/64)
    /// loads plus a `swap` per non-zero word — not a map walk under a
    /// global lock, and it yields units in ascending index order.
    woken: Vec<AtomicU64>,
}

/// The message hub shared by every unit of one cluster: service registry,
/// mailboxes, admission quotas and wake-up tokens. Created by the
/// [`crate::sched::ClusterBuilder`]; units reach it through the
/// [`crate::vm::Vm`] they were submitted as. Embedders observe it
/// through [`HubStats`] snapshots only.
///
/// Sharded for scale: the registry is split over [`REGISTRY_SHARDS`]
/// name-hashed shards, mailboxes are per-unit MPSC rings
/// ([`crate::mailbox::Mailbox`]) reached through an `RwLock` that is
/// write-locked only to grow the table, and quota accounting lives in
/// each destination mailbox's own cell. There is no hub-global mutex on
/// any send/drain/flush path. Lock order, where paths take more than
/// one: registry shard → mailbox table (read) → a mailbox quota cell;
/// [`PortHub::stats`] is the only path holding several shard/quota locks
/// at once, and every other path holds at most one.
#[derive(Debug, Default)]
pub(crate) struct PortHub {
    /// The sharded service registry (lock per shard, not per cluster).
    registry: [Mutex<RegistryShard>; REGISTRY_SHARDS],
    /// Per-unit mailboxes and the wake bitmap.
    table: RwLock<MailTable>,
    /// Call-id allocator. Ids are matched sender-side per reply and
    /// never compared across scheduler modes (latency is measured in
    /// vclock ticks), so a racy `fetch_add` order is fine.
    next_call: AtomicU64,
    /// Cluster-wide per-unit admission quota (immutable after build).
    quota: MailboxQuota,
    /// Fast-path mirror of "some wake bit may be set", so idle scheduler
    /// sweeps don't touch the table at all. The sweep clears it *before*
    /// scanning the words; because the per-word RMWs are `AcqRel`, a
    /// post whose bit the scan missed re-raises the flag afterwards — a
    /// `false` read can only miss a post that had not completed yet.
    woken_flag: AtomicBool,
    /// Cluster-wide undelivered-envelope counter, shared with every
    /// mailbox the table grows ([`Mailbox::with_pending`]). Incremented
    /// before an enqueue, decremented after a drain removed the
    /// envelope, so it never undercounts what is queued — which makes
    /// [`PortHub::quiescent`] one load plus the word-scan instead of an
    /// O(units) walk over every ring.
    pending: Arc<AtomicUsize>,
}

impl PortHub {
    /// A hub with the given per-unit admission quota.
    pub(crate) fn with_quota(quota: MailboxQuota) -> PortHub {
        PortHub {
            quota,
            ..PortHub::default()
        }
    }

    /// The mailbox for `unit`, growing the table on first contact.
    /// Cold-path form (clones the `Arc`); the per-message paths hold
    /// one [`PortHub::table_for`] read guard instead.
    fn mailbox(&self, unit: u32) -> Arc<Mailbox> {
        let table = self.table_for(unit);
        Arc::clone(&table.boxes[unit as usize])
    }

    /// A read guard whose table covers `unit` — the single table access
    /// of the per-message paths. Growth is the slow path: once the
    /// topology is built, every call is one uncontended read lock.
    fn table_for(&self, unit: u32) -> RwLockReadGuard<'_, MailTable> {
        loop {
            let table = self.table.read().unwrap();
            if table.boxes.len() > unit as usize {
                return table;
            }
            drop(table);
            self.grow(unit);
        }
    }

    /// Grows the mailbox table (and the wake bitmap) to cover `unit`.
    fn grow(&self, unit: u32) {
        let mut table = self.table.write().unwrap();
        let need = unit as usize + 1;
        if table.boxes.len() < need {
            let pending = &self.pending;
            table.boxes.resize_with(need, || {
                Arc::new(Mailbox::with_pending(Arc::clone(pending)))
            });
        }
        let words = need.div_ceil(64);
        if table.woken.len() < words {
            table.woken.resize_with(words, AtomicU64::default);
        }
    }

    /// Registers `unit`'s mailbox and hands it back for the unit to
    /// cache. After this, the unit's own drains, emptiness checks and
    /// park-decision re-checks go straight to its mailbox — a
    /// compute-only unit touches nothing hub-global at pickup.
    pub(crate) fn register_unit(&self, unit: UnitId) -> Arc<Mailbox> {
        self.mailbox(unit.index())
    }

    /// Sets `unit`'s wake bit, then raises the cluster-wide flag. A wake
    /// token can target a unit no send has addressed yet (a parked
    /// sender whose own index is higher than any destination's);
    /// [`PortHub::table_for`] gives it a slot.
    fn set_woken(&self, unit: u32) {
        {
            let table = self.table_for(unit);
            table.woken[unit as usize / 64].fetch_or(1 << (unit % 64), Ordering::AcqRel);
        }
        self.woken_flag.store(true, Ordering::Release);
    }

    /// Posts `env` to `unit`'s mailbox and leaves a wake token — ring
    /// push and wake bit under one table read guard, so a delivery is a
    /// single lock acquisition.
    fn post(&self, unit: u32, env: Envelope) {
        {
            let table = self.table_for(unit);
            table.boxes[unit as usize].post(env);
            table.woken[unit as usize / 64].fetch_or(1 << (unit % 64), Ordering::AcqRel);
        }
        self.woken_flag.store(true, Ordering::Release);
    }

    /// Registers `(unit, name)` and routes any requests parked awaiting
    /// this export into the unit's mailbox. Parked requests bypass the
    /// admission check (their senders are already blocked on the reply)
    /// but are still accounted, so the destination sheds new load until
    /// it works through them.
    pub(crate) fn export(&self, unit: UnitId, name: Arc<str>) {
        let routed: Vec<Envelope> = {
            let mut shard = self.registry[shard_of(&name)].lock().unwrap();
            shard
                .services
                .entry(Arc::clone(&name))
                .or_default()
                .insert(unit, false);
            let pending = std::mem::take(&mut shard.unresolved);
            let mut routed = Vec::new();
            for (n, filter, env) in pending {
                if *n == *name && filter.is_none_or(|u| u == unit) {
                    routed.push(env);
                } else {
                    shard.unresolved.push((n, filter, env));
                }
            }
            routed
        };
        for env in routed {
            if !self.quota.is_unbounded() {
                if let Envelope::Request { ref bytes, .. } = env {
                    let mb = self.mailbox(unit.index());
                    let mut cell = mb.quota_cell();
                    cell.msgs += 1;
                    cell.bytes += bytes.len() as u64;
                }
            }
            self.post(unit.index(), env);
        }
    }

    /// Marks `(unit, name)` revoked; subsequent sends fail fast. Senders
    /// parked on the unit's quota are woken so their retry observes the
    /// revocation instead of waiting for a drain that may never come.
    pub(crate) fn revoke(&self, unit: UnitId, name: &str) {
        {
            let mut shard = self.registry[shard_of(name)].lock().unwrap();
            if let Some(units) = shard.services.get_mut(name) {
                if let Some(revoked) = units.get_mut(&unit) {
                    *revoked = true;
                }
            }
        }
        let waiters: Vec<u32> = self.mailbox(unit.index()).quota_cell().waiters.clone();
        for waiter in waiters {
            self.set_woken(waiter);
        }
    }

    /// Routes a request: to `target`'s mailbox when addressed, to the
    /// lowest exporting unit otherwise, or parks it awaiting export.
    /// Resolution and unresolved-parking happen under the name's
    /// registry shard lock (an export cannot slip between the miss and
    /// the park); admission and waiter registration happen under the
    /// destination mailbox's own quota lock (a concurrent release cannot
    /// slip between the check and the registration).
    pub(crate) fn send_request(
        &self,
        from: UnitId,
        target: Option<UnitId>,
        name: &str,
        kind: PayloadKind,
        bytes: Vec<u8>,
        oneway: bool,
    ) -> Result<SendOutcome, SendError> {
        let (dest, service): (UnitId, Arc<str>) = {
            let mut shard = self.registry[shard_of(name)].lock().unwrap();
            let mut resolved = None;
            let mut any_revoked = false;
            // The inner map iterates units in ascending order, so the
            // bare-name path picks the lowest live exporter; the key's
            // `Arc<str>` is reused — the hot path allocates no name copy.
            if let Some((key, units)) = shard.services.get_key_value(name) {
                for (u, &revoked) in units.iter() {
                    if target.is_none_or(|t| t == *u) {
                        if revoked {
                            any_revoked = true;
                        } else {
                            resolved = Some((*u, Arc::clone(key)));
                            break;
                        }
                    }
                }
            }
            match resolved {
                Some(hit) => hit,
                None if any_revoked => return Err(SendError::Revoked),
                None => {
                    let call = self.next_call.fetch_add(1, Ordering::Relaxed) + 1;
                    let name_arc: Arc<str> = Arc::from(name);
                    let env = Envelope::Request {
                        call,
                        reply_to: from,
                        service: Arc::clone(&name_arc),
                        kind,
                        bytes,
                        oneway,
                    };
                    shard.unresolved.push((name_arc, target, env));
                    return Ok(SendOutcome::Sent(call));
                }
            }
        };
        // Admission, ring push and wake bit all under one table read
        // guard — the entire delivery is one lock acquisition plus the
        // destination's quota cell (lock order: table read → quota
        // cell, as documented on [`PortHub`]).
        let d = dest.index() as usize;
        let call = {
            let table = self.table_for(dest.index());
            let mb = &table.boxes[d];
            if !self.quota.is_unbounded() {
                let mut cell = mb.quota_cell();
                if !self.quota.admits(cell.msgs, cell.bytes) {
                    let sender = from.index();
                    if !cell.waiters.contains(&sender) {
                        cell.waiters.push(sender);
                    }
                    return Ok(SendOutcome::OverQuota {
                        bytes,
                        dest: dest.index(),
                    });
                }
                cell.msgs += 1;
                cell.bytes += bytes.len() as u64;
            }
            let call = self.next_call.fetch_add(1, Ordering::Relaxed) + 1;
            let env = Envelope::Request {
                call,
                reply_to: from,
                service,
                kind,
                bytes,
                oneway,
            };
            mb.post(env);
            table.woken[d / 64].fetch_or(1 << (d % 64), Ordering::AcqRel);
            call
        };
        self.woken_flag.store(true, Ordering::Release);
        Ok(SendOutcome::Sent(call))
    }

    /// One boundary transaction for a serving unit: posts its coalesced
    /// replies and returns the quota capacity of the requests it served
    /// this quantum, waking any senders the release lets back in. Called
    /// from [`Vm::port_quantum_flush`] — mid-slice service work never
    /// touches the hub.
    pub(crate) fn flush_boundary(
        &self,
        unit: UnitId,
        outbox: &mut Vec<(UnitId, Envelope)>,
        served_msgs: u32,
        served_bytes: u64,
    ) {
        if outbox.is_empty() && (served_msgs == 0 || self.quota.is_unbounded()) {
            return;
        }
        // The whole boundary is one table read guard: every reply post,
        // its wake bit, and the serving unit's quota release (lock
        // order: table read → quota cell, as documented on [`PortHub`]).
        let mut need = unit.index();
        for (to, _) in outbox.iter() {
            need = need.max(to.index());
        }
        let posted = !outbox.is_empty();
        let waiters: Vec<u32> = {
            let table = self.table_for(need);
            for (to, env) in outbox.drain(..) {
                let d = to.index() as usize;
                table.boxes[d].post(env);
                table.woken[d / 64].fetch_or(1 << (d % 64), Ordering::AcqRel);
            }
            if served_msgs > 0 && !self.quota.is_unbounded() {
                let mut cell = table.boxes[unit.index() as usize].quota_cell();
                cell.msgs = cell.msgs.saturating_sub(served_msgs);
                cell.bytes = cell.bytes.saturating_sub(served_bytes);
                if self.quota.admits(cell.msgs, cell.bytes) {
                    cell.waiters.clone()
                } else {
                    Vec::new()
                }
            } else {
                Vec::new()
            }
        };
        if posted {
            self.woken_flag.store(true, Ordering::Release);
        }
        // Wake bits for released senders are set after the quota lock
        // drops (no quota lock is ever held across a *new* table
        // acquisition). No wake-up can be lost to the gap: the waiter
        // registrations stay in the cell, and a sender whose admission
        // check runs after the release observes the post-release
        // counters.
        for waiter in waiters {
            self.set_woken(waiter);
        }
    }

    /// Drops `sender`'s quota-waiter registrations everywhere. Cold-path
    /// form for isolate revocation, which abandons pending sends without
    /// tracking their parked destinations; the per-pickup retry sweep
    /// uses the targeted [`PortHub::clear_quota_waits_at`].
    pub(crate) fn clear_quota_waits(&self, sender: UnitId) {
        let boxes: Vec<Arc<Mailbox>> = {
            let table = self.table.read().unwrap();
            table.boxes.iter().map(Arc::clone).collect()
        };
        for mb in boxes {
            mb.quota_cell().waiters.retain(|&s| s != sender.index());
        }
    }

    /// Drops `sender`'s quota-waiter registrations at its parked
    /// destinations. The sender's retry sweep calls this first, then
    /// re-registers through [`PortHub::send_request`] for each send
    /// still over quota.
    pub(crate) fn clear_quota_waits_at(&self, sender: UnitId, dests: &[u32]) {
        for &d in dests {
            self.mailbox(d)
                .quota_cell()
                .waiters
                .retain(|&s| s != sender.index());
        }
    }

    /// `true` when `sender` has a registered quota-park at one of
    /// `dests` whose destination now admits. The scheduler re-checks
    /// this under its park lock — the mirror of the mailbox re-check —
    /// closing the race where the release token fired while the sender
    /// was still running and was dropped by the wake-up sweep.
    pub(crate) fn retry_ready_at(&self, sender: UnitId, dests: &[u32]) -> bool {
        dests.iter().any(|&d| {
            let mb = self.mailbox(d);
            let cell = mb.quota_cell();
            cell.waiters.contains(&sender.index()) && self.quota.admits(cell.msgs, cell.bytes)
        })
    }

    /// Hub-wide [`PortHub::retry_ready_at`], for unit tests and the loom
    /// models (which don't thread parked destinations around).
    #[cfg(test)]
    pub(crate) fn retry_ready(&self, sender: UnitId) -> bool {
        let units = self.table.read().unwrap().boxes.len() as u32;
        (0..units).any(|d| self.retry_ready_at(sender, &[d]))
    }

    /// Drains `unit`'s mailbox into `out`. Test/model form — the runtime
    /// drain goes through the unit's own cached mailbox
    /// ([`Vm::port_drain`]) and never locks the table.
    #[cfg(test)]
    pub(crate) fn take_mail_into(&self, unit: UnitId, out: &mut Vec<Envelope>) {
        self.mailbox(unit.index()).drain_into(out);
    }

    /// `true` when `unit` has undelivered mail. Test/model form — the
    /// scheduler asks the unit's cached mailbox instead.
    #[cfg(test)]
    pub(crate) fn has_mail(&self, unit: UnitId) -> bool {
        let table = self.table.read().unwrap();
        table
            .boxes
            .get(unit.index() as usize)
            .is_some_and(|mb| mb.has_mail())
    }

    /// `true` when some unit may have received mail since the last sweep
    /// (one atomic load; may say `true` spuriously, never misses a post
    /// that completed before the load).
    pub(crate) fn has_woken(&self) -> bool {
        self.woken_flag.load(Ordering::Acquire)
    }

    /// Drains every pending wake token into `out`, in ascending unit
    /// order — one batched word-scan per scheduler sweep. The flag is
    /// cleared first: a post racing the scan either lands its bit before
    /// the word is swapped (harvested now) or, having read the swapped
    /// word value through its `AcqRel` RMW, re-raises the flag strictly
    /// after this clear (harvested next sweep). Either way no token is
    /// lost.
    pub(crate) fn drain_woken_into(&self, out: &mut Vec<u32>) {
        self.woken_flag.store(false, Ordering::Release);
        let table = self.table.read().unwrap();
        for (wi, word) in table.woken.iter().enumerate() {
            if word.load(Ordering::Acquire) == 0 {
                continue;
            }
            let mut bits = word.swap(0, Ordering::AcqRel);
            while bits != 0 {
                let bit = bits.trailing_zeros();
                out.push(wi as u32 * 64 + bit);
                bits &= bits - 1;
            }
        }
    }

    /// `true` when no undelivered mail or wake-up token exists anywhere —
    /// the hub-side half of the cluster's quiescence check. Requests
    /// parked awaiting an export that never happens do *not* block
    /// quiescence: their callers stay blocked and their units report it.
    /// One load of the shared pending counter (which never undercounts
    /// what is queued — see [`Mailbox::with_pending`]) plus the
    /// O(units/64) word-scan; never a walk over the rings, so the check
    /// stays cheap at 1000+ units. A post that is mid-flight keeps the
    /// counter nonzero, so a `true` here cannot miss queued mail — the
    /// spurious direction is `false`, which the caller retries.
    pub(crate) fn quiescent(&self) -> bool {
        if self.pending.load(Ordering::Acquire) != 0 {
            return false;
        }
        let table = self.table.read().unwrap();
        table.woken.iter().all(|w| w.load(Ordering::Acquire) == 0)
    }

    /// Number of requests parked awaiting an export (introspection; the
    /// embedder-facing equivalent is [`HubStats::unresolved_requests`]).
    #[cfg(test)]
    pub(crate) fn unresolved_requests(&self) -> usize {
        self.registry
            .iter()
            .map(|s| s.lock().unwrap().unresolved.len())
            .sum()
    }

    /// Exported service names, in `(unit, name)` order (introspection;
    /// the embedder-facing equivalent is [`HubStats::services`]).
    #[cfg(test)]
    pub(crate) fn service_names(&self) -> Vec<(u32, String)> {
        let mut out = Vec::new();
        for shard in self.registry.iter() {
            let shard = shard.lock().unwrap();
            for (name, units) in shard.services.iter() {
                for (u, &revoked) in units.iter() {
                    if !revoked {
                        out.push((u.index(), name.to_string()));
                    }
                }
            }
        }
        out.sort();
        out
    }

    /// A read-only snapshot of the hub — the embedder-facing view
    /// ([`crate::sched::ClusterOutcome::hub_stats`]). Coherent across shards:
    /// every registry shard and every mailbox's quota cell is held
    /// locked simultaneously while the rows are read, so totals cannot
    /// tear between shard locks. The pile-up cannot deadlock: every
    /// other hub path holds at most one shard or quota lock at a time,
    /// and this one acquires them in a fixed order (shards ascending,
    /// then cells ascending).
    pub(crate) fn stats(&self) -> HubStats {
        let shards: Vec<_> = self.registry.iter().map(|s| s.lock().unwrap()).collect();
        let table = self.table.read().unwrap();
        let cells: Vec<_> = table.boxes.iter().map(|mb| mb.quota_cell()).collect();
        let mut services: Vec<ServiceStat> = Vec::new();
        for shard in shards.iter() {
            for (name, units) in shard.services.iter() {
                for (u, &revoked) in units.iter() {
                    if !revoked {
                        services.push(ServiceStat {
                            unit: u.index(),
                            name: name.to_string(),
                        });
                    }
                }
            }
        }
        services.sort_by(|a, b| (a.unit, &a.name).cmp(&(b.unit, &b.name)));
        let mut mailboxes = Vec::new();
        for (u, (mb, cell)) in table.boxes.iter().zip(cells.iter()).enumerate() {
            let row = MailboxStat {
                unit: u as u32,
                queued: mb.queued_len(),
                admitted_messages: cell.msgs,
                admitted_bytes: cell.bytes,
                parked_senders: cell.waiters.len(),
            };
            if row.queued > 0
                || row.admitted_messages > 0
                || row.admitted_bytes > 0
                || row.parked_senders > 0
            {
                mailboxes.push(row);
            }
        }
        HubStats {
            services,
            mailboxes,
            unresolved_requests: shards.iter().map(|s| s.unresolved.len()).sum(),
        }
    }
}

/// Read-only snapshot of a cluster's hub: live exports, per-unit mailbox
/// depths and quota state. The embedder-facing replacement for direct
/// hub access — obtain one from
/// [`crate::sched::ClusterOutcome::hub_stats`] after a run.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct HubStats {
    /// Live (non-revoked) exports, in `(unit, name)` order.
    pub services: Vec<ServiceStat>,
    /// Per-unit mailbox state, in unit order; units with no queued,
    /// admitted or parked traffic are omitted.
    pub mailboxes: Vec<MailboxStat>,
    /// Requests parked awaiting an export that has not happened yet.
    pub unresolved_requests: usize,
}

/// One live export in a [`HubStats`] snapshot.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServiceStat {
    /// Exporting unit (its submit index).
    pub unit: u32,
    /// Service name.
    pub name: String,
}

/// One unit's mailbox in a [`HubStats`] snapshot.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct MailboxStat {
    /// The unit (its submit index).
    pub unit: u32,
    /// Envelopes posted and not yet drained.
    pub queued: usize,
    /// Requests admitted under quota and not yet served.
    pub admitted_messages: u32,
    /// Payload bytes admitted under quota and not yet served.
    pub(crate) admitted_bytes: u64,
    /// Senders currently parked on this unit's quota.
    pub parked_senders: usize,
}

/// Where a request came from, so the reply can find its way back.
#[derive(Debug, Clone, Copy)]
enum ReplyTo {
    /// Another unit, via the hub.
    Unit(UnitId),
    /// A caller in this same VM (local call on an unattached VM).
    Local,
}

/// A request delivered to a pump, ready to dispatch.
#[derive(Debug)]
struct ReadyRequest {
    call: u64,
    reply_to: ReplyTo,
    kind: PayloadKind,
    bytes: Vec<u8>,
    oneway: bool,
}

/// The request a pump is currently serving.
#[derive(Debug, Clone, Copy)]
struct CurrentCall {
    call: u64,
    reply_to: ReplyTo,
    kind: PayloadKind,
    oneway: bool,
    /// The request's quota contribution — `(1, payload bytes)` for a
    /// hub-routed request, `(0, 0)` for a local one — released when the
    /// request reaches its terminal disposition (handler returned,
    /// threw, or was revoked). Releasing at *completion* rather than at
    /// dispatch keeps the quota an honest bound on payloads resident at
    /// the destination.
    quota: (u32, u64),
}

/// One exported service inside its VM: the pump thread plus the resolved
/// handler methods and the request queue.
#[derive(Debug)]
struct Pump {
    thread: ThreadId,
    isolate: IsolateId,
    handler_pin: usize,
    handle_int: Option<MethodRef>,
    handle_obj: Option<MethodRef>,
    queue: VecDeque<ReadyRequest>,
    current: Option<CurrentCall>,
}

/// Who consumes a reply, routed by request id: a thread parked in the
/// blocking `Service.call`, or a pending future created by
/// `Service.post` (whose owner may be off running something else).
#[derive(Debug, Clone, Copy)]
enum Waiter {
    Thread(ThreadId),
    Future(u32),
}

/// A guest-visible future (`ijvm/Future`), created by `Service.post`.
/// The guest object carries only the id; all state lives here.
#[derive(Debug)]
struct FutureState {
    /// Isolate that created the future. Terminating it revokes the
    /// future deterministically (the late reply is dropped).
    owner: IsolateId,
    /// A thread parked in `get`, with the payload kind its overload
    /// decodes (`get` = int, `getObject` = object graph).
    waiter: Option<(ThreadId, PayloadKind)>,
    slot: FutureSlot,
}

#[derive(Debug)]
enum FutureSlot {
    /// Reply not yet delivered; `call` routes it here (0 while the send
    /// itself is still parked on the destination's quota).
    Pending { call: u64 },
    /// Reply arrived; consumed by the first `get`.
    Ready(Result<(PayloadKind, Vec<u8>), ReplyError>),
    /// Cancelled before the reply arrived; `get` throws.
    Cancelled,
}

/// A send parked because its destination was over quota. The payload was
/// serialized and charged before parking — sender-pays happens exactly
/// once — and only the hub admission is retried, at every
/// quantum-boundary drain, in send order.
#[derive(Debug)]
struct PendingSend {
    thread: ThreadId,
    target: Option<UnitId>,
    name: Arc<str>,
    kind: PayloadKind,
    bytes: Vec<u8>,
    mode: SendMode,
    /// The destination whose quota parked this send (where the waiter
    /// registration lives), so retry sweeps and park re-checks stay
    /// shard-local instead of scanning every mailbox.
    parked_dest: u32,
}

/// What a [`PendingSend`] resumes as once admitted.
#[derive(Debug, Clone, Copy)]
enum SendMode {
    /// Blocking `Service.call`: on admission the thread rolls over into
    /// `BlockedOnPort`, still parked, awaiting the reply.
    Call,
    /// `Service.post`: the future ref is already on the sender's operand
    /// stack; admission wires the call id to the future and wakes the
    /// sender.
    Post {
        /// The future handed back by the parked `post`.
        future: u32,
    },
    /// `Port.send`: fire-and-forget; admission just wakes the sender.
    Oneway,
}

/// Per-VM port state: the cluster attachment, the service pumps this VM
/// exports, and the threads waiting on replies. Always present (so
/// services can be exported before the VM is submitted to a cluster);
/// inert until guest code touches the `ijvm/Service` surface.
#[derive(Debug, Default)]
pub(crate) struct PortState {
    /// Set by [`crate::sched::Cluster::submit`].
    attach: Option<(UnitId, Arc<PortHub>)>,
    /// This unit's own hub mailbox, cached at attach: drains, emptiness
    /// checks and park re-checks go straight here, so the unit never
    /// locks the hub's mailbox table for its own mail.
    own_box: Option<Arc<Mailbox>>,
    pumps: BTreeMap<Arc<str>, Pump>,
    /// Reply routing by call id. Hot path (touched per call/reply), so
    /// it stays a HashMap.
    // lint: allow(determinism) — keyed insert/remove only, never
    // iterated, so hash order is unobservable.
    waiting: HashMap<u64, Waiter>,
    /// Live futures by id (the guest object's `id` field). Hot path.
    // lint: allow(determinism) — keyed access; the one iteration
    // (port_revoke_isolate) sorts the collected ids before acting.
    futures: HashMap<u32, FutureState>,
    /// Future-id allocator.
    next_future: u32,
    /// Sends parked on a destination's quota, in send order.
    pending_sends: VecDeque<PendingSend>,
    /// Replies produced mid-slice, coalesced into one hub post at the
    /// quantum boundary ([`crate::vm::Vm::port_quantum_flush`]).
    outbox: Vec<(UnitId, Envelope)>,
    /// Quota capacity of requests this VM finished serving since the
    /// last boundary flush: `(messages, payload bytes)`.
    served: (u32, u64),
    /// Call ids for local (unattached) dispatches, allocated from the top
    /// of the id space so they can never collide with hub-assigned ids.
    next_local_call: u64,
    /// Reused buffer for mailbox drains (no steady-state allocation on
    /// the ping-pong path).
    drain_scratch: Vec<Envelope>,
    /// One-entry service-name decode cache: guest code overwhelmingly
    /// passes the same interned string constant on every call, so the
    /// UTF-16 decode + allocation is paid once per (ref, GC epoch).
    name_cache: Option<(GcRef, u64, Arc<str>)>,
}

impl PortState {
    /// `true` when outside input is still expected: a reply for a parked
    /// call or a pending future, or an admission retry for a
    /// quota-parked send — [`crate::vm::Vm::run`] reports
    /// [`crate::vm::RunOutcome::Blocked`] instead of `Deadlock`/`Idle`
    /// while this holds.
    pub(crate) fn has_waiters(&self) -> bool {
        !self.waiting.is_empty() || !self.pending_sends.is_empty()
    }

    /// `true` when the unit must stay schedulable after going idle:
    /// it exports live services, has calls or futures in flight, or has
    /// sends parked on a destination's quota.
    pub(crate) fn keeps_unit_alive(&self) -> bool {
        !self.pumps.is_empty() || !self.waiting.is_empty() || !self.pending_sends.is_empty()
    }

    fn alloc_local_call(&mut self) -> u64 {
        self.next_local_call += 1;
        u64::MAX - self.next_local_call
    }

    fn alloc_future(&mut self) -> u32 {
        self.next_future += 1;
        self.next_future
    }

    /// Accounts released quota capacity (a served request's
    /// [`CurrentCall::quota`] contribution) for the next boundary flush.
    fn note_served_counts(&mut self, (msgs, bytes): (u32, u64)) {
        self.served.0 += msgs;
        self.served.1 += bytes;
    }

    /// Accounts one hub-admitted request as served, for the next
    /// boundary flush. Local dispatches never passed admission and are
    /// exempt.
    fn note_served(&mut self, req: &ReadyRequest) {
        if matches!(req.reply_to, ReplyTo::Unit(_)) {
            self.served.0 += 1;
            self.served.1 += req.bytes.len() as u64;
        }
    }
}

impl Vm {
    /// Attaches this VM to a cluster hub as `unit`, publishing every
    /// already-exported service into the hub registry. Called by
    /// [`crate::sched::Cluster::submit`].
    pub(crate) fn attach_port(&mut self, unit: UnitId, hub: Arc<PortHub>) {
        for name in self.port.pumps.keys() {
            hub.export(unit, Arc::clone(name));
        }
        if let Some(ts) = self.trace.as_mut() {
            ts.unit = crate::trace::clamp_id(unit.index());
        }
        self.port.own_box = Some(hub.register_unit(unit));
        self.port.attach = Some((unit, hub));
    }

    /// Drains this unit's mailbox, delivering every envelope: requests
    /// dispatch onto (or queue behind) their service pump, replies wake
    /// their waiting caller. The scheduler calls this at every quantum
    /// boundary, before running a slice.
    pub(crate) fn port_drain(&mut self) {
        // Fast path: a unit with no exports, no calls in flight and no
        // quota-parked sends can receive no mail (requests need a
        // registry entry, replies a waiter), so compute-only units skip
        // the hub lock entirely. The one exception — a request that
        // raced in just before this unit's services were revoked — is
        // caught by the scheduler's finish-path mailbox check, which
        // calls `port_drain_force`.
        if self.port.pumps.is_empty()
            && self.port.waiting.is_empty()
            && self.port.pending_sends.is_empty()
        {
            return;
        }
        self.port_drain_force();
    }

    /// Unconditional mailbox drain (see [`Vm::port_drain`]). Drains the
    /// unit's own cached mailbox ring directly — senders post to the
    /// ring without a lock, and the drain never contends with them.
    pub(crate) fn port_drain_force(&mut self) {
        let Some(own) = self.port.own_box.clone() else {
            return;
        };
        let mut mail = std::mem::take(&mut self.port.drain_scratch);
        own.drain_into(&mut mail);
        if !mail.is_empty() {
            self.trace_mail_drain(mail.len() as u64);
        }
        for env in mail.drain(..) {
            match env {
                Envelope::Request {
                    call,
                    reply_to,
                    service,
                    kind,
                    bytes,
                    oneway,
                } => {
                    let req = ReadyRequest {
                        call,
                        reply_to: ReplyTo::Unit(reply_to),
                        kind,
                        bytes,
                        oneway,
                    };
                    self.pump_enqueue(&service, req);
                }
                Envelope::Reply { call, result } => deliver_reply(self, call, result),
            }
        }
        self.port.drain_scratch = mail;
        self.port_retry_pending();
    }

    /// Retries quota-parked sends in send order — the unpark half of the
    /// flow-control protocol, run at every quantum-boundary drain. Each
    /// retry goes back through hub admission: success resumes the send
    /// as if it had never parked, a still-full destination re-registers
    /// for its wake-up token, and a revocation fails the send the same
    /// way it would have failed synchronously.
    fn port_retry_pending(&mut self) {
        if self.port.pending_sends.is_empty() {
            return;
        }
        let Some((unit, hub)) = self.port.attach.clone() else {
            return;
        };
        // Registrations are rebuilt from scratch each sweep so stale
        // entries (dropped sends, terminated threads) cannot accumulate.
        // Only the destinations this unit is actually parked on are
        // touched — the sweep is shard-local, not a hub-wide scan.
        let mut dests: Vec<u32> = self
            .port
            .pending_sends
            .iter()
            .map(|p| p.parked_dest)
            .collect();
        dests.sort_unstable();
        dests.dedup();
        hub.clear_quota_waits_at(unit, &dests);
        let rounds = self.port.pending_sends.len();
        for _ in 0..rounds {
            let Some(ps) = self.port.pending_sends.pop_front() else {
                break;
            };
            let PendingSend {
                thread: tid,
                target,
                name,
                kind,
                bytes,
                mode,
                parked_dest: _,
            } = ps;
            // The parked thread was interrupted or terminated meanwhile:
            // the send is abandoned.
            if self.threads[tid.0 as usize].state != ThreadState::BlockedOnQuota {
                continue;
            }
            let iso = self.threads[tid.0 as usize].current_isolate;
            let oneway = matches!(mode, SendMode::Oneway);
            match hub.send_request(unit, target, &name, kind, bytes, oneway) {
                Ok(SendOutcome::Sent(call)) => {
                    self.trace_emit(
                        crate::trace::EventKind::QuotaUnpark,
                        Some(iso),
                        Some(tid),
                        call,
                    );
                    match mode {
                        SendMode::Call => {
                            self.port.waiting.insert(call, Waiter::Thread(tid));
                            self.threads[tid.0 as usize].state =
                                ThreadState::BlockedOnPort { call };
                            self.trace_call_send(call, iso, tid, crate::trace::EventKind::CallSend);
                        }
                        SendMode::Post { future } => {
                            if let Some(f) = self.port.futures.get_mut(&future) {
                                if matches!(f.slot, FutureSlot::Pending { .. }) {
                                    f.slot = FutureSlot::Pending { call };
                                }
                            }
                            self.port.waiting.insert(call, Waiter::Future(future));
                            self.trace_call_send(
                                call,
                                iso,
                                tid,
                                crate::trace::EventKind::FuturePost,
                            );
                            self.wake(tid);
                        }
                        SendMode::Oneway => {
                            self.trace_emit(
                                crate::trace::EventKind::OnewaySend,
                                Some(iso),
                                Some(tid),
                                call,
                            );
                            self.wake(tid);
                        }
                    }
                }
                Ok(SendOutcome::OverQuota { bytes, dest }) => {
                    self.port.pending_sends.push_back(PendingSend {
                        thread: tid,
                        target,
                        name,
                        kind,
                        bytes,
                        mode,
                        parked_dest: dest,
                    });
                }
                Err(SendError::Revoked) => {
                    let msg = format!("service '{name}' revoked: isolate terminated");
                    match mode {
                        SendMode::Call => {
                            let ex = crate::interp::alloc_exception(
                                self,
                                tid,
                                SERVICE_REVOKED_EXCEPTION,
                                &msg,
                            );
                            self.threads[tid.0 as usize].pending_exception = Some(ex);
                        }
                        SendMode::Post { future } => {
                            if let Some(f) = self.port.futures.get_mut(&future) {
                                if matches!(f.slot, FutureSlot::Pending { .. }) {
                                    f.slot = FutureSlot::Ready(Err(ReplyError::Revoked(msg)));
                                }
                            }
                        }
                        SendMode::Oneway => {} // dropped silently, like port_send
                    }
                    self.wake(tid);
                }
            }
        }
    }

    /// Flushes this unit's coalesced replies and served-request quota to
    /// the hub in one transaction. The scheduler calls this at every
    /// quantum boundary — after the slice, and again after finish-path
    /// force drains — in both scheduler modes, so delivery points stay
    /// bit-identical.
    pub(crate) fn port_quantum_flush(&mut self) {
        let (msgs, bytes) = std::mem::take(&mut self.port.served);
        if self.port.outbox.is_empty() && msgs == 0 {
            return;
        }
        let Some((unit, hub)) = self.port.attach.clone() else {
            self.port.outbox.clear();
            return;
        };
        let mut outbox = std::mem::take(&mut self.port.outbox);
        hub.flush_boundary(unit, &mut outbox, msgs, bytes);
        self.port.outbox = outbox;
    }

    /// Revokes every service exported by `iso`: replies `ServiceRevoked`
    /// to its pending and queued calls, marks the hub entries revoked,
    /// and retires idle pump threads (busy ones die with the isolate's
    /// `StoppedIsolateException`). Also revokes the isolate's pending
    /// futures — their reply routing is dropped so late replies are
    /// discarded — and abandons its quota-parked sends (their threads
    /// already took the termination exception). Called by isolate
    /// termination.
    pub(crate) fn port_revoke_isolate(&mut self, iso: IsolateId) {
        let names: Vec<Arc<str>> = self
            .port
            .pumps
            .iter()
            .filter(|(_, p)| p.isolate == iso)
            .map(|(n, _)| Arc::clone(n))
            .collect();
        for name in names {
            revoke_pump(self, &name);
        }
        let mut dead: Vec<u32> = self
            .port
            .futures
            .iter()
            .filter(|(_, f)| f.owner == iso)
            .map(|(id, _)| *id)
            .collect();
        // Collected from a HashMap: sort so the processing order (and
        // anything it may ever feed) is independent of hash order.
        dead.sort_unstable();
        for fid in dead {
            if let Some(f) = self.port.futures.remove(&fid) {
                if let FutureSlot::Pending { call } = f.slot {
                    self.port.waiting.remove(&call);
                }
            }
        }
        let threads = &self.threads;
        self.port
            .pending_sends
            .retain(|ps| threads[ps.thread.0 as usize].state == ThreadState::BlockedOnQuota);
        // The retry sweep only clears this unit's hub waiter pairs when
        // it has pending sends left to re-register; if the revocation
        // just abandoned the last one, drop the stale pairs here or an
        // admitting destination would requeue this unit forever.
        if self.port.pending_sends.is_empty() {
            if let Some((unit, hub)) = self.port.attach.clone() {
                hub.clear_quota_waits(unit);
            }
        }
    }

    /// `true` when this unit must stay schedulable after going idle: it
    /// exports live services or waits on a cross-unit reply. The
    /// scheduler parks such units instead of finishing them.
    pub(crate) fn port_keeps_unit_alive(&self) -> bool {
        self.port.keeps_unit_alive()
    }

    /// `true` when this unit's mailbox has undelivered mail. One ring
    /// emptiness check on the unit's own cached mailbox — no hub lock,
    /// nothing for an unattached VM — so the scheduler's park decision
    /// and finish-path check cost a compute-only unit nothing.
    pub(crate) fn port_has_mail(&self) -> bool {
        self.port.own_box.as_ref().is_some_and(|mb| mb.has_mail())
    }

    /// `true` when this unit holds a quota-parked send whose destination
    /// now admits. The scheduler re-checks this under its park lock —
    /// the mirror of the [`Vm::port_has_mail`] re-check — closing the
    /// race where the release token fired while the unit was still
    /// running and was dropped by the wake-up sweep. Units with no
    /// pending sends (the common case) return without touching the hub;
    /// parked ones probe only the destinations they are parked on.
    /// Sound because waiter registrations are created together with
    /// their `PendingSend` (at its `parked_dest`) and cleared by the
    /// retry sweep or, when revocation abandons the last send, by
    /// `port_revoke_isolate`.
    pub(crate) fn port_retry_ready(&self) -> bool {
        if self.port.pending_sends.is_empty() {
            return false;
        }
        let Some((unit, hub)) = self.port.attach.as_ref() else {
            return false;
        };
        let mut dests: Vec<u32> = self
            .port
            .pending_sends
            .iter()
            .map(|p| p.parked_dest)
            .collect();
        dests.sort_unstable();
        dests.dedup();
        hub.retry_ready_at(*unit, &dests)
    }

    /// Queues `req` behind `name`'s pump (or fails it when the service
    /// is gone) and dispatches if the pump is idle.
    fn pump_enqueue(&mut self, name: &Arc<str>, req: ReadyRequest) {
        match self.port.pumps.get_mut(name) {
            Some(pump) => {
                pump.queue.push_back(req);
                pump_advance(self, name);
            }
            None => {
                self.port.note_served(&req);
                let msg = format!("service '{name}' revoked: isolate terminated");
                send_reply(
                    self,
                    req.reply_to,
                    req.call,
                    req.oneway,
                    Err(ReplyError::Revoked(msg)),
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Checkpoint support (crate::checkpoint)
    // ------------------------------------------------------------------

    /// Whether the port layer is at a checkpointable boundary: no call
    /// awaiting a reply, no quota-parked send, nothing mid-dispatch, no
    /// unflushed boundary state and no undrained mail. The scheduler's
    /// capture point (after `port_drain`, before the slice) plus this
    /// check together implement the documented drain-to-boundary rule:
    /// in-flight cross-unit traffic must land before a snapshot is cut.
    pub(crate) fn port_checkpoint_clean(&self) -> Result<(), &'static str> {
        let p = &self.port;
        if !p.waiting.is_empty() {
            return Err("calls or futures awaiting replies");
        }
        if !p.pending_sends.is_empty() {
            return Err("sends parked on a destination quota");
        }
        if !p.outbox.is_empty() {
            return Err("replies pending the boundary flush");
        }
        if p.served != (0, 0) {
            return Err("served quota pending the boundary flush");
        }
        for pump in p.pumps.values() {
            if pump.current.is_some() || !pump.queue.is_empty() {
                return Err("service pump mid-request");
            }
        }
        for f in p.futures.values() {
            if f.waiter.is_some() {
                return Err("thread parked in Future.get");
            }
            if matches!(f.slot, FutureSlot::Pending { .. }) {
                return Err("future awaiting its reply");
            }
        }
        if self.port_has_mail() {
            return Err("undrained mailbox");
        }
        Ok(())
    }

    /// Snapshots the port layer for a checkpoint image. Callers must
    /// have verified [`Vm::port_checkpoint_clean`] first: only durable
    /// state (exported pumps, resolved futures, id allocators) is
    /// captured — everything transient is clean by precondition.
    pub(crate) fn port_snapshot(&self) -> PortImage {
        let pumps = self
            .port
            .pumps
            .iter()
            .map(|(name, p)| PumpImage {
                name: name.to_string(),
                thread: p.thread.0,
                isolate: p.isolate.0,
                handler_pin: p.handler_pin as u64,
                handle_int: p.handle_int,
                handle_obj: p.handle_obj,
            })
            .collect();
        let mut futures: Vec<FutureImage> = self
            .port
            .futures
            .iter()
            .map(|(&id, f)| FutureImage {
                id,
                owner: f.owner.0,
                slot: match &f.slot {
                    FutureSlot::Ready(r) => FutureSlotImage::Ready(r.clone()),
                    FutureSlot::Cancelled => FutureSlotImage::Cancelled,
                    FutureSlot::Pending { .. } => {
                        unreachable!("port_checkpoint_clean rejects pending futures")
                    }
                },
            })
            .collect();
        // Collected from a HashMap: sort so the image bytes are
        // independent of hash order.
        futures.sort_unstable_by_key(|f| f.id);
        PortImage {
            pumps,
            futures,
            next_future: self.port.next_future,
            next_local_call: self.port.next_local_call,
        }
    }

    /// Rebuilds the port layer from a checkpoint image on a freshly
    /// restored VM (not yet attached to any hub). The caller has already
    /// bounds-checked thread ids, isolate ids and handler pins.
    pub(crate) fn port_restore(&mut self, img: PortImage) {
        for p in img.pumps {
            self.port.pumps.insert(
                Arc::from(p.name.as_str()),
                Pump {
                    thread: ThreadId(p.thread),
                    isolate: IsolateId(p.isolate),
                    handler_pin: p.handler_pin as usize,
                    handle_int: p.handle_int,
                    handle_obj: p.handle_obj,
                    queue: VecDeque::new(),
                    current: None,
                },
            );
        }
        for f in img.futures {
            self.port.futures.insert(
                f.id,
                FutureState {
                    owner: IsolateId(f.owner),
                    waiter: None,
                    slot: match f.slot {
                        FutureSlotImage::Ready(r) => FutureSlot::Ready(r),
                        FutureSlotImage::Cancelled => FutureSlot::Cancelled,
                    },
                },
            );
        }
        self.port.next_future = img.next_future;
        self.port.next_local_call = img.next_local_call;
    }

    /// Renames every exported service to `"{name}#{clone_idx}"`, for
    /// snapshot-fork scale-out ([`crate::sched::Cluster::submit_image_n`]):
    /// each clone restored from one image must publish distinct hub names
    /// or the clones would race for the original's callers. Must run
    /// before the VM is submitted (hub export happens at attach). The
    /// per-isolate export tables are remapped in step so revocation on
    /// termination still finds the pumps.
    pub(crate) fn port_remap_service_names(&mut self, clone_idx: usize) {
        debug_assert!(self.port.attach.is_none(), "remap after attach");
        let old = std::mem::take(&mut self.port.pumps);
        for (name, pump) in old {
            let renamed = format!("{name}#{clone_idx}");
            if let Some(iso) = self.isolates.get_mut(pump.isolate.0 as usize) {
                for e in iso.exported_ports.iter_mut() {
                    if *e == *name {
                        *e = renamed.clone();
                    }
                }
            }
            self.port.pumps.insert(Arc::from(renamed.as_str()), pump);
        }
    }
}

/// Serializable snapshot of one exported service pump. The queue and
/// in-flight request are absent by the cleanliness precondition; the
/// handler pin survives because host roots are checkpointed exactly.
#[derive(Debug)]
pub(crate) struct PumpImage {
    pub(crate) name: String,
    pub(crate) thread: u32,
    pub(crate) isolate: u16,
    pub(crate) handler_pin: u64,
    pub(crate) handle_int: Option<MethodRef>,
    pub(crate) handle_obj: Option<MethodRef>,
}

/// Serializable snapshot of one live future (resolved or cancelled —
/// pending futures cannot cross a checkpoint).
#[derive(Debug)]
pub(crate) struct FutureImage {
    pub(crate) id: u32,
    pub(crate) owner: u16,
    pub(crate) slot: FutureSlotImage,
}

/// The durable half of [`FutureSlot`].
#[derive(Debug)]
pub(crate) enum FutureSlotImage {
    /// Reply already delivered, not yet consumed by `get`.
    Ready(Result<(PayloadKind, Vec<u8>), ReplyError>),
    /// Cancelled before resolution; `get` throws.
    Cancelled,
}

/// The durable port state of one unit, captured into and restored from
/// a checkpoint image's PORT section.
#[derive(Debug)]
pub(crate) struct PortImage {
    pub(crate) pumps: Vec<PumpImage>,
    pub(crate) futures: Vec<FutureImage>,
    pub(crate) next_future: u32,
    pub(crate) next_local_call: u64,
}

/// Charges the deterministic copy cost of a `len`-byte message to `iso`
/// through the single exact-CPU flush point — the sender-pays invariant.
fn charge_copy(vm: &mut Vm, iso: IsolateId, len: usize) {
    if vm.options.accounting {
        let insns = MSG_BASE_COST + len as u64;
        let mut charged = false;
        if let Some(i) = vm.isolates.get_mut(iso.0 as usize) {
            i.stats.charge_cpu(insns);
            charged = true;
        }
        if charged {
            vm.trace_cpu_charge(iso, None, insns);
        }
    }
}

/// Dispatches queued requests onto `name`'s pump until it is busy or the
/// queue is dry. Undecodable requests are failed and skipped.
fn pump_advance(vm: &mut Vm, name: &Arc<str>) {
    loop {
        let req = {
            let Some(pump) = vm.port.pumps.get_mut(name) else {
                return;
            };
            if pump.current.is_some() {
                return;
            }
            let Some(req) = pump.queue.pop_front() else {
                return;
            };
            req
        };
        // Quota is released at the request's *terminal disposition*: a
        // dispatch failure below is terminal, a successful start carries
        // the contribution into `CurrentCall` and releases it when the
        // handler returns, throws, or is revoked.
        let quota = match req.reply_to {
            ReplyTo::Unit(_) => (1, req.bytes.len() as u64),
            ReplyTo::Local => (0, 0),
        };
        match try_start(vm, name, req, quota) {
            Ok(()) => return,
            Err((reply_to, call, oneway, err)) => {
                vm.port.note_served_counts(quota);
                send_reply(vm, reply_to, call, oneway, Err(err));
            }
        }
    }
}

type StartFailure = (ReplyTo, u64, bool, ReplyError);

/// Pushes the handler frame for `req` onto the pump thread and wakes it.
fn try_start(
    vm: &mut Vm,
    name: &Arc<str>,
    req: ReadyRequest,
    quota: (u32, u64),
) -> Result<(), StartFailure> {
    let (tid, iso, pin, handle_int, handle_obj) = {
        let p = &vm.port.pumps[name];
        (
            p.thread,
            p.isolate,
            p.handler_pin,
            p.handle_int,
            p.handle_obj,
        )
    };
    let fail = |err| (req.reply_to, req.call, req.oneway, err);
    let Some(method) = (match req.kind {
        PayloadKind::Int => handle_int,
        PayloadKind::Obj => handle_obj,
    }) else {
        return Err(fail(ReplyError::Failed(format!(
            "service '{name}' has no handle{} handler",
            req.kind.handle_descriptor()
        ))));
    };
    let loader = vm.isolates[iso.0 as usize].loader;
    let arg = match crate::wire::deserialize_value(vm, &req.bytes, iso, loader) {
        Ok(v) => v,
        Err(e) => {
            return Err(fail(ReplyError::Failed(format!(
                "service '{name}' argument decode failed: {e}"
            ))));
        }
    };
    let handler = vm.pinned(pin).expect("pump handler is pinned");
    // Build the handler frame out of the pump's frame pool — the
    // dispatch hot path allocates no locals/stack buffers in steady
    // state. Isolate routing matches `Vm::make_frame` exactly (shared
    // rule: `frame_executes_in_caller`).
    let (code, is_system, frame_isolate, synchronized) = {
        let class = &vm.classes[method.class.0 as usize];
        let m = &class.methods[method.index as usize];
        let Some(code) = m.code.as_ref() else {
            return Err(fail(ReplyError::Failed(format!(
                "service '{name}' handler is not a bytecode method"
            ))));
        };
        let frame_isolate = if vm.frame_executes_in_caller(method) {
            iso
        } else {
            class.isolate
        };
        (code.share(), class.is_system, frame_isolate, m.synchronized)
    };
    let (max_locals, max_stack) = (code.max_locals as usize, code.max_stack as usize);
    let th = &mut vm.threads[tid.0 as usize];
    let mut locals = th.frame_pool.take(max_locals);
    locals.push(Value::Ref(handler));
    locals.push(arg);
    locals.resize(max_locals, Value::Int(0));
    let stack = th.frame_pool.take(max_stack);
    th.current_isolate = frame_isolate;
    th.frames.push(crate::thread::Frame {
        method,
        class: method.class,
        isolate: frame_isolate,
        caller_isolate: iso,
        is_system,
        code,
        pc: 0,
        locals,
        stack,
        sync_object: None,
        needs_sync_enter: synchronized,
        poisoned_return: None,
    });
    vm.port.pumps.get_mut(name).unwrap().current = Some(CurrentCall {
        call: req.call,
        reply_to: req.reply_to,
        kind: req.kind,
        oneway: req.oneway,
        quota,
    });
    vm.trace_emit(
        crate::trace::EventKind::CallDeliver,
        Some(iso),
        Some(tid),
        req.call,
    );
    vm.wake(tid);
    Ok(())
}

/// Sends a reply produced in this VM to wherever the request came from.
/// Cross-unit replies are *coalesced*: they collect in the outbox and go
/// to the hub in one batch at the quantum boundary
/// ([`crate::vm::Vm::port_quantum_flush`]) — the receiver drains at its
/// own boundary either way, so batching changes no observable order.
fn send_reply(
    vm: &mut Vm,
    reply_to: ReplyTo,
    call: u64,
    oneway: bool,
    result: Result<(PayloadKind, Vec<u8>), ReplyError>,
) {
    if oneway {
        return;
    }
    vm.trace_emit(crate::trace::EventKind::ReplySend, None, None, call);
    match reply_to {
        ReplyTo::Unit(u) => {
            vm.port.outbox.push((u, Envelope::Reply { call, result }));
        }
        ReplyTo::Local => deliver_reply(vm, call, result),
    }
}

/// Routes an incoming reply by request id: to the thread parked in
/// `Service.call`, or to the pending future the caller is pipelining on.
/// Stale replies — the waiter was cancelled, interrupted or its isolate
/// terminated meanwhile — are dropped.
fn deliver_reply(vm: &mut Vm, call: u64, result: Result<(PayloadKind, Vec<u8>), ReplyError>) {
    let Some(waiter) = vm.port.waiting.remove(&call) else {
        return;
    };
    match waiter {
        Waiter::Thread(tid) => deliver_to_thread(vm, call, tid, result),
        Waiter::Future(fid) => resolve_future(vm, call, fid, result),
    }
}

/// Completes a waiting `Service.call`: pushes the deserialized result on
/// the caller's operand stack (or installs the failure as a pending
/// exception) and wakes the thread.
fn deliver_to_thread(
    vm: &mut Vm,
    call: u64,
    tid: ThreadId,
    result: Result<(PayloadKind, Vec<u8>), ReplyError>,
) {
    let t = tid.0 as usize;
    if vm.threads[t].state != (ThreadState::BlockedOnPort { call }) {
        return; // the caller already moved on (interrupt, termination)
    }
    vm.trace_reply_deliver(call, tid, crate::trace::EventKind::ReplyDeliver);
    match result {
        Ok((_, bytes)) => {
            let iso = vm.threads[t].current_isolate;
            let loader = vm.isolates[iso.0 as usize].loader;
            match crate::wire::deserialize_value(vm, &bytes, iso, loader) {
                Ok(v) => {
                    vm.threads[t]
                        .top_frame_mut()
                        .expect("caller frame survives the call")
                        .stack
                        .push(v);
                }
                Err(e) => {
                    let ex = crate::interp::alloc_exception(
                        vm,
                        tid,
                        "java/lang/RuntimeException",
                        &format!("service reply decode failed: {e}"),
                    );
                    vm.threads[t].pending_exception = Some(ex);
                }
            }
        }
        Err(ReplyError::Revoked(msg)) => {
            let ex = crate::interp::alloc_exception(vm, tid, SERVICE_REVOKED_EXCEPTION, &msg);
            vm.threads[t].pending_exception = Some(ex);
        }
        Err(ReplyError::Failed(msg)) => {
            let ex = crate::interp::alloc_exception(vm, tid, "java/lang/RuntimeException", &msg);
            vm.threads[t].pending_exception = Some(ex);
        }
    }
    vm.wake(tid);
}

/// A reply arrived for a pending future: store it, and if a thread is
/// parked in `get`, complete that `get` in place (push the decoded value
/// or install the failure) and wake it.
fn resolve_future(
    vm: &mut Vm,
    call: u64,
    fid: u32,
    result: Result<(PayloadKind, Vec<u8>), ReplyError>,
) {
    let Some(f) = vm.port.futures.get_mut(&fid) else {
        return; // cancelled or revoked meanwhile; drop the late reply
    };
    if !matches!(f.slot, FutureSlot::Pending { .. }) {
        return;
    }
    f.slot = FutureSlot::Ready(result);
    let waiter = f.waiter.take();
    let trace_tid = waiter.map(|(t, _)| t).unwrap_or(ThreadId(u32::MAX));
    vm.trace_reply_deliver(call, trace_tid, crate::trace::EventKind::FutureResolve);
    if let Some((tid, expected)) = waiter {
        if vm.threads[tid.0 as usize].state == (ThreadState::BlockedOnFuture { future: fid }) {
            match consume_ready(vm, tid, fid, expected) {
                GetOutcome::Value(v) => {
                    vm.threads[tid.0 as usize]
                        .top_frame_mut()
                        .expect("getter frame survives the wait")
                        .stack
                        .push(v);
                }
                GetOutcome::Failure {
                    class_name,
                    message,
                } => {
                    let ex = crate::interp::alloc_exception(vm, tid, class_name, &message);
                    vm.threads[tid.0 as usize].pending_exception = Some(ex);
                }
            }
            vm.wake(tid);
        }
    }
}

/// How a `get` on a ready future completes.
enum GetOutcome {
    /// The decoded reply value.
    Value(Value),
    /// A guest exception to raise at the getter.
    Failure {
        class_name: &'static str,
        message: String,
    },
}

/// Consumes a `Ready` future for a `get`/`getObject`: decodes the value
/// into the getter's isolate, or maps the failure to the same exceptions
/// the blocking `Service.call` raises. A payload-kind mismatch (`get` on
/// an object future, or vice versa) throws *without* consuming, so the
/// correctly-typed getter still works.
fn consume_ready(vm: &mut Vm, tid: ThreadId, fid: u32, expected: PayloadKind) -> GetOutcome {
    {
        let f = &vm.port.futures[&fid];
        let FutureSlot::Ready(result) = &f.slot else {
            unreachable!("consume_ready on a non-ready future");
        };
        if let Ok((kind, _)) = result {
            if *kind != expected {
                let (got, want) = match expected {
                    PayloadKind::Int => ("an object", "getObject"),
                    PayloadKind::Obj => ("an int", "get"),
                };
                return GetOutcome::Failure {
                    class_name: "java/lang/IllegalStateException",
                    message: format!("future holds {got} result; use {want}()"),
                };
            }
        }
    }
    let f = vm.port.futures.remove(&fid).expect("future present");
    let FutureSlot::Ready(result) = f.slot else {
        unreachable!();
    };
    match result {
        Ok((_, bytes)) => {
            let iso = vm.threads[tid.0 as usize].current_isolate;
            let loader = vm.isolates[iso.0 as usize].loader;
            match crate::wire::deserialize_value(vm, &bytes, iso, loader) {
                Ok(v) => GetOutcome::Value(v),
                Err(e) => GetOutcome::Failure {
                    class_name: "java/lang/RuntimeException",
                    message: format!("service reply decode failed: {e}"),
                },
            }
        }
        Err(ReplyError::Revoked(msg)) => GetOutcome::Failure {
            class_name: SERVICE_REVOKED_EXCEPTION,
            message: msg,
        },
        Err(ReplyError::Failed(msg)) => GetOutcome::Failure {
            class_name: "java/lang/RuntimeException",
            message: msg,
        },
    }
}

/// Finds the service a pump thread belongs to.
fn find_pump_name(vm: &Vm, tid: ThreadId) -> Option<Arc<str>> {
    vm.port
        .pumps
        .iter()
        .find(|(_, p)| p.thread == tid)
        .map(|(n, _)| Arc::clone(n))
}

/// Re-parks a pump thread awaiting its next request.
fn park_pump(vm: &mut Vm, tid: ThreadId, iso: IsolateId) {
    let th = &mut vm.threads[tid.0 as usize];
    th.state = ThreadState::ServicePump;
    th.current_isolate = iso;
}

/// Called by the interpreter when a service pump drains its last frame:
/// one request completed. Serializes and posts the reply (the serving
/// isolate pays for the copy), then re-parks or re-dispatches the pump.
/// Returns `false` when the thread is not actually a live pump (it then
/// terminates normally).
pub(crate) fn pump_completed(vm: &mut Vm, tid: ThreadId, value: Option<Value>) -> bool {
    let Some(name) = find_pump_name(vm, tid) else {
        return false;
    };
    let iso = vm.port.pumps[&name].isolate;
    let cur = vm.port.pumps.get_mut(&name).unwrap().current.take();
    if let Some(cur) = cur {
        vm.port.note_served_counts(cur.quota);
        if !cur.oneway {
            let mut bytes = Vec::with_capacity(32);
            crate::wire::serialize_value(vm, value.unwrap_or(Value::Null), &mut bytes);
            charge_copy(vm, iso, bytes.len());
            send_reply(vm, cur.reply_to, cur.call, false, Ok((cur.kind, bytes)));
        }
    }
    park_pump(vm, tid, iso);
    pump_advance(vm, &name);
    true
}

/// Called by the interpreter when a service pump dies unwinding: the
/// handler threw. A `StoppedIsolateException` *for the pump's own
/// isolate* means the service died mid-call — it is revoked, its calls
/// fail with `ServiceRevoked`, and the pump thread dies (return
/// `false`). Any other exception — including an SIE for some *other*
/// isolate the handler had called into — becomes a failed reply for
/// that one call and the pump survives. (In the common termination
/// path the pump is already gone from the table by the time its thread
/// unwinds — `port_revoke_isolate` ran first — so `find_pump_name`
/// misses and the thread dies normally.)
pub(crate) fn pump_failed(vm: &mut Vm, tid: ThreadId, ex: GcRef) -> bool {
    let Some(name) = find_pump_name(vm, tid) else {
        return false;
    };
    let iso = vm.port.pumps[&name].isolate;
    let class = vm.heap.get(ex).class;
    let class_name = vm.classes[class.0 as usize].name.to_string();
    if class_name == crate::interp::STOPPED_ISOLATE_EXCEPTION
        && crate::interp::sie_isolate_of(vm, ex) == Some(iso)
    {
        revoke_pump(vm, &name);
        return false;
    }
    let msg = vm.exception_message(ex).unwrap_or_default();
    let detail = format!("service '{name}' handler threw {class_name}: {msg}");
    let cur = vm.port.pumps.get_mut(&name).unwrap().current.take();
    if let Some(cur) = cur {
        vm.port.note_served_counts(cur.quota);
        send_reply(
            vm,
            cur.reply_to,
            cur.call,
            cur.oneway,
            Err(ReplyError::Failed(detail)),
        );
    }
    park_pump(vm, tid, iso);
    pump_advance(vm, &name);
    true
}

/// Tears one service down: fails its in-flight and queued calls with
/// `ServiceRevoked`, revokes the hub entry, unpins the handler, and
/// retires the pump thread if it is idle (a busy pump dies through the
/// isolate-termination unwinding instead).
fn revoke_pump(vm: &mut Vm, name: &Arc<str>) {
    let Some(mut pump) = vm.port.pumps.remove(name) else {
        return;
    };
    let failed = pump.current.is_some() as u64 + pump.queue.len() as u64;
    vm.trace_emit(
        crate::trace::EventKind::ServiceRevoke,
        Some(pump.isolate),
        Some(pump.thread),
        failed,
    );
    let msg = format!("service '{name}' revoked: isolate terminated");
    if let Some(cur) = pump.current.take() {
        vm.port.note_served_counts(cur.quota);
        send_reply(
            vm,
            cur.reply_to,
            cur.call,
            cur.oneway,
            Err(ReplyError::Revoked(msg.clone())),
        );
    }
    for req in pump.queue.drain(..) {
        vm.port.note_served(&req);
        send_reply(
            vm,
            req.reply_to,
            req.call,
            req.oneway,
            Err(ReplyError::Revoked(msg.clone())),
        );
    }
    vm.unpin(pump.handler_pin);
    if let Some((unit, hub)) = vm.port.attach.clone() {
        hub.revoke(unit, name);
    }
    if let Some(i) = vm.isolates.get_mut(pump.isolate.0 as usize) {
        i.exported_ports.retain(|n| n != &**name);
    }
    // Retire the pump thread only if it is parked idle. A busy pump —
    // including one that already unwound its frames and is mid-way
    // through `pump_failed` — is left to the engine's normal
    // thread-death path, which runs `on_thread_exit` exactly once.
    let th = &mut vm.threads[pump.thread.0 as usize];
    if th.state == ThreadState::ServicePump {
        debug_assert!(th.frames.is_empty());
        th.state = ThreadState::Terminated;
        vm.on_thread_exit(pump.thread);
    }
}

// ---------------------------------------------------------------------
// The native surface: ijvm/Service and ijvm/Port
// ---------------------------------------------------------------------

/// Why an export was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExportError {
    /// The handler object has neither `handle(int)` nor `handle(Object)`.
    NoHandler(String),
    /// This VM already exports a service under that name.
    Duplicate(String),
    /// The live-thread limit leaves no room for the pump thread.
    ThreadLimit,
}

impl std::fmt::Display for ExportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExportError::NoHandler(class) => write!(
                f,
                "service handler {class} has no handle(int) or handle(Object) method"
            ),
            ExportError::Duplicate(name) => {
                write!(f, "service '{name}' is already exported by this unit")
            }
            ExportError::ThreadLimit => write!(f, "unable to create service pump thread"),
        }
    }
}

impl std::error::Error for ExportError {}

impl Vm {
    /// Host-side export: publishes `handler` (an object with a
    /// `handle(int)` and/or `handle(Object)` method) as service `name`
    /// owned by — and accountable to — `owner`. The embedding
    /// counterpart of the guest's `Service.export`; the OSGi layer uses
    /// it to make bundle services callable from other units.
    pub fn export_service(
        &mut self,
        name: &str,
        handler: GcRef,
        owner: IsolateId,
    ) -> Result<(), ExportError> {
        do_export(self, owner, name, handler)
    }

    /// Withdraws a service this VM exports, failing its in-flight and
    /// queued calls with `ServiceRevoked` and retiring its pump. Returns
    /// `false` when no such service exists. Replacing a service is
    /// retract-then-export — the OSGi layer uses exactly that for
    /// `registerService` over an existing name, so cross-unit callers
    /// move to the new handler instead of silently keeping the old one.
    pub fn retract_service(&mut self, name: &str) -> bool {
        let Some(key) = self.port.pumps.keys().find(|k| ***k == *name).cloned() else {
            return false;
        };
        revoke_pump(self, &key);
        true
    }
}

/// Exports a service: resolves the handler's `handle` overloads, spawns
/// the pump thread, and publishes `(unit, name)` to the hub when the VM
/// is attached to a cluster.
fn do_export(vm: &mut Vm, iso: IsolateId, name: &str, handler: GcRef) -> Result<(), ExportError> {
    let class = vm.heap.get(handler).class;
    let handle_int = crate::interp::lookup_virtual(vm, class, "handle", "(I)I");
    let handle_obj = crate::interp::lookup_virtual(
        vm,
        class,
        "handle",
        "(Ljava/lang/Object;)Ljava/lang/Object;",
    );
    if handle_int.is_none() && handle_obj.is_none() {
        return Err(ExportError::NoHandler(
            vm.classes[class.0 as usize].name.to_string(),
        ));
    }
    if vm.port.pumps.contains_key(name) {
        return Err(ExportError::Duplicate(name.to_owned()));
    }
    if !vm.can_spawn_thread() {
        return Err(ExportError::ThreadLimit);
    }
    let handler_pin = vm.pin(handler);
    let pump_tid = ThreadId(vm.threads.len() as u32);
    let mut th = VmThread::new(pump_tid, &format!("svc:{name}"), iso);
    th.is_service_pump = true;
    th.state = ThreadState::ServicePump;
    vm.threads.push(th);
    if vm.options.accounting {
        if let Some(i) = vm.isolates.get_mut(iso.0 as usize) {
            i.stats.threads_created += 1;
            i.stats.threads_live += 1;
        }
    }
    let name_arc: Arc<str> = Arc::from(name);
    vm.port.pumps.insert(
        Arc::clone(&name_arc),
        Pump {
            thread: pump_tid,
            isolate: iso,
            handler_pin,
            handle_int,
            handle_obj,
            queue: VecDeque::new(),
            current: None,
        },
    );
    if let Some(i) = vm.isolates.get_mut(iso.0 as usize) {
        i.exported_ports.push(name.to_owned());
    }
    if let Some((unit, hub)) = vm.port.attach.clone() {
        hub.export(unit, name_arc);
    }
    vm.trace_emit(
        crate::trace::EventKind::ServiceExport,
        Some(iso),
        Some(pump_tid),
        0,
    );
    Ok(())
}

/// Maps an [`ExportError`] onto the guest exception `Service.export`
/// raises for it.
fn export_error_to_native(err: ExportError) -> NativeResult {
    let class_name = match &err {
        ExportError::NoHandler(_) => "java/lang/IllegalArgumentException",
        ExportError::Duplicate(_) => "java/lang/IllegalStateException",
        ExportError::ThreadLimit => "java/lang/OutOfMemoryError",
    };
    NativeResult::Throw {
        class_name,
        message: err.to_string(),
    }
}

/// Parks a sender whose destination is over quota: the serialized (and
/// already-charged) payload moves into the pending-send queue and the
/// thread blocks until the hub admits the retry.
#[allow(clippy::too_many_arguments)]
fn park_on_quota(
    vm: &mut Vm,
    tid: ThreadId,
    iso: IsolateId,
    target: Option<UnitId>,
    name: &str,
    kind: PayloadKind,
    bytes: Vec<u8>,
    mode: SendMode,
    dest: u32,
) {
    vm.trace_emit(
        crate::trace::EventKind::QuotaPark,
        Some(iso),
        Some(tid),
        bytes.len() as u64,
    );
    vm.port.pending_sends.push_back(PendingSend {
        thread: tid,
        target,
        name: Arc::from(name),
        kind,
        bytes,
        mode,
        parked_dest: dest,
    });
    vm.threads[tid.0 as usize].state = ThreadState::BlockedOnQuota;
}

/// The blocking `Service.call` path: serializes the argument (caller
/// pays), routes the request, and parks the calling thread until the
/// reply is delivered.
fn port_call(
    vm: &mut Vm,
    tid: ThreadId,
    target: Option<UnitId>,
    name: &str,
    kind: PayloadKind,
    payload: Value,
) -> NativeResult {
    let iso = vm.threads[tid.0 as usize].current_isolate;
    let mut bytes = Vec::with_capacity(32);
    crate::wire::serialize_value(vm, payload, &mut bytes);
    charge_copy(vm, iso, bytes.len());
    let revoked = || NativeResult::Throw {
        class_name: SERVICE_REVOKED_EXCEPTION,
        message: format!("service '{name}' revoked: isolate terminated"),
    };
    if let Some((unit, hub)) = vm.port.attach.clone() {
        match hub.send_request(unit, target, name, kind, bytes, false) {
            Ok(SendOutcome::Sent(call)) => {
                vm.port.waiting.insert(call, Waiter::Thread(tid));
                vm.threads[tid.0 as usize].state = ThreadState::BlockedOnPort { call };
                vm.trace_call_send(call, iso, tid, crate::trace::EventKind::CallSend);
                NativeResult::BlockPending
            }
            Ok(SendOutcome::OverQuota { bytes, dest }) => {
                park_on_quota(
                    vm,
                    tid,
                    iso,
                    target,
                    name,
                    kind,
                    bytes,
                    SendMode::Call,
                    dest,
                );
                NativeResult::BlockPending
            }
            Err(SendError::Revoked) => revoked(),
        }
    } else {
        // Unattached VM: only services exported by this same VM are
        // reachable, and an absent one can never appear "later".
        if target.is_some() {
            return NativeResult::Throw {
                class_name: "java/lang/IllegalStateException",
                message: "Service.callAt requires the VM to run in a cluster".to_owned(),
            };
        }
        if !vm.port.pumps.contains_key(name) {
            return NativeResult::Throw {
                class_name: "java/lang/IllegalStateException",
                message: format!("no service '{name}' (VM not attached to a cluster)"),
            };
        }
        let call = vm.port.alloc_local_call();
        vm.port.waiting.insert(call, Waiter::Thread(tid));
        vm.threads[tid.0 as usize].state = ThreadState::BlockedOnPort { call };
        vm.trace_call_send(call, iso, tid, crate::trace::EventKind::CallSend);
        let name_arc: Arc<str> = Arc::from(name);
        vm.pump_enqueue(
            &name_arc,
            ReadyRequest {
                call,
                reply_to: ReplyTo::Local,
                kind,
                bytes,
                oneway: false,
            },
        );
        NativeResult::BlockPending
    }
}

/// The one-way `Port.send` path: fire-and-forget; a revoked target drops
/// the message silently.
fn port_send(
    vm: &mut Vm,
    tid: ThreadId,
    name: &str,
    kind: PayloadKind,
    payload: Value,
) -> NativeResult {
    let iso = vm.threads[tid.0 as usize].current_isolate;
    let mut bytes = Vec::with_capacity(32);
    crate::wire::serialize_value(vm, payload, &mut bytes);
    charge_copy(vm, iso, bytes.len());
    if let Some((unit, hub)) = vm.port.attach.clone() {
        match hub.send_request(unit, None, name, kind, bytes, true) {
            Ok(SendOutcome::Sent(call)) => {
                vm.trace_emit(
                    crate::trace::EventKind::OnewaySend,
                    Some(iso),
                    Some(tid),
                    call,
                );
                NativeResult::Return(None)
            }
            Ok(SendOutcome::OverQuota { bytes, dest }) => {
                // Fire-and-forget still backpressures: the flooder parks
                // (already charged) instead of growing the victim's
                // mailbox. `send` returns void, so nothing is pushed.
                park_on_quota(
                    vm,
                    tid,
                    iso,
                    None,
                    name,
                    kind,
                    bytes,
                    SendMode::Oneway,
                    dest,
                );
                NativeResult::BlockReturn(None)
            }
            Err(SendError::Revoked) => NativeResult::Return(None),
        }
    } else {
        if !vm.port.pumps.contains_key(name) {
            return NativeResult::Throw {
                class_name: "java/lang/IllegalStateException",
                message: format!("no service '{name}' (VM not attached to a cluster)"),
            };
        }
        let call = vm.port.alloc_local_call();
        vm.trace_emit(
            crate::trace::EventKind::OnewaySend,
            Some(iso),
            Some(tid),
            call,
        );
        let name_arc: Arc<str> = Arc::from(name);
        vm.pump_enqueue(
            &name_arc,
            ReadyRequest {
                call,
                reply_to: ReplyTo::Local,
                kind,
                bytes,
                oneway: true,
            },
        );
        NativeResult::Return(None)
    }
}

/// Allocates the guest-visible `ijvm/Future` object carrying `fid`.
/// Allocation happens *before* any hub traffic, so an OOM here aborts
/// the post cleanly.
fn alloc_future_obj(vm: &mut Vm, tid: ThreadId, fid: u32) -> Result<GcRef, NativeResult> {
    let iso = vm.threads[tid.0 as usize].current_isolate;
    let class = vm
        .load_class(crate::ids::LoaderId::BOOTSTRAP, "ijvm/Future")
        .expect("ijvm/Future is a bootstrap class");
    let r = match vm.alloc_instance(class, iso) {
        Ok(r) => r,
        Err(thrown) => {
            let ex = crate::interp::materialize(vm, tid, thrown);
            return Err(NativeResult::ThrowRef(ex));
        }
    };
    let slot = vm.classes[class.0 as usize]
        .find_instance_slot("id")
        .expect("ijvm/Future has an id field");
    if let crate::heap::ObjBody::Fields(fields) = &mut vm.heap.get_mut(r).body {
        fields[slot as usize] = Value::Int(fid as i32);
    }
    Ok(r)
}

/// Reads the future id out of an `ijvm/Future` receiver.
fn future_id(vm: &Vm, recv: Value) -> Result<u32, NativeResult> {
    let Some(r) = recv.as_ref() else {
        return Err(NativeResult::Throw {
            class_name: "java/lang/NullPointerException",
            message: "future".to_owned(),
        });
    };
    let obj = vm.heap.get(r);
    let slot = vm.classes[obj.class.0 as usize]
        .find_instance_slot("id")
        .expect("ijvm/Future has an id field");
    if let crate::heap::ObjBody::Fields(fields) = &obj.body {
        Ok(fields[slot as usize].as_int() as u32)
    } else {
        unreachable!("ijvm/Future is a fields object")
    }
}

/// The pipelining `Service.post` path: serializes and charges like
/// `call`, but hands back an `ijvm/Future` immediately instead of
/// parking — one green thread can keep many requests in flight and
/// collect them with `Future.get`. Delivery failures (revocation)
/// surface at `get`, not here; only argument errors throw at the post.
fn port_post(
    vm: &mut Vm,
    tid: ThreadId,
    target: Option<UnitId>,
    name: &str,
    kind: PayloadKind,
    payload: Value,
) -> NativeResult {
    let iso = vm.threads[tid.0 as usize].current_isolate;
    let mut bytes = Vec::with_capacity(32);
    crate::wire::serialize_value(vm, payload, &mut bytes);
    charge_copy(vm, iso, bytes.len());
    let fid = vm.port.alloc_future();
    let fut = match alloc_future_obj(vm, tid, fid) {
        Ok(r) => r,
        Err(e) => return e,
    };
    if let Some((unit, hub)) = vm.port.attach.clone() {
        match hub.send_request(unit, target, name, kind, bytes, false) {
            Ok(SendOutcome::Sent(call)) => {
                vm.port.waiting.insert(call, Waiter::Future(fid));
                vm.port.futures.insert(
                    fid,
                    FutureState {
                        owner: iso,
                        waiter: None,
                        slot: FutureSlot::Pending { call },
                    },
                );
                vm.trace_call_send(call, iso, tid, crate::trace::EventKind::FuturePost);
                NativeResult::Return(Some(Value::Ref(fut)))
            }
            Ok(SendOutcome::OverQuota { bytes, dest }) => {
                // The future ref goes on the sender's stack now
                // (`BlockReturn`); the thread parks and the retry sweep
                // wires the call id in once the destination admits.
                vm.port.futures.insert(
                    fid,
                    FutureState {
                        owner: iso,
                        waiter: None,
                        slot: FutureSlot::Pending { call: 0 },
                    },
                );
                park_on_quota(
                    vm,
                    tid,
                    iso,
                    target,
                    name,
                    kind,
                    bytes,
                    SendMode::Post { future: fid },
                    dest,
                );
                NativeResult::BlockReturn(Some(Value::Ref(fut)))
            }
            Err(SendError::Revoked) => {
                let msg = format!("service '{name}' revoked: isolate terminated");
                vm.port.futures.insert(
                    fid,
                    FutureState {
                        owner: iso,
                        waiter: None,
                        slot: FutureSlot::Ready(Err(ReplyError::Revoked(msg))),
                    },
                );
                vm.trace_call_send(0, iso, tid, crate::trace::EventKind::FuturePost);
                NativeResult::Return(Some(Value::Ref(fut)))
            }
        }
    } else {
        if target.is_some() {
            return NativeResult::Throw {
                class_name: "java/lang/IllegalStateException",
                message: "Service.postAt requires the VM to run in a cluster".to_owned(),
            };
        }
        if !vm.port.pumps.contains_key(name) {
            return NativeResult::Throw {
                class_name: "java/lang/IllegalStateException",
                message: format!("no service '{name}' (VM not attached to a cluster)"),
            };
        }
        let call = vm.port.alloc_local_call();
        vm.port.waiting.insert(call, Waiter::Future(fid));
        vm.port.futures.insert(
            fid,
            FutureState {
                owner: iso,
                waiter: None,
                slot: FutureSlot::Pending { call },
            },
        );
        vm.trace_call_send(call, iso, tid, crate::trace::EventKind::FuturePost);
        let name_arc: Arc<str> = Arc::from(name);
        vm.pump_enqueue(
            &name_arc,
            ReadyRequest {
                call,
                reply_to: ReplyTo::Local,
                kind,
                bytes,
                oneway: false,
            },
        );
        NativeResult::Return(Some(Value::Ref(fut)))
    }
}

/// `Future.get`/`getObject`: returns (consuming the future), parks in
/// [`ThreadState::BlockedOnFuture`] while pending, or throws on
/// cancellation/failure. Single consumer: a second thread parking on
/// the same future is rejected.
fn future_get(vm: &mut Vm, tid: ThreadId, recv: Value, expected: PayloadKind) -> NativeResult {
    let fid = match future_id(vm, recv) {
        Ok(f) => f,
        Err(e) => return e,
    };
    enum Disposition {
        Park,
        Busy,
        Consumed,
        Cancelled,
        Ready,
    }
    let disp = match vm.port.futures.get_mut(&fid) {
        None => Disposition::Consumed,
        Some(f) => match f.slot {
            FutureSlot::Pending { .. } => {
                if f.waiter.is_some() {
                    Disposition::Busy
                } else {
                    f.waiter = Some((tid, expected));
                    Disposition::Park
                }
            }
            FutureSlot::Cancelled => Disposition::Cancelled,
            FutureSlot::Ready(_) => Disposition::Ready,
        },
    };
    match disp {
        Disposition::Park => {
            vm.threads[tid.0 as usize].state = ThreadState::BlockedOnFuture { future: fid };
            NativeResult::BlockPending
        }
        Disposition::Busy => NativeResult::Throw {
            class_name: "java/lang/IllegalStateException",
            message: "future already has a waiter".to_owned(),
        },
        Disposition::Consumed => NativeResult::Throw {
            class_name: "java/lang/IllegalStateException",
            message: "future already consumed".to_owned(),
        },
        Disposition::Cancelled => NativeResult::Throw {
            class_name: "java/lang/IllegalStateException",
            message: "future cancelled".to_owned(),
        },
        Disposition::Ready => match consume_ready(vm, tid, fid, expected) {
            GetOutcome::Value(v) => NativeResult::Return(Some(v)),
            GetOutcome::Failure {
                class_name,
                message,
            } => NativeResult::Throw {
                class_name,
                message,
            },
        },
    }
}

/// `Future.cancel`: drops the reply routing of a still-pending future so
/// the late reply is discarded. Returns `true` only when the cancel won
/// the race with the reply; a parked getter (another thread) is woken
/// with an `IllegalStateException`.
fn future_cancel(vm: &mut Vm, tid: ThreadId, recv: Value) -> NativeResult {
    let fid = match future_id(vm, recv) {
        Ok(f) => f,
        Err(e) => return e,
    };
    let pending = match vm.port.futures.get_mut(&fid) {
        Some(f) => {
            if let FutureSlot::Pending { call } = f.slot {
                f.slot = FutureSlot::Cancelled;
                Some((call, f.waiter.take()))
            } else {
                None
            }
        }
        None => None,
    };
    let Some((call, waiter)) = pending else {
        return NativeResult::Return(Some(Value::Int(0)));
    };
    if call != 0 {
        vm.port.waiting.remove(&call);
    }
    let iso = vm.threads[tid.0 as usize].current_isolate;
    vm.trace_emit(
        crate::trace::EventKind::FutureCancel,
        Some(iso),
        Some(tid),
        call,
    );
    if let Some((wtid, _)) = waiter {
        if vm.threads[wtid.0 as usize].state == (ThreadState::BlockedOnFuture { future: fid }) {
            let ex = crate::interp::alloc_exception(
                vm,
                wtid,
                "java/lang/IllegalStateException",
                "future cancelled",
            );
            vm.threads[wtid.0 as usize].pending_exception = Some(ex);
            vm.wake(wtid);
        }
    }
    NativeResult::Return(Some(Value::Int(1)))
}

/// `Future.isDone`: resolved, cancelled or already consumed.
fn future_is_done(vm: &mut Vm, recv: Value) -> NativeResult {
    let fid = match future_id(vm, recv) {
        Ok(f) => f,
        Err(e) => return e,
    };
    let done = match vm.port.futures.get(&fid) {
        None => true, // consumed
        Some(f) => !matches!(f.slot, FutureSlot::Pending { .. }),
    };
    NativeResult::Return(Some(Value::Int(done as i32)))
}

const PUB: AccessFlags = AccessFlags::PUBLIC;
const PUBSTATIC: AccessFlags = AccessFlags(AccessFlags::PUBLIC.0 | AccessFlags::STATIC.0);

/// `ijvm/Service`: the typed cross-unit call surface.
pub(crate) fn service_class() -> ClassFile {
    let mut cb = ClassBuilder::new("ijvm/Service", "java/lang/Object", PUB | AccessFlags::FINAL);
    cb.native_method(
        "export",
        "(Ljava/lang/String;Ljava/lang/Object;)V",
        PUBSTATIC,
    );
    cb.native_method("call", "(Ljava/lang/String;I)I", PUBSTATIC);
    cb.native_method(
        "call",
        "(Ljava/lang/String;Ljava/lang/Object;)Ljava/lang/Object;",
        PUBSTATIC,
    );
    cb.native_method("callAt", "(ILjava/lang/String;I)I", PUBSTATIC);
    cb.native_method("post", "(Ljava/lang/String;I)Lijvm/Future;", PUBSTATIC);
    cb.native_method(
        "post",
        "(Ljava/lang/String;Ljava/lang/Object;)Lijvm/Future;",
        PUBSTATIC,
    );
    cb.native_method("postAt", "(ILjava/lang/String;I)Lijvm/Future;", PUBSTATIC);
    cb.native_method("unit", "()I", PUBSTATIC);
    cb.build().expect("ijvm/Service")
}

/// `ijvm/Future`: a pending cross-unit reply, created by `Service.post`.
/// The guest object carries only an id; the reply routing lives in the
/// VM's port state. No public constructor — only `post` mints them.
pub(crate) fn future_class() -> ClassFile {
    let mut cb = ClassBuilder::new("ijvm/Future", "java/lang/Object", PUB | AccessFlags::FINAL);
    cb.field("id", "I", AccessFlags::PRIVATE);
    cb.native_method("get", "()I", PUB);
    cb.native_method("getObject", "()Ljava/lang/Object;", PUB);
    cb.native_method("isDone", "()Z", PUB);
    cb.native_method("cancel", "()Z", PUB);
    cb.build().expect("ijvm/Future")
}

/// `ijvm/Port`: the one-way message surface.
pub(crate) fn port_class() -> ClassFile {
    let mut cb = ClassBuilder::new("ijvm/Port", "java/lang/Object", PUB | AccessFlags::FINAL);
    cb.native_method("send", "(Ljava/lang/String;I)V", PUBSTATIC);
    cb.native_method("send", "(Ljava/lang/String;Ljava/lang/Object;)V", PUBSTATIC);
    cb.build().expect("ijvm/Port")
}

/// Decodes a guest service-name string, through the one-entry
/// `(ref, GC epoch)` cache — guest loops pass the same interned string
/// constant on every call, so the hot path is two comparisons.
fn read_name(vm: &mut Vm, v: Value) -> Result<Arc<str>, NativeResult> {
    let Some(r) = v.as_ref() else {
        return Err(NativeResult::Throw {
            class_name: "java/lang/NullPointerException",
            message: "service name".to_owned(),
        });
    };
    let epoch = vm.gc_count();
    if let Some((cached_ref, cached_epoch, name)) = &vm.port.name_cache {
        if *cached_ref == r && *cached_epoch == epoch {
            return Ok(Arc::clone(name));
        }
    }
    let Some(s) = vm.read_string(r) else {
        return Err(NativeResult::Throw {
            class_name: "java/lang/IllegalArgumentException",
            message: "service name must be a string".to_owned(),
        });
    };
    let name: Arc<str> = Arc::from(s.as_str());
    vm.port.name_cache = Some((r, epoch, Arc::clone(&name)));
    Ok(name)
}

fn register_natives(vm: &mut Vm) {
    let svc = "ijvm/Service";
    vm.register_native(
        svc,
        "export",
        "(Ljava/lang/String;Ljava/lang/Object;)V",
        Arc::new(|vm, tid, args| {
            let name = match read_name(vm, args[0]) {
                Ok(n) => n,
                Err(e) => return e,
            };
            let Some(handler) = args[1].as_ref() else {
                return NativeResult::Throw {
                    class_name: "java/lang/NullPointerException",
                    message: "service handler".to_owned(),
                };
            };
            let iso = vm.current_isolate(tid);
            match do_export(vm, iso, &name, handler) {
                Ok(()) => NativeResult::Return(None),
                Err(e) => export_error_to_native(e),
            }
        }),
    );
    vm.register_native(
        svc,
        "call",
        "(Ljava/lang/String;I)I",
        Arc::new(|vm, tid, args| {
            let name = match read_name(vm, args[0]) {
                Ok(n) => n,
                Err(e) => return e,
            };
            port_call(vm, tid, None, &name, PayloadKind::Int, args[1])
        }),
    );
    vm.register_native(
        svc,
        "call",
        "(Ljava/lang/String;Ljava/lang/Object;)Ljava/lang/Object;",
        Arc::new(|vm, tid, args| {
            let name = match read_name(vm, args[0]) {
                Ok(n) => n,
                Err(e) => return e,
            };
            port_call(vm, tid, None, &name, PayloadKind::Obj, args[1])
        }),
    );
    vm.register_native(
        svc,
        "callAt",
        "(ILjava/lang/String;I)I",
        Arc::new(|vm, tid, args| {
            let unit = args[0].as_int();
            if unit < 0 {
                return NativeResult::Throw {
                    class_name: "java/lang/IllegalArgumentException",
                    message: format!("bad unit address {unit}"),
                };
            }
            let name = match read_name(vm, args[1]) {
                Ok(n) => n,
                Err(e) => return e,
            };
            port_call(
                vm,
                tid,
                Some(UnitId::new(unit as u32)),
                &name,
                PayloadKind::Int,
                args[2],
            )
        }),
    );
    vm.register_native(
        svc,
        "post",
        "(Ljava/lang/String;I)Lijvm/Future;",
        Arc::new(|vm, tid, args| {
            let name = match read_name(vm, args[0]) {
                Ok(n) => n,
                Err(e) => return e,
            };
            port_post(vm, tid, None, &name, PayloadKind::Int, args[1])
        }),
    );
    vm.register_native(
        svc,
        "post",
        "(Ljava/lang/String;Ljava/lang/Object;)Lijvm/Future;",
        Arc::new(|vm, tid, args| {
            let name = match read_name(vm, args[0]) {
                Ok(n) => n,
                Err(e) => return e,
            };
            port_post(vm, tid, None, &name, PayloadKind::Obj, args[1])
        }),
    );
    vm.register_native(
        svc,
        "postAt",
        "(ILjava/lang/String;I)Lijvm/Future;",
        Arc::new(|vm, tid, args| {
            let unit = args[0].as_int();
            if unit < 0 {
                return NativeResult::Throw {
                    class_name: "java/lang/IllegalArgumentException",
                    message: format!("bad unit address {unit}"),
                };
            }
            let name = match read_name(vm, args[1]) {
                Ok(n) => n,
                Err(e) => return e,
            };
            port_post(
                vm,
                tid,
                Some(UnitId::new(unit as u32)),
                &name,
                PayloadKind::Int,
                args[2],
            )
        }),
    );
    let fut = "ijvm/Future";
    vm.register_native(
        fut,
        "get",
        "()I",
        Arc::new(|vm, tid, args| future_get(vm, tid, args[0], PayloadKind::Int)),
    );
    vm.register_native(
        fut,
        "getObject",
        "()Ljava/lang/Object;",
        Arc::new(|vm, tid, args| future_get(vm, tid, args[0], PayloadKind::Obj)),
    );
    vm.register_native(
        fut,
        "isDone",
        "()Z",
        Arc::new(|vm, _tid, args| future_is_done(vm, args[0])),
    );
    vm.register_native(
        fut,
        "cancel",
        "()Z",
        Arc::new(|vm, tid, args| future_cancel(vm, tid, args[0])),
    );
    vm.register_native(
        svc,
        "unit",
        "()I",
        Arc::new(|vm, _tid, _args| {
            let id = vm
                .port
                .attach
                .as_ref()
                .map_or(-1, |(u, _)| u.index() as i32);
            NativeResult::Return(Some(Value::Int(id)))
        }),
    );
    let port = "ijvm/Port";
    vm.register_native(
        port,
        "send",
        "(Ljava/lang/String;I)V",
        Arc::new(|vm, tid, args| {
            let name = match read_name(vm, args[0]) {
                Ok(n) => n,
                Err(e) => return e,
            };
            port_send(vm, tid, &name, PayloadKind::Int, args[1])
        }),
    );
    vm.register_native(
        port,
        "send",
        "(Ljava/lang/String;Ljava/lang/Object;)V",
        Arc::new(|vm, tid, args| {
            let name = match read_name(vm, args[0]) {
                Ok(n) => n,
                Err(e) => return e,
            };
            port_send(vm, tid, &name, PayloadKind::Obj, args[1])
        }),
    );
}

/// Installs the `ijvm/Service`, `ijvm/Port` and `ijvm/Future` classes
/// and their natives. Called by [`crate::bootstrap::install`], so the
/// surface exists on every booted VM; the natives work unattached
/// (same-VM services) and attach to a cluster hub on
/// [`crate::sched::Cluster::submit`].
pub(crate) fn install(vm: &mut Vm) -> crate::error::Result<()> {
    register_natives(vm);
    vm.install_system_class(&service_class())?;
    vm.install_system_class(&port_class())?;
    vm.install_system_class(&future_class())?;
    Ok(())
}

/// Registers only the port natives, without installing (or re-defining)
/// any class. Checkpoint restore uses this: the image's serialized
/// bootstrap classpath already carries the `ijvm/*` class bytes, so the
/// classes are replayed from the image and only the host-side native
/// bindings need to come back. See [`crate::bootstrap::install_natives`].
pub(crate) fn install_natives(vm: &mut Vm) {
    register_natives(vm);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sent(r: Result<SendOutcome, SendError>) -> u64 {
        match r.expect("send failed") {
            SendOutcome::Sent(call) => call,
            SendOutcome::OverQuota { .. } => panic!("unexpected quota rejection"),
        }
    }

    #[test]
    fn hub_resolves_lowest_unit_and_parks_unresolved() {
        let hub = PortHub::default();
        // A call before any export parks in the hub...
        let call = sent(hub.send_request(
            UnitId::new(9),
            None,
            "svc",
            PayloadKind::Int,
            vec![1],
            false,
        ));
        assert_eq!(hub.unresolved_requests(), 1);
        assert!(hub.quiescent());
        // ...and is routed on export.
        hub.export(UnitId::new(2), Arc::from("svc"));
        hub.export(UnitId::new(1), Arc::from("svc"));
        assert_eq!(hub.unresolved_requests(), 0);
        assert!(hub.has_mail(UnitId::new(2)), "first exporter got the call");
        assert!(hub.has_woken());
        let mut woken = Vec::new();
        hub.drain_woken_into(&mut woken);
        assert_eq!(woken, vec![2]);
        assert!(!hub.has_woken());
        let mut mail = Vec::new();
        hub.take_mail_into(UnitId::new(2), &mut mail);
        assert!(matches!(
            mail.first(),
            Some(Envelope::Request { call: c, .. }) if *c == call
        ));
        // New sends resolve to the lowest exporting unit.
        sent(hub.send_request(
            UnitId::new(9),
            None,
            "svc",
            PayloadKind::Int,
            vec![2],
            false,
        ));
        assert!(hub.has_mail(UnitId::new(1)));
        assert!(!hub.has_mail(UnitId::new(2)));
    }

    #[test]
    fn hub_quota_parks_senders_and_releases_wake_them() {
        let hub = PortHub::with_quota(MailboxQuota {
            max_messages: 2,
            max_bytes: 1024,
        });
        let dest = UnitId::new(0);
        let sender = UnitId::new(3);
        hub.export(dest, Arc::from("svc"));
        // Two admissions fill the quota...
        sent(hub.send_request(sender, None, "svc", PayloadKind::Int, vec![1], false));
        sent(hub.send_request(sender, None, "svc", PayloadKind::Int, vec![2], false));
        // ...the third bounces with its payload handed back, and the
        // sender is registered for a wake-up token.
        match hub
            .send_request(sender, None, "svc", PayloadKind::Int, vec![3], false)
            .unwrap()
        {
            SendOutcome::OverQuota { bytes, dest } => {
                assert_eq!(bytes, vec![3]);
                assert_eq!(dest, 0, "the resolved destination rides along");
            }
            SendOutcome::Sent(_) => panic!("expected quota rejection"),
        }
        assert!(!hub.retry_ready(sender), "destination still full");
        let stats = hub.stats();
        let row = &stats.mailboxes[0];
        assert_eq!(
            (row.queued, row.admitted_messages, row.parked_senders),
            (2, 2, 1)
        );
        // Draining the mailbox alone releases nothing — capacity returns
        // only when the destination reports the requests served.
        let mut mail = Vec::new();
        hub.take_mail_into(dest, &mut mail);
        assert_eq!(mail.len(), 2);
        assert!(!hub.retry_ready(sender));
        let mut woken = Vec::new();
        hub.drain_woken_into(&mut woken);
        assert_eq!(woken, vec![0]);
        // The boundary flush returns capacity and wakes the sender.
        let mut outbox = Vec::new();
        hub.flush_boundary(dest, &mut outbox, 2, 2);
        assert!(hub.retry_ready(sender));
        assert!(hub.has_woken());
        woken.clear();
        hub.drain_woken_into(&mut woken);
        assert_eq!(woken, vec![3]);
        // The sender's retry sweep clears its registration.
        hub.clear_quota_waits(sender);
        assert!(!hub.retry_ready(sender));
        sent(hub.send_request(sender, None, "svc", PayloadKind::Int, vec![3], false));
    }

    #[test]
    fn hub_revocation_fails_sends_and_addressing_targets_units() {
        let hub = PortHub::default();
        hub.export(UnitId::new(0), Arc::from("svc"));
        hub.export(UnitId::new(1), Arc::from("svc"));
        // Addressed send goes to the named unit even if not the lowest.
        hub.send_request(
            UnitId::new(5),
            Some(UnitId::new(1)),
            "svc",
            PayloadKind::Int,
            vec![],
            false,
        )
        .unwrap();
        assert!(hub.has_mail(UnitId::new(1)));
        // Revoking one leaves the other resolvable...
        hub.revoke(UnitId::new(0), "svc");
        hub.send_request(UnitId::new(5), None, "svc", PayloadKind::Int, vec![], false)
            .unwrap();
        assert_eq!(hub.service_names(), vec![(1, "svc".to_owned())]);
        // ...revoking both fails fast.
        hub.revoke(UnitId::new(1), "svc");
        assert_eq!(
            hub.send_request(UnitId::new(5), None, "svc", PayloadKind::Int, vec![], false),
            Err(SendError::Revoked)
        );
        assert_eq!(
            hub.send_request(
                UnitId::new(5),
                Some(UnitId::new(1)),
                "svc",
                PayloadKind::Int,
                vec![],
                false
            ),
            Err(SendError::Revoked)
        );
    }

    // The shard-routing determinism lane: routing must be a pure
    // function of the service name (never of pointer identity, hash
    // seeds or export order), and bare-name resolution must pick the
    // lowest exporting unit however the exports were interleaved —
    // the two properties that let a sharded registry hide behind the
    // bit-identical differential contract.
    proptest::proptest! {
        #[test]
        fn shard_routing_is_deterministic(
            name in "[a-z0-9/._-]{1,24}",
            mut units in proptest::collection::vec(0u32..64, 1..8),
        ) {
            let shard = shard_of(&name);
            proptest::prop_assert!(shard < REGISTRY_SHARDS);
            // Stable across string identity (a fresh allocation).
            proptest::prop_assert_eq!(shard, shard_of(name.clone().as_str()));
            let hub = PortHub::default();
            for &u in units.iter() {
                hub.export(UnitId::new(u), Arc::from(name.as_str()));
            }
            sent(hub.send_request(
                UnitId::new(99),
                None,
                &name,
                PayloadKind::Int,
                vec![7],
                false,
            ));
            units.sort_unstable();
            proptest::prop_assert!(
                hub.has_mail(UnitId::new(units[0])),
                "bare-name resolution must pick the lowest exporter"
            );
        }
    }

    /// Mid-flood [`PortHub::stats`] snapshots must be coherent: with
    /// producers hammering one destination, every snapshot row has to
    /// satisfy the cross-field invariants (`admitted <= quota bound`,
    /// `queued <= admitted`) that torn reads between per-shard locks
    /// would violate — admission is counted under the same cell lock
    /// the snapshot reads, strictly before the envelope is posted.
    #[test]
    fn stats_snapshot_is_coherent_mid_flood() {
        let quota = MailboxQuota {
            max_messages: 8,
            max_bytes: 1 << 20,
        };
        let hub = Arc::new(PortHub::with_quota(quota));
        hub.export(UnitId::new(0), Arc::from("svc"));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let senders: Vec<_> = (1u32..5)
            .map(|s| {
                let hub = Arc::clone(&hub);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        match hub
                            .send_request(
                                UnitId::new(s),
                                None,
                                "svc",
                                PayloadKind::Int,
                                vec![s as u8],
                                true,
                            )
                            .unwrap()
                        {
                            SendOutcome::Sent(_) => {}
                            SendOutcome::OverQuota { .. } => {
                                // Drain-and-release on the destination's
                                // behalf so the flood keeps cycling.
                                let mut mail = Vec::new();
                                hub.take_mail_into(UnitId::new(0), &mut mail);
                                let served: u64 = mail.len() as u64;
                                if served > 0 {
                                    hub.flush_boundary(
                                        UnitId::new(0),
                                        &mut Vec::new(),
                                        served as u32,
                                        served,
                                    );
                                }
                                hub.clear_quota_waits(UnitId::new(s));
                            }
                        }
                    }
                })
            })
            .collect();
        for _ in 0..200 {
            let stats = hub.stats();
            for row in stats.mailboxes.iter() {
                assert!(
                    row.admitted_messages <= quota.max_messages,
                    "admission bound torn: {} > {}",
                    row.admitted_messages,
                    quota.max_messages
                );
                assert!(
                    row.queued <= row.admitted_messages as usize,
                    "snapshot tore between queue and admission: queued {} \
                     admitted {}",
                    row.queued,
                    row.admitted_messages
                );
            }
        }
        stop.store(true, Ordering::Relaxed);
        for s in senders {
            s.join().unwrap();
        }
    }
}
