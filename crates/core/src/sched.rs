//! The cluster scheduler: deterministic and parallel work-stealing
//! execution of `Send` VM units, with an inter-unit service/message
//! layer ([`crate::port`]).
//!
//! A [`Vm`] is a complete, self-contained execution unit — its heap,
//! classes, isolates, green threads, monitors and GC epochs have no
//! shared mutable state with any other VM, and since the `Arc`
//! conversion the whole graph is `Send` (asserted at compile time below).
//! The cluster exploits that: it schedules *units* onto OS worker
//! threads one quantum slice at a time, and because a parked unit is
//! plain data, an idle worker can steal it — green threads (with their
//! full frame stacks, quickened instruction streams and monitor state)
//! migrate between cores at quantum boundaries by moving the unit that
//! owns them.
//!
//! ```text
//!            submit()                 ┌────────────┐
//!   units ──────────────▶ queue[0] ◀──▶  worker 0  │──┐ drain mailbox,
//!                         queue[1] ◀──▶  worker 1  │──┤ run one slice,
//!                            …            …        │  │ flush CPU buffer,
//!                         queue[n] ◀──▶  worker n  │──┘ requeue / park / finish
//!                            ▲                │
//!                            └── steal ◀──────┘  (idle worker, FIFO end)
//!
//!   parked units ◀──── park (idle-with-services / blocked-on-reply)
//!        │
//!        └──── unpark on mail delivery (hub wake-up token) ───▶ queue
//! ```
//!
//! **Scheduling modes** ([`SchedulerKind`], selected via
//! [`ClusterBuilder::scheduler`]):
//!
//! * [`SchedulerKind::Deterministic`] — one logical worker on the calling
//!   thread, strict FIFO over a single queue, no stealing. Byte-for-byte
//!   reproducible, which keeps it the differential oracle: a parallel run
//!   must produce identical per-unit results and identical per-isolate
//!   exact CPU, differing only in which worker ran which slice.
//! * [`SchedulerKind::Parallel`]`(n)` — `n` OS workers with per-worker
//!   run queues. A worker pops its own queue from the front and steals
//!   from a victim's back end when idle. Wall-clock scaling tracks the
//!   host's cores; correctness does not depend on the core count.
//!
//! **Park / unpark.** A unit that goes idle while it still matters to the
//! cluster — it exports live services, or one of its threads is blocked
//! on a cross-unit reply ([`RunOutcome::Blocked`]) — is *parked* off the
//! run queues instead of finished. Message delivery unparks it: every
//! hub post leaves a wake-up token, and workers sweep tokens back into
//! run queues at each iteration. The cluster completes when every
//! remaining unit is parked and no undelivered mail exists anywhere
//! (parked units then report their last outcome — `Idle` for a served-out
//! exporter, `Blocked` for a caller whose reply can never come).
//!
//! **Exact accounting at migration points.** While a worker runs a unit
//! it accumulates exactly-counted instructions into a private
//! [`WorkerCpuBuffer`]; the buffer drains through
//! `crate::accounting::ResourceStats::charge_cpu` into the shared
//! [`ClusterAccounts`] *before* the unit is parked where another worker
//! could steal it (and when it finishes or is terminated). A unit's
//! pending in-VM counter (`insns_since_switch`) is flushed by
//! [`Vm::flush_pending_cpu`] at the same boundary, so no instruction is
//! in flight across a migration and per-isolate totals are bit-identical
//! across scheduler modes — the invariant the cross-mode proptests pin.
//!
//! **Unit events: kills and captures.** [`UnitHandle::terminate`]
//! requests an isolate kill from any thread; whichever worker next picks
//! the unit up delivers it, *before* its next slice.
//! [`UnitHandle::terminate_at`] and [`UnitHandle::checkpoint_at`] address
//! an event to a point of the unit's own virtual clock `V`. Both kinds
//! share one pending list, and delivery follows one contract:
//!
//! * the event lands at the first quantum boundary at or past `V` (the
//!   picking worker caps the slice at `V − vclock`, and [`Vm::run`]
//!   checks its budget only between quanta). A sleep that jumps the
//!   clock is not budgeted, so across one the event may land up to a
//!   slice later, still at a point fixed by the unit's own execution;
//! * if the unit never reaches `V`, the event lands at cluster stall;
//! * the landing point is the same under every schedule if and only if
//!   the unit's quantum boundaries up to `V` are. That holds inside
//!   compute-only stretches and at a blocked fixpoint. It does not hold
//!   inside mail-driven work: a service pump that gets two requests in
//!   one drain under one schedule, and in two drains under another,
//!   ends its quanta at different vclocks.

use crate::accounting::{ClusterAccounts, WorkerCpuBuffer};
use crate::checkpoint::{CheckpointError, UnitImage};
use crate::ids::IsolateId;
use crate::port::{HubStats, MailboxQuota, PortHub};
use crate::trace::{
    clamp_id, ClusterMetrics, EventKind, TraceEvent, TraceRing, TraceSink, VmMetrics, TRACE_NONE,
    WORKER_RING_CAPACITY,
};
use crate::vm::{RunOutcome, Vm, VmOptions};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Compile-time proof that a whole VM is a `Send` execution unit — the
/// property the work-stealing scheduler is built on. If any field of the
/// VM graph regresses to a thread-unsafe shared handle, this fails to
/// compile rather than failing in a data race.
fn _assert_vm_is_send() {
    fn is_send<T: Send>() {}
    is_send::<Vm>();
    is_send::<Unit>();
}

/// How the cluster schedules its units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Single logical worker on the calling thread, strict FIFO, no
    /// stealing: fully reproducible, the differential oracle (and the
    /// default).
    #[default]
    Deterministic,
    /// `n` OS worker threads with per-worker run queues and work
    /// stealing. `Parallel(0)` is treated as `Parallel(1)`.
    Parallel(usize),
}

impl SchedulerKind {
    /// Number of workers this mode schedules onto.
    pub(crate) fn workers(self) -> usize {
        match self {
            SchedulerKind::Deterministic => 1,
            SchedulerKind::Parallel(n) => n.max(1),
        }
    }
}

/// Identifies an execution unit within one [`Cluster`], in submission
/// order. Obtained from [`Cluster::submit`] (via [`UnitHandle::id`]);
/// the index is stable and doubles as the unit's address on the
/// cluster's message hub.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UnitId(u32);

impl UnitId {
    pub(crate) const fn new(index: u32) -> UnitId {
        UnitId(index)
    }

    /// The unit's submission index — also its position in
    /// [`ClusterOutcome::units`] and its guest-visible address
    /// (`Service.callAt`).
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for UnitId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unit{}", self.0)
    }
}

/// A typed handle to one submitted unit: its [`UnitId`] plus the control
/// surface addressed to it. Returned by [`Cluster::submit`].
#[derive(Debug, Clone)]
pub struct UnitHandle {
    id: UnitId,
    ctl: ClusterCtl,
}

impl UnitHandle {
    /// The unit's id.
    pub fn id(&self) -> UnitId {
        self.id
    }

    /// Requests termination of `isolate` inside this unit (delivered at
    /// the unit's next quantum boundary, from any thread).
    pub fn terminate(&self, isolate: IsolateId) {
        self.ctl.terminate(self.id, isolate);
    }

    /// Like [`UnitHandle::terminate`], delivered at the first quantum
    /// boundary where the unit's vclock is at or past `at_vclock`, or at
    /// cluster stall if the unit never gets there. The vclock counts the
    /// unit's own instructions, so the kill point is the same under every
    /// scheduler mode when the unit's quantum boundaries up to
    /// `at_vclock` are: inside a compute-only stretch, or at a blocked
    /// fixpoint.
    pub fn terminate_at(&self, isolate: IsolateId, at_vclock: u64) {
        self.ctl.terminate_at(self.id, isolate, at_vclock);
    }

    /// Requests a checkpoint image of this unit, cut at the first
    /// quantum boundary where its vclock is at or past `at_vclock`, on
    /// the terms of [`UnitHandle::terminate_at`]; a unit that is not at a
    /// clean boundary there is retried until its traffic drains, or
    /// settled at its final state. Returns a [`CheckpointTicket`]; call
    /// [`CheckpointTicket::wait`] after [`Cluster::run`] returns (or
    /// from another OS thread, under the parallel scheduler).
    pub fn checkpoint_at(&self, at_vclock: u64) -> CheckpointTicket {
        self.ctl.checkpoint_at(self.id, at_vclock)
    }
}

/// A scheduled unit: a VM plus its migration bookkeeping.
#[derive(Debug)]
struct Unit {
    id: UnitId,
    vm: Vm,
    /// Quantum slices executed so far.
    slices: u64,
    /// Worker that ran the previous slice, for migration counting.
    last_worker: Option<usize>,
    /// Cross-worker migrations this unit underwent.
    migrations: u64,
    /// Per-isolate `cpu_exact` values already harvested into a worker
    /// buffer, so each boundary charges only the delta.
    cpu_seen: Vec<u64>,
}

impl Unit {
    /// Flushes the VM's pending CPU and records the per-isolate deltas
    /// since the last boundary into `buffer`. Called at every slice
    /// boundary, before the unit can migrate.
    fn harvest_cpu(&mut self, buffer: &mut WorkerCpuBuffer) {
        self.vm.flush_pending_cpu();
        let count = self.vm.isolate_count();
        if self.cpu_seen.len() < count {
            self.cpu_seen.resize(count, 0);
        }
        for i in 0..count {
            let iso = IsolateId(i as u16);
            let cur = self.vm.isolate_stats(iso).map_or(0, |s| s.cpu_exact);
            let delta = cur - self.cpu_seen[i];
            if delta > 0 {
                buffer.record(self.id, iso, delta);
                self.cpu_seen[i] = cur;
            }
        }
    }
}

/// What happened to one unit, reported after the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct UnitReport {
    /// The unit.
    pub id: UnitId,
    /// Terminal outcome: [`RunOutcome::Idle`] (all work finished),
    /// [`RunOutcome::Deadlock`] (its threads blocked on each other), or
    /// [`RunOutcome::Blocked`] (a cross-unit call whose reply never
    /// came — the cluster quiesced around it).
    pub outcome: RunOutcome,
    /// Quantum slices the unit consumed.
    pub slices: u64,
    /// Times the unit changed workers between consecutive slices.
    pub(crate) migrations: u64,
}

/// One finished unit: its VM (for result/console/stats inspection) and
/// its scheduling report.
#[derive(Debug)]
#[non_exhaustive]
pub struct UnitOutcome {
    /// The unit's VM.
    pub vm: Vm,
    /// The unit's scheduling report.
    pub report: UnitReport,
}

/// Everything a finished cluster run returns.
///
/// **Ordering invariant:** `units` is indexed by [`UnitId`] —
/// `outcome.units[h.id().index() as usize]` is always the unit submitted
/// as `h`, *regardless of completion order* (units finishing out of
/// submission order under the parallel scheduler are sorted back; the
/// invariant is asserted at collection time and pinned by a test). Use
/// [`ClusterOutcome::unit`] to index by handle.
#[derive(Debug)]
#[non_exhaustive]
pub struct ClusterOutcome {
    /// The units, in [`UnitId`] order (see the ordering invariant above).
    pub units: Vec<UnitOutcome>,
    /// Cluster-level per-isolate exact CPU, fed only through worker
    /// buffers draining at migration points.
    pub accounts: ClusterAccounts,
    /// Units taken from another worker's queue.
    pub steals: u64,
    /// Total cross-worker unit migrations.
    pub migrations: u64,
    /// Scheduler counters plus every unit's [`VmMetrics`] folded
    /// together. `Some` iff at least one unit ran with tracing on.
    pub metrics: Option<ClusterMetrics>,
    /// The merged flight-recorder stream: every traced unit's ring plus
    /// every worker's scheduler ring, drained at collection time. Empty
    /// when tracing was off.
    pub trace_events: Vec<TraceEvent>,
    /// Final read-only hub snapshot: services still exported, mailbox
    /// depths and quota accounting at wrap-up.
    pub hub_stats: HubStats,
}

impl ClusterOutcome {
    /// The outcome of the unit `handle` refers to.
    pub fn unit(&self, handle: &UnitHandle) -> &UnitOutcome {
        &self.units[handle.id().index() as usize]
    }

    /// Mutable access to the unit `handle` refers to (e.g. to drain its
    /// console).
    pub fn unit_mut(&mut self, handle: &UnitHandle) -> &mut UnitOutcome {
        &mut self.units[handle.id().index() as usize]
    }

    /// Wraps the run's merged events in a [`TraceSink`] (sorted by
    /// virtual clock), ready for [`TraceSink::write_chrome_trace`].
    pub fn trace_sink(&self) -> TraceSink {
        TraceSink::new(self.trace_events.clone())
    }
}

/// The pending result of a [`UnitHandle::checkpoint_at`] request: a
/// one-shot slot the scheduler fulfills when it cuts (or definitively
/// fails to cut) the image at a quantum boundary.
///
/// Under [`SchedulerKind::Deterministic`] the whole cluster runs on the
/// calling thread, so call [`CheckpointTicket::wait`] *after*
/// [`Cluster::run`] returns — the image was cut mid-run and is already
/// in the slot. Under `Parallel(n)`, `wait` may also be called from
/// another OS thread while the cluster is still running.
#[derive(Debug)]
#[non_exhaustive]
pub struct CheckpointTicket {
    inner: Arc<TicketInner>,
}

#[derive(Debug, Default)]
struct TicketInner {
    slot: Mutex<Option<Result<UnitImage, CheckpointError>>>,
    ready: Condvar,
}

impl TicketInner {
    /// First fulfillment wins; later ones are dropped (a request is
    /// consumed exactly once, so a second call can only be the shutdown
    /// safety net racing a regular delivery).
    fn fulfill(&self, r: Result<UnitImage, CheckpointError>) {
        let mut slot = self.slot.lock().unwrap();
        if slot.is_none() {
            *slot = Some(r);
        }
        self.ready.notify_all();
    }
}

impl CheckpointTicket {
    /// Blocks until the scheduler settles the request, then returns the
    /// image (or the reason no image could be cut).
    pub fn wait(self) -> Result<UnitImage, CheckpointError> {
        let mut slot = self.inner.slot.lock().unwrap();
        loop {
            if let Some(r) = slot.take() {
                return r;
            }
            slot = self.inner.ready.wait(slot).unwrap();
        }
    }
}

/// What a [`UnitEvent`] does when it lands.
#[derive(Debug)]
enum EventAction {
    /// Terminate this isolate inside the unit.
    Kill(IsolateId),
    /// Cut a checkpoint image into this ticket.
    Capture(Arc<TicketInner>),
}

/// A pending kill or capture, addressed to a point of one unit's
/// virtual clock (see the module docs for the delivery contract).
#[derive(Debug)]
struct UnitEvent {
    unit: UnitId,
    /// Due once the unit's vclock is at or past this value.
    at_vclock: u64,
    /// Set at cluster stall: the event is due whatever the vclock, and a
    /// capture must settle (image or error) instead of retrying, since
    /// no further traffic can clean the boundary.
    at_stall: bool,
    action: EventAction,
}

/// Shared remote-control handle for a cluster (cloneable, thread-safe).
/// Embedders reach it through a [`UnitHandle`], addressed to one unit.
#[derive(Debug, Clone, Default)]
pub(crate) struct ClusterCtl {
    inner: Arc<CtlInner>,
}

#[derive(Debug, Default)]
struct CtlInner {
    /// Fast-path flag so a pickup locks `events` only when one is
    /// pending. Set and cleared under the lock, so at every unlock it
    /// agrees with `!events.is_empty()`: a worker's fast-path read can
    /// only say "false" for an event that had not been filed yet.
    armed: AtomicBool,
    events: Mutex<Vec<UnitEvent>>,
}

impl ClusterCtl {
    /// Requests termination of `isolate` inside `unit`. Delivered by
    /// whichever worker next schedules the unit, before its next quantum
    /// slice — the dying isolate's threads stop at the next quantum
    /// boundary on whatever core they run. Requests filed before
    /// [`Cluster::run`] are delivered before the unit's first slice.
    pub(crate) fn terminate(&self, unit: UnitId, isolate: IsolateId) {
        self.terminate_at(unit, isolate, 0);
    }

    /// Like [`ClusterCtl::terminate`], delivered at the first quantum
    /// boundary where the unit's vclock is at or past `at_vclock`, or at
    /// cluster stall if the unit never gets there. The vclock counts the
    /// unit's own instructions, never wall-clock time, so the kill point
    /// is the same under `Deterministic` and every `Parallel(n)` when
    /// the unit's quantum boundaries up to `at_vclock` are: inside a
    /// compute-only stretch, or at a blocked fixpoint — not inside
    /// mail-driven work, whose quanta end wherever a drain ran dry.
    pub(crate) fn terminate_at(&self, unit: UnitId, isolate: IsolateId, at_vclock: u64) {
        self.file(unit, at_vclock, EventAction::Kill(isolate));
    }

    /// Requests a checkpoint of `unit` at the first quantum boundary
    /// where its vclock is at or past `at_vclock` — the same point, and
    /// so a bit-identical image, under every scheduler mode on the terms
    /// of [`ClusterCtl::terminate_at`]. The image is cut after the
    /// boundary's mail drain.
    ///
    /// If the unit is not at a clean boundary there (in-flight cross-
    /// unit calls, undrained mail), the request is retried at later
    /// boundaries until the traffic drains; a unit that finishes, or a
    /// cluster that stalls, settles the request against the unit's
    /// final state instead.
    pub(crate) fn checkpoint_at(&self, unit: UnitId, at_vclock: u64) -> CheckpointTicket {
        let inner = Arc::new(TicketInner::default());
        self.file(unit, at_vclock, EventAction::Capture(Arc::clone(&inner)));
        CheckpointTicket { inner }
    }

    /// Adds an event to the pending list.
    fn file(&self, unit: UnitId, at_vclock: u64, action: EventAction) {
        let mut pending = self.inner.events.lock().unwrap();
        pending.push(UnitEvent {
            unit,
            at_vclock,
            at_stall: false,
            action,
        });
        self.inner.armed.store(true, Ordering::Release);
    }

    /// Takes the events addressed to `unit` that are due at `vclock`,
    /// plus the earliest `at_vclock` still pending for it (which caps
    /// the unit's next slice).
    fn take_due(&self, unit: UnitId, vclock: u64) -> (Vec<UnitEvent>, Option<u64>) {
        if !self.inner.armed.load(Ordering::Acquire) {
            return (Vec::new(), None);
        }
        let mut pending = self.inner.events.lock().unwrap();
        let due = pending
            .extract_if(.., |e| {
                e.unit == unit && (e.at_stall || e.at_vclock <= vclock)
            })
            .collect();
        let armed = !pending.is_empty();
        self.inner.armed.store(armed, Ordering::Release);
        let ahead = pending.iter().filter(|e| e.unit == unit);
        (due, ahead.map(|e| e.at_vclock).min())
    }

    /// The parked units (keyed by index) that have an event due. At
    /// `stall` every pending event of a parked unit is made due.
    fn due_parked(&self, parked: &BTreeMap<u32, ParkedUnit>, stall: bool) -> Vec<u32> {
        if !self.inner.armed.load(Ordering::Acquire) {
            return Vec::new();
        }
        let mut due = Vec::new();
        for e in self.inner.events.lock().unwrap().iter_mut() {
            let Some(p) = parked.get(&e.unit.index()) else {
                continue;
            };
            e.at_stall |= stall;
            if e.at_stall || e.at_vclock <= p.unit.vm.vclock() {
                due.push(e.unit.index());
            }
        }
        due.sort_unstable();
        due.dedup();
        due
    }

    /// Drains every pending event (cluster shutdown safety net).
    fn take_all(&self) -> Vec<UnitEvent> {
        let mut pending = self.inner.events.lock().unwrap();
        self.inner.armed.store(false, Ordering::Release);
        std::mem::take(&mut *pending)
    }
}

/// Default instruction budget of one quantum slice (mirrors the default
/// in-VM scheduler quantum, so one slice is one thread quantum).
pub(crate) const DEFAULT_SLICE: u64 = 10_000;

/// Builds a [`Cluster`]: scheduling mode, slice length, and the
/// [`VmOptions`] defaults its units are expected to boot with. This is
/// the one way to construct a cluster.
///
/// ```
/// use ijvm_core::prelude::*;
///
/// let cluster = Cluster::builder()
///     .scheduler(SchedulerKind::Parallel(2))
///     .slice(2_000)
///     .build();
/// # let _ = cluster;
/// ```
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    kind: SchedulerKind,
    slice: u64,
    vm_options: VmOptions,
    mailbox_quota: MailboxQuota,
}

impl Default for ClusterBuilder {
    fn default() -> ClusterBuilder {
        ClusterBuilder {
            kind: SchedulerKind::Deterministic,
            slice: DEFAULT_SLICE,
            vm_options: VmOptions::isolated(),
            mailbox_quota: MailboxQuota::UNBOUNDED,
        }
    }
}

impl ClusterBuilder {
    /// A deterministic cluster with the default slice and `Isolated`
    /// unit defaults.
    pub(crate) fn new() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// Sets the scheduling mode.
    pub fn scheduler(mut self, kind: SchedulerKind) -> ClusterBuilder {
        self.kind = kind;
        self
    }

    /// Sets the per-slice instruction budget (a tiny slice forces many
    /// migration points; mostly for tests).
    pub fn slice(mut self, slice: u64) -> ClusterBuilder {
        self.slice = slice.max(1);
        self
    }

    /// Sets the [`VmOptions`] defaults for this cluster's units (the
    /// scheduling mode comes only from [`ClusterBuilder::scheduler`]).
    /// Images restore under these defaults ([`Cluster::submit_image`]),
    /// and their trace mode turns the cluster's recorder on; units the
    /// embedder boots itself keep their own options.
    pub fn vm_options(mut self, options: VmOptions) -> ClusterBuilder {
        self.vm_options = options;
        self
    }

    /// Caps every unit's mailbox at `max_messages` admitted-but-unserved
    /// requests and `max_bytes` of serialized payload. Over-quota senders
    /// are *parked* (their green thread blocks in the send, already
    /// charged sender-pays for the payload) and retried at quantum
    /// boundaries as the destination drains — flow control, not failure.
    /// Replies are exempt so request/reply cycles cannot deadlock. The
    /// default is `MailboxQuota::UNBOUNDED`.
    pub fn mailbox_quota(mut self, max_messages: u32, max_bytes: u64) -> ClusterBuilder {
        self.mailbox_quota = MailboxQuota {
            max_messages,
            max_bytes,
        };
        self
    }

    /// Builds the cluster (empty; `submit` units next).
    pub fn build(self) -> Cluster {
        Cluster {
            kind: self.kind,
            slice: self.slice,
            vm_defaults: self.vm_options,
            units: Vec::new(),
            ctl: ClusterCtl::default(),
            hub: Arc::new(PortHub::with_quota(self.mailbox_quota)),
        }
    }
}

/// The cluster: a set of submitted units plus a scheduling mode and the
/// shared message hub its units communicate through.
#[derive(Debug)]
pub struct Cluster {
    kind: SchedulerKind,
    slice: u64,
    vm_defaults: VmOptions,
    units: Vec<Unit>,
    ctl: ClusterCtl,
    hub: Arc<PortHub>,
}

impl Cluster {
    /// Starts building a cluster (the v2 embedding entry point).
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::new()
    }

    /// Submits a prepared VM (isolates created, entry threads spawned via
    /// [`Vm::spawn_thread`], nothing run yet) as an execution unit,
    /// attaching it to the cluster's message hub: services the VM already
    /// exports become addressable as `(unit, name)`, and its guest code
    /// can now reach other units through `ijvm/Service` / `ijvm/Port`.
    pub fn submit(&mut self, mut vm: Vm) -> UnitHandle {
        let id = UnitId::new(self.units.len() as u32);
        vm.attach_port(id, Arc::clone(&self.hub));
        self.units.push(Unit {
            id,
            vm,
            slices: 0,
            last_worker: None,
            migrations: 0,
            cpu_seen: Vec::new(),
        });
        UnitHandle {
            id,
            ctl: self.ctl.clone(),
        }
    }

    /// Restores a checkpoint image ([`crate::checkpoint`]) as a new
    /// execution unit — crash-restart: the unit resumes from the
    /// captured boundary with a fresh [`UnitId`] and re-exports its
    /// services under their **original names** (the restored unit is
    /// the service; callers that looked the name up again after the
    /// crash reach it).
    ///
    /// The cluster's [`VmOptions`] defaults are the restore options —
    /// their hard state-shape fields must match the image (see
    /// [`crate::checkpoint::restore`]). `natives` must register the
    /// natives the captured VM had (e.g. `ijvm_jsl::install_natives`).
    pub fn submit_image(
        &mut self,
        image: &UnitImage,
        natives: impl FnOnce(&mut Vm),
    ) -> Result<UnitHandle, CheckpointError> {
        let vm = crate::checkpoint::restore(image, self.vm_defaults.clone(), natives)?;
        Ok(self.submit(vm))
    }

    /// Restores one image as `n` independent units — snapshot-fork
    /// scale-out: boot and warm a unit once, checkpoint it, and stamp
    /// out clones that skip class loading and `<clinit>` re-execution
    /// entirely. Each clone gets a fresh [`UnitId`], and every exported
    /// service is renamed `"{name}#{k}"` (k = 0..n) **before** the clone
    /// attaches to the hub, so the clones publish distinct addresses
    /// instead of racing for the original's callers.
    pub fn submit_image_n(
        &mut self,
        image: &UnitImage,
        n: usize,
        natives: impl Fn(&mut Vm),
    ) -> Result<Vec<UnitHandle>, CheckpointError> {
        let mut handles = Vec::with_capacity(n);
        for k in 0..n {
            let mut vm = crate::checkpoint::restore(image, self.vm_defaults.clone(), &natives)?;
            vm.port_remap_service_names(k);
            handles.push(self.submit(vm));
        }
        Ok(handles)
    }

    /// Runs every unit until the cluster quiesces and returns the
    /// outcome. Consumes the cluster: the VMs come back in the outcome
    /// for inspection.
    pub fn run(self) -> ClusterOutcome {
        let workers = self.kind.workers();
        let trace_on = self.vm_defaults.trace.is_on()
            || self.units.iter().any(|u| u.vm.options().trace.is_on());
        let shared = Shared::new(
            workers, self.slice, self.units, self.ctl, self.hub, trace_on,
        );
        match self.kind {
            SchedulerKind::Deterministic => shared.worker_loop(0),
            SchedulerKind::Parallel(_) => {
                std::thread::scope(|scope| {
                    for w in 0..workers {
                        let shared = &shared;
                        scope.spawn(move || shared.worker_loop(w));
                    }
                });
            }
        }
        shared.into_outcome()
    }
}

/// One worker's private flight-recorder ring: scheduler events
/// ([`EventKind::UnitDispatch`] .. [`EventKind::UnitKill`]) are recorded
/// lock-free into per-worker storage and merged only once, when the
/// cluster collects its outcome. The eager counters survive ring wrap.
#[derive(Debug)]
struct WorkerTrace {
    ring: TraceRing,
    wall: crate::trace::WallClock,
    dispatches: u64,
    parks: u64,
    unparks: u64,
    kills: u64,
    finishes: u64,
}

impl WorkerTrace {
    fn new() -> WorkerTrace {
        WorkerTrace {
            ring: TraceRing::with_capacity(WORKER_RING_CAPACITY),
            wall: crate::trace::WallClock::new(),
            dispatches: 0,
            parks: 0,
            unparks: 0,
            kills: 0,
            finishes: 0,
        }
    }

    /// Records one scheduler event. `vclock` is the affected unit's
    /// virtual clock at the boundary; `worker` lands in the `thread`
    /// column so Perfetto lanes scheduler events per worker.
    fn emit(
        &mut self,
        kind: EventKind,
        worker: usize,
        unit: UnitId,
        vclock: u64,
        isolate: u8,
        payload: u64,
    ) {
        match kind {
            // Steals count through the scheduler's authoritative atomic.
            EventKind::UnitDispatch => self.dispatches += 1,
            EventKind::UnitPark => self.parks += 1,
            EventKind::UnitUnpark => self.unparks += 1,
            EventKind::UnitKill => self.kills += 1,
            EventKind::UnitFinish => self.finishes += 1,
            _ => {}
        }
        // An unpark follows a host-time wait the unit's vclock knows
        // nothing about, so its stamp must bypass the sampler's cache;
        // every other scheduler event sits at a slice boundary the
        // guest just ran up to.
        let wall_us = if kind == EventKind::UnitUnpark {
            self.wall.refresh(vclock)
        } else {
            self.wall.sample(vclock)
        };
        self.ring.push(TraceEvent {
            vclock,
            payload,
            wall_us,
            kind,
            unit: clamp_id(unit.index()),
            isolate,
            thread: clamp_id(worker as u32),
        });
    }
}

/// A unit parked off the run queues, waiting for mail (or for the
/// cluster to quiesce), with the outcome it last reported.
#[derive(Debug)]
struct ParkedUnit {
    unit: Unit,
    outcome: RunOutcome,
}

/// State shared by the workers of one running cluster.
///
/// Lock discipline: `parked` is the outermost lock; `queues[i]` and the
/// hub's internal lock are leaves, taken one at a time and never held
/// across each other. `running` counts units currently held by a worker
/// (between pop and disposition) and is only mutated under the popped
/// queue's lock, so a quiescence check that holds `parked` and observes
/// `running == 0` with all queues empty has a consistent snapshot.
#[derive(Debug)]
struct Shared {
    slice: u64,
    queues: Vec<Mutex<VecDeque<Unit>>>,
    /// Units not yet finished; workers exit when this reaches zero.
    outstanding: AtomicUsize,
    /// Units currently held by a worker (popped, not yet disposed).
    running: AtomicUsize,
    /// Units parked off the queues, keyed by unit index. A `BTreeMap`
    /// on purpose: [`Shared::try_quiesce`] wraps up in key order, and
    /// hash-iteration order here would leak straight into finish order
    /// under the deterministic scheduler.
    parked_units: Mutex<BTreeMap<u32, ParkedUnit>>,
    /// Park/unpark for idle workers (paired with `parked`).
    parked: Mutex<()>,
    unpark: Condvar,
    /// Workers currently waiting on `unpark`. Notifications are skipped
    /// while this is zero (the deterministic single-worker loop never
    /// pays for them); a worker increments it *before* re-checking for
    /// work, and the 1 ms wait timeout bounds any remaining lost-wakeup
    /// window.
    idle_workers: AtomicUsize,
    ctl: ClusterCtl,
    hub: Arc<PortHub>,
    accounts: Mutex<ClusterAccounts>,
    finished: Mutex<Vec<(UnitReport, Vm)>>,
    steals: AtomicU64,
    migrations: AtomicU64,
    /// Whether any unit runs traced; workers record scheduler events
    /// into private [`WorkerTrace`] rings only when set.
    trace_on: bool,
    /// Worker rings, pushed exactly once per worker at loop exit and
    /// merged by [`Shared::into_outcome`].
    worker_traces: Mutex<Vec<WorkerTrace>>,
}

impl Shared {
    fn new(
        workers: usize,
        slice: u64,
        units: Vec<Unit>,
        ctl: ClusterCtl,
        hub: Arc<PortHub>,
        trace_on: bool,
    ) -> Shared {
        let queues: Vec<Mutex<VecDeque<Unit>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        let outstanding = units.len();
        // Seed round-robin so every worker starts with local work.
        for (i, unit) in units.into_iter().enumerate() {
            queues[i % workers].lock().unwrap().push_back(unit);
        }
        Shared {
            slice,
            queues,
            outstanding: AtomicUsize::new(outstanding),
            running: AtomicUsize::new(0),
            parked_units: Mutex::new(BTreeMap::new()),
            parked: Mutex::new(()),
            unpark: Condvar::new(),
            idle_workers: AtomicUsize::new(0),
            ctl,
            hub,
            accounts: Mutex::new(ClusterAccounts::default()),
            finished: Mutex::new(Vec::new()),
            steals: AtomicU64::new(0),
            migrations: AtomicU64::new(0),
            trace_on,
            worker_traces: Mutex::new(Vec::new()),
        }
    }

    /// Pops local work from the front (FIFO, the deterministic order).
    /// `running` is incremented under the queue lock (see the lock
    /// discipline note on [`Shared`]).
    fn pop_local(&self, w: usize) -> Option<Unit> {
        let mut q = self.queues[w].lock().unwrap();
        let unit = q.pop_front();
        if unit.is_some() {
            self.running.fetch_add(1, Ordering::SeqCst);
        }
        unit
    }

    /// Steals from the back of the first non-empty victim queue.
    fn steal(&self, w: usize) -> Option<Unit> {
        let n = self.queues.len();
        for off in 1..n {
            let victim = (w + off) % n;
            let mut q = self.queues[victim].lock().unwrap();
            if let Some(unit) = q.pop_back() {
                self.running.fetch_add(1, Ordering::SeqCst);
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(unit);
            }
        }
        None
    }

    /// Notifies idle workers, if any (free when nobody waits — the
    /// deterministic single worker never does).
    fn notify(&self) {
        if self.idle_workers.load(Ordering::Acquire) > 0 {
            self.unpark.notify_all();
        }
    }

    /// Moves parked units with fresh mail back onto run queues (the
    /// "wakeups on delivery" half of park/unpark). Tokens for units that
    /// are not parked are dropped: a queued or running unit drains its
    /// mail at pickup, and the park decision re-checks the mailbox under
    /// the same locks, so no delivery can be lost. `scratch` is the
    /// caller's reusable token buffer.
    fn sweep_wakeups(
        &self,
        scratch: &mut Vec<u32>,
        wt: &mut Option<WorkerTrace>,
        me: usize,
    ) -> bool {
        if !self.hub.has_woken() {
            return false;
        }
        let mut parked = self.parked_units.lock().unwrap();
        scratch.clear();
        self.hub.drain_woken_into(scratch);
        let mut moved = false;
        for &id in scratch.iter() {
            if let Some(p) = parked.remove(&id) {
                if let Some(wt) = wt.as_mut() {
                    wt.emit(
                        EventKind::UnitUnpark,
                        me,
                        p.unit.id,
                        p.unit.vm.vclock(),
                        TRACE_NONE,
                        0,
                    );
                }
                self.requeue(p.unit);
                moved = true;
            }
        }
        if moved {
            self.notify();
        }
        moved
    }

    /// Puts a parked unit back on the run queue of the worker that last
    /// ran it.
    fn requeue(&self, unit: Unit) {
        let w = unit.last_worker.unwrap_or(unit.id.index() as usize) % self.queues.len();
        self.queues[w].lock().unwrap().push_back(unit);
    }

    /// Requeues the parked units with an event due (at `stall`, with
    /// any event pending), so the events land at pickup. Returns whether
    /// any unit moved.
    fn requeue_due(&self, parked: &mut BTreeMap<u32, ParkedUnit>, stall: bool) -> bool {
        let due = self.ctl.due_parked(parked, stall);
        for &id in &due {
            self.requeue(parked.remove(&id).expect("listed as parked").unit);
        }
        if !due.is_empty() {
            self.notify();
        }
        !due.is_empty()
    }

    /// Settles the captures among `due` (its kills have already landed)
    /// at `unit`'s current boundary: a clean capture fulfills every
    /// ticket with a clone of one image. An unclean one fails the
    /// tickets at the unit's `last` boundary or made due by the stall,
    /// and re-files the others for the first boundary past this one.
    fn deliver_captures(&self, unit: &Unit, due: Vec<UnitEvent>, last: bool) {
        let mut result = None;
        for e in due {
            let EventAction::Capture(ticket) = e.action else {
                continue;
            };
            let result = result.get_or_insert_with(|| unit.vm.checkpoint());
            if result.is_ok() || e.at_stall || last {
                ticket.fulfill(result.clone());
            } else {
                let retry = EventAction::Capture(ticket);
                self.ctl.file(unit.id, unit.vm.vclock() + 1, retry);
            }
        }
    }

    /// Finishes one unit.
    fn finish(&self, unit: Unit, outcome: RunOutcome) {
        // A finishing unit settles every capture addressed to it,
        // whatever its `at_vclock`: there will be no later boundary.
        // Its pending kills have nothing left to stop.
        let (pending, _) = self.ctl.take_due(unit.id, u64::MAX);
        self.deliver_captures(&unit, pending, true);
        let report = UnitReport {
            id: unit.id,
            outcome,
            slices: unit.slices,
            migrations: unit.migrations,
        };
        self.finished.lock().unwrap().push((report, unit.vm));
        if self.outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.unpark.notify_all();
        }
    }

    /// The quiescence check: with no unit held by any worker, no unit on
    /// any queue, and no undelivered mail or wake-up token in the hub,
    /// nothing can ever make progress again — finish every parked unit
    /// with its recorded outcome. Runs under the `parked_units` lock so
    /// no park/unpark can interleave. Returns `true` when it made
    /// progress (requeued a unit for a due event, or wrapped up).
    fn try_quiesce(&self, wt: &mut Option<WorkerTrace>, me: usize) -> bool {
        let mut parked = self.parked_units.lock().unwrap();
        if self.requeue_due(&mut parked, false) {
            return true;
        }
        if self.running.load(Ordering::SeqCst) != 0 {
            return false;
        }
        for q in &self.queues {
            if !q.lock().unwrap().is_empty() {
                return false;
            }
        }
        if !self.hub.quiescent() {
            // Wake-up tokens remain: the caller's next sweep moves them.
            return false;
        }
        if parked.len() != self.outstanding.load(Ordering::SeqCst) {
            return false;
        }
        // The cluster is globally stalled, so no parked unit will reach
        // a pending event's vclock: every such event is due now, and its
        // unit is requeued for one more pickup (kills land, captures
        // settle without retry). This terminates — the pickup consumes
        // the events, and the next stall has nothing pending.
        if self.requeue_due(&mut parked, true) {
            return true;
        }
        // Wrap up, in UnitId order (BTreeMap iteration is already
        // key-ordered — deterministic).
        for (_, p) in std::mem::take(&mut *parked) {
            if let Some(wt) = wt.as_mut() {
                wt.emit(
                    EventKind::UnitFinish,
                    me,
                    p.unit.id,
                    p.unit.vm.vclock(),
                    TRACE_NONE,
                    p.unit.slices,
                );
            }
            self.finish(p.unit, p.outcome);
        }
        self.unpark.notify_all();
        true
    }

    /// One worker: sweep wakeups → pop → deliver kills → drain mailbox →
    /// deliver captures → run a slice → flush accounting → requeue /
    /// park / finish.
    ///
    /// With tracing on, the worker records scheduler events into a
    /// private [`WorkerTrace`] ring — no locks on the hot path — and
    /// publishes the ring exactly once, on exit.
    fn worker_loop(&self, w: usize) {
        let mut wt = self.trace_on.then(WorkerTrace::new);
        self.worker_loop_inner(w, &mut wt);
        if let Some(wt) = wt {
            self.worker_traces.lock().unwrap().push(wt);
        }
    }

    fn worker_loop_inner(&self, w: usize, wt: &mut Option<WorkerTrace>) {
        let mut buffer = WorkerCpuBuffer::default();
        let mut woken_scratch: Vec<u32> = Vec::new();
        loop {
            if self.outstanding.load(Ordering::Acquire) == 0 {
                return;
            }
            self.sweep_wakeups(&mut woken_scratch, wt, w);
            let popped = match self.pop_local(w) {
                Some(unit) => Some((unit, false)),
                None => self.steal(w).map(|unit| (unit, true)),
            };
            let Some((mut unit, stolen)) = popped else {
                if self.outstanding.load(Ordering::Acquire) == 0 {
                    return;
                }
                if self.try_quiesce(wt, w) {
                    continue;
                }
                // Units exist but other workers hold them (or tokens are
                // in flight): park briefly. The timeout makes lost
                // wakeups harmless.
                self.idle_workers.fetch_add(1, Ordering::AcqRel);
                let guard = self.parked.lock().unwrap();
                let _ = self
                    .unpark
                    .wait_timeout(guard, std::time::Duration::from_millis(1))
                    .unwrap();
                self.idle_workers.fetch_sub(1, Ordering::AcqRel);
                continue;
            };

            if let Some(wt) = wt.as_mut() {
                let kind = if stolen {
                    EventKind::UnitSteal
                } else {
                    EventKind::UnitDispatch
                };
                wt.emit(kind, w, unit.id, unit.vm.vclock(), TRACE_NONE, unit.slices);
            }

            // Due events land at the quantum boundary, before the next
            // slice, on whatever core the unit is on: kills now,
            // captures after the mail drain.
            let vclock = unit.vm.vclock();
            let (due, next_at) = self.ctl.take_due(unit.id, vclock);
            for e in &due {
                let EventAction::Kill(iso) = e.action else {
                    continue;
                };
                // Best-effort: Shared-mode units and unknown isolates
                // simply ignore the request.
                if let Some(wt) = wt.as_mut() {
                    wt.emit(
                        EventKind::UnitKill,
                        w,
                        unit.id,
                        unit.vm.vclock(),
                        clamp_id(iso.0 as u32),
                        0,
                    );
                }
                let _ = unit.vm.terminate_isolate(iso);
            }

            if unit.last_worker.is_some_and(|prev| prev != w) {
                unit.migrations += 1;
                self.migrations.fetch_add(1, Ordering::Relaxed);
            }
            unit.last_worker = Some(w);

            // Quantum-boundary mail delivery: requests dispatch onto
            // service pumps, replies wake their blocked callers.
            unit.vm.port_drain();

            self.deliver_captures(&unit, due, false);

            // An event still ahead caps the slice. `Vm::run` checks the
            // budget only between quanta, so the slice ends at the first
            // quantum boundary at or past the event's vclock — never
            // inside a thread's quantum, which would perturb the unit.
            let budget = next_at.map_or(self.slice, |at| self.slice.min(at - vclock));
            let outcome = unit.vm.run(Some(budget));
            // Quantum-boundary coalescing: replies buffered during the
            // slice post to the hub in one lock acquisition, and the
            // slice's served requests release their quota (waking any
            // parked senders) at the same time.
            unit.vm.port_quantum_flush();
            unit.slices += 1;
            unit.harvest_cpu(&mut buffer);

            // Drain the worker buffer *before* the unit becomes visible
            // to other workers: accounting is exact at every point where
            // a steal could move the unit to another core.
            buffer.drain_into(&mut self.accounts.lock().unwrap());

            match outcome {
                RunOutcome::BudgetExhausted => {
                    self.queues[w].lock().unwrap().push_back(unit);
                    self.notify();
                }
                outcome => {
                    if unit.vm.port_keeps_unit_alive() {
                        // Park — unless mail arrived while the slice ran,
                        // in which case the unit goes straight back to
                        // work. The mailbox check and the park insert
                        // happen under the `parked_units` lock, so a
                        // concurrent delivery either lands before the
                        // check (seen here) or leaves a wake-up token a
                        // later sweep resolves against the parked entry.
                        let mut parked = self.parked_units.lock().unwrap();
                        // `port_retry_ready` mirrors the mailbox
                        // re-check for quota-parked sends: a destination
                        // may have drained (pushing this unit's wake-up
                        // token) while the slice ran, and the token
                        // sweep drops tokens for units that are not
                        // parked yet. Both probes are VM-side: the mail
                        // check reads the unit's own cached mailbox and
                        // the retry probe touches only the shards its
                        // parked sends wait on, so the common
                        // compute-only park never takes a hub lock.
                        if unit.vm.port_has_mail() || unit.vm.port_retry_ready() {
                            drop(parked);
                            self.queues[w].lock().unwrap().push_back(unit);
                        } else {
                            if let Some(wt) = wt.as_mut() {
                                wt.emit(
                                    EventKind::UnitPark,
                                    w,
                                    unit.id,
                                    unit.vm.vclock(),
                                    TRACE_NONE,
                                    unit.slices,
                                );
                            }
                            parked.insert(unit.id.index(), ParkedUnit { unit, outcome });
                        }
                        self.notify();
                    } else {
                        // Nothing keeps the unit alive — but a request
                        // may have raced into its mailbox just before
                        // its services were revoked. Fail it back to the
                        // caller now; finishing with undelivered mail
                        // would leave the cluster unable to quiesce.
                        if unit.vm.port_has_mail() {
                            unit.vm.port_drain_force();
                            unit.vm.port_quantum_flush();
                        }
                        if let Some(wt) = wt.as_mut() {
                            wt.emit(
                                EventKind::UnitFinish,
                                w,
                                unit.id,
                                unit.vm.vclock(),
                                TRACE_NONE,
                                unit.slices,
                            );
                        }
                        self.finish(unit, outcome);
                    }
                }
            }
            self.running.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Collects the outcome, restoring [`UnitId`] order (the documented
    /// `ClusterOutcome::units` indexing invariant).
    fn into_outcome(self) -> ClusterOutcome {
        let mut done = self.finished.into_inner().unwrap();
        done.sort_by_key(|(r, _)| r.id);
        for (i, (r, _)) in done.iter().enumerate() {
            assert_eq!(
                r.id.index() as usize,
                i,
                "ClusterOutcome::units must be indexable by UnitId"
            );
        }
        let mut units: Vec<UnitOutcome> = done
            .into_iter()
            .map(|(report, vm)| UnitOutcome { vm, report })
            .collect();
        // Shutdown safety net: captures that never met their unit (a
        // made-up unit id, or filed after the unit finished) settle
        // against the final VMs, or fail cleanly — no ticket is ever
        // left unfulfilled by a completed run. Leftover kills are moot.
        for e in self.ctl.take_all() {
            let EventAction::Capture(ticket) = e.action else {
                continue;
            };
            let result = match units.get(e.unit.index() as usize) {
                Some(u) => u.vm.checkpoint(),
                None => Err(CheckpointError::NotQuiescent(
                    "unit not found at cluster shutdown",
                )),
            };
            ticket.fulfill(result);
        }

        let steals = self.steals.load(Ordering::Relaxed);
        let migrations = self.migrations.load(Ordering::Relaxed);

        // Merge the flight recorder: every worker's scheduler ring plus
        // every traced unit's VM ring, counters folded into one
        // [`ClusterMetrics`]. This is the only point where trace data
        // crosses threads — the rings were single-writer until here.
        let mut trace_events = Vec::new();
        let metrics = if self.trace_on {
            let mut m = ClusterMetrics::default();
            let mut worker_dropped = 0;
            for mut wt in self.worker_traces.into_inner().unwrap() {
                m.dispatches += wt.dispatches;
                m.unit_parks += wt.parks;
                m.unit_unparks += wt.unparks;
                m.kills += wt.kills;
                m.units_finished += wt.finishes;
                worker_dropped += wt.ring.dropped_events();
                trace_events.extend(wt.ring.drain_ordered());
            }
            let mut totals = VmMetrics::default();
            for u in &mut units {
                totals.absorb(&u.vm.metrics());
                trace_events.extend(u.vm.take_trace_events());
            }
            m.dropped_events = worker_dropped + totals.dropped_events;
            m.totals = totals;
            Some(m)
        } else {
            None
        };

        ClusterOutcome {
            units,
            accounts: self.accounts.into_inner().unwrap(),
            steals,
            migrations,
            metrics,
            trace_events,
            hub_stats: self.hub.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_kind_worker_counts() {
        assert_eq!(SchedulerKind::Deterministic.workers(), 1);
        assert_eq!(SchedulerKind::Parallel(0).workers(), 1);
        assert_eq!(SchedulerKind::Parallel(4).workers(), 4);
    }

    /// A fresh unit that has run nothing yet.
    fn mk(id: u32) -> Unit {
        Unit {
            id: UnitId(id),
            vm: Vm::new(VmOptions::isolated()),
            slices: 0,
            last_worker: None,
            migrations: 0,
            cpu_seen: Vec::new(),
        }
    }

    fn kills(due: Vec<UnitEvent>) -> Vec<IsolateId> {
        due.into_iter()
            .filter_map(|e| match e.action {
                EventAction::Kill(iso) => Some(iso),
                EventAction::Capture(_) => None,
            })
            .collect()
    }

    #[test]
    fn ctl_events_route_by_unit_and_vclock() {
        let ctl = ClusterCtl::default();
        assert!(ctl.take_due(UnitId(0), 0).0.is_empty(), "idle ctl is free");
        ctl.terminate(UnitId(0), IsolateId(1));
        ctl.terminate(UnitId(1), IsolateId(2));
        ctl.terminate_at(UnitId(0), IsolateId(3), 50);
        let _ticket = ctl.checkpoint_at(UnitId(0), 80);

        // Due events are taken; the earliest one still ahead caps the
        // unit's next slice.
        let (due, next) = ctl.take_due(UnitId(0), 10);
        assert_eq!(kills(due), vec![IsolateId(1)]);
        assert_eq!(next, Some(50));
        let (due, next) = ctl.take_due(UnitId(1), 0);
        assert_eq!(kills(due), vec![IsolateId(2)]);
        assert_eq!(next, None);
        let (due, next) = ctl.take_due(UnitId(0), 60);
        assert_eq!(kills(due), vec![IsolateId(3)]);
        assert_eq!(next, Some(80));
        assert!(ctl.inner.armed.load(Ordering::Acquire), "capture pending");
        let (due, next) = ctl.take_due(UnitId(0), 80);
        assert!(matches!(
            due[..],
            [UnitEvent {
                action: EventAction::Capture(_),
                at_vclock: 80,
                ..
            }]
        ));
        assert_eq!(next, None);
        assert!(!ctl.inner.armed.load(Ordering::Acquire), "list empty");
    }

    /// A parked unit is requeued once an event is due at its vclock; at
    /// stall, every one of its events is due whatever the vclock.
    #[test]
    fn ctl_stall_makes_parked_units_events_due() {
        let ctl = ClusterCtl::default();
        let outcome = RunOutcome::Idle;
        let park = |id| {
            (
                id,
                ParkedUnit {
                    unit: mk(id),
                    outcome,
                },
            )
        };
        let parked = BTreeMap::from([park(2), park(5)]);
        ctl.terminate_at(UnitId(5), IsolateId(1), 100);
        ctl.terminate_at(UnitId(2), IsolateId(1), 0);
        ctl.terminate_at(UnitId(9), IsolateId(1), 0);
        assert_eq!(ctl.due_parked(&parked, false), vec![2]);
        assert_eq!(kills(ctl.take_due(UnitId(2), 0).0), vec![IsolateId(1)]);
        assert!(ctl.due_parked(&parked, false).is_empty(), "vclock 0 < 100");
        assert_eq!(ctl.due_parked(&parked, true), vec![5]);
        assert_eq!(kills(ctl.take_due(UnitId(5), 0).0), vec![IsolateId(1)]);
        assert_eq!(ctl.take_all().len(), 1, "unit 9 is not parked");
    }

    /// The steal path takes from the *back* of a victim queue while the
    /// owner pops from the front — the two never contend for the same
    /// unit unless it is the last one.
    #[test]
    fn steal_takes_from_victim_back() {
        let shared = Shared::new(
            2,
            100,
            vec![mk(0), mk(1), mk(2), mk(3)],
            ClusterCtl::default(),
            Arc::new(PortHub::default()),
            false,
        );
        // Round-robin seeding: q0 = [0, 2], q1 = [1, 3].
        assert_eq!(shared.pop_local(0).unwrap().id, UnitId(0));
        assert_eq!(shared.steal(0).unwrap().id, UnitId(3), "steals the back");
        assert_eq!(shared.pop_local(1).unwrap().id, UnitId(1));
        assert_eq!(shared.steal(1).unwrap().id, UnitId(2));
        assert!(shared.pop_local(0).is_none());
        assert!(shared.steal(0).is_none());
        assert_eq!(shared.steals.load(Ordering::Relaxed), 2);
        assert_eq!(shared.running.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn builder_absorbs_options_and_overrides() {
        let cluster = Cluster::builder()
            .vm_options(VmOptions::isolated())
            .scheduler(SchedulerKind::Parallel(2))
            .build();
        assert_eq!(cluster.kind, SchedulerKind::Parallel(2));
    }
}
