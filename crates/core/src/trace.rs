//! The cluster flight recorder: lock-free event tracing, metrics
//! snapshots and profiling hooks.
//!
//! Observability in a deterministic VM has one hard constraint: it must
//! *observe without perturbing*. The differential matrix runs the same
//! program with tracing off (the raw oracle) and on, and demands
//! bit-identical results, vclocks, migration counts and accounting. The
//! design here follows from that constraint:
//!
//! * **Events are timestamped on the virtual clock.** Every
//!   [`TraceEvent`] carries the emitting VM's `vclock` (total interpreted
//!   instructions — the deterministic time base) as its primary
//!   timestamp. Wall-clock time is *recorded* alongside (`wall_us`, for
//!   human correlation) but never read back by the VM — wall time flows
//!   out of the recorder, never in.
//! * **Rings are single-writer.** Each traced [`crate::vm::Vm`] owns one
//!   [`TraceRing`]; under the parallel scheduler each OS worker owns one
//!   more for scheduler events. A ring is only ever touched by the thread
//!   currently driving its owner, so pushes are plain stores — no atomics,
//!   no locks, no cross-thread contention on the hot path. Rings are
//!   merged under a lock only once, at worker exit / outcome assembly.
//! * **Overflow drops the oldest events, exactly counted.** A ring has
//!   fixed capacity; wrapping overwrites the oldest entry and increments
//!   [`TraceRing::dropped_events`], so a drained trace always states
//!   precisely how much history it lost. Eager counters (see
//!   [`VmMetrics`]) are bumped at emit time and stay exact regardless of
//!   ring overflow.
//! * **Off costs one predicted branch.** The gate is a `bool` cached on
//!   the VM (`trace_enabled`); every instrumentation point tests it and
//!   jumps over a `#[cold]` emit path. With `TraceConfig::Off` (the
//!   default) no ring exists and no event code runs.
//!
//! Draining a VM's ring ([`crate::vm::Vm::take_trace_events`]) or a
//! cluster outcome's merged stream feeds a [`TraceSink`], whose
//! [`TraceSink::write_chrome_trace`] emits Chrome `trace_event` JSON —
//! open it in `chrome://tracing` or <https://ui.perfetto.dev>.

use crate::accounting::IsolateSnapshot;
// The single sanctioned wall-clock import of the deterministic core:
// WallClock stamps `wall_us` for human trace correlation and nothing
// downstream ever reads it back. Everything else runs on vclock.
// lint: allow(determinism) — see WallClock below; clippy's
// disallowed-types ban is lifted for exactly this import and use.
#[allow(clippy::disallowed_types)]
use std::time::Instant;

/// Tracing mode, set via [`crate::vm::VmOptions::trace`] /
/// [`crate::vm::VmOptions::with_trace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceConfig {
    /// No recorder: instrumentation points reduce to one predicted
    /// branch on a cached `bool`; no ring is allocated.
    #[default]
    Off,
    /// Record every event kind into a per-VM ring of
    /// `DEFAULT_RING_CAPACITY` events, plus per-worker scheduler rings
    /// under the cluster.
    Full,
}

impl TraceConfig {
    /// `true` when events are recorded.
    pub(crate) fn is_on(self) -> bool {
        !matches!(self, TraceConfig::Off)
    }
}

/// Events a traced VM ring holds before wrapping. 65536 × 24 bytes =
/// 1.5 MiB per traced VM — generous enough that accounting-exactness
/// checks over whole benchmark runs see every `CpuCharge` event.
pub(crate) const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Events a per-worker scheduler ring holds. Scheduler events are ~4
/// orders of magnitude rarer than VM events (one dispatch per quantum
/// slice, not per instruction).
pub(crate) const WORKER_RING_CAPACITY: usize = 1 << 13;

/// Sentinel for [`TraceEvent::isolate`] / [`TraceEvent::thread`] /
/// [`TraceEvent::unit`] when the dimension does not apply (e.g. a
/// hub-level charge with no running thread, or a standalone VM that was
/// never attached to a cluster).
pub(crate) const TRACE_NONE: u8 = u8::MAX;

/// What happened. The discriminant is the `kind` byte of the packed
/// [`TraceEvent`]; `EventKind::name` is the label used in Chrome trace
/// export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
#[non_exhaustive]
pub enum EventKind {
    /// A scheduling quantum ended; payload = instructions consumed.
    QuantumEnd = 0,
    /// A thread migrated isolates on an inter-isolate call or return;
    /// payload = destination isolate id, `isolate` = source.
    IsolateSwitch = 1,
    /// `insns_since_switch` flushed into `ResourceStats::cpu_exact`;
    /// payload = instructions charged. Emitted at every exact-accounting
    /// flush point, so per-isolate payload sums equal `cpu_exact`.
    CpuCharge = 2,
    /// A garbage collection ran; payload = the GC epoch number.
    GcEpoch = 3,
    /// A `StoppedIsolateException` was constructed for a terminated
    /// isolate (paper §3.3); `isolate` = the dead isolate.
    SieRaised = 4,
    /// A green thread terminated; payload = 1 when an uncaught exception
    /// killed it, 0 on normal completion.
    ThreadFinish = 5,
    /// An isolate was terminated (stack patching + poisoning).
    IsolateTerminate = 6,
    /// A service was exported on the cluster hub; payload = the pump
    /// thread id.
    ServiceExport = 7,
    /// A blocking `Service.call` was sent; payload = the hub call id.
    CallSend = 8,
    /// A oneway `Service.send` was posted; payload = the hub call id.
    OnewaySend = 9,
    /// A request was dispatched onto a service pump; payload = call id.
    CallDeliver = 10,
    /// A service handler completed and its reply was posted;
    /// payload = call id.
    ReplySend = 11,
    /// A reply reached the blocked caller; payload = the call's
    /// round-trip latency in vclock ticks (caller-side).
    ReplyDeliver = 12,
    /// An exported service was revoked (retraction or isolate
    /// termination); payload = pending requests failed.
    ServiceRevoke = 13,
    /// A unit's mailbox was drained; payload = envelopes taken (feeds
    /// the mailbox high-water mark).
    MailDrain = 14,
    /// A worker picked a unit from its own queue; `thread` = worker.
    UnitDispatch = 15,
    /// A worker stole a unit from a victim's queue; `thread` = thief.
    UnitSteal = 16,
    /// A unit with live-but-blocked threads was parked awaiting mail.
    UnitPark = 17,
    /// A parked unit woke (fresh mail) and was requeued.
    UnitUnpark = 18,
    /// A unit completed and left the scheduler.
    UnitFinish = 19,
    /// A pending kill was delivered to a unit; `isolate` = target.
    UnitKill = 20,
    /// An async `Service.post` was sent; payload = the hub call id.
    FuturePost = 21,
    /// A reply resolved a pending future; payload = the call's
    /// round-trip latency in vclock ticks (caller-side).
    FutureResolve = 22,
    /// A pending future was cancelled before its reply arrived;
    /// payload = the hub call id.
    FutureCancel = 23,
    /// A sender parked because the destination unit's mailbox was over
    /// quota; payload = the serialized request size in bytes.
    QuotaPark = 24,
    /// A quota-parked send was retried successfully and the sender
    /// unparked; payload = the hub call id (0 for oneways).
    QuotaUnpark = 25,
}

impl EventKind {
    /// Stable label, used as the Chrome trace event name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            EventKind::QuantumEnd => "quantum_end",
            EventKind::IsolateSwitch => "isolate_switch",
            EventKind::CpuCharge => "cpu_charge",
            EventKind::GcEpoch => "gc_epoch",
            EventKind::SieRaised => "sie_raised",
            EventKind::ThreadFinish => "thread_finish",
            EventKind::IsolateTerminate => "isolate_terminate",
            EventKind::ServiceExport => "service_export",
            EventKind::CallSend => "call_send",
            EventKind::OnewaySend => "oneway_send",
            EventKind::CallDeliver => "call_deliver",
            EventKind::ReplySend => "reply_send",
            EventKind::ReplyDeliver => "reply_deliver",
            EventKind::ServiceRevoke => "service_revoke",
            EventKind::MailDrain => "mail_drain",
            EventKind::UnitDispatch => "unit_dispatch",
            EventKind::UnitSteal => "unit_steal",
            EventKind::UnitPark => "unit_park",
            EventKind::UnitUnpark => "unit_unpark",
            EventKind::UnitFinish => "unit_finish",
            EventKind::UnitKill => "unit_kill",
            EventKind::FuturePost => "future_post",
            EventKind::FutureResolve => "future_resolve",
            EventKind::FutureCancel => "future_cancel",
            EventKind::QuotaPark => "quota_park",
            EventKind::QuotaUnpark => "quota_unpark",
        }
    }
}

/// One recorded event, packed to 24 bytes so the default ring stays
/// cache-friendly (1.5 MiB, 3 events per cache line).
///
/// `vclock` is the deterministic timestamp; `wall_us` is microseconds
/// since the recorder's epoch, for human correlation only. Ids wider
/// than a byte are clamped to `TRACE_NONE`; the payload word carries
/// the kind-specific datum (see [`EventKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The emitting VM's virtual clock (total interpreted instructions)
    /// at emit time; `0` for scheduler events about a not-yet-run unit.
    pub vclock: u64,
    /// Kind-specific payload word.
    pub payload: u64,
    /// Microseconds of wall time since the recorder's epoch. Recorded,
    /// never read back — determinism lives on `vclock`.
    pub wall_us: u32,
    /// What happened.
    pub kind: EventKind,
    /// Cluster unit index, or `TRACE_NONE` outside a cluster.
    pub unit: u8,
    /// Isolate concerned, or `TRACE_NONE`.
    pub isolate: u8,
    /// Green thread concerned (worker index for scheduler events), or
    /// `TRACE_NONE`.
    pub thread: u8,
}

const _: () = assert!(std::mem::size_of::<TraceEvent>() == 24);

/// A fixed-capacity, single-writer event ring. Wrapping overwrites the
/// oldest event and counts it in [`TraceRing::dropped_events`] — the
/// drained history is always the *newest* `capacity` events, with an
/// exact statement of what was lost.
#[derive(Debug)]
pub struct TraceRing {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Index of the oldest event once the ring has wrapped (and the slot
    /// the next push overwrites).
    head: usize,
    dropped: u64,
}

impl TraceRing {
    /// Creates a ring holding at most `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> TraceRing {
        let cap = capacity.max(1);
        TraceRing {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
            dropped: 0,
        }
    }

    /// Appends an event, overwriting (and counting) the oldest if full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been recorded (or everything drained).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Exact count of events lost to wrapping since creation (drains do
    /// not reset it).
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// Takes the held events in recording order (oldest first), leaving
    /// the ring empty. The dropped-event count is preserved.
    pub fn drain_ordered(&mut self) -> Vec<TraceEvent> {
        let head = std::mem::take(&mut self.head);
        let mut buf = std::mem::take(&mut self.buf);
        buf.rotate_left(head);
        buf
    }
}

/// A power-of-two-bucketed latency histogram: bucket `i` counts samples
/// `v` with `2^(i-1) < v ≤ 2^i` (bucket 0 counts `v ≤ 1`). Used for
/// per-call hub round-trip latency in vclock ticks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 32],
    count: u64,
}

impl LatencyHistogram {
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let bucket = (64 - u64::leading_zeros(v.saturating_sub(1)) as usize).min(31);
        self.buckets[bucket] += 1;
        self.count += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Inclusive upper bound of bucket `i`.
    pub(crate) fn bucket_bound(i: usize) -> u64 {
        1u64 << i.min(63)
    }

    /// Smallest bucket bound at or above the `q`-quantile (0.0–1.0), or
    /// 0 with no samples — a conservative p50/p99 estimate.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank.max(1) {
                return LatencyHistogram::bucket_bound(i);
            }
        }
        LatencyHistogram::bucket_bound(31)
    }

    /// Folds another histogram into this one.
    pub(crate) fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
    }
}

/// Counters and histograms for one VM, returned by
/// [`crate::vm::Vm::metrics`]. This is the single reporting surface:
/// the per-isolate accounting rows ([`IsolateSnapshot`]) ride along in
/// [`VmMetrics::isolates`], and the trace-derived counters are zero when
/// tracing is off (the always-on fields — `vclock`, `isolate_switches`,
/// `gc_epochs` and the snapshots — are filled either way).
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct VmMetrics {
    /// Total interpreted instructions (the virtual clock).
    pub vclock: u64,
    /// Inter-isolate thread migrations (always counted).
    pub isolate_switches: u64,
    /// Garbage collections run (always counted).
    pub gc_epochs: u64,
    /// Scheduling quanta completed.
    pub quanta: u64,
    /// Exact-accounting CPU flushes recorded.
    pub cpu_charges: u64,
    /// Instructions charged across all flushes (equals the sum of
    /// per-isolate `cpu_exact` deltas observed while tracing).
    pub cpu_charged_insns: u64,
    /// `StoppedIsolateException`s constructed.
    pub(crate) sie_raised: u64,
    /// Green threads that terminated.
    pub(crate) threads_finished: u64,
    /// Isolates terminated.
    pub(crate) isolates_terminated: u64,
    /// Blocking hub calls sent.
    pub calls_sent: u64,
    /// Oneway hub messages sent.
    pub oneways_sent: u64,
    /// Requests dispatched onto this VM's service pumps.
    pub calls_served: u64,
    /// Replies posted by this VM's service pumps.
    pub(crate) replies_sent: u64,
    /// Replies delivered to this VM's blocked callers.
    pub replies_delivered: u64,
    /// Async hub posts sent (`Service.post`).
    pub posts_sent: u64,
    /// Pending futures resolved by a reply.
    pub futures_resolved: u64,
    /// Pending futures cancelled before their reply arrived.
    pub futures_cancelled: u64,
    /// Sends parked because the destination mailbox was over quota.
    pub quota_parks: u64,
    /// Quota-parked sends that were retried successfully.
    pub quota_unparks: u64,
    /// Services exported on the hub.
    pub(crate) services_exported: u64,
    /// Services revoked.
    pub(crate) services_revoked: u64,
    /// Largest batch of envelopes drained from the mailbox at once.
    pub mailbox_high_water: u64,
    /// Caller-side call round-trip latency in vclock ticks.
    pub call_latency: LatencyHistogram,
    /// Events recorded (including any later lost to ring wrap).
    pub events_recorded: u64,
    /// Events lost to ring wrap, exactly.
    pub dropped_events: u64,
    /// Per-isolate accounting rows (name, state, [`crate::accounting::ResourceStats`]).
    pub isolates: Vec<IsolateSnapshot>,
}

impl VmMetrics {
    /// Folds another VM's counters into this one (snapshots are *not*
    /// concatenated — per-unit rows stay on each unit's VM).
    pub(crate) fn absorb(&mut self, other: &VmMetrics) {
        self.vclock += other.vclock;
        self.isolate_switches += other.isolate_switches;
        self.gc_epochs += other.gc_epochs;
        self.quanta += other.quanta;
        self.cpu_charges += other.cpu_charges;
        self.cpu_charged_insns += other.cpu_charged_insns;
        self.sie_raised += other.sie_raised;
        self.threads_finished += other.threads_finished;
        self.isolates_terminated += other.isolates_terminated;
        self.calls_sent += other.calls_sent;
        self.oneways_sent += other.oneways_sent;
        self.calls_served += other.calls_served;
        self.replies_sent += other.replies_sent;
        self.replies_delivered += other.replies_delivered;
        self.posts_sent += other.posts_sent;
        self.futures_resolved += other.futures_resolved;
        self.futures_cancelled += other.futures_cancelled;
        self.quota_parks += other.quota_parks;
        self.quota_unparks += other.quota_unparks;
        self.services_exported += other.services_exported;
        self.services_revoked += other.services_revoked;
        self.mailbox_high_water = self.mailbox_high_water.max(other.mailbox_high_water);
        self.call_latency.merge(&other.call_latency);
        self.events_recorded += other.events_recorded;
        self.dropped_events += other.dropped_events;
    }
}

/// Scheduler-level counters for one cluster run, carried on
/// [`crate::sched::ClusterOutcome::metrics`] when tracing is on.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct ClusterMetrics {
    /// Units dispatched from a worker's own queue.
    pub dispatches: u64,
    /// Units parked awaiting mail.
    pub unit_parks: u64,
    /// Parked units woken by fresh mail.
    pub unit_unparks: u64,
    /// Kill requests delivered.
    pub(crate) kills: u64,
    /// Units that ran to completion.
    pub units_finished: u64,
    /// Scheduler events lost to worker-ring wrap.
    pub dropped_events: u64,
    /// All unit VMs' counters folded together (`VmMetrics::absorb`).
    pub totals: VmMetrics,
}

/// One row of [`crate::vm::Vm::top_methods`]: a method's profile
/// counters, bumped on the threaded engine's fast path only while
/// tracing is on — the profiling seed a template-JIT tier selects
/// compilation candidates from.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct MethodHotness {
    /// Internal name of the defining class.
    pub class_name: String,
    /// Method name.
    pub method_name: String,
    /// Times the method was entered at pc 0.
    pub invocations: u64,
    /// Backward branches taken inside the method (loop iterations).
    pub back_edges: u64,
}

impl MethodHotness {
    /// Profile score: back-edges dominate (a long loop in one invocation
    /// is hotter than many calls to a straight-line method).
    pub fn score(&self) -> u64 {
        self.invocations + 8 * self.back_edges
    }
}

/// Minimum vclock advance between wall-clock refreshes: events closer
/// together than this share a reading. 256 interpreted instructions is
/// well under the recorded 1 µs resolution on any host this runs on, so
/// the coarsening is invisible in the export — but it turns the
/// dominant per-event cost (a `clock_gettime` per event) into roughly
/// one per quantum of guest progress.
const WALL_REFRESH_TICKS: u64 = 256;

/// A vclock-gated wall-clock sampler for `wall_us` stamps: reads the
/// host clock only when guest time has advanced [`WALL_REFRESH_TICKS`]
/// since the last reading, returning the cached microsecond count
/// otherwise. Readings are monotone non-decreasing; staleness is
/// bounded by the wall time the guest takes to retire the refresh
/// window (sub-µs on the interpreter's hot paths).
#[derive(Debug)]
#[allow(clippy::disallowed_types)]
pub(crate) struct WallClock {
    epoch: Instant,
    cached_us: u32,
    next_refresh: u64,
}

#[allow(clippy::disallowed_types)]
impl WallClock {
    pub(crate) fn new() -> WallClock {
        WallClock {
            epoch: Instant::now(),
            cached_us: 0,
            // The first sample always reads the clock.
            next_refresh: 0,
        }
    }

    /// Microseconds since the recorder's epoch, at `vclock`. Wraps
    /// after ~71 minutes — `wall_us` is for human correlation, not
    /// arithmetic.
    #[inline]
    pub(crate) fn sample(&mut self, vclock: u64) -> u32 {
        if vclock >= self.next_refresh {
            self.refresh(vclock);
        }
        self.cached_us
    }

    /// Unconditional clock read, for events that follow a host-time
    /// wait no guest progress accounts for (e.g. a unit unparking).
    pub(crate) fn refresh(&mut self, vclock: u64) -> u32 {
        let e = self.epoch.elapsed();
        // `as_secs`/`subsec_micros` sidestep `as_micros`'s u128 division.
        self.cached_us = (e.as_secs() as u32)
            .wrapping_mul(1_000_000)
            .wrapping_add(e.subsec_micros());
        self.next_refresh = vclock.saturating_add(WALL_REFRESH_TICKS);
        self.cached_us
    }
}

/// The recorder attached to a traced VM: its ring, eager counters, and
/// the in-flight call table feeding the latency histogram.
#[derive(Debug)]
pub(crate) struct TraceState {
    pub(crate) ring: TraceRing,
    /// Cluster unit index stamped into events, [`TRACE_NONE`] until
    /// [`crate::vm::Vm::attach_port`].
    pub(crate) unit: u8,
    /// Wall-clock sampler for `wall_us` (never read back by the VM).
    pub(crate) wall: WallClock,
    /// Eager per-kind event counts, indexed by `EventKind as u8`.
    pub(crate) kind_counts: [u64; 32],
    /// Total instructions charged through `CpuCharge` events.
    pub(crate) cpu_charged_insns: u64,
    /// Mailbox high-water mark (largest single drain).
    pub(crate) mailbox_high_water: u64,
    /// Caller-side round-trip latency histogram.
    pub(crate) call_latency: LatencyHistogram,
    /// `(hub call id, send vclock)` of in-flight blocking calls. A flat
    /// vector, not a map: a unit has at most a handful of calls in
    /// flight (one per blocked thread), and the linear scan beats
    /// hashing at that size on the per-call hot path.
    pub(crate) call_starts: Vec<(u64, u64)>,
    /// Total events recorded (ring pushes, pre-wrap).
    pub(crate) events_recorded: u64,
}

impl TraceState {
    pub(crate) fn new(capacity: usize) -> TraceState {
        TraceState {
            ring: TraceRing::with_capacity(capacity),
            unit: TRACE_NONE,
            wall: WallClock::new(),
            kind_counts: [0; 32],
            cpu_charged_insns: 0,
            mailbox_high_water: 0,
            call_latency: LatencyHistogram::default(),
            call_starts: Vec::new(),
            events_recorded: 0,
        }
    }

    /// Count of events of `kind` recorded so far (exact, unaffected by
    /// ring wrap).
    pub(crate) fn kind_count(&self, kind: EventKind) -> u64 {
        self.kind_counts[kind as usize]
    }
}

/// Clamps a wide id into an event byte.
pub(crate) fn clamp_id(v: u32) -> u8 {
    if v >= TRACE_NONE as u32 {
        TRACE_NONE
    } else {
        v as u8
    }
}

/// A drained, merge-sorted event stream ready for export.
pub struct TraceSink {
    events: Vec<TraceEvent>,
}

impl TraceSink {
    /// Builds a sink from drained events, stably sorting them on the
    /// virtual clock (the deterministic time base).
    pub fn new(mut events: Vec<TraceEvent>) -> TraceSink {
        events.sort_by_key(|e| e.vclock);
        TraceSink { events }
    }

    /// The sorted events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Writes the stream as Chrome `trace_event` JSON (the
    /// "JSON object" flavor: `{"traceEvents": [...]}`). Open the file in
    /// `chrome://tracing` or <https://ui.perfetto.dev>.
    ///
    /// Mapping: `ts` is the vclock (instructions, rendered as µs —
    /// deterministic across runs), `pid` the cluster unit, `tid` the
    /// green thread (or worker, for scheduler events), and each event is
    /// an instant (`"ph":"i"`) with the payload, isolate and wall-clock
    /// microseconds in `args`.
    pub fn write_chrome_trace<W: std::io::Write>(&self, out: &mut W) -> std::io::Result<()> {
        writeln!(out, "{{\"traceEvents\": [")?;
        let mut units: Vec<u8> = self.events.iter().map(|e| e.unit).collect();
        units.sort_unstable();
        units.dedup();
        let mut first = true;
        for unit in units {
            if !std::mem::take(&mut first) {
                writeln!(out, ",")?;
            }
            let name = if unit == TRACE_NONE {
                "vm (unclustered)".to_owned()
            } else {
                format!("unit{unit}")
            };
            write!(
                out,
                "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {unit}, \
                 \"args\": {{\"name\": \"{name}\"}}}}"
            )?;
        }
        for e in &self.events {
            if !std::mem::take(&mut first) {
                writeln!(out, ",")?;
            }
            write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"i\", \"s\": \"t\", \"ts\": {}, \
                 \"pid\": {}, \"tid\": {}, \"args\": {{\"payload\": {}, \
                 \"isolate\": {}, \"wall_us\": {}}}}}",
                e.kind.name(),
                e.vclock,
                e.unit,
                e.thread,
                e.payload,
                e.isolate,
                e.wall_us,
            )?;
        }
        writeln!(out, "\n]}}")
    }

    /// [`TraceSink::write_chrome_trace`] straight to a file.
    pub fn write_chrome_trace_file<P: AsRef<std::path::Path>>(
        &self,
        path: P,
    ) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_chrome_trace(&mut f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(vclock: u64, payload: u64) -> TraceEvent {
        TraceEvent {
            vclock,
            payload,
            wall_us: 0,
            kind: EventKind::QuantumEnd,
            unit: 0,
            isolate: 0,
            thread: 0,
        }
    }

    #[test]
    fn event_is_packed_to_24_bytes() {
        assert_eq!(std::mem::size_of::<TraceEvent>(), 24);
    }

    #[test]
    fn ring_wrap_drops_oldest_and_counts_exactly() {
        let mut ring = TraceRing::with_capacity(4);
        for i in 0..7 {
            ring.push(ev(i, i));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped_events(), 3, "7 pushes into 4 slots drop 3");
        let drained = ring.drain_ordered();
        let order: Vec<u64> = drained.iter().map(|e| e.vclock).collect();
        assert_eq!(order, vec![3, 4, 5, 6], "newest 4, oldest first");
        assert!(ring.is_empty());
        assert_eq!(ring.dropped_events(), 3, "drain preserves the count");
        // The ring keeps working after a drain.
        ring.push(ev(9, 9));
        assert_eq!(ring.drain_ordered().len(), 1);
    }

    #[test]
    fn ring_under_capacity_drops_nothing() {
        let mut ring = TraceRing::with_capacity(8);
        for i in 0..5 {
            ring.push(ev(i, 0));
        }
        assert_eq!(ring.dropped_events(), 0);
        let order: Vec<u64> = ring.drain_ordered().iter().map(|e| e.vclock).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn histogram_buckets_powers_of_two() {
        let mut h = LatencyHistogram::default();
        for v in [1u64, 2, 3, 4, 5, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.buckets[0], 1, "1 lands in bucket 0");
        assert_eq!(h.buckets[1], 1, "2 lands in bucket 1");
        assert_eq!(h.buckets[2], 2, "3 and 4 land in bucket 2");
        assert_eq!(h.buckets[3], 1, "5 lands in bucket 3");
        assert_eq!(h.buckets[10], 1, "1000 lands in bucket 10");
        assert!(h.quantile(0.5) <= 4, "p50 of mostly-small samples");
        assert_eq!(h.quantile(1.0), 1024, "p100 covers the 1000 sample");
        let mut other = LatencyHistogram::default();
        other.record(7);
        h.merge(&other);
        assert_eq!(h.count(), 7);
        assert_eq!(h.buckets[3], 2, "the merged 7 joins 5 in bucket 3");
        assert_eq!(h.quantile(1.0), 1024);
    }

    #[test]
    fn chrome_trace_is_valid_shape() {
        let sink = TraceSink::new(vec![ev(5, 1), ev(2, 9)]);
        assert_eq!(sink.events()[0].vclock, 2, "sink sorts on vclock");
        let mut out = Vec::new();
        sink.write_chrome_trace(&mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("{\"traceEvents\": ["));
        assert!(s.trim_end().ends_with("]}"));
        assert!(s.contains("\"process_name\""));
        assert!(s.contains("\"quantum_end\""));
        assert_eq!(s.matches("\"ph\": \"i\"").count(), 2);
    }
}
