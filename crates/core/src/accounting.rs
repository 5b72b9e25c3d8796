//! Per-isolate resource accounting (paper §3.2).
//!
//! I-JVM charges resources to the isolate whose code consumes them:
//! * CPU — by periodically sampling the isolate reference of the running
//!   thread (here: at every scheduler quantum boundary, with the quantum's
//!   instruction count as the sample weight);
//! * memory — objects are charged to their allocating isolate at `new`,
//!   and every garbage collection *recomputes* per-isolate live memory by
//!   charging each object to the first isolate that references it;
//! * threads — charged to the creating isolate;
//! * I/O bytes and connections — charged to the isolate performing the
//!   operation;
//! * GC activations — charged to the isolate that triggered the collection.

use crate::ids::IsolateId;
use std::collections::BTreeMap;

/// Resource counters for one isolate.
///
/// All counters are cumulative except `live_bytes`, `live_objects` and
/// `live_connections`, which are recomputed by each collection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResourceStats {
    /// CPU charged by quantum sampling, in interpreted instructions.
    /// This is the *statistical* counter the paper's administrator reads.
    pub cpu_sampled: u64,
    /// CPU measured exactly at isolate-switch boundaries, in interpreted
    /// instructions. Not available in the paper's design (it would need
    /// per-call clock reads); kept here as ground truth for the §4.4
    /// imprecision experiments.
    pub cpu_exact: u64,
    /// Total bytes allocated by this isolate (cumulative).
    pub allocated_bytes: u64,
    /// Total objects allocated by this isolate (cumulative).
    pub allocated_objects: u64,
    /// Live bytes charged to this isolate by the last collection.
    pub live_bytes: u64,
    /// Live objects charged to this isolate by the last collection.
    pub live_objects: u64,
    /// Threads created by this isolate (cumulative).
    pub threads_created: u64,
    /// Threads created by this isolate currently alive.
    pub threads_live: u64,
    /// Threads created by this isolate currently sleeping or blocked,
    /// used to spot hanging-thread attacks (A7).
    pub(crate) threads_parked: u64,
    /// Collections triggered by this isolate (cumulative).
    pub gc_triggers: u64,
    /// Bytes read through connections (cumulative).
    pub io_read_bytes: u64,
    /// Bytes written through connections (cumulative).
    pub io_written_bytes: u64,
    /// Connections opened by this isolate (cumulative).
    pub connections_opened: u64,
    /// Live connections charged to this isolate by the last collection.
    pub(crate) live_connections: u64,
    /// Inter-isolate calls that *entered* this isolate (cumulative).
    /// Cheap to maintain (the migration path already writes the isolate
    /// reference) and useful for the Table 1 experiments.
    pub calls_in: u64,
}

impl ResourceStats {
    /// Resets the per-collection counters (GC accounting step 1, §3.2).
    pub(crate) fn reset_live(&mut self) {
        self.live_bytes = 0;
        self.live_objects = 0;
        self.live_connections = 0;
    }

    /// Flushes a quantum of exactly-counted CPU into this isolate.
    ///
    /// Every point where a thread leaves an isolate — inter-isolate call
    /// or return (including the threaded engine's fused call path),
    /// thread completion, stack unwinding past an isolate boundary — must
    /// charge through here *before* the isolate reference changes, so
    /// `cpu_exact` stays exact regardless of engine or call fast path.
    #[inline]
    pub(crate) fn charge_cpu(&mut self, insns: u64) {
        self.cpu_exact += insns;
    }
}

/// Cluster-level per-isolate CPU accounting, aggregated across execution
/// units (see [`crate::sched`]).
///
/// Worker threads never write here directly: they accumulate exact CPU
/// deltas into a private [`WorkerCpuBuffer`] while a unit runs, and drain
/// the buffer into this aggregate at every *migration point* — whenever a
/// unit is parked back onto a run queue (and so becomes stealable),
/// finishes, or is terminated. Every drained instruction passes through
/// `ResourceStats::charge_cpu`, the same single exact flush point the
/// in-VM engines use, so the aggregate is bit-identical between the
/// deterministic and the parallel scheduler regardless of how slices
/// interleaved or which worker ran which slice.
#[derive(Debug, Default)]
pub struct ClusterAccounts {
    /// Per-`(unit, isolate)` counters. Only the CPU fields are driven by
    /// the scheduler; memory/thread/I-O counters stay on the per-unit
    /// [`ResourceStats`] inside each VM.
    per_isolate: BTreeMap<(crate::sched::UnitId, IsolateId), ResourceStats>,
}

impl ClusterAccounts {
    /// Charges `insns` exactly-counted instructions to `(unit, iso)`
    /// through `ResourceStats::charge_cpu`.
    pub fn charge(&mut self, unit: crate::sched::UnitId, iso: IsolateId, insns: u64) {
        self.per_isolate
            .entry((unit, iso))
            .or_default()
            .charge_cpu(insns);
    }

    /// Exact CPU charged to one `(unit, isolate)` pair so far.
    pub fn cpu_exact(&self, unit: crate::sched::UnitId, iso: IsolateId) -> u64 {
        self.per_isolate
            .get(&(unit, iso))
            .map_or(0, |s| s.cpu_exact)
    }

    /// Total exact CPU charged across all units and isolates.
    pub fn total_cpu_exact(&self) -> u64 {
        self.per_isolate.values().map(|s| s.cpu_exact).sum()
    }

    /// All `(unit, isolate) → exact CPU` entries, in key order (so the
    /// administrator view is deterministic even after a parallel run).
    pub fn per_isolate_cpu(&self) -> Vec<((crate::sched::UnitId, IsolateId), u64)> {
        self.per_isolate
            .iter()
            .map(|(&k, s)| (k, s.cpu_exact))
            .collect()
    }
}

/// A scheduler worker's private CPU buffer (see [`ClusterAccounts`]).
///
/// Recording is lock-free (the buffer is owned by one worker); draining
/// takes the cluster aggregate's lock **once per migration point**,
/// covering every isolate the slice touched in a single acquisition
/// (an inter-isolate-heavy slice charges many isolates, one lock).
/// Because every requeue is a potential steal, a migration point ends
/// every slice — the buffer's job is coalescing within a boundary and
/// carrying the drained-before-stealable invariant, not skipping
/// boundaries: [`WorkerCpuBuffer::drain_into`] runs *before* a unit is
/// parked where another worker could steal it, so no instruction is
/// ever in flight across a migration.
#[derive(Debug, Default)]
pub struct WorkerCpuBuffer {
    pending: Vec<((crate::sched::UnitId, IsolateId), u64)>,
}

impl WorkerCpuBuffer {
    /// Adds `insns` for `(unit, iso)`, coalescing with an existing entry.
    pub fn record(&mut self, unit: crate::sched::UnitId, iso: IsolateId, insns: u64) {
        if insns == 0 {
            return;
        }
        for (key, n) in &mut self.pending {
            if *key == (unit, iso) {
                *n += insns;
                return;
            }
        }
        self.pending.push(((unit, iso), insns));
    }

    /// Instructions buffered but not yet drained.
    pub fn pending_insns(&self) -> u64 {
        self.pending.iter().map(|(_, n)| n).sum()
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Flushes every buffered entry into `accounts` through
    /// `ResourceStats::charge_cpu`, leaving the buffer empty.
    pub fn drain_into(&mut self, accounts: &mut ClusterAccounts) {
        for ((unit, iso), insns) in self.pending.drain(..) {
            accounts.charge(unit, iso, insns);
        }
    }
}

/// A labelled snapshot of one isolate's counters, for administrators.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct IsolateSnapshot {
    /// The isolate.
    pub isolate: IsolateId,
    /// Isolate name (bundle symbolic name for OSGi bundles).
    pub name: String,
    /// Lifecycle state.
    pub(crate) state: crate::isolate::IsolateState,
    /// The counters.
    pub stats: ResourceStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_live_keeps_cumulative_counters() {
        let mut s = ResourceStats {
            cpu_sampled: 10,
            allocated_bytes: 100,
            live_bytes: 50,
            live_objects: 2,
            live_connections: 1,
            gc_triggers: 3,
            ..ResourceStats::default()
        };
        s.reset_live();
        assert_eq!(s.live_bytes, 0);
        assert_eq!(s.live_objects, 0);
        assert_eq!(s.live_connections, 0);
        assert_eq!(s.cpu_sampled, 10);
        assert_eq!(s.allocated_bytes, 100);
        assert_eq!(s.gc_triggers, 3);
    }

    #[test]
    fn worker_buffer_coalesces_and_drains_exactly() {
        use crate::sched::UnitId;
        let u0 = UnitId::new(0);
        let u1 = UnitId::new(1);
        let i0 = IsolateId(0);
        let i1 = IsolateId(1);
        let mut buf = WorkerCpuBuffer::default();
        buf.record(u0, i0, 100);
        buf.record(u0, i1, 7);
        buf.record(u0, i0, 23); // coalesces with the first entry
        buf.record(u1, i0, 5);
        buf.record(u1, i0, 0); // zero-length slices are dropped
        assert_eq!(buf.pending_insns(), 135);

        let mut accounts = ClusterAccounts::default();
        buf.drain_into(&mut accounts);
        assert!(buf.is_empty());
        assert_eq!(accounts.cpu_exact(u0, i0), 123);
        assert_eq!(accounts.cpu_exact(u0, i1), 7);
        assert_eq!(accounts.cpu_exact(u1, i0), 5);
        assert_eq!(accounts.total_cpu_exact(), 135);

        // Draining again is a no-op: nothing is charged twice.
        buf.drain_into(&mut accounts);
        assert_eq!(accounts.total_cpu_exact(), 135);
    }
}
