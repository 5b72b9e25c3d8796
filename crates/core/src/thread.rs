//! Green threads and stack frames.
//!
//! The VM schedules its own threads deterministically (instruction-count
//! quanta). A thread carries the isolate it is *currently executing in* —
//! the isolate reference that inter-isolate calls update (paper §3.1) and
//! that CPU sampling reads (paper §3.2).
//!
//! Green threads never leave their VM, but the VM itself is a `Send`
//! execution unit: under the parallel cluster scheduler
//! ([`crate::sched`]) a whole VM — frames, frame pools, monitors and all
//! — migrates between OS workers at quantum-slice boundaries, so a green
//! thread's next quantum may run on a different core than its last. The
//! thread's `insns_since_switch` counter is flushed through
//! `crate::accounting::ResourceStats::charge_cpu` at every such
//! boundary ([`crate::vm::Vm::flush_pending_cpu`]), which keeps exact
//! per-isolate CPU attribution bit-identical no matter where slices ran.

use crate::class::CodeBody;
use crate::ids::{ClassId, IsolateId, MethodRef, ThreadId};
use crate::value::{GcRef, Value};
use crate::vmrc::VmRc;

/// Upper bound on buffers a [`FramePool`] retains. Deep recursion returns
/// many buffers at once; beyond this the excess is simply dropped.
const MAX_POOLED_BUFS: usize = 64;

/// Upper bound on the *capacity* (in [`Value`] slots) of any single
/// pooled buffer. A buffer-count cap alone is not enough: a few frames
/// with huge operand stacks (deep recursion through a method with a large
/// `max_stack`, or a stack that grew past its hint) could park megabytes
/// under the count cap forever. Buffers above this bound are dropped
/// instead of pooled when they are given back (see [`FramePool::recycle`]).
const MAX_POOLED_BUF_SLOTS: usize = 256;

/// A per-thread recycler for frame value buffers (locals and operand
/// stacks), so the invoke/return hot path stops hitting the allocator on
/// every call. Buffers are cleared before they are pooled — a pooled
/// buffer never holds stale [`Value::Ref`]s, so the pool is invisible to
/// the GC (it is not a root set).
///
/// Only the fused call path of the threaded engine draws from
/// the pool (the raw interpreter stays allocation-identical as the
/// differential oracle); every engine *feeds* it on frame teardown.
///
/// Retention is bounded in both dimensions: at most `MAX_POOLED_BUFS`
/// buffers, each capped at `MAX_POOLED_BUF_SLOTS` slots, so the worst
/// case is `64 × 256 × size_of::<Value>()` per live thread regardless of
/// how deep or wide past call chains were.
#[derive(Debug, Default)]
pub struct FramePool {
    bufs: Vec<Vec<Value>>,
}

impl FramePool {
    /// Takes a cleared buffer with at least `cap` capacity.
    pub fn take(&mut self, cap: usize) -> Vec<Value> {
        match self.bufs.pop() {
            Some(mut v) => {
                debug_assert!(v.is_empty());
                v.reserve(cap);
                v
            }
            None => Vec::with_capacity(cap),
        }
    }

    /// Returns a buffer to the pool, clearing it first. Oversized buffers
    /// are dropped (`shrink_to` may legally keep excess capacity, so
    /// dropping is the only deterministic bound) — the next `take` simply
    /// allocates fresh, and retained bytes stay bounded by the pool caps,
    /// not by the largest frame ever run.
    pub fn recycle(&mut self, mut v: Vec<Value>) {
        if self.bufs.len() < MAX_POOLED_BUFS
            && v.capacity() > 0
            && v.capacity() <= MAX_POOLED_BUF_SLOTS
        {
            v.clear();
            self.bufs.push(v);
        }
    }

    /// Recycles both value buffers of a popped frame.
    pub(crate) fn recycle_frame(&mut self, frame: Frame) {
        self.recycle(frame.locals);
        self.recycle(frame.stack);
    }

    /// Buffers currently pooled (test/introspection hook).
    pub fn pooled(&self) -> usize {
        self.bufs.len()
    }

    /// Bytes currently retained by pooled buffer capacity
    /// (test/introspection hook).
    pub fn retained_bytes(&self) -> usize {
        self.bufs
            .iter()
            .map(|b| b.capacity() * std::mem::size_of::<Value>())
            .sum()
    }

    /// The worst-case retention the pool caps enforce.
    pub fn max_retained_bytes() -> usize {
        MAX_POOLED_BUFS * MAX_POOLED_BUF_SLOTS * std::mem::size_of::<Value>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deep recursion hands back a burst of huge buffers; the pool must
    /// bound *retained capacity*, not just buffer count.
    #[test]
    fn pool_bounds_retained_capacity() {
        let mut pool = FramePool::default();
        // A burst of huge buffers (deep recursion through wide frames)
        // interleaved with normal ones.
        for i in 0..200 {
            let slots = if i % 2 == 0 { 1 << 16 } else { 16 };
            pool.recycle(Vec::with_capacity(slots));
        }
        assert!(pool.pooled() > 0, "normal buffers must still pool");
        assert!(pool.pooled() <= MAX_POOLED_BUFS);
        assert!(
            pool.retained_bytes() <= FramePool::max_retained_bytes(),
            "retained {} bytes, cap {}",
            pool.retained_bytes(),
            FramePool::max_retained_bytes()
        );
        // Buffers taken back out still satisfy requested capacity.
        let v = pool.take(1024);
        assert!(v.capacity() >= 1024);
    }
}

/// One interpreter frame.
#[derive(Debug)]
pub(crate) struct Frame {
    /// The executing method.
    pub(crate) method: MethodRef,
    /// The method's class (copied out of `method` for fast access).
    pub(crate) class: ClassId,
    /// Isolate this frame executes in. System-library frames execute in
    /// the calling isolate (paper §3.1), so this is never a "system"
    /// placeholder — it is always a real isolate.
    pub(crate) isolate: IsolateId,
    /// Isolate of the caller, restored into the thread on return.
    pub(crate) caller_isolate: IsolateId,
    /// `true` when the method belongs to the Java System Library; the GC
    /// skips such frames during accounting (paper §3.2 step 3).
    pub(crate) is_system: bool,
    /// The bytecode body.
    pub(crate) code: VmRc<CodeBody>,
    /// Current program counter (byte offset).
    pub(crate) pc: u32,
    /// Local variable slots.
    pub(crate) locals: Vec<Value>,
    /// Operand stack.
    pub(crate) stack: Vec<Value>,
    /// Monitor entered on behalf of a `synchronized` method, exited on
    /// return or unwind.
    pub(crate) sync_object: Option<GcRef>,
    /// `true` when this frame's `synchronized` monitor has not been
    /// acquired yet (thread-entry frames take it lazily, on first step).
    pub(crate) needs_sync_enter: bool,
    /// Set by isolate termination (paper §3.3): when this frame returns,
    /// the return value is discarded and a `StoppedIsolateException` for
    /// the given isolate is raised instead, because the caller frame
    /// belongs to a terminated isolate.
    pub(crate) poisoned_return: Option<IsolateId>,
}

/// Why a thread is not currently runnable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Ready to run.
    Runnable,
    /// Sleeping until the given virtual time (instruction clock).
    Sleeping {
        /// Wake-up deadline on the VM's virtual clock.
        until: u64,
    },
    /// Blocked entering a contended monitor.
    BlockedOnMonitor(GcRef),
    /// Waiting for another thread to finish.
    BlockedOnJoin(ThreadId),
    /// Waiting for another thread to finish running `<clinit>`.
    BlockedOnClassInit {
        /// The class being initialized.
        class: ClassId,
        /// The isolate whose mirror is being initialized.
        isolate: IsolateId,
    },
    /// Parked inside `ijvm/Service.call` awaiting the reply for the given
    /// call id (see [`crate::port`]). The reply (or a revocation error)
    /// is delivered at a quantum boundary and wakes the thread.
    BlockedOnPort {
        /// The in-flight call this thread is waiting on.
        call: u64,
    },
    /// Parked inside `ijvm/Future.get` awaiting resolution of the given
    /// future id (see [`crate::port`]). The reply routes by request id to
    /// the future, which pushes the decoded value (or a pending
    /// exception) and wakes the thread.
    BlockedOnFuture {
        /// The future this thread is waiting on.
        future: u32,
    },
    /// Parked inside a send (`Service.call`/`post`, `Port.send`) because
    /// the destination unit's mailbox is over its quota. The serialized
    /// payload is already charged and queued VM-side; the send is retried
    /// at quantum boundaries once the destination drains below quota.
    BlockedOnQuota,
    /// A service pump thread parked with no request to serve (see
    /// [`crate::port`]). Never runnable in this state; dispatching a
    /// request pushes a handler frame and wakes it.
    ServicePump,
    /// Finished (normally or with an uncaught exception).
    Terminated,
}

/// A green thread.
#[derive(Debug)]
pub struct VmThread {
    /// This thread's id.
    pub(crate) id: ThreadId,
    /// Debug name.
    pub(crate) name: String,
    /// The frame stack; last entry is the active frame.
    pub(crate) frames: Vec<Frame>,
    /// Scheduler state.
    pub(crate) state: ThreadState,
    /// The isolate the thread is currently executing in — the "isolate
    /// reference" of the paper, updated on inter-isolate calls.
    pub current_isolate: IsolateId,
    /// The isolate that created the thread (threads are charged to their
    /// creator, paper §3.2, but may execute code from any isolate).
    pub(crate) creator_isolate: IsolateId,
    /// Exception in flight (set before unwinding).
    pub(crate) pending_exception: Option<GcRef>,
    /// Interrupt flag; set by isolate termination on system-library leaf
    /// frames so blocking calls abort (paper §3.3).
    pub(crate) interrupted: bool,
    /// Value returned by the thread's entry method, for host callers.
    pub result: Option<Value>,
    /// Uncaught exception that terminated the thread, if any.
    pub uncaught: Option<GcRef>,
    /// Instructions executed since the thread last switched isolates;
    /// flushed into `ResourceStats::cpu_exact` at switch points.
    pub(crate) insns_since_switch: u64,
    /// Recycled locals/operand-stack buffers for this thread's frames.
    pub frame_pool: FramePool,
    /// `true` for service pump threads (see [`crate::port`]): when such a
    /// thread drains its last frame it re-parks awaiting the next request
    /// instead of terminating, and its handler failures become service
    /// replies instead of uncaught-exception thread deaths.
    pub(crate) is_service_pump: bool,
    /// `true` for threads a guest started with `Thread.start`
    /// ([`crate::vm::Vm::spawn_thread_on`]). The guest's `Thread` object
    /// keeps the id for `join`, `isAlive` and `interrupt`, so
    /// [`crate::vm::Vm::release_thread`] never gives such a slot back.
    pub(crate) guest_started: bool,
    /// Distinct monitors this thread owns (not their recursion counts),
    /// kept by `monitorenter`/`monitorexit` and by the
    /// collector's sweep. Not serialized: restore recounts it from the
    /// heap's monitor owners. A thread that finishes while it still owns
    /// a monitor keeps its slot ([`crate::vm::Vm::release_thread`]), so
    /// the next thread with its id cannot inherit the lock.
    pub(crate) monitors_held: u32,
}

impl VmThread {
    /// Creates a thread with no frames yet.
    pub(crate) fn new(id: ThreadId, name: &str, isolate: IsolateId) -> VmThread {
        VmThread {
            id,
            name: name.to_owned(),
            frames: Vec::new(),
            state: ThreadState::Runnable,
            current_isolate: isolate,
            creator_isolate: isolate,
            pending_exception: None,
            interrupted: false,
            result: None,
            uncaught: None,
            insns_since_switch: 0,
            frame_pool: FramePool::default(),
            is_service_pump: false,
            guest_started: false,
            monitors_held: 0,
        }
    }

    /// `true` when the thread can be scheduled.
    pub(crate) fn is_runnable(&self) -> bool {
        self.state == ThreadState::Runnable
    }

    /// `true` when the thread has finished.
    pub fn is_terminated(&self) -> bool {
        self.state == ThreadState::Terminated
    }

    /// The active frame, mutably.
    pub(crate) fn top_frame_mut(&mut self) -> Option<&mut Frame> {
        self.frames.last_mut()
    }
}
