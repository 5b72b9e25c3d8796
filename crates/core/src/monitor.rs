//! Object monitors: `monitorenter`/`monitorexit`.
//!
//! Attack A2 exploits monitors on *shared* `java.lang.Class` objects: in
//! `Shared` mode a bundle can grab the lock a victim's synchronized static
//! method needs, freezing it forever. In `Isolated` mode each isolate has
//! its own `Class` object, so there is nothing shared to lock.

use crate::heap::MonitorState;
use crate::ids::ThreadId;
use crate::thread::ThreadState;
use crate::value::GcRef;
use crate::vm::{Thrown, Vm};

/// Result of a `monitorenter` attempt.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum EnterResult {
    /// The monitor is now owned by the thread.
    Acquired,
    /// The thread was queued and blocked.
    Blocked,
}

/// Attempts to enter `obj`'s monitor on behalf of `tid`.
pub(crate) fn monitor_enter(vm: &mut Vm, tid: ThreadId, obj: GcRef) -> EnterResult {
    let o = vm.heap.get_mut(obj);
    let mon = o
        .monitor
        .get_or_insert_with(|| Box::new(MonitorState::default()));
    match mon.owner {
        None => {
            mon.owner = Some(tid);
            mon.count = 1;
            vm.thread_mut(tid).monitors_held += 1;
            EnterResult::Acquired
        }
        Some(owner) if owner == tid => {
            mon.count += 1;
            EnterResult::Acquired
        }
        Some(_) => {
            if !mon.entry_queue.contains(&tid) {
                mon.entry_queue.push_back(tid);
            }
            vm.thread_mut(tid).state = ThreadState::BlockedOnMonitor(obj);
            EnterResult::Blocked
        }
    }
}

/// Exits `obj`'s monitor; errors if `tid` does not own it.
pub(crate) fn monitor_exit(vm: &mut Vm, tid: ThreadId, obj: GcRef) -> Result<(), Thrown> {
    let o = vm.heap.get_mut(obj);
    let Some(mon) = o.monitor.as_mut() else {
        return Err(illegal_monitor_state());
    };
    if mon.owner != Some(tid) {
        return Err(illegal_monitor_state());
    }
    mon.count -= 1;
    if mon.count == 0 {
        mon.owner = None;
        let next = mon.entry_queue.pop_front();
        vm.thread_mut(tid).monitors_held -= 1;
        if let Some(next) = next {
            // Hand-off is not immediate: the woken thread re-executes its
            // monitorenter and contends again (deterministic round-robin).
            vm.wake(next);
        }
    }
    Ok(())
}

fn illegal_monitor_state() -> Thrown {
    Thrown::ByName {
        class_name: "java/lang/IllegalMonitorStateException",
        message: String::new(),
    }
}
