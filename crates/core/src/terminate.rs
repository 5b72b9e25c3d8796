//! Isolate termination (paper §3.3).
//!
//! Termination must cope with thread migration: threads created by *other*
//! isolates may currently be executing the dying isolate's code, and the
//! dying isolate's threads may be executing elsewhere. I-JVM therefore:
//!
//! 1. poisons every method of the isolate's classes, so any future call
//!    throws `StoppedIsolateException`;
//! 2. walks every thread stack and patches the return of each frame whose
//!    *caller* belongs to the dying isolate, so returning into the isolate
//!    raises `StoppedIsolateException` (which the isolate cannot catch);
//! 3. raises the exception immediately in threads whose top frame is in
//!    the dying isolate, and sets the interrupted flag on threads parked
//!    inside the system library on the isolate's behalf;
//! 4. drops the isolate's string map and task class mirrors so the GC can
//!    reclaim everything not shared with other isolates.
//!
//! Under the parallel cluster scheduler the same protocol is delivered
//! *cross-worker*: [`crate::sched::ClusterCtl::terminate`] files a kill
//! request from any thread, and whichever worker next picks the unit up
//! applies [`Vm::terminate_isolate`] before the unit's next quantum
//! slice — the poisoned isolate's threads stop at the next quantum
//! boundary on whatever core they happen to run, with everything they
//! burned beforehand already charged exactly.

use crate::error::{Result, VmError};
use crate::ids::IsolateId;
use crate::interp::make_sie;
use crate::isolate::IsolateState;
use crate::thread::ThreadState;
use crate::vm::{IsolationMode, Vm};

impl Vm {
    /// Terminates `target`, applying the full §3.3 protocol. Host-level
    /// entry point; the in-VM native (used by the OSGi framework) checks
    /// that the caller is `Isolate0` before delegating here.
    pub fn terminate_isolate(&mut self, target: IsolateId) -> Result<()> {
        if self.options.isolation != IsolationMode::Isolated {
            return Err(VmError::Internal(
                "isolate termination requires IsolationMode::Isolated".to_owned(),
            ));
        }
        let iso = self
            .isolates
            .get_mut(target.0 as usize)
            .ok_or(VmError::BadIsolate(target))?;
        if iso.state != IsolateState::Active {
            return Ok(()); // already terminated
        }
        iso.state = IsolateState::Terminating;
        let loader = iso.loader;
        self.trace_emit(
            crate::trace::EventKind::IsolateTerminate,
            Some(target),
            None,
            0,
        );

        // 1. Poison the isolate's classes: no method of theirs runs again,
        //    whether already "compiled" or not (paper: not-yet-JITed
        //    methods are never compiled; compiled ones get a throwing
        //    branch patched in).
        for class in &mut self.classes {
            if class.loader == loader {
                class.poisoned = true;
            }
        }

        // 2 & 3. Patch every thread's stack.
        let tids: Vec<_> = self
            .threads
            .iter()
            .filter(|t| !t.is_terminated())
            .map(|t| t.id)
            .collect();
        for tid in tids {
            let t = tid.0 as usize;
            let nframes = self.threads[t].frames.len();
            if nframes == 0 {
                continue;
            }
            // Any frame whose caller executes in the dying isolate throws
            // on return instead of returning into it.
            for i in 1..nframes {
                if self.threads[t].frames[i - 1].isolate == target {
                    self.threads[t].frames[i].poisoned_return = Some(target);
                }
            }
            let top_in_target = self.threads[t].frames[nframes - 1].isolate == target;
            let top_is_system = self.threads[t].frames[nframes - 1].is_system;
            let any_in_target = self.threads[t].frames.iter().any(|f| f.isolate == target);

            if top_in_target && !top_is_system {
                // The thread is executing the dying isolate's code right
                // now: raise StoppedIsolateException at its next step.
                let ex = make_sie(self, tid, target);
                self.threads[t].pending_exception = Some(ex);
                self.unpark_for_termination(tid);
            } else if top_is_system && any_in_target {
                // Parked inside the system library on the isolate's
                // behalf: interrupt so sleeps and I/O abort (the Spring
                // protection-domain trick the paper cites).
                self.threads[t].interrupted = true;
                self.unpark_for_termination(tid);
            }
        }

        // 4. Release per-isolate state: interned strings and every task
        //    class mirror of the dying isolate. Mirrors of the isolate's
        //    *own* classes in other isolates die too (their code is gone),
        //    as do their pre-decoded instruction streams — poisoning
        //    guarantees they will never execute again.
        self.isolates[target.0 as usize].strings.clear();
        let mi = target.0 as usize;
        let dead_classes: Vec<bool> = self.classes.iter().map(|c| c.loader == loader).collect();
        let empty_code = crate::vmrc::VmRc::new(crate::class::CodeBody {
            max_stack: 0,
            max_locals: 0,
            bytes: Vec::new(),
            handlers: Vec::new(),
        });
        for class in &mut self.classes {
            if class.mirrors.len() > mi {
                class.mirrors[mi] = None;
            }
            if class.loader == loader {
                for m in &mut class.mirrors {
                    *m = None;
                }
                for method in &mut class.methods {
                    method.prepared = None;
                }
            } else {
                // Surviving classes may hold fused call shapes in their
                // prepared streams whose `CallSite` points at a dying
                // class: the poisoning check rejects every such call, but
                // the cached `Arc<CodeBody>` would keep the dead isolate's
                // bytecode alive forever.
                for method in &class.methods {
                    let Some(prepared) = &method.prepared else {
                        continue;
                    };
                    let is_dead = |c: crate::ids::ClassId| {
                        dead_classes.get(c.0 as usize).copied().unwrap_or(false)
                    };
                    // Monomorphic receiver→shape caches: drop the entry.
                    // The site would refill from the vtable on its next
                    // miss, but a refill is impossible — the class stays
                    // poisoned.
                    for site in prepared.virt_sites.borrow().iter() {
                        let stale = matches!(&*site.cache.borrow(), Some((_, cs)) if is_dead(cs.target.class));
                        if stale {
                            *site.cache.borrow_mut() = None;
                        }
                    }
                    // Fused direct-call sites: their indices are baked
                    // into stream cells, so entries cannot be removed —
                    // swap stale ones for a stub with an empty body
                    // instead. `invoke_fused` runs the poisoning check
                    // before touching the body and the target can never
                    // un-poison, so the stub is unreachable. (Dying-loader
                    // targets are never system classes, so the
                    // `is_system` poisoning skip cannot apply.)
                    for site in prepared.call_sites.borrow_mut().iter_mut() {
                        if is_dead(site.target.class) {
                            *site = crate::vmrc::VmRc::new(crate::engine::CallSite {
                                target: site.target,
                                arg_slots: site.arg_slots,
                                max_locals: site.max_locals,
                                max_stack: site.max_stack,
                                code: empty_code.share(),
                                is_system: site.is_system,
                                frame_isolate: site.frame_isolate,
                            });
                        }
                    }
                }
            }
        }

        // Drop the isolate's exported cross-unit services: in-flight and
        // queued calls fail at their callers with `ServiceRevoked`, the
        // hub entries are revoked so future calls fail fast, and idle
        // pump threads retire (busy ones die with the isolate's
        // StoppedIsolateException raised above).
        self.port_revoke_isolate(target);

        // Reclaim unshared objects now; also flips the isolate to Dead if
        // nothing of it survives.
        self.collect_garbage(None);
        self.poll_unblock();
        Ok(())
    }

    /// Wakes a thread that termination needs to make progress, pulling it
    /// out of sleeps, joins and monitor queues.
    fn unpark_for_termination(&mut self, tid: crate::ids::ThreadId) {
        let t = tid.0 as usize;
        match self.threads[t].state {
            ThreadState::Runnable | ThreadState::Terminated => {}
            ThreadState::BlockedOnMonitor(obj) => {
                if let Some(mon) = self.heap.get_mut(obj).monitor.as_mut() {
                    mon.entry_queue.retain(|&x| x != tid);
                }
                self.wake(tid);
            }
            _ => self.wake(tid),
        }
    }
}
