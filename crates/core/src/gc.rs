//! Mark-sweep collector with per-isolate memory accounting (paper §3.2).
//!
//! Besides collecting unreferenced objects, every collection recomputes
//! per-isolate memory usage with the paper's four-step algorithm:
//!
//! 1. reset each isolate's usage to zero;
//! 2. add each isolate's interned strings, static variables and
//!    `java.lang.Class` objects to its root set;
//! 3. scan thread stacks frame by frame: each frame's references are roots
//!    of the isolate the frame executes in (system-library frames execute
//!    in — and therefore charge — the calling isolate);
//! 4. trace; an object is charged to the **first** isolate that reaches it
//!    (isolates are traced in ascending id order, which makes the charge
//!    deterministic).

use crate::heap::ObjBody;
use crate::ids::IsolateId;
use crate::isolate::IsolateState;
use crate::value::{GcRef, Value};
use crate::vm::{IsolationMode, Vm};

impl Vm {
    /// Runs a full collection. `trigger` is the isolate whose allocation
    /// (or explicit `System.gc()`) caused it; it is charged one GC
    /// activation (the counter attack A4 is detected with).
    pub fn collect_garbage(&mut self, trigger: Option<IsolateId>) {
        self.gc_count += 1;
        self.allocated_since_gc = 0;
        let epoch = self.gc_count;
        self.trace_emit(crate::trace::EventKind::GcEpoch, trigger, None, epoch);
        let accounting = self.options.accounting;
        if accounting {
            if let Some(iso) = trigger {
                if let Some(i) = self.isolates.get_mut(iso.0 as usize) {
                    i.stats.gc_triggers += 1;
                }
            }
            // Step 1: reset per-isolate live usage.
            for i in &mut self.isolates {
                i.stats.reset_live();
            }
        }

        // Steps 2 & 3: gather roots per isolate.
        let niso = self.isolates.len().max(1);
        let mut roots: Vec<Vec<GcRef>> = vec![Vec::new(); niso];
        let clamp = |iso: IsolateId, n: usize| (iso.0 as usize).min(n - 1);

        // Host roots are framework-held: charge Isolate0.
        for r in self.host_roots.iter().flatten() {
            roots[0].push(*r);
        }

        // Per-isolate strings (step 2).
        for (idx, i) in self.isolates.iter().enumerate() {
            roots[idx].extend(i.strings.values().copied());
        }

        // Per-isolate mirrors: statics + Class objects (step 2).
        // In Shared mode every mirror lives at index 0.
        for class in &self.classes {
            for (mi, mirror) in class.mirrors.iter().enumerate() {
                let Some(m) = mirror else { continue };
                let idx = match self.options.isolation {
                    IsolationMode::Shared => 0,
                    IsolationMode::Isolated => mi.min(niso - 1),
                };
                roots[idx].push(m.class_object);
                for v in m.statics.iter() {
                    if let Value::Ref(r) = v {
                        roots[idx].push(*r);
                    }
                }
            }
        }

        // Thread stacks (step 3): every frame charges its own isolate.
        for t in &self.threads {
            let tiso = clamp(t.current_isolate, niso);
            for r in [t.pending_exception, t.uncaught].into_iter().flatten() {
                roots[tiso].push(r);
            }
            if let Some(Value::Ref(r)) = t.result {
                roots[clamp(t.creator_isolate, niso)].push(r);
            }
            for f in &t.frames {
                let fiso = clamp(f.isolate, niso);
                for v in f.locals.iter().chain(f.stack.iter()) {
                    if let Value::Ref(r) = v {
                        roots[fiso].push(*r);
                    }
                }
                if let Some(r) = f.sync_object {
                    roots[fiso].push(r);
                }
            }
        }

        // Step 4: trace, charging each object to the first isolate that
        // reaches it (ascending isolate order).
        let mut stack: Vec<GcRef> = Vec::new();
        for (idx, iso_roots) in roots.into_iter().enumerate() {
            let iso = IsolateId(idx as u16);
            stack.extend(iso_roots);
            while let Some(r) = stack.pop() {
                if !self.heap.is_live(r) {
                    continue;
                }
                let obj = self.heap.get_mut(r);
                if obj.mark {
                    continue;
                }
                obj.mark = true;
                obj.owner = iso;
                let size = obj.size_bytes() as u64;
                let is_conn = obj.is_connection;
                match &obj.body {
                    ObjBody::Fields(fields) => {
                        for v in fields.iter() {
                            if let Value::Ref(child) = v {
                                stack.push(*child);
                            }
                        }
                    }
                    ObjBody::ArrRef { data, .. } => {
                        for v in data.iter() {
                            if let Value::Ref(child) = v {
                                stack.push(*child);
                            }
                        }
                    }
                    _ => {}
                }
                if accounting {
                    if let Some(i) = self.isolates.get_mut(idx.min(niso - 1)) {
                        i.stats.live_bytes += size;
                        i.stats.live_objects += 1;
                        if is_conn {
                            i.stats.live_connections += 1;
                        }
                    }
                }
            }
        }

        // Sweep. A collected monitor is owned by no one: keep the owner's
        // count equal to what restore recounts from the heap.
        let threads = &mut self.threads;
        self.heap.sweep(|dead| {
            if let Some(owner) = dead.monitor.as_ref().and_then(|m| m.owner) {
                threads[owner.0 as usize].monitors_held -= 1;
            }
        });

        // Terminating isolates become Dead once no object of their classes
        // survives (paper §3.3: "an isolate is only removed from memory
        // when there is no remaining object whose class is defined by the
        // isolate").
        self.update_dead_isolates();
    }

    fn update_dead_isolates(&mut self) {
        let terminating: Vec<IsolateId> = self
            .isolates
            .iter()
            .filter(|i| i.state == IsolateState::Terminating)
            .map(|i| i.id)
            .collect();
        if terminating.is_empty() {
            return;
        }
        for iso in terminating {
            let loader = self.isolates[iso.0 as usize].loader;
            let has_live_instance = self.heap.iter().any(|(_, obj)| {
                self.classes
                    .get(obj.class.0 as usize)
                    .map(|c| c.loader == loader)
                    .unwrap_or(false)
            });
            if !has_live_instance {
                self.isolates[iso.0 as usize].state = IsolateState::Dead;
            }
        }
    }

    /// Live bytes charged to `iso` by the most recent collection.
    pub fn live_bytes_of(&self, iso: IsolateId) -> u64 {
        self.isolates
            .get(iso.0 as usize)
            .map(|i| i.stats.live_bytes)
            .unwrap_or(0)
    }
}
