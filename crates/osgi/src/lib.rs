//! # ijvm-osgi — an OSGi-like component framework on the ijvm VM
//!
//! Implements the execution model the paper targets (§3.4):
//!
//! * the framework runtime executes in **Isolate0**, the privileged
//!   isolate (it may start/terminate isolates and shut the platform down);
//! * each installed **bundle** gets its own class loader, and I-JVM
//!   attaches a fresh isolate to that loader;
//! * bundles communicate through **direct method calls** on objects found
//!   in the service registry — the `BundleContext` is the first shared
//!   object, and `getService` is how foreign references are obtained;
//! * activator `start`/`stop` run on **fresh threads**, so a malicious
//!   bundle cannot freeze the runtime (rule 1);
//! * `System.exit` and `Admin.*` are **privileged** (rule 2);
//! * killing a bundle sends a **StoppedBundleEvent** to registered
//!   listeners before the isolate is terminated (rule 3).
//!
//! Bundles are authored in mini-Java (`ijvm-minijava`) with the activator
//! convention `static void start(BundleContext ctx)` /
//! `static void stop(BundleContext ctx)`.

pub mod classes;
pub mod profiles;
pub mod state;

use ijvm_core::error::{Result, VmError};
use ijvm_core::ids::{IsolateId, LoaderId, MethodRef, ThreadId};
use ijvm_core::isolate::IsolateState;
use ijvm_core::value::{GcRef, Value};
use ijvm_core::vm::{RunOutcome, Vm, VmOptions};
use ijvm_minijava::CompileEnv;
use state::FrameworkState;
use std::sync::Arc;
use std::sync::Mutex;

/// Identifies an installed bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BundleId(pub u32);

/// Lifecycle state of a bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BundleState {
    /// Installed, not started.
    Installed,
    /// `start` has been invoked.
    Active,
    /// `stop` has been invoked.
    Stopped,
    /// The bundle's isolate has been terminated.
    Uninstalled,
}

/// What gets installed: a named set of classes plus an activator.
#[derive(Debug, Clone)]
pub struct BundleDescriptor {
    /// Symbolic name (also the isolate name).
    pub symbolic_name: String,
    /// Compiled classes as `(internal name, class-file bytes)`.
    pub classes: Vec<(String, Vec<u8>)>,
    /// Internal name of the activator class (with `static start/stop`).
    pub activator: Option<String>,
    /// Bundles whose classes this bundle may reference.
    pub imports: Vec<BundleId>,
}

impl BundleDescriptor {
    /// Compiles `source` (mini-Java) into a bundle. Classes are placed in
    /// package `package`; `activator_simple` names the activator class
    /// inside the unit (e.g. `"Activator"`). `imported_classes` supplies
    /// the class files of imported bundles for name resolution.
    pub fn from_source(
        symbolic_name: &str,
        package: &str,
        source: &str,
        activator_simple: Option<&str>,
        imports: Vec<BundleId>,
        imported_classes: &[(String, Vec<u8>)],
    ) -> std::result::Result<BundleDescriptor, ijvm_minijava::CompileError> {
        let mut cenv = CompileEnv::in_package(package);
        classes::osgi_signatures(&mut cenv.env);
        for (_, bytes) in imported_classes {
            let cf = ijvm_classfile::reader::read_class(bytes)
                .map_err(|e| ijvm_minijava::CompileError::check(0, e.to_string()))?;
            cenv.import_class_file(&cf)?;
        }
        let classes = ijvm_minijava::compile_to_bytes(source, &cenv)?;
        let activator = activator_simple.map(|a| {
            if package.is_empty() {
                a.to_owned()
            } else {
                format!("{package}/{a}")
            }
        });
        Ok(BundleDescriptor {
            symbolic_name: symbolic_name.to_owned(),
            classes,
            activator,
            imports,
        })
    }
}

/// One installed bundle.
#[derive(Debug)]
pub struct Bundle {
    /// Bundle id.
    pub id: BundleId,
    /// Symbolic name.
    pub symbolic_name: String,
    /// The bundle's isolate.
    pub isolate: IsolateId,
    /// The bundle's class loader.
    pub loader: LoaderId,
    /// Lifecycle state.
    pub state: BundleState,
    /// Activator class internal name.
    pub activator: Option<String>,
    /// Pin handle of the bundle's `BundleContext` object.
    pub context_pin: usize,
    /// The class files, kept for imports by later bundles.
    pub classes: Vec<(String, Vec<u8>)>,
}

/// The OSGi framework: owns the VM and the bundle table.
pub struct Framework {
    vm: Vm,
    state: Arc<Mutex<FrameworkState>>,
    bundles: Vec<Bundle>,
    isolate0: IsolateId,
    /// Default instruction budget for lifecycle calls; activators that
    /// loop forever (attack A6-style) are cut off, not obeyed.
    pub lifecycle_budget: u64,
}

impl std::fmt::Debug for Framework {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Framework")
            .field("bundles", &self.bundles.len())
            .field("isolate0", &self.isolate0)
            .finish()
    }
}

impl Framework {
    /// Boots a framework: system library, OSGi classes, Isolate0.
    pub fn new(options: VmOptions) -> Framework {
        let mut vm = ijvm_jsl::boot(options);
        let state = Arc::new(Mutex::new(FrameworkState::default()));
        classes::install(&mut vm, Arc::clone(&state)).expect("OSGi class installation");
        // The first isolate created is Isolate0: the OSGi runtime itself
        // (paper §3.1: the first application class loader becomes Isolate0).
        let isolate0 = vm.create_isolate("osgi-runtime");
        debug_assert!(isolate0.is_privileged());
        Framework {
            vm,
            state,
            bundles: Vec::new(),
            isolate0,
            lifecycle_budget: 500_000_000,
        }
    }

    /// The privileged runtime isolate.
    pub fn isolate0(&self) -> IsolateId {
        self.isolate0
    }

    /// Shared access to the underlying VM.
    pub fn vm(&self) -> &Vm {
        &self.vm
    }

    /// Mutable access to the underlying VM (admin tooling, benches).
    pub fn vm_mut(&mut self) -> &mut Vm {
        &mut self.vm
    }

    /// Installs a bundle: new loader + isolate, class path, imports wired
    /// as loader delegates, and a fresh `BundleContext`.
    pub fn install_bundle(&mut self, desc: BundleDescriptor) -> Result<BundleId> {
        let id = BundleId(self.bundles.len() as u32);
        let isolate = self.vm.create_isolate(&desc.symbolic_name);
        let loader = self.vm.loader_of(isolate)?;
        for (name, bytes) in &desc.classes {
            self.vm.add_class_bytes(loader, name, bytes.clone());
        }
        for import in &desc.imports {
            let other = self
                .bundles
                .get(import.0 as usize)
                .ok_or_else(|| VmError::Internal(format!("unknown import {import:?}")))?;
            self.vm.add_loader_delegate(loader, other.loader);
        }
        // The BundleContext: allocated in (and charged to) the bundle's
        // own isolate, pinned as a framework root.
        let ctx_class = self
            .vm
            .find_class(LoaderId::BOOTSTRAP, "org/osgi/BundleContext")
            .ok_or_else(|| VmError::Internal("BundleContext not installed".to_owned()))?;
        let ctx = self
            .vm
            .alloc_object(ctx_class, isolate)
            .ok_or_else(|| VmError::Internal("heap exhausted installing bundle".to_owned()))?;
        self.vm.set_field(ctx, "bundleId", Value::Int(id.0 as i32));
        let context_pin = self.vm.pin(ctx);

        self.state
            .lock()
            .unwrap()
            .bundle_isolates
            .insert(id.0, isolate);
        self.bundles.push(Bundle {
            id,
            symbolic_name: desc.symbolic_name,
            isolate,
            loader,
            state: BundleState::Installed,
            activator: desc.activator,
            context_pin,
            classes: desc.classes,
        });
        Ok(id)
    }

    /// Looks up an installed bundle.
    pub fn bundle(&self, id: BundleId) -> Result<&Bundle> {
        self.bundles
            .get(id.0 as usize)
            .ok_or_else(|| VmError::Internal(format!("unknown bundle {id:?}")))
    }

    /// All installed bundles.
    pub fn bundles(&self) -> &[Bundle] {
        &self.bundles
    }

    /// The bundle's `BundleContext` object.
    pub fn context_of(&self, id: BundleId) -> Result<GcRef> {
        let b = self.bundle(id)?;
        self.vm
            .pinned(b.context_pin)
            .ok_or_else(|| VmError::Internal("context unpinned".to_owned()))
    }

    /// Spawns (but does not run) a bundle's lifecycle method on a fresh
    /// thread. Returns `None` when the bundle has no such method.
    fn spawn_lifecycle(&mut self, id: BundleId, method: &str) -> Result<Option<ThreadId>> {
        let (activator, loader, isolate) = {
            let b = self.bundle(id)?;
            (b.activator.clone(), b.loader, b.isolate)
        };
        let Some(activator) = activator else {
            return Ok(None); // nothing to run
        };
        let class = self.vm.load_class(loader, &activator)?;
        let desc = "(Lorg/osgi/BundleContext;)V";
        let Some(index) = self.vm.class(class).find_method(method, desc) else {
            return Ok(None); // optional lifecycle method
        };
        let ctx = self.context_of(id)?;
        // Rule 1 (paper §3.4): lifecycle calls run on a fresh thread so a
        // hanging activator cannot freeze the runtime. The thread is
        // created by the runtime (charged to Isolate0); the code executes
        // in — and is CPU-charged to — the bundle's isolate.
        let mref = MethodRef { class, index };
        let tid = self.vm.spawn_thread(
            &format!("{method}:{}", isolate),
            mref,
            vec![Value::Ref(ctx)],
            self.isolate0,
        )?;
        Ok(Some(tid))
    }

    fn lifecycle_call(&mut self, id: BundleId, method: &str) -> Result<RunOutcome> {
        let Some(tid) = self.spawn_lifecycle(id, method)? else {
            return Ok(RunOutcome::Idle);
        };
        let out = self.vm.run(Some(self.lifecycle_budget));
        // A finished activator gives its thread slot back (its outcome is
        // not reported); a hung one (budget exhausted) keeps running on
        // its own thread, as rule 1 requires, and keeps the slot.
        let _ = self.vm.release_thread(tid);
        Ok(out)
    }

    /// Starts a bundle (runs its activator's `start` on a fresh thread).
    pub fn start_bundle(&mut self, id: BundleId) -> Result<RunOutcome> {
        let out = self.lifecycle_call(id, "start")?;
        self.bundles[id.0 as usize].state = BundleState::Active;
        Ok(out)
    }

    /// Spawns a bundle's `start` activator thread *without running it* —
    /// for frameworks about to become cluster units: submit the VM
    /// ([`Framework::into_vm`]) and let the cluster drive the activator,
    /// so its service lookups can reach (and wait for) other units.
    pub fn spawn_start(&mut self, id: BundleId) -> Result<()> {
        let _ = self.spawn_lifecycle(id, "start")?;
        self.bundles[id.0 as usize].state = BundleState::Active;
        Ok(())
    }

    /// Releases the underlying VM, e.g. to submit the whole framework —
    /// bundles, services, spawned activators — as one cluster execution
    /// unit ([`ijvm_core::sched::Cluster::submit`]). Services registered
    /// through `BundleContext.registerService` whose objects follow the
    /// `handle(int)`/`handle(Object)` convention are already exported in
    /// the VM's port state and become cluster-addressable on submit.
    pub fn into_vm(self) -> Vm {
        self.vm
    }

    /// Stops a bundle cooperatively (runs its `stop`).
    pub fn stop_bundle(&mut self, id: BundleId) -> Result<RunOutcome> {
        let out = self.lifecycle_call(id, "stop")?;
        self.bundles[id.0 as usize].state = BundleState::Stopped;
        Ok(out)
    }

    /// Kills a bundle: delivers `bundleStopped` events to listeners of
    /// *other* bundles (rule 3), terminates the isolate (paper §3.3),
    /// unregisters the bundle's services, and marks it uninstalled.
    pub fn kill_bundle(&mut self, id: BundleId) -> Result<()> {
        let isolate = self.bundle(id)?.isolate;

        // StoppedBundleEvent delivery, each on its own thread.
        let listeners: Vec<(u32, usize)> = self.state.lock().unwrap().listeners.clone();
        let mut events = Vec::new();
        for (owner, pin) in listeners {
            if owner == id.0 {
                continue;
            }
            if let Some(listener) = self.vm.pinned(pin) {
                let owner_iso = self
                    .bundles
                    .get(owner as usize)
                    .map(|b| b.isolate)
                    .unwrap_or(self.isolate0);
                // Resolve bundleStopped(int) on the listener's class and
                // deliver the dying bundle's id.
                let lclass = self.vm.heap().get(listener).class;
                if let Some(index) = self.vm.class(lclass).find_method("bundleStopped", "(I)V") {
                    if let Ok(tid) = self.vm.spawn_thread(
                        "bundle-stopped-event",
                        MethodRef {
                            class: lclass,
                            index,
                        },
                        vec![Value::Ref(listener), Value::Int(id.0 as i32)],
                        owner_iso,
                    ) {
                        events.push(tid);
                    }
                }
            }
        }
        let budget = self.lifecycle_budget;
        let _ = self.vm.run(Some(budget));
        // Finished event threads give their slots back, last spawned
        // first, since only the last slot can be popped.
        for tid in events.into_iter().rev() {
            let _ = self.vm.release_thread(tid);
        }

        // Terminate the isolate (stack patching + poisoning, §3.3).
        self.vm.terminate_isolate(isolate)?;

        // Drop the bundle's services and listeners.
        {
            let mut st = self.state.lock().unwrap();
            let dead: Vec<String> = st
                .services
                .iter()
                .filter(|(_, e)| e.provider == id.0)
                .map(|(k, _)| k.clone())
                .collect();
            let mut dead_pins = Vec::new();
            for k in dead {
                if let Some(e) = st.services.remove(&k) {
                    dead_pins.push(e.pin);
                }
            }
            st.listeners.retain(|(owner, pin)| {
                if *owner == id.0 {
                    dead_pins.push(*pin);
                    false
                } else {
                    true
                }
            });
            drop(st);
            for pin in dead_pins {
                self.vm.unpin(pin);
            }
        }
        // Unpin the context so the bundle's objects can be reclaimed.
        let pin = self.bundles[id.0 as usize].context_pin;
        self.vm.unpin(pin);
        self.bundles[id.0 as usize].state = BundleState::Uninstalled;
        self.vm.collect_garbage(None);
        Ok(())
    }

    /// Looks up a registered service object by name (host-side).
    pub fn get_service(&self, name: &str) -> Option<GcRef> {
        let st = self.state.lock().unwrap();
        st.services.get(name).and_then(|e| self.vm.pinned(e.pin))
    }

    /// Names of all registered services.
    pub fn service_names(&self) -> Vec<String> {
        self.state
            .lock()
            .unwrap()
            .services
            .keys()
            .cloned()
            .collect()
    }

    /// Resource snapshot of every isolate, for the administrator.
    pub fn snapshots(&self) -> Vec<ijvm_core::accounting::IsolateSnapshot> {
        self.vm.metrics().isolates
    }

    /// Whether a bundle's isolate has been fully reclaimed (no object of
    /// its classes survives — paper §3.3).
    pub fn bundle_reclaimed(&self, id: BundleId) -> Result<bool> {
        let iso = self.bundle(id)?.isolate;
        Ok(self.vm.isolate_state(iso)? == IsolateState::Dead)
    }

    /// Runs the VM until idle or budget exhaustion (drives worker threads
    /// spawned by bundles).
    pub fn run(&mut self, budget: Option<u64>) -> RunOutcome {
        self.vm.run(budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_bundle(name: &str, pkg: &str) -> BundleDescriptor {
        let src = r#"
            class Service {
                int ping(int x) { return x + 1; }
            }
            class Activator {
                static void start(BundleContext ctx) {
                    ctx.registerService("svc", new Service());
                    ctx.log("started");
                }
                static void stop(BundleContext ctx) {
                    ctx.log("stopped");
                }
            }
        "#;
        BundleDescriptor::from_source(name, pkg, src, Some("Activator"), vec![], &[]).unwrap()
    }

    #[test]
    fn install_start_stop_lifecycle() {
        let mut fw = Framework::new(VmOptions::isolated());
        let id = fw.install_bundle(simple_bundle("demo", "demo")).unwrap();
        assert_eq!(fw.bundle(id).unwrap().state, BundleState::Installed);
        fw.start_bundle(id).unwrap();
        assert_eq!(fw.bundle(id).unwrap().state, BundleState::Active);
        assert!(fw.get_service("svc").is_some());
        fw.stop_bundle(id).unwrap();
        assert_eq!(fw.bundle(id).unwrap().state, BundleState::Stopped);
        let console = fw.vm_mut().take_console();
        assert!(console.iter().any(|l| l.contains("started")), "{console:?}");
        assert!(console.iter().any(|l| l.contains("stopped")), "{console:?}");
    }

    #[test]
    fn bundles_get_distinct_isolates() {
        let mut fw = Framework::new(VmOptions::isolated());
        let a = fw.install_bundle(simple_bundle("a", "pa")).unwrap();
        let b = fw.install_bundle(simple_bundle("b", "pb")).unwrap();
        let ia = fw.bundle(a).unwrap().isolate;
        let ib = fw.bundle(b).unwrap().isolate;
        assert_ne!(ia, ib);
        assert!(!ia.is_privileged());
        assert!(!ib.is_privileged());
    }

    #[test]
    fn kill_bundle_terminates_isolate_and_services() {
        let mut fw = Framework::new(VmOptions::isolated());
        let id = fw.install_bundle(simple_bundle("victim", "v")).unwrap();
        fw.start_bundle(id).unwrap();
        assert!(fw.get_service("svc").is_some());
        fw.kill_bundle(id).unwrap();
        assert_eq!(fw.bundle(id).unwrap().state, BundleState::Uninstalled);
        assert!(fw.get_service("svc").is_none());
        assert!(fw.bundle_reclaimed(id).unwrap());
    }
}
