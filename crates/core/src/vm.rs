//! The virtual machine: owns the heap, classes, isolates and threads, and
//! drives the deterministic green-thread scheduler.
//!
//! A `Vm` is also the unit the cluster scheduler ([`crate::sched`])
//! migrates between OS workers: everything it owns is `Send`, runs are
//! sliceable ([`Vm::run`] with a budget), and pending exact CPU can be
//! flushed at any slice boundary ([`Vm::flush_pending_cpu`]).

use crate::accounting::{IsolateSnapshot, ResourceStats};
use crate::class::{
    CodeBody, FieldDesc, InitState, RtCp, RuntimeClass, RuntimeMethod, TaskClassMirror,
};
use crate::error::{Result, VmError};
use crate::heap::{Heap, ObjBody, Object};
use crate::ids::{ClassId, IsolateId, LoaderId, MethodRef, ThreadId};
use crate::isolate::{Isolate, IsolateState};
use crate::natives::{NativeFn, NativeRegistry};
use crate::thread::{Frame, ThreadState, VmThread};
use crate::value::{GcRef, Value};
use ijvm_classfile::{AccessFlags, ClassFile, MethodDescriptor};
use std::cmp::Reverse;
// lint: allow(determinism) — import only; every HashMap/HashSet below
// is keyed lookup (insert/get/contains), never iterated.
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// The `OutOfMemoryError` a failed heap check throws.
pub(crate) fn heap_oom() -> Thrown {
    Thrown::ByName {
        class_name: "java/lang/OutOfMemoryError",
        message: "Java heap space".to_owned(),
    }
}

/// The smallest pacing trigger: however little the last collection left
/// live, the next one waits for at least this many allocated bytes (see
/// [`VmOptions::gc_threshold_bytes`]).
const GC_MIN_TRIGGER_BYTES: usize = 1 << 20;

/// Whether the VM runs with I-JVM isolation or as the unmodified baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsolationMode {
    /// Baseline ("LadyVM"/"Sun JVM" stand-in): statics, interned strings
    /// and `Class` objects are shared by all bundles, there is no isolate
    /// switching and no resource accounting.
    Shared,
    /// I-JVM: per-isolate task class mirrors, thread migration on
    /// inter-isolate calls, resource accounting, isolate termination.
    Isolated,
}

/// VM construction options.
///
/// `#[non_exhaustive]`: construct via [`VmOptions::isolated`] /
/// [`VmOptions::shared`] (or `Default`) and adjust fields; new tuning
/// knobs may be added without breaking embedders.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct VmOptions {
    /// Isolation mode (see [`IsolationMode`]).
    pub isolation: IsolationMode,
    /// Execution engine (see [`crate::engine::EngineKind`]): pre-decoded
    /// direct-threaded dispatch by default, with the raw byte interpreter
    /// kept for ablation, A/B comparison and differential testing.
    pub(crate) engine: crate::engine::EngineKind,
    /// Per-isolate resource accounting. Defaults to `true` in `Isolated`
    /// mode; separable so benchmarks can ablate accounting cost.
    pub accounting: bool,
    /// Hard heap limit; allocation beyond it triggers GC, then
    /// `OutOfMemoryError`.
    pub heap_limit_bytes: usize,
    /// Maximum live threads; exceeding throws `OutOfMemoryError`
    /// (mirrors the JVM's behaviour exploited by attack A5/A6).
    pub max_threads: usize,
    /// Maximum frame-stack depth; exceeding throws `StackOverflowError`.
    pub max_frames: usize,
    /// Scheduler quantum in interpreted instructions; also the CPU
    /// sampling interval (paper §3.2 samples the isolate reference of the
    /// running thread periodically).
    pub quantum: u32,
    /// The most bytes allocated between two collections. A collection is
    /// due once the bytes allocated since the last one exceed what that
    /// collection left live (but at least 1 MiB), capped by this value:
    /// a small live heap collects sooner, and a live heap at or above
    /// the cap collects every `gc_threshold_bytes`.
    pub gc_threshold_bytes: usize,
    /// Flight-recorder mode (see [`crate::trace`]). `Off` by default:
    /// every instrumentation point reduces to one predicted branch on a
    /// cached `bool`, and no ring is allocated. Tracing observes only —
    /// it never feeds back into the vclock, accounting or scheduling, so
    /// a traced run stays bit-identical to an untraced one.
    pub trace: crate::trace::TraceConfig,
}

impl Default for VmOptions {
    fn default() -> VmOptions {
        VmOptions {
            isolation: IsolationMode::Isolated,
            engine: crate::engine::EngineKind::default(),
            accounting: true,
            heap_limit_bytes: 256 << 20,
            max_threads: 4096,
            max_frames: 1024,
            quantum: 10_000,
            gc_threshold_bytes: 32 << 20,
            trace: crate::trace::TraceConfig::Off,
        }
    }
}

impl VmOptions {
    /// Baseline configuration: shared statics, no accounting.
    pub fn shared() -> VmOptions {
        VmOptions {
            isolation: IsolationMode::Shared,
            accounting: false,
            ..VmOptions::default()
        }
    }

    /// I-JVM configuration (the default).
    pub fn isolated() -> VmOptions {
        VmOptions::default()
    }

    /// The same options with a different execution engine.
    pub fn with_engine(mut self, engine: crate::engine::EngineKind) -> VmOptions {
        self.engine = engine;
        self
    }

    /// The same options with a different flight-recorder mode.
    pub fn with_trace(mut self, trace: crate::trace::TraceConfig) -> VmOptions {
        self.trace = trace;
        self
    }
}

/// A class loader: a named class path attached to an isolate.
#[derive(Debug)]
pub(crate) struct Loader {
    /// Debug name.
    pub(crate) name: String,
    /// The isolate built from this loader. Meaningless for the bootstrap
    /// loader (its classes are system classes).
    pub(crate) isolate: IsolateId,
    /// `true` only for the bootstrap loader.
    pub(crate) is_system: bool,
    /// name → class-file bytes.
    // lint: allow(determinism) — probed by class name during loading,
    // never iterated; hash order is unobservable.
    pub(crate) classpath: HashMap<String, Vec<u8>>,
    /// Loaders consulted after bootstrap delegation (bundle imports).
    pub(crate) delegates: Vec<LoaderId>,
}

/// Why [`Vm::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RunOutcome {
    /// No thread is runnable or sleeping: all work finished.
    Idle,
    /// The instruction budget was exhausted first.
    BudgetExhausted,
    /// Threads remain but all are blocked on each other.
    Deadlock,
    /// At least one thread is parked in a cross-unit `Service.call`
    /// awaiting a reply ([`crate::port`]): the VM cannot progress until
    /// the cluster scheduler delivers mail at the next quantum boundary.
    Blocked,
}

/// An exception in flight inside the interpreter (crate-internal).
#[derive(Debug, Clone)]
pub(crate) enum Thrown {
    /// An existing exception object.
    Ref(GcRef),
    /// An exception to be allocated from a system class.
    ByName {
        /// Internal name of the exception class.
        class_name: &'static str,
        /// Detail message.
        message: String,
    },
}

/// Well-known bootstrap classes, cached after first resolution.
#[derive(Debug, Default)]
pub(crate) struct WellKnown {
    pub(crate) object: Option<ClassId>,
    pub(crate) string: Option<ClassId>,
    pub(crate) class: Option<ClassId>,
}

/// The virtual machine.
#[derive(Debug)]
pub struct Vm {
    pub(crate) options: VmOptions,
    pub(crate) heap: Heap,
    pub(crate) classes: Vec<RuntimeClass>,
    // lint: allow(determinism) — keyed get/insert only, never iterated
    // (class iteration goes through the `classes` Vec, in ClassId
    // order).
    pub(crate) class_index: HashMap<(LoaderId, String), ClassId>,
    // lint: allow(determinism) — insert/contains/remove cycle guard,
    // never iterated.
    pub(crate) loading: HashSet<(LoaderId, String)>,
    pub(crate) loaders: Vec<Loader>,
    pub(crate) isolates: Vec<Isolate>,
    pub(crate) threads: Vec<VmThread>,
    pub(crate) run_queue: VecDeque<ThreadId>,
    pub(crate) vclock: u64,
    pub(crate) natives: NativeRegistry,
    pub(crate) host_roots: Vec<Option<GcRef>>,
    /// The `None` slots of `host_roots`, lowest first, so [`Vm::pin`]
    /// takes the lowest free handle without scanning the table.
    free_pins: BinaryHeap<Reverse<usize>>,
    pub(crate) allocated_since_gc: usize,
    pub(crate) gc_count: u64,
    pub(crate) console: Vec<String>,
    pub(crate) well_known: WellKnown,
    pub(crate) migrations: u64,
    /// Set when `System.exit` is called; `run` stops.
    pub(crate) exit_code: Option<i32>,
    /// The inter-unit service/message state ([`crate::port`]): exported
    /// service pumps, threads waiting on replies, and — once submitted to
    /// a cluster — the unit id and shared hub.
    pub(crate) port: crate::port::PortState,
    /// Cached gate for the flight recorder: `true` iff `options.trace`
    /// is on. Instrumentation points branch on this bool (cheap,
    /// predictable) instead of matching on the config or testing the
    /// `Option` below.
    pub(crate) trace_enabled: bool,
    /// The flight recorder (ring + eager counters), boxed to keep the
    /// untraced `Vm` small. `Some` iff `trace_enabled`.
    pub(crate) trace: Option<Box<crate::trace::TraceState>>,
    /// Keeps `Vm: !Sync` no matter what the fields auto-derive: a VM is
    /// a `Send` unit owned by one thread at a time, never shared — the
    /// invariant the engine's interior-mutable caches
    /// ([`crate::engine::PreparedCode`]) and the unit-confined
    /// [`crate::vmrc::VmRc`] refcounts are sound under. Sharing `&Vm`
    /// across threads would let two threads race on those caches, so
    /// the capability is denied at the type level.
    pub(crate) not_sync: std::marker::PhantomData<std::cell::Cell<u8>>,
}

impl Vm {
    /// Creates a VM with the given options. The bootstrap loader exists
    /// from the start; install system classes (e.g. via `ijvm-jsl`) before
    /// loading application code.
    pub fn new(options: VmOptions) -> Vm {
        let trace_enabled = options.trace.is_on();
        let bootstrap = Loader {
            name: "bootstrap".to_owned(),
            isolate: IsolateId::ISOLATE0,
            is_system: true,
            // lint: allow(determinism) — constructor of the field
            // justified at its declaration.
            classpath: HashMap::new(),
            delegates: Vec::new(),
        };
        Vm {
            options,
            heap: Heap::new(),
            classes: Vec::new(),
            // lint: allow(determinism) — constructors of the fields
            // justified at their declarations.
            class_index: HashMap::new(),
            // lint: allow(determinism) — as above.
            loading: HashSet::new(),
            loaders: vec![bootstrap],
            isolates: Vec::new(),
            threads: Vec::new(),
            run_queue: VecDeque::new(),
            vclock: 0,
            natives: NativeRegistry::new(),
            host_roots: Vec::new(),
            free_pins: BinaryHeap::new(),
            allocated_since_gc: 0,
            gc_count: 0,
            console: Vec::new(),
            well_known: WellKnown::default(),
            migrations: 0,
            exit_code: None,
            port: crate::port::PortState::default(),
            trace_enabled,
            trace: trace_enabled.then(|| {
                Box::new(crate::trace::TraceState::new(
                    crate::trace::DEFAULT_RING_CAPACITY,
                ))
            }),
            not_sync: std::marker::PhantomData,
        }
    }

    /// The configured options.
    pub(crate) fn options(&self) -> &VmOptions {
        &self.options
    }

    /// `true` when running with I-JVM isolation.
    pub fn is_isolated(&self) -> bool {
        self.options.isolation == IsolationMode::Isolated
    }

    // ------------------------------------------------------------------
    // Isolates and loaders
    // ------------------------------------------------------------------

    /// Creates a new isolate with its own class loader. The first isolate
    /// created is `Isolate0`, the privileged one (paper §3.1).
    pub fn create_isolate(&mut self, name: &str) -> IsolateId {
        let iso = IsolateId(self.isolates.len() as u16);
        let loader = LoaderId(self.loaders.len() as u16);
        self.loaders.push(Loader {
            name: format!("loader:{name}"),
            isolate: iso,
            is_system: false,
            // lint: allow(determinism) — constructor of the field
            // justified at its declaration.
            classpath: HashMap::new(),
            delegates: Vec::new(),
        });
        self.isolates.push(Isolate::new(iso, name, loader));
        iso
    }

    /// Pushes an application loader shell during checkpoint restore
    /// ([`crate::checkpoint::restore`]): the recorded name and isolate
    /// binding are reinstated verbatim, and the classpath/delegates are
    /// filled in by the caller from the image. Unlike
    /// [`Vm::create_isolate`] this creates no isolate — isolates are
    /// restored from their own image section.
    pub(crate) fn restore_push_loader(&mut self, name: String, isolate: IsolateId) -> LoaderId {
        let id = LoaderId(self.loaders.len() as u16);
        self.loaders.push(Loader {
            name,
            isolate,
            is_system: false,
            // lint: allow(determinism) — constructor of the field
            // justified at its declaration.
            classpath: HashMap::new(),
            delegates: Vec::new(),
        });
        id
    }

    /// Captures this VM as a stable byte image ([`crate::checkpoint`]).
    ///
    /// The VM must be quiescent: parked at a quantum boundary with no
    /// in-flight cross-unit traffic (always true for a VM the embedder
    /// holds directly, outside a cluster). For a unit running under a
    /// cluster scheduler use
    /// [`crate::sched::UnitHandle::checkpoint_at`], which cuts the
    /// image at a quantum boundary between slices.
    pub fn checkpoint(
        &self,
    ) -> std::result::Result<crate::checkpoint::UnitImage, crate::checkpoint::CheckpointError> {
        crate::checkpoint::capture(self)
    }

    /// The loader attached to an isolate.
    pub fn loader_of(&self, iso: IsolateId) -> Result<LoaderId> {
        self.isolates
            .get(iso.0 as usize)
            .map(|i| i.loader)
            .ok_or(VmError::BadIsolate(iso))
    }

    /// Looks up an isolate.
    pub(crate) fn isolate(&self, iso: IsolateId) -> Result<&Isolate> {
        self.isolates
            .get(iso.0 as usize)
            .ok_or(VmError::BadIsolate(iso))
    }

    /// Number of isolates ever created.
    pub fn isolate_count(&self) -> usize {
        self.isolates.len()
    }

    /// Adds class-file bytes to a loader's class path.
    pub fn add_class_bytes(&mut self, loader: LoaderId, name: &str, bytes: Vec<u8>) {
        self.loaders[loader.0 as usize]
            .classpath
            .insert(name.to_owned(), bytes);
    }

    /// Adds class-file bytes to the bootstrap (system) class path.
    pub(crate) fn add_system_class_bytes(&mut self, name: &str, bytes: Vec<u8>) {
        self.add_class_bytes(LoaderId::BOOTSTRAP, name, bytes);
    }

    /// Serializes and installs a built system class.
    pub fn install_system_class(&mut self, class: &ClassFile) -> Result<ClassId> {
        let name = class.name()?.to_owned();
        let bytes = ijvm_classfile::writer::write_class(class)?;
        self.add_system_class_bytes(&name, bytes);
        self.load_class(LoaderId::BOOTSTRAP, &name)
    }

    /// Registers a native implementation.
    pub fn register_native(
        &mut self,
        class_name: &str,
        method_name: &str,
        descriptor: &str,
        f: NativeFn,
    ) {
        self.natives
            .register(class_name, method_name, descriptor, f);
        // Rebind any already-linked method of that name.
        for class in &mut self.classes {
            if &*class.name == class_name {
                for m in class.methods.iter_mut() {
                    if &*m.name == method_name && &*m.descriptor == descriptor {
                        m.native_idx = self.natives.lookup(class_name, method_name, descriptor);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Class loading and linking
    // ------------------------------------------------------------------

    /// Loads (or returns the already-loaded) class `name` through `loader`.
    ///
    /// Non-bootstrap loaders delegate to the bootstrap loader first, so
    /// system classes are shared by all isolates (their *code* is shared;
    /// their static state lives in per-isolate mirrors).
    pub fn load_class(&mut self, loader: LoaderId, name: &str) -> Result<ClassId> {
        if let Some(&id) = self.class_index.get(&(loader, name.to_owned())) {
            return Ok(id);
        }
        if loader != LoaderId::BOOTSTRAP {
            if let Some(&id) = self
                .class_index
                .get(&(LoaderId::BOOTSTRAP, name.to_owned()))
            {
                return Ok(id);
            }
            if self.loaders[0].classpath.contains_key(name) {
                return self.load_class(LoaderId::BOOTSTRAP, name);
            }
            // Bundle-import delegation: defining loader stays the delegate,
            // so the class's isolate is the exporting bundle's.
            if !self.loaders[loader.0 as usize].classpath.contains_key(name) {
                let delegates = self.loaders[loader.0 as usize].delegates.clone();
                for d in delegates {
                    if let Some(&id) = self.class_index.get(&(d, name.to_owned())) {
                        return Ok(id);
                    }
                    if self.loaders[d.0 as usize].classpath.contains_key(name) {
                        return self.load_class(d, name);
                    }
                }
            }
        }
        let key = (loader, name.to_owned());
        if !self.loading.insert(key.clone()) {
            return Err(VmError::LinkError(format!("class circularity: {name}")));
        }
        let result = self.load_class_inner(loader, name);
        self.loading.remove(&key);
        result
    }

    fn load_class_inner(&mut self, loader: LoaderId, name: &str) -> Result<ClassId> {
        let bytes = self.loaders[loader.0 as usize]
            .classpath
            .get(name)
            .cloned()
            .ok_or_else(|| VmError::ClassNotFound {
                name: name.to_owned(),
            })?;
        let cf = ijvm_classfile::reader::read_class(&bytes)?;
        if cf.name()? != name {
            return Err(VmError::LinkError(format!(
                "class file for {name} declares name {}",
                cf.name()?
            )));
        }
        self.define_class(loader, cf)
    }

    /// Links a parsed class file into the VM under `loader`.
    pub(crate) fn define_class(&mut self, loader: LoaderId, cf: ClassFile) -> Result<ClassId> {
        let name: Arc<str> = Arc::from(cf.name()?);

        let super_class = match cf.super_name()? {
            Some(s) => Some(self.load_class(loader, s)?),
            None => None,
        };
        let interface_names: Vec<String> = cf
            .interface_names()?
            .into_iter()
            .map(str::to_owned)
            .collect();
        let mut interfaces = Vec::with_capacity(interface_names.len());
        for i in &interface_names {
            interfaces.push(self.load_class(loader, i)?);
        }

        let id = ClassId(self.classes.len() as u32);
        let is_system = self.loaders[loader.0 as usize].is_system;
        let isolate = self.loaders[loader.0 as usize].isolate;

        // Flattened instance layout: inherited fields first.
        let mut instance_fields: Vec<FieldDesc> = match super_class {
            Some(s) => self.classes[s.0 as usize].instance_fields.clone(),
            None => Vec::new(),
        };
        let mut static_fields = Vec::new();
        for f in &cf.fields {
            let fd = FieldDesc {
                name: Arc::from(cf.pool.utf8_at(f.name)?),
                descriptor: Arc::from(cf.pool.utf8_at(f.descriptor)?),
            };
            if f.access.is_static() {
                static_fields.push(fd);
            } else {
                instance_fields.push(fd);
            }
        }

        // Methods.
        let class_name_owned = name.to_string();
        let mut methods = Vec::with_capacity(cf.methods.len());
        for m in &cf.methods {
            let mname = cf.pool.utf8_at(m.name)?;
            let mdesc = cf.pool.utf8_at(m.descriptor)?;
            let parsed = MethodDescriptor::parse(mdesc)?;
            let mut arg_slots = parsed.param_slots() as u16;
            if !m.access.is_static() {
                arg_slots += 1;
            }
            let code = m.code.as_ref().map(|c| {
                crate::vmrc::VmRc::new(CodeBody {
                    max_stack: c.max_stack,
                    max_locals: c.max_locals,
                    bytes: c.code.clone(),
                    handlers: c.exception_table.clone(),
                })
            });
            let native_idx = if m.access.is_native() {
                self.natives.lookup(&class_name_owned, mname, mdesc)
            } else {
                None
            };
            methods.push(RuntimeMethod {
                name: Arc::from(mname),
                descriptor: Arc::from(mdesc),
                access: m.access,
                arg_slots,
                returns_value: !parsed.is_void(),
                code,
                prepared: None,
                native_idx,
                vslot: None,
                synchronized: m.access.is_synchronized(),
            });
        }

        // Virtual table: copy the super's, then override/extend.
        let mut vtable: Vec<MethodRef> = match super_class {
            Some(s) => self.classes[s.0 as usize].vtable.clone(),
            None => Vec::new(),
        };
        for idx in 0..methods.len() {
            let virtual_candidate = {
                let m = &methods[idx];
                !m.access.is_static()
                    && !m.access.contains(AccessFlags::PRIVATE)
                    && &*m.name != "<init>"
                    && &*m.name != "<clinit>"
            };
            if !virtual_candidate {
                continue;
            }
            // Look for an overridable slot with the same name+descriptor.
            // Entries may reference this very class (methods added earlier
            // in this loop), which is not in `self.classes` yet.
            let mut slot = None;
            for (vi, target) in vtable.iter().enumerate() {
                let tm = if target.class == id {
                    &methods[target.index as usize]
                } else {
                    &self.classes[target.class.0 as usize].methods[target.index as usize]
                };
                if tm.name == methods[idx].name && tm.descriptor == methods[idx].descriptor {
                    slot = Some(vi);
                    break;
                }
            }
            let mref = MethodRef {
                class: id,
                index: idx as u16,
            };
            match slot {
                Some(vi) => {
                    vtable[vi] = mref;
                    methods[idx].vslot = Some(vi as u32);
                }
                None => {
                    vtable.push(mref);
                    methods[idx].vslot = Some(vtable.len() as u32 - 1);
                }
            }
        }

        let rtcp = vec![RtCp::Untouched; cf.pool.len() + 1];
        let class = RuntimeClass {
            name: Arc::clone(&name),
            loader,
            isolate,
            is_system,
            super_class,
            interfaces,
            instance_fields,
            static_fields,
            methods,
            vtable,
            pool: cf.pool,
            rtcp,
            mirrors: Vec::new(),
            poisoned: false,
        };
        self.classes.push(class);
        self.class_index.insert((loader, name.to_string()), id);

        match &*name {
            "java/lang/Object" if is_system => self.well_known.object = Some(id),
            "java/lang/String" if is_system => self.well_known.string = Some(id),
            "java/lang/Class" if is_system => self.well_known.class = Some(id),
            _ => {}
        }
        Ok(id)
    }

    /// Shared access to a loaded class.
    pub fn class(&self, id: ClassId) -> &RuntimeClass {
        &self.classes[id.0 as usize]
    }

    /// Looks up an already-loaded class by loader and name.
    pub fn find_class(&self, loader: LoaderId, name: &str) -> Option<ClassId> {
        self.class_index
            .get(&(loader, name.to_owned()))
            .or_else(|| {
                self.class_index
                    .get(&(LoaderId::BOOTSTRAP, name.to_owned()))
            })
            .copied()
    }

    /// Number of loaded classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// `true` if `sub` equals or descends from `sup` (classes only).
    pub(crate) fn is_subclass_of(&self, sub: ClassId, sup: ClassId) -> bool {
        let mut cur = Some(sub);
        while let Some(c) = cur {
            if c == sup {
                return true;
            }
            cur = self.classes[c.0 as usize].super_class;
        }
        false
    }

    /// `true` if `sub` is assignable to `sup` (walks superclasses and
    /// interfaces transitively).
    pub(crate) fn is_assignable_to(&self, sub: ClassId, sup: ClassId) -> bool {
        if self.is_subclass_of(sub, sup) {
            return true;
        }
        let mut cur = Some(sub);
        while let Some(c) = cur {
            let class = &self.classes[c.0 as usize];
            for &i in &class.interfaces {
                if self.is_assignable_to(i, sup) {
                    return true;
                }
            }
            cur = class.super_class;
        }
        false
    }

    // ------------------------------------------------------------------
    // Mirrors (per-isolate static state)
    // ------------------------------------------------------------------

    /// The mirror index used for `iso` under the current isolation mode:
    /// in `Shared` mode everything maps to slot 0 (one shared copy of
    /// statics/strings/Class objects — the vulnerable baseline).
    #[inline]
    pub(crate) fn mirror_index(&self, iso: IsolateId) -> usize {
        match self.options.isolation {
            IsolationMode::Shared => 0,
            IsolationMode::Isolated => iso.0 as usize,
        }
    }

    /// Ensures the `(class, iso)` mirror exists (uninitialized), returning
    /// whether it had to be created.
    pub(crate) fn ensure_mirror(&mut self, class: ClassId, iso: IsolateId) -> bool {
        let mi = self.mirror_index(iso);
        if self.classes[class.0 as usize]
            .mirrors
            .get(mi)
            .map(|m| m.is_some())
            .unwrap_or(false)
        {
            return false;
        }
        // Allocate the per-isolate java.lang.Class object.
        let class_object = self.alloc_class_object(class, iso);
        let c = &mut self.classes[class.0 as usize];
        if c.mirrors.len() <= mi {
            c.mirrors.resize(mi + 1, None);
        }
        let statics: Box<[Value]> = c
            .static_fields
            .iter()
            .map(|f| Value::default_for_descriptor(&f.descriptor))
            .collect();
        c.mirrors[mi] = Some(TaskClassMirror {
            init: InitState::Uninitialized,
            statics,
            class_object,
        });
        true
    }

    fn alloc_class_object(&mut self, class: ClassId, iso: IsolateId) -> GcRef {
        let class_class = self.well_known.class;
        let name = self.classes[class.0 as usize].name.to_string();
        match class_class {
            Some(cc) => {
                // Mirror creation is VM bookkeeping, not a guest
                // allocation: it runs no collection, so no caller of
                // `ensure_mirror` has to be a safe point.
                let name_ref = match self.interned(iso, &name) {
                    Ok(r) => r,
                    Err(map_iso) => {
                        let r = self.alloc_string_unchecked(iso, name.encode_utf16().collect());
                        self.record_interned(map_iso, &name, r);
                        r
                    }
                };
                let nfields = self.classes[cc.0 as usize].instance_fields.len();
                let mut fields = vec![Value::Null; nfields];
                if let Some(slot) = self.classes[cc.0 as usize].find_instance_slot("name") {
                    fields[slot as usize] = Value::Ref(name_ref);
                }
                self.alloc_raw(cc, iso, ObjBody::Fields(fields.into_boxed_slice()), "")
            }
            None => {
                // Bootstrapping before java/lang/Class exists: a bare object.
                let oc = self.well_known.object.unwrap_or(class);
                self.alloc_raw(oc, iso, ObjBody::Fields(Box::new([])), "")
            }
        }
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Raw allocation, charging `iso` (paper §3.2: objects are charged to
    /// the allocating isolate). Runs no collection and no limit check:
    /// every caller outside this impl goes through a checked entry
    /// ([`Vm::alloc_instance`], [`Vm::alloc_array`], [`Vm::new_string`]
    /// and their siblings) or says it is unchecked
    /// ([`Vm::alloc_exception_unchecked`]).
    fn alloc_raw(
        &mut self,
        class: ClassId,
        iso: IsolateId,
        body: ObjBody,
        array_desc: &str,
    ) -> GcRef {
        let obj = Object {
            class,
            array_desc: array_desc.to_owned(),
            owner: iso,
            is_connection: false,
            mark: false,
            monitor: None,
            body,
        };
        let size = obj.size_bytes();
        self.allocated_since_gc += size;
        if self.options.accounting {
            if let Some(i) = self.isolates.get_mut(iso.0 as usize) {
                i.stats.allocated_bytes += size as u64;
                i.stats.allocated_objects += 1;
            }
        }
        self.heap.alloc(obj)
    }

    /// Allocates an instance of `class` with default field values,
    /// enforcing the heap limit (GC first, then `OutOfMemoryError`).
    pub(crate) fn alloc_instance(
        &mut self,
        class: ClassId,
        iso: IsolateId,
    ) -> std::result::Result<GcRef, Thrown> {
        let nfields = self.classes[class.0 as usize].instance_fields.len();
        let size = crate::heap::OBJECT_HEADER_BYTES + nfields * 8;
        self.check_heap(size, iso)?;
        Ok(self.alloc_raw(class, iso, self.default_fields(class), ""))
    }

    fn default_fields(&self, class: ClassId) -> ObjBody {
        ObjBody::Fields(
            self.classes[class.0 as usize]
                .instance_fields
                .iter()
                .map(|f| Value::default_for_descriptor(&f.descriptor))
                .collect(),
        )
    }

    /// Allocates an exception of `class` carrying `message`, charged to
    /// `iso`, with no collection and no limit check — so reporting an
    /// `OutOfMemoryError` cannot itself run out of memory. The one
    /// unchecked allocation open to the rest of the crate.
    pub(crate) fn alloc_exception_unchecked(
        &mut self,
        class: ClassId,
        iso: IsolateId,
        message: &str,
    ) -> GcRef {
        let r = self.alloc_raw(class, iso, self.default_fields(class), "");
        if !message.is_empty() {
            let msg = self.alloc_string_unchecked(iso, message.encode_utf16().collect());
            if let Some(slot) = self.classes[class.0 as usize].find_instance_slot("message") {
                if let ObjBody::Fields(fields) = &mut self.heap.get_mut(r).body {
                    fields[slot as usize] = Value::Ref(msg);
                }
            }
        }
        r
    }

    /// Enforces the heap limit before an allocation of `size` bytes, and
    /// collects first when the limit would be crossed or a collection is
    /// due. Pacing: a collection is due once the bytes allocated since
    /// the last one exceed what that one left live — never less than
    /// [`GC_MIN_TRIGGER_BYTES`], never more than `gc_threshold_bytes`.
    /// Only the collector frees objects, so `used - allocated_since_gc`
    /// is exactly the last collection's survivors, and a restored VM
    /// (which carries both) collects where its original would have.
    pub(crate) fn check_heap(
        &mut self,
        size: usize,
        iso: IsolateId,
    ) -> std::result::Result<(), Thrown> {
        let used = self.heap.used_bytes();
        let live = used.saturating_sub(self.allocated_since_gc);
        let trigger = live
            .max(GC_MIN_TRIGGER_BYTES)
            .min(self.options.gc_threshold_bytes);
        if used + size > self.options.heap_limit_bytes || self.allocated_since_gc > trigger {
            self.collect_garbage(Some(iso));
            if self.heap.used_bytes() + size > self.options.heap_limit_bytes {
                return Err(heap_oom());
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Strings
    // ------------------------------------------------------------------

    /// Interns `s` in `iso`'s string map (paper §3.1: per-isolate string
    /// maps; in `Shared` mode there is a single global map). Returns
    /// `None` when a new string would exceed the heap limit even after a
    /// collection.
    pub fn intern_string(&mut self, iso: IsolateId, s: &str) -> Option<GcRef> {
        match self.interned(iso, s) {
            Ok(r) => Some(r),
            Err(map_iso) => {
                let r = self.new_string(iso, s)?;
                self.record_interned(map_iso, s, r);
                Some(r)
            }
        }
    }

    /// The live interned string `s` of `iso`'s map, or the map's index.
    fn interned(&self, iso: IsolateId, s: &str) -> std::result::Result<GcRef, usize> {
        let mi = self.mirror_index(iso);
        let map_iso = mi.min(self.isolates.len().saturating_sub(1));
        match self.isolates.get(map_iso).and_then(|i| i.strings.get(s)) {
            Some(&r) if self.heap.is_live(r) => Ok(r),
            _ => Err(map_iso),
        }
    }

    fn record_interned(&mut self, map_iso: usize, s: &str, r: GcRef) {
        if let Some(i) = self.isolates.get_mut(map_iso) {
            i.strings.insert(s.to_owned(), r);
        }
    }

    /// Allocates a fresh (non-interned) string object charged to `iso`.
    /// Returns `None` when the heap limit would be exceeded even after a
    /// collection.
    pub fn new_string(&mut self, iso: IsolateId, s: &str) -> Option<GcRef> {
        self.new_string_utf16(iso, s.encode_utf16().collect())
    }

    /// Allocates a fresh string object whose body is `chars`, charged to
    /// `iso`. The code units are kept as given, unpaired surrogates
    /// included. The string and its `char[]` pass one heap check
    /// together, before either exists, so a collection it triggers
    /// cannot free the first half. Returns `None` when the heap limit
    /// would be exceeded even after a collection.
    pub fn new_string_utf16(&mut self, iso: IsolateId, chars: Box<[u16]>) -> Option<GcRef> {
        let string_class = self.string_class();
        let nfields = self.classes[string_class.0 as usize].instance_fields.len();
        let size = 2 * crate::heap::OBJECT_HEADER_BYTES + chars.len() * 2 + nfields * 8;
        self.check_heap(size, iso).ok()?;
        Some(self.alloc_string_unchecked(iso, chars))
    }

    fn string_class(&self) -> ClassId {
        self.well_known
            .string
            .expect("java/lang/String must be installed before creating strings")
    }

    fn alloc_string_unchecked(&mut self, iso: IsolateId, chars: Box<[u16]>) -> GcRef {
        let string_class = self.string_class();
        let arr = self.alloc_raw(
            self.well_known.object.expect("bootstrap installed"),
            iso,
            ObjBody::ArrChar(chars),
            "[C",
        );
        let nfields = self.classes[string_class.0 as usize].instance_fields.len();
        let mut fields = vec![Value::Null; nfields];
        let vslot = self.classes[string_class.0 as usize]
            .find_instance_slot("value")
            .expect("String.value field");
        fields[vslot as usize] = Value::Ref(arr);
        self.alloc_raw(
            string_class,
            iso,
            ObjBody::Fields(fields.into_boxed_slice()),
            "",
        )
    }

    /// The UTF-16 body of a Java string, borrowed in place. Returns `None`
    /// if `r` is not a string object.
    pub fn string_chars(&self, r: GcRef) -> Option<&[u16]> {
        let obj = self.heap.get(r);
        let string_class = self.well_known.string?;
        if obj.class != string_class {
            return None;
        }
        let vslot = self.classes[string_class.0 as usize].find_instance_slot("value")?;
        let ObjBody::Fields(fields) = &obj.body else {
            return None;
        };
        let arr = fields[vslot as usize].as_ref()?;
        match &self.heap.get(arr).body {
            ObjBody::ArrChar(chars) => Some(chars),
            _ => None,
        }
    }

    /// Reads a Java string back into Rust (unpaired surrogates become
    /// U+FFFD). Returns `None` if `r` is not a string object.
    pub fn read_string(&self, r: GcRef) -> Option<String> {
        self.string_chars(r).map(String::from_utf16_lossy)
    }

    // ------------------------------------------------------------------
    // Threads and scheduling
    // ------------------------------------------------------------------

    /// Spawns a green thread running `method` (a static method) with
    /// `args`, on behalf of `creator`. Enforces the thread limit.
    pub fn spawn_thread(
        &mut self,
        name: &str,
        method: MethodRef,
        args: Vec<Value>,
        creator: IsolateId,
    ) -> Result<ThreadId> {
        let live = self.threads.iter().filter(|t| !t.is_terminated()).count();
        if live >= self.options.max_threads {
            return Err(VmError::Internal("thread limit exceeded".to_owned()));
        }
        let tid = ThreadId(self.threads.len() as u32);
        let mut thread = VmThread::new(tid, name, creator);
        let frame = self.make_frame(method, args, creator);
        thread.current_isolate = frame.isolate;
        thread.frames.push(frame);
        if self.options.accounting {
            if let Some(i) = self.isolates.get_mut(creator.0 as usize) {
                i.stats.threads_created += 1;
                i.stats.threads_live += 1;
            }
        }
        self.threads.push(thread);
        self.run_queue.push_back(tid);
        Ok(tid)
    }

    /// Builds a frame for `method` with `args` already in locals.
    /// The frame's isolate follows paper §3.1: system-library code and
    /// class initializers execute in the caller's isolate; everything else
    /// executes in its defining class's isolate.
    pub(crate) fn make_frame(
        &self,
        method: MethodRef,
        args: Vec<Value>,
        caller_isolate: IsolateId,
    ) -> Frame {
        let class = &self.classes[method.class.0 as usize];
        let m = &class.methods[method.index as usize];
        let code = m
            .code
            .as_ref()
            .expect("make_frame on non-bytecode method")
            .share();
        let is_system = class.is_system;
        let isolate = if self.frame_executes_in_caller(method) {
            caller_isolate
        } else {
            class.isolate
        };
        let mut locals = args;
        locals.resize(code.max_locals as usize, Value::Int(0));
        let needs_sync_enter = m.synchronized;
        Frame {
            method,
            class: method.class,
            isolate,
            caller_isolate,
            is_system,
            code,
            pc: 0,
            locals,
            stack: Vec::with_capacity(code_stack_hint(
                &self.classes[method.class.0 as usize],
                method.index,
            )),
            sync_object: None,
            needs_sync_enter,
            poisoned_return: None,
        }
    }

    /// The paper-§3.1 frame-isolate routing rule, shared by `make_frame`
    /// and the engine's fused `CallSite` capture so the two can never
    /// diverge: system-library code and class initializers execute in the
    /// caller's isolate (as does everything in `Shared` mode); task code
    /// executes in its defining class's isolate.
    pub(crate) fn frame_executes_in_caller(&self, method: MethodRef) -> bool {
        let class = &self.classes[method.class.0 as usize];
        let m = &class.methods[method.index as usize];
        class.is_system || &*m.name == "<clinit>" || self.options.isolation == IsolationMode::Shared
    }

    /// Shared thread accessor.
    pub fn thread(&self, tid: ThreadId) -> Result<&VmThread> {
        self.threads
            .get(tid.0 as usize)
            .ok_or(VmError::BadThread(tid))
    }

    pub(crate) fn thread_mut(&mut self, tid: ThreadId) -> &mut VmThread {
        &mut self.threads[tid.0 as usize]
    }

    /// Number of thread slots: live threads plus finished ones not yet
    /// given back ([`Vm::release_thread`]). Slots are reused, so this is
    /// not the number of threads ever created; that count is
    /// [`ResourceStats::threads_created`](crate::accounting::ResourceStats::threads_created),
    /// per creating isolate.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Makes a thread runnable and queues it.
    pub(crate) fn wake(&mut self, tid: ThreadId) {
        let t = &mut self.threads[tid.0 as usize];
        if !t.is_terminated() {
            t.state = ThreadState::Runnable;
            if !self.run_queue.contains(&tid) {
                self.run_queue.push_back(tid);
            }
        }
    }

    /// Runs until idle, deadlock or budget exhaustion.
    pub fn run(&mut self, budget: Option<u64>) -> RunOutcome {
        let mut executed: u64 = 0;
        loop {
            if self.exit_code.is_some() {
                return RunOutcome::Idle;
            }
            if let Some(b) = budget {
                if executed >= b {
                    return RunOutcome::BudgetExhausted;
                }
            }
            let Some(tid) = self.next_runnable() else {
                // Nothing runnable: maybe sleepers.
                if self.advance_clock_to_next_wakeup() {
                    continue;
                }
                // Threads parked in cross-unit calls are waiting on the
                // scheduler's mail delivery, not on each other.
                if self.port.has_waiters() {
                    return RunOutcome::Blocked;
                }
                // Idle service pumps are not "work": a unit whose only
                // parked threads await requests has finished.
                let any_blocked = self.threads.iter().any(|t| {
                    !t.is_terminated()
                        && !t.is_runnable()
                        && t.state != crate::thread::ThreadState::ServicePump
                });
                return if any_blocked {
                    RunOutcome::Deadlock
                } else {
                    RunOutcome::Idle
                };
            };
            let quantum = self.options.quantum;
            let consumed = crate::interp::step_thread(self, tid, quantum);
            executed += consumed as u64;
            self.vclock += consumed as u64;

            // CPU sampling (paper §3.2): charge the whole slice to the
            // isolate the thread is in *now* — the sampled estimator whose
            // imprecision §4.4 measures.
            if self.options.accounting && consumed > 0 {
                let iso = self.threads[tid.0 as usize].current_isolate;
                if let Some(i) = self.isolates.get_mut(iso.0 as usize) {
                    i.stats.cpu_sampled += consumed as u64;
                }
            }
            if self.trace_enabled && consumed > 0 {
                let iso = self.threads[tid.0 as usize].current_isolate;
                self.trace_emit(
                    crate::trace::EventKind::QuantumEnd,
                    Some(iso),
                    Some(tid),
                    consumed as u64,
                );
            }

            let t = &self.threads[tid.0 as usize];
            if t.is_runnable() {
                self.run_queue.push_back(tid);
            } else if t.is_terminated() {
                self.on_thread_exit(tid);
            }
            self.poll_unblock();
        }
    }

    fn next_runnable(&mut self) -> Option<ThreadId> {
        while let Some(tid) = self.run_queue.pop_front() {
            if self.threads[tid.0 as usize].is_runnable() {
                return Some(tid);
            }
        }
        None
    }

    /// Advances the virtual clock to the earliest sleeper and wakes it.
    /// Returns `false` when no thread is sleeping.
    fn advance_clock_to_next_wakeup(&mut self) -> bool {
        let mut min_until: Option<u64> = None;
        for t in &self.threads {
            if let ThreadState::Sleeping { until } = t.state {
                min_until = Some(min_until.map_or(until, |m: u64| m.min(until)));
            }
        }
        let Some(until) = min_until else { return false };
        self.vclock = self.vclock.max(until);
        let woken: Vec<ThreadId> = self
            .threads
            .iter()
            .filter(|t| matches!(t.state, ThreadState::Sleeping { until } if until <= self.vclock))
            .map(|t| t.id)
            .collect();
        for tid in woken {
            self.wake(tid);
        }
        true
    }

    /// Re-checks blocked threads whose wake condition may have changed
    /// (class init finished, interrupt delivered, sleep elapsed).
    pub(crate) fn poll_unblock(&mut self) {
        let now = self.vclock;
        let mut to_wake = Vec::new();
        let mut to_interrupt = Vec::new();
        for t in &self.threads {
            match t.state {
                ThreadState::Sleeping { .. }
                | ThreadState::BlockedOnPort { .. }
                | ThreadState::BlockedOnFuture { .. }
                | ThreadState::BlockedOnQuota
                    if t.interrupted =>
                {
                    // Interrupt pulls the thread out of its park with an
                    // InterruptedException (paper §3.3 uses exactly this to
                    // abort sleeps and I/O during isolate termination).
                    to_interrupt.push(t.id);
                }
                ThreadState::Sleeping { until } if until <= now => {
                    to_wake.push(t.id);
                }
                ThreadState::BlockedOnClassInit { class, isolate } => {
                    let mi = self.mirror_index(isolate);
                    let done = self.classes[class.0 as usize]
                        .mirrors
                        .get(mi)
                        .and_then(|m| m.as_ref())
                        .map(|m| matches!(m.init, InitState::Initialized | InitState::Failed))
                        .unwrap_or(true);
                    if done {
                        to_wake.push(t.id);
                    }
                }
                _ => {}
            }
        }
        for tid in to_wake {
            self.wake(tid);
        }
        for tid in to_interrupt {
            self.threads[tid.0 as usize].interrupted = false;
            let ex = crate::interp::alloc_exception(
                self,
                tid,
                "java/lang/InterruptedException",
                "interrupted while parked",
            );
            self.threads[tid.0 as usize].pending_exception = Some(ex);
            self.wake(tid);
        }
    }

    pub(crate) fn on_thread_exit(&mut self, tid: ThreadId) {
        let creator = self.threads[tid.0 as usize].creator_isolate;
        if self.options.accounting {
            if let Some(i) = self.isolates.get_mut(creator.0 as usize) {
                i.stats.threads_live = i.stats.threads_live.saturating_sub(1);
            }
        }
        // Wake joiners.
        let joiners: Vec<ThreadId> = self
            .threads
            .iter()
            .filter(|t| t.state == ThreadState::BlockedOnJoin(tid))
            .map(|t| t.id)
            .collect();
        for j in joiners {
            self.wake(j);
        }
    }

    /// Convenience: spawns a thread on a static method, runs to idle, and
    /// returns the method's return value. Errors on uncaught exceptions.
    pub fn call_static(
        &mut self,
        class: ClassId,
        name: &str,
        descriptor: &str,
        args: Vec<Value>,
    ) -> Result<Option<Value>> {
        let iso = {
            let c = &self.classes[class.0 as usize];
            if c.is_system {
                IsolateId::ISOLATE0
            } else {
                c.isolate
            }
        };
        self.call_static_as(class, name, descriptor, args, iso)
    }

    /// Like [`Vm::call_static`] with an explicit calling isolate.
    ///
    /// The call runs on a fresh thread whose slot is given back once its
    /// outcome is read ([`Vm::release_thread`]), so a long-lived VM's
    /// thread table does not grow with the calls it serves. A call that
    /// returns a reference keeps its slot: the finished thread's result is
    /// what roots the object until the host pins it and clears the slot
    /// ([`Vm::clear_thread_result`]).
    pub fn call_static_as(
        &mut self,
        class: ClassId,
        name: &str,
        descriptor: &str,
        args: Vec<Value>,
        caller: IsolateId,
    ) -> Result<Option<Value>> {
        let index = self.classes[class.0 as usize]
            .find_method(name, descriptor)
            .ok_or_else(|| VmError::NoSuchMember {
                what: format!(
                    "{}.{}:{}",
                    self.classes[class.0 as usize].name, name, descriptor
                ),
            })?;
        let mref = MethodRef { class, index };
        let tid = self.spawn_thread(&format!("call:{name}"), mref, args, caller)?;
        match self.run(None) {
            // A standalone VM has no scheduler to deliver port mail, so a
            // blocked cross-unit call can never complete here.
            RunOutcome::Deadlock | RunOutcome::Blocked => return Err(VmError::Deadlock),
            RunOutcome::BudgetExhausted => return Err(VmError::BudgetExhausted),
            RunOutcome::Idle => {}
        }
        self.release_thread(tid)
    }

    /// The outcome of a finished thread, exactly as [`Vm::thread_outcome`]
    /// reports it, and gives the thread's slot back when nothing can name
    /// it again. Slots are freed in stack order: the slot is popped only
    /// when `tid` is the last one, the thread has terminated, it is not a
    /// service pump, no guest started it (its `Thread` object keeps the
    /// id), its result is not a reference (the slot would be that
    /// object's only root) and it owns no monitor. Otherwise the slot
    /// stays. The next spawn reuses a popped id, so a released `tid` must
    /// not be used again.
    pub fn release_thread(&mut self, tid: ThreadId) -> Result<Option<Value>> {
        let outcome = self.thread_outcome(tid);
        let releasable = self.threads.last().is_some_and(|t| {
            t.id == tid
                && t.is_terminated()
                && !t.is_service_pump
                && !t.guest_started
                && !matches!(t.result, Some(Value::Ref(_)))
                && t.monitors_held == 0
        });
        if releasable {
            self.threads.pop();
            // A budget-cut run can leave a stale entry for a finished
            // thread queued; drop it so the id's next owner is not
            // scheduled twice.
            self.run_queue.retain(|&q| q != tid);
        }
        outcome
    }

    /// The outcome of a finished thread, as [`Vm::call_static`] reports
    /// it: its return value, or the uncaught exception that killed it as
    /// a [`VmError::UncaughtException`]. Shared with the cluster
    /// scheduler so a unit run under [`crate::sched::Cluster`] reports
    /// results identically to a plain `call_static` run.
    pub fn thread_outcome(&self, tid: ThreadId) -> Result<Option<Value>> {
        let t = self.thread(tid)?;
        if let Some(ex) = t.uncaught {
            let class_name = self.classes[self.heap.get(ex).class.0 as usize]
                .name
                .to_string();
            let message = self.exception_message(ex);
            return Err(VmError::UncaughtException {
                class_name,
                message,
            });
        }
        Ok(t.result)
    }

    /// Flushes every thread's pending exactly-counted instructions
    /// (`insns_since_switch`) into its *current* isolate through
    /// `ResourceStats::charge_cpu` — the same attribution an
    /// isolate-switch flush would make, just taken early. The cluster
    /// scheduler calls this at every quantum-slice boundary so no
    /// instruction is in flight when a unit migrates between workers;
    /// totals are unchanged because the in-VM flush points drain the
    /// same counter.
    pub fn flush_pending_cpu(&mut self) {
        if !self.options.accounting {
            return;
        }
        for t in 0..self.threads.len() {
            let insns = std::mem::take(&mut self.threads[t].insns_since_switch);
            if insns > 0 {
                let iso = self.threads[t].current_isolate;
                let mut charged = false;
                if let Some(i) = self.isolates.get_mut(iso.0 as usize) {
                    i.stats.charge_cpu(insns);
                    charged = true;
                }
                if charged {
                    let tid = self.threads[t].id;
                    self.trace_cpu_charge(iso, Some(tid), insns);
                }
            }
        }
    }

    /// The detail message of an exception object, if it has one.
    pub(crate) fn exception_message(&self, ex: GcRef) -> Option<String> {
        let obj = self.heap.get(ex);
        let class = &self.classes[obj.class.0 as usize];
        let slot = class.find_instance_slot("message")?;
        let ObjBody::Fields(fields) = &obj.body else {
            return None;
        };
        let r = fields[slot as usize].as_ref()?;
        self.read_string(r)
    }

    // ------------------------------------------------------------------
    // Introspection, console, roots
    // ------------------------------------------------------------------

    /// The VM's virtual clock (total interpreted instructions).
    pub fn vclock(&self) -> u64 {
        self.vclock
    }

    /// Total inter-isolate migrations performed.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Number of collections run.
    pub fn gc_count(&self) -> u64 {
        self.gc_count
    }

    /// Bytes currently on the heap.
    pub fn heap_used(&self) -> usize {
        self.heap.used_bytes()
    }

    /// Live object count.
    pub fn heap_objects(&self) -> usize {
        self.heap.live_objects()
    }

    /// Exit code if `System.exit` was called.
    pub fn exit_code(&self) -> Option<i32> {
        self.exit_code
    }

    /// Resource counters of one isolate.
    pub fn isolate_stats(&self, iso: IsolateId) -> Result<&ResourceStats> {
        Ok(&self.isolate(iso)?.stats)
    }

    /// The unified metrics snapshot: always-on counters (vclock,
    /// migrations, GC epochs) and the per-isolate accounting rows, plus —
    /// when the flight recorder is on ([`VmOptions::trace`]) — the
    /// trace-derived counters and the per-call latency histogram.
    pub fn metrics(&self) -> crate::trace::VmMetrics {
        use crate::trace::EventKind as K;
        let mut m = crate::trace::VmMetrics {
            vclock: self.vclock,
            isolate_switches: self.migrations,
            gc_epochs: self.gc_count,
            isolates: self
                .isolates
                .iter()
                .map(|i| IsolateSnapshot {
                    isolate: i.id,
                    name: i.name.clone(),
                    state: i.state,
                    stats: i.stats.clone(),
                })
                .collect(),
            ..Default::default()
        };
        if let Some(ts) = &self.trace {
            m.quanta = ts.kind_count(K::QuantumEnd);
            m.cpu_charges = ts.kind_count(K::CpuCharge);
            m.cpu_charged_insns = ts.cpu_charged_insns;
            m.sie_raised = ts.kind_count(K::SieRaised);
            m.threads_finished = ts.kind_count(K::ThreadFinish);
            m.isolates_terminated = ts.kind_count(K::IsolateTerminate);
            m.calls_sent = ts.kind_count(K::CallSend);
            m.oneways_sent = ts.kind_count(K::OnewaySend);
            m.calls_served = ts.kind_count(K::CallDeliver);
            m.replies_sent = ts.kind_count(K::ReplySend);
            m.replies_delivered = ts.kind_count(K::ReplyDeliver);
            m.posts_sent = ts.kind_count(K::FuturePost);
            m.futures_resolved = ts.kind_count(K::FutureResolve);
            m.futures_cancelled = ts.kind_count(K::FutureCancel);
            m.quota_parks = ts.kind_count(K::QuotaPark);
            m.quota_unparks = ts.kind_count(K::QuotaUnpark);
            m.services_exported = ts.kind_count(K::ServiceExport);
            m.services_revoked = ts.kind_count(K::ServiceRevoke);
            m.mailbox_high_water = ts.mailbox_high_water;
            m.call_latency = ts.call_latency.clone();
            m.events_recorded = ts.events_recorded;
            m.dropped_events = ts.ring.dropped_events();
        }
        m
    }

    /// Drains the flight recorder's ring, returning the recorded events
    /// in order (empty when tracing is off). The eager counters reported
    /// by [`Vm::metrics`] are unaffected.
    pub fn take_trace_events(&mut self) -> Vec<crate::trace::TraceEvent> {
        match self.trace.as_mut() {
            Some(ts) => ts.ring.drain_ordered(),
            None => Vec::new(),
        }
    }

    /// The `n` hottest methods by profile score (invocations weighted
    /// with back-edges — loop iterations dominate, as a JIT tier wants).
    /// Counters are only bumped while the flight recorder is on and the
    /// threaded engine runs, so this is empty on untraced runs.
    pub fn top_methods(&self, n: usize) -> Vec<crate::trace::MethodHotness> {
        let mut rows: Vec<crate::trace::MethodHotness> = self
            .classes
            .iter()
            .flat_map(|c| c.methods.iter().map(move |m| (c, m)))
            .filter_map(|(c, m)| {
                let p = m.prepared.as_ref()?;
                let (invocations, back_edges) = (p.hot_count.get(), p.back_edges.get());
                if invocations == 0 && back_edges == 0 {
                    return None;
                }
                Some(crate::trace::MethodHotness {
                    class_name: c.name.to_string(),
                    method_name: m.name.to_string(),
                    invocations,
                    back_edges,
                })
            })
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.score()));
        rows.truncate(n);
        rows
    }

    // ------------------------------------------------------------------
    // Flight-recorder emit points (crate-internal)
    // ------------------------------------------------------------------

    /// Records one event. The `trace_enabled` test is the *entire* cost
    /// when tracing is off.
    #[inline]
    pub(crate) fn trace_emit(
        &mut self,
        kind: crate::trace::EventKind,
        iso: Option<IsolateId>,
        tid: Option<ThreadId>,
        payload: u64,
    ) {
        if self.trace_enabled {
            self.trace_emit_cold(kind, iso, tid, payload);
        }
    }

    // Not `#[cold]`: with the recorder on this runs a dozen times per
    // cross-unit call, and cold-section placement is measurable there.
    // The off path never reaches it — `trace_emit`'s cached-bool branch
    // is the entire off cost — so normal layout loses nothing.
    #[inline(never)]
    fn trace_emit_cold(
        &mut self,
        kind: crate::trace::EventKind,
        iso: Option<IsolateId>,
        tid: Option<ThreadId>,
        payload: u64,
    ) {
        use crate::trace::{clamp_id, TraceEvent, TRACE_NONE};
        let Some(ts) = self.trace.as_mut() else {
            return;
        };
        let ev = TraceEvent {
            vclock: self.vclock,
            payload,
            wall_us: ts.wall.sample(self.vclock),
            kind,
            unit: ts.unit,
            isolate: iso.map_or(TRACE_NONE, |i| clamp_id(i.0 as u32)),
            thread: tid.map_or(TRACE_NONE, |t| clamp_id(t.0)),
        };
        ts.kind_counts[kind as usize] += 1;
        ts.events_recorded += 1;
        ts.ring.push(ev);
    }

    /// Records an exact-accounting CPU flush of `insns` instructions into
    /// `iso`. Every [`ResourceStats::charge_cpu`] call site pairs with
    /// exactly one of these, so per-isolate `CpuCharge` payload sums
    /// equal `cpu_exact`.
    #[inline]
    pub(crate) fn trace_cpu_charge(&mut self, iso: IsolateId, tid: Option<ThreadId>, insns: u64) {
        if self.trace_enabled {
            if let Some(ts) = self.trace.as_mut() {
                ts.cpu_charged_insns += insns;
            }
            self.trace_emit_cold(crate::trace::EventKind::CpuCharge, Some(iso), tid, insns);
        }
    }

    /// Records an outbound cross-unit request (`kind` distinguishes a
    /// blocking `Service.call` from a pipelined `Service.post`),
    /// remembering its send-time vclock so [`Vm::trace_reply_deliver`]
    /// can compute the round trip.
    #[inline]
    pub(crate) fn trace_call_send(
        &mut self,
        call: u64,
        iso: IsolateId,
        tid: ThreadId,
        kind: crate::trace::EventKind,
    ) {
        if self.trace_enabled {
            let vclock = self.vclock;
            if let Some(ts) = self.trace.as_mut() {
                ts.call_starts.push((call, vclock));
            }
            self.trace_emit_cold(kind, Some(iso), Some(tid), call);
        }
    }

    /// Records a reply reaching its destination — a blocked caller
    /// (`ReplyDeliver`) or a pending future (`FutureResolve`); the event
    /// payload is the call's round-trip latency in vclock ticks, which
    /// also feeds the [`crate::trace::LatencyHistogram`] behind
    /// [`Vm::metrics`]. `tid` may be `ThreadId(u32::MAX)` when no thread
    /// is parked on the future (the clamp maps it to "no thread").
    #[inline]
    pub(crate) fn trace_reply_deliver(
        &mut self,
        call: u64,
        tid: ThreadId,
        kind: crate::trace::EventKind,
    ) {
        if self.trace_enabled {
            let vclock = self.vclock;
            let mut latency = 0;
            if let Some(ts) = self.trace.as_mut() {
                if let Some(i) = ts.call_starts.iter().position(|&(c, _)| c == call) {
                    latency = vclock.saturating_sub(ts.call_starts.swap_remove(i).1);
                }
                ts.call_latency.record(latency);
            }
            self.trace_emit_cold(kind, None, Some(tid), latency);
        }
    }

    /// Records a mailbox drain of `n` envelopes, tracking the high-water
    /// mark.
    #[inline]
    pub(crate) fn trace_mail_drain(&mut self, n: u64) {
        if self.trace_enabled {
            if let Some(ts) = self.trace.as_mut() {
                ts.mailbox_high_water = ts.mailbox_high_water.max(n);
            }
            self.trace_emit_cold(crate::trace::EventKind::MailDrain, None, None, n);
        }
    }

    /// Estimated *isolation* metadata footprint: task-class-mirror arrays
    /// plus per-isolate string maps and counters (the Figure 3 overheads).
    /// Execution-engine metadata is deliberately excluded — prepared
    /// instruction streams exist identically in `Shared` and `Isolated`
    /// mode and would dilute the isolation-overhead ratio; see
    /// [`Vm::engine_metadata_bytes`].
    pub fn metadata_bytes(&self) -> usize {
        let mirrors: usize = self.classes.iter().map(|c| c.mirror_metadata_bytes()).sum();
        let isolates: usize = self.isolates.iter().map(|i| i.metadata_bytes()).sum();
        mirrors + isolates
    }

    /// Estimated footprint of the threaded engine's pre-decoded
    /// instruction streams, cell streams and side tables, across all
    /// methods that have executed at least once.
    pub fn engine_metadata_bytes(&self) -> usize {
        self.classes
            .iter()
            .flat_map(|c| &c.methods)
            .filter_map(|m| m.prepared.as_ref())
            .map(|p| p.metadata_bytes())
            .sum()
    }

    /// Lines printed by the guest through `System.println` so far,
    /// draining the buffer.
    pub fn take_console(&mut self) -> Vec<String> {
        std::mem::take(&mut self.console)
    }

    /// Appends a console line (used by print natives).
    pub fn console_print(&mut self, line: String) {
        self.console.push(line);
    }

    /// Pins an object as a host root (survives GC until unpinned). The
    /// handle is the lowest free slot.
    pub fn pin(&mut self, r: GcRef) -> usize {
        match self.free_pins.pop() {
            Some(Reverse(i)) => {
                self.host_roots[i] = Some(r);
                i
            }
            None => {
                self.host_roots.push(Some(r));
                self.host_roots.len() - 1
            }
        }
    }

    /// Releases a pinned root.
    pub fn unpin(&mut self, handle: usize) {
        if let Some(slot) = self.host_roots.get_mut(handle) {
            if slot.take().is_some() {
                self.free_pins.push(Reverse(handle));
            }
        }
    }

    /// Replaces the host-root table (checkpoint restore), rebuilding its
    /// free-slot index.
    pub(crate) fn restore_host_roots(&mut self, roots: Vec<Option<GcRef>>) {
        self.free_pins = roots
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_none())
            .map(|(i, _)| Reverse(i))
            .collect();
        self.host_roots = roots;
    }

    /// Reads a pinned root back.
    pub fn pinned(&self, handle: usize) -> Option<GcRef> {
        self.host_roots.get(handle).copied().flatten()
    }

    /// Direct heap access for embedders (read-only).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Direct mutable heap access for embedders (the OSGi layer and the
    /// communication models use this to copy object graphs).
    pub fn heap_mut(&mut self) -> &mut Heap {
        &mut self.heap
    }

    /// Marks an object as an accountable connection and charges its
    /// creation to `iso` (paper §3.2).
    pub fn mark_connection(&mut self, r: GcRef, iso: IsolateId) {
        self.heap.get_mut(r).is_connection = true;
        if self.options.accounting {
            if let Some(i) = self.isolates.get_mut(iso.0 as usize) {
                i.stats.connections_opened += 1;
            }
        }
    }

    /// Charges I/O to `iso` (paper §3.2, JRes-style instrumented streams).
    pub fn charge_io(&mut self, iso: IsolateId, read: u64, written: u64) {
        if self.options.accounting {
            if let Some(i) = self.isolates.get_mut(iso.0 as usize) {
                i.stats.io_read_bytes += read;
                i.stats.io_written_bytes += written;
            }
        }
    }

    /// Marks the VM as exited with `code` (`System.exit`).
    pub fn request_exit(&mut self, code: i32) {
        self.exit_code = Some(code);
    }

    // ------------------------------------------------------------------
    // Native-support API (used by `ijvm-jsl` / `ijvm-osgi` intrinsics)
    // ------------------------------------------------------------------

    /// The isolate `tid` is currently executing in.
    pub fn current_isolate(&self, tid: ThreadId) -> IsolateId {
        self.threads[tid.0 as usize].current_isolate
    }

    /// Runs `f` with `r` kept reachable, for a native on `tid` that holds
    /// a fresh object across a further allocation (which may collect).
    /// `r` sits on the operand stack of the frame that called the native
    /// while `f` runs — a root of that frame's isolate, like the native's
    /// own arguments — and is gone when `f` returns.
    pub fn with_native_root<T>(
        &mut self,
        tid: ThreadId,
        r: GcRef,
        f: impl FnOnce(&mut Vm) -> T,
    ) -> T {
        let t = tid.0 as usize;
        let caller = self.threads[t].frames.len() - 1;
        let at = self.threads[t].frames[caller].stack.len();
        self.threads[t].frames[caller].stack.push(Value::Ref(r));
        let out = f(self);
        self.threads[t].frames[caller].stack.remove(at);
        out
    }

    /// Parks the current thread for `duration` virtual nanoseconds
    /// (1 interpreted instruction ≈ 1 virtual ns). Used by `Thread.sleep`.
    pub fn native_sleep(&mut self, tid: ThreadId, duration: u64) {
        let until = self.vclock.saturating_add(duration.max(1));
        self.threads[tid.0 as usize].state = ThreadState::Sleeping { until };
        if self.options.accounting {
            let iso = self.threads[tid.0 as usize].creator_isolate;
            if let Some(i) = self.isolates.get_mut(iso.0 as usize) {
                i.stats.threads_parked += 1;
            }
        }
    }

    /// Blocks `tid` until `target` terminates. Used by `Thread.join`.
    /// Returns `false` (no block) when the target is already done.
    pub fn native_join(&mut self, tid: ThreadId, target: ThreadId) -> bool {
        if self
            .threads
            .get(target.0 as usize)
            .map(|t| t.is_terminated())
            .unwrap_or(true)
        {
            return false;
        }
        self.threads[tid.0 as usize].state = ThreadState::BlockedOnJoin(target);
        true
    }

    /// Reads and clears the interrupt flag of `tid`.
    pub fn take_interrupted(&mut self, tid: ThreadId) -> bool {
        std::mem::take(&mut self.threads[tid.0 as usize].interrupted)
    }

    /// Sets the interrupt flag of `tid` and wakes it if parked.
    pub fn interrupt(&mut self, tid: ThreadId) {
        self.threads[tid.0 as usize].interrupted = true;
        self.poll_unblock();
    }

    /// Spawns a green thread executing the *virtual* method
    /// `name:descriptor` on `receiver` (e.g. `Runnable.run()V`), charged
    /// to `creator`. Used by `Thread.start`, so the thread is marked
    /// guest-started and [`Vm::release_thread`] keeps its slot.
    pub fn spawn_thread_on(
        &mut self,
        thread_name: &str,
        receiver: GcRef,
        name: &str,
        descriptor: &str,
        creator: IsolateId,
    ) -> Result<ThreadId> {
        let class = self.heap.get(receiver).class;
        let mref =
            crate::interp::lookup_virtual(self, class, name, descriptor).ok_or_else(|| {
                VmError::NoSuchMember {
                    what: format!(
                        "{}.{}:{}",
                        self.classes[class.0 as usize].name, name, descriptor
                    ),
                }
            })?;
        let tid = self.spawn_thread(thread_name, mref, vec![Value::Ref(receiver)], creator)?;
        self.threads[tid.0 as usize].guest_started = true;
        Ok(tid)
    }

    /// Whether a live-thread slot is still available (thread-creation
    /// attacks exhaust this, A5).
    pub fn can_spawn_thread(&self) -> bool {
        self.threads.iter().filter(|t| !t.is_terminated()).count() < self.options.max_threads
    }

    /// Per-thread state, for administrators and tests.
    pub fn thread_state_of(&self, tid: ThreadId) -> Result<ThreadState> {
        Ok(self.thread(tid)?.state)
    }

    /// The value returned by `tid`'s entry method, if it finished.
    pub fn thread_result(&self, tid: ThreadId) -> Option<Value> {
        self.threads.get(tid.0 as usize).and_then(|t| t.result)
    }

    /// Drops a finished thread's result and uncaught-exception slots so
    /// the collector can reclaim anything they referenced. Callers that
    /// keep a returned reference must pin it first.
    pub fn clear_thread_result(&mut self, tid: ThreadId) {
        if let Some(t) = self.threads.get_mut(tid.0 as usize) {
            t.result = None;
            t.uncaught = None;
        }
    }

    /// Adds `delegate` to `loader`'s delegation list: class resolution
    /// consults delegates after the bootstrap loader. This is how the OSGi
    /// framework wires bundle imports so a bundle can reference another
    /// bundle's classes (e.g. attack A1 referencing a victim's statics).
    pub fn add_loader_delegate(&mut self, loader: LoaderId, delegate: LoaderId) {
        let l = &mut self.loaders[loader.0 as usize];
        if !l.delegates.contains(&delegate) {
            l.delegates.push(delegate);
        }
    }

    /// State of one isolate.
    pub fn isolate_state(&self, iso: IsolateId) -> Result<IsolateState> {
        Ok(self.isolate(iso)?.state)
    }

    // ------------------------------------------------------------------
    // Public allocation and field helpers (for native implementations)
    // ------------------------------------------------------------------

    /// Allocates an instance of `class` charged to `iso`, with default
    /// field values and no constructor run. Returns `None` when the heap
    /// limit would be exceeded even after a collection (callers turn this
    /// into `OutOfMemoryError`).
    pub fn alloc_object(&mut self, class: ClassId, iso: IsolateId) -> Option<GcRef> {
        self.alloc_instance(class, iso).ok()
    }

    /// Allocates an `Object[]`-style reference array with the given
    /// element descriptor, charged to `iso`.
    pub fn alloc_ref_array(
        &mut self,
        iso: IsolateId,
        elem_desc: &str,
        len: usize,
    ) -> Option<GcRef> {
        self.alloc_zeroed_array(iso, elem_desc, len).ok()
    }

    /// Allocates a `char[]` with the given contents, charged to `iso`.
    pub fn alloc_chars(&mut self, iso: IsolateId, chars: &[u16]) -> Option<GcRef> {
        self.alloc_array(iso, ObjBody::ArrChar(chars.into()))
    }

    /// Allocates an array holding `body`, charged to `iso` at its real
    /// size. Returns `None` when the heap limit would be exceeded even
    /// after a collection.
    ///
    /// # Panics
    ///
    /// If `body` is not an array body.
    pub fn alloc_array(&mut self, iso: IsolateId, body: ObjBody) -> Option<GcRef> {
        let ref_desc;
        let desc = match &body {
            ObjBody::Fields(_) => panic!("alloc_array: not an array body"),
            ObjBody::ArrBool(_) => "[Z",
            ObjBody::ArrByte(_) => "[B",
            ObjBody::ArrChar(_) => "[C",
            ObjBody::ArrShort(_) => "[S",
            ObjBody::ArrInt(_) => "[I",
            ObjBody::ArrLong(_) => "[J",
            ObjBody::ArrFloat(_) => "[F",
            ObjBody::ArrDouble(_) => "[D",
            ObjBody::ArrRef { elem_desc, .. } => {
                ref_desc = format!("[{elem_desc}");
                &ref_desc
            }
        };
        let size = crate::heap::OBJECT_HEADER_BYTES + body.payload_bytes();
        self.check_heap(size, iso).ok()?;
        let obj_class = self.well_known.object.expect("bootstrap installed");
        Some(self.alloc_raw(obj_class, iso, body, desc))
    }

    /// Allocates a zero- (or null-) filled array of `len` elements of
    /// type `elem_desc` (`I`, `Ljava/lang/Object;`, `[C`, ...), charged
    /// to `iso` — `newarray` and `anewarray`. The heap check runs before
    /// the body is built, so a hostile length fails with
    /// `OutOfMemoryError` instead of making the host allocate it.
    pub(crate) fn alloc_zeroed_array(
        &mut self,
        iso: IsolateId,
        elem_desc: &str,
        len: usize,
    ) -> std::result::Result<GcRef, Thrown> {
        let kind = elem_desc.as_bytes().first().copied().unwrap_or(b'L');
        let elem_bytes = match kind {
            b'Z' | b'B' => 1,
            b'C' | b'S' => 2,
            b'I' | b'F' => 4,
            _ => 8,
        };
        self.check_heap(crate::heap::OBJECT_HEADER_BYTES + len * elem_bytes, iso)?;
        let body = match kind {
            b'Z' => ObjBody::ArrBool(vec![0; len].into()),
            b'B' => ObjBody::ArrByte(vec![0; len].into()),
            b'C' => ObjBody::ArrChar(vec![0; len].into()),
            b'S' => ObjBody::ArrShort(vec![0; len].into()),
            b'I' => ObjBody::ArrInt(vec![0; len].into()),
            b'J' => ObjBody::ArrLong(vec![0; len].into()),
            b'F' => ObjBody::ArrFloat(vec![0.0; len].into()),
            b'D' => ObjBody::ArrDouble(vec![0.0; len].into()),
            _ => ObjBody::ArrRef {
                elem_desc: elem_desc.to_owned(),
                data: vec![Value::Null; len].into(),
            },
        };
        let obj_class = self.well_known.object.expect("bootstrap installed");
        Ok(self.alloc_raw(obj_class, iso, body, &format!("[{elem_desc}")))
    }

    /// Reads an instance field by name (searching the flattened layout).
    pub fn get_field(&self, obj: GcRef, name: &str) -> Option<Value> {
        let o = self.heap.get(obj);
        let slot = self.classes[o.class.0 as usize].find_instance_slot(name)?;
        match &o.body {
            ObjBody::Fields(fields) => fields.get(slot as usize).copied(),
            _ => None,
        }
    }

    /// Writes an instance field by name. Returns `false` when the field
    /// does not exist.
    pub fn set_field(&mut self, obj: GcRef, name: &str, v: Value) -> bool {
        let class = self.heap.get(obj).class;
        let Some(slot) = self.classes[class.0 as usize].find_instance_slot(name) else {
            return false;
        };
        match &mut self.heap.get_mut(obj).body {
            ObjBody::Fields(fields) => {
                fields[slot as usize] = v;
                true
            }
            _ => false,
        }
    }
}

fn code_stack_hint(class: &RuntimeClass, index: u16) -> usize {
    class.methods[index as usize]
        .code
        .as_ref()
        .map(|c| c.max_stack as usize)
        .unwrap_or(0)
}
