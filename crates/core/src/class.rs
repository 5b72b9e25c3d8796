//! Runtime representation of loaded classes, including the per-isolate
//! *task class mirror* that carries static variables, the initialization
//! state and the `java.lang.Class` object (paper §3.1, after MVM).

use crate::ids::{ClassId, IsolateId, LoaderId, MethodRef, ThreadId};
use crate::value::{GcRef, Value};
use crate::vmrc::VmRc;
use ijvm_classfile::{AccessFlags, ConstPool, ExceptionTableEntry};
use std::sync::Arc;

/// A field (static or instance) as seen at runtime.
#[derive(Debug, Clone)]
pub(crate) struct FieldDesc {
    /// Field name.
    pub(crate) name: Arc<str>,
    /// Field descriptor.
    pub(crate) descriptor: Arc<str>,
}

/// The executable body of a bytecode method.
#[derive(Debug)]
pub struct CodeBody {
    /// Maximum operand-stack depth.
    pub max_stack: u16,
    /// Local-variable slot count.
    pub max_locals: u16,
    /// Raw bytecode.
    pub bytes: Vec<u8>,
    /// Exception handlers in priority order.
    pub handlers: Vec<ExceptionTableEntry>,
}

/// A method as seen at runtime. Not `Clone`: it owns unit-confined
/// `VmRc` handles (see `crate::vmrc`), which only crate code may
/// share.
#[derive(Debug)]
pub struct RuntimeMethod {
    /// Method name.
    pub(crate) name: Arc<str>,
    /// Method descriptor.
    pub(crate) descriptor: Arc<str>,
    /// Access flags.
    pub(crate) access: AccessFlags,
    /// Argument slot count *including* the receiver for instance methods.
    pub(crate) arg_slots: u16,
    /// `true` when the method returns a value.
    pub(crate) returns_value: bool,
    /// Bytecode body (`None` for native/abstract methods).
    pub(crate) code: Option<VmRc<CodeBody>>,
    /// Pre-decoded instruction stream for the threaded engine, built
    /// lazily on first execution and dropped with the owning loader.
    pub prepared: Option<VmRc<crate::engine::PreparedCode>>,
    /// Index into the VM's native-function table, bound lazily.
    pub(crate) native_idx: Option<u32>,
    /// Virtual-table slot, for non-static non-private non-init methods.
    pub(crate) vslot: Option<u32>,
    /// `true` for `synchronized` methods.
    pub(crate) synchronized: bool,
}

impl RuntimeMethod {
    /// `true` for static methods.
    pub(crate) fn is_static(&self) -> bool {
        self.access.is_static()
    }
}

/// Initialization state of a (class, isolate) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InitState {
    /// `<clinit>` has not run in this isolate.
    Uninitialized,
    /// `<clinit>` is running on the given thread.
    InProgress(ThreadId),
    /// Initialization completed.
    Initialized,
    /// Initialization failed; further use throws.
    Failed,
}

/// The per-isolate state of a class: its static variables, initialization
/// state and `java.lang.Class` object (paper §3.1, "task class mirror").
#[derive(Debug, Clone)]
pub struct TaskClassMirror {
    /// Initialization state in the owning isolate.
    pub(crate) init: InitState,
    /// Static-variable slots, in `static_fields` order.
    pub statics: Box<[Value]>,
    /// The isolate-private `java.lang.Class` object.
    pub(crate) class_object: GcRef,
}

/// A resolved runtime-constant-pool entry (lazily filled cache).
#[derive(Debug, Clone, Default)]
pub(crate) enum RtCp {
    /// Not resolved yet.
    #[default]
    Untouched,
    /// A resolved class reference.
    Class(ClassTarget),
    /// Resolved instance field: flattened slot index.
    InstanceField {
        /// Slot in the object's field array.
        slot: u32,
    },
    /// Resolved static field: the defining class and slot in its statics.
    StaticField {
        /// Class whose mirror holds the slot.
        class: ClassId,
        /// Slot index in the mirror's statics array.
        slot: u32,
    },
    /// Shared-mode only: resolved static field whose class is known
    /// initialized — the init check is elided, as LadyVM's JIT does after
    /// first compilation. I-JVM cannot do this (paper §3.1: compiled code
    /// must stay reentrant across isolates), which is where its
    /// static-access overhead comes from.
    StaticFieldInit {
        /// Class whose mirror holds the slot.
        class: ClassId,
        /// Slot index in the mirror's statics array.
        slot: u32,
    },
    /// Shared-mode only: `new` target known initialized (check elided).
    ClassInit(ClassId),
    /// Shared-mode only: static call target known initialized.
    DirectMethodInit(MethodRef),
    /// Resolved static or special (non-virtual) call target.
    DirectMethod(MethodRef),
    /// Resolved virtual call: vtable slot + argument count.
    VirtualMethod {
        /// Slot in the receiver's vtable.
        vslot: u32,
        /// Argument slots including receiver.
        arg_slots: u16,
    },
    /// Interface call: dispatched by name/descriptor lookup with a
    /// per-call-site inline cache.
    InterfaceMethod {
        /// Method name.
        name: Arc<str>,
        /// Method descriptor.
        descriptor: Arc<str>,
        /// Argument slots including receiver.
        arg_slots: u16,
        /// Inline cache: last receiver class and resolved target.
        cache: Option<(ClassId, MethodRef)>,
    },
}

/// What a `Class` constant refers to: a real class or an array type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ClassTarget {
    /// A loaded class.
    Class(ClassId),
    /// An array type, kept as its descriptor (e.g. `[I`, `[Ljava/lang/String;`).
    Array(String),
}

/// A loaded, linked class.
#[derive(Debug)]
pub struct RuntimeClass {
    /// Internal name (`java/lang/String`).
    pub name: Arc<str>,
    /// Defining loader.
    pub(crate) loader: LoaderId,
    /// Isolate of the defining loader. For system-library classes this is
    /// `Isolate0`, but system code always *executes* in the caller's isolate.
    pub(crate) isolate: IsolateId,
    /// `true` for Java System Library classes (bootstrap loader): they run
    /// in the calling isolate and their frames are charged to the caller
    /// (paper §3.1, §3.2).
    pub(crate) is_system: bool,
    /// Superclass (`None` for `java/lang/Object`).
    pub(crate) super_class: Option<ClassId>,
    /// Directly implemented interfaces.
    pub(crate) interfaces: Vec<ClassId>,
    /// Flattened instance fields: inherited fields first, then own.
    pub(crate) instance_fields: Vec<FieldDesc>,
    /// Static fields declared by *this* class only.
    pub(crate) static_fields: Vec<FieldDesc>,
    /// Declared methods.
    pub methods: Vec<RuntimeMethod>,
    /// Virtual dispatch table (inherits and overrides the super's).
    pub(crate) vtable: Vec<MethodRef>,
    /// The class-file constant pool.
    pub(crate) pool: ConstPool,
    /// Runtime constant-pool resolution cache, indexed by `CpIndex`.
    pub(crate) rtcp: Vec<RtCp>,
    /// Task class mirrors, indexed by isolate id. In `Shared` isolation
    /// mode only index 0 is ever used — that is exactly the difference
    /// between LadyVM and I-JVM.
    pub mirrors: Vec<Option<TaskClassMirror>>,
    /// Set when the defining isolate has been terminated: every call into
    /// this class throws `StoppedIsolateException` (paper §3.3).
    pub(crate) poisoned: bool,
}

impl RuntimeClass {
    /// Finds a declared method by name and descriptor.
    pub fn find_method(&self, name: &str, descriptor: &str) -> Option<u16> {
        self.methods
            .iter()
            .position(|m| &*m.name == name && &*m.descriptor == descriptor)
            .map(|i| i as u16)
    }

    /// Finds a declared static field by name, returning its slot.
    pub fn find_static_slot(&self, name: &str) -> Option<u32> {
        self.static_fields
            .iter()
            .position(|f| &*f.name == name)
            .map(|i| i as u32)
    }

    /// Finds an instance field by name in the flattened layout
    /// (searching from the back so shadowing fields win).
    pub(crate) fn find_instance_slot(&self, name: &str) -> Option<u32> {
        self.instance_fields
            .iter()
            .rposition(|f| &*f.name == name)
            .map(|i| i as u32)
    }

    /// Returns the mirror for `iso`, if created.
    pub fn mirror(&self, iso: IsolateId) -> Option<&TaskClassMirror> {
        self.mirrors.get(iso.0 as usize).and_then(|m| m.as_ref())
    }

    /// Rough metadata footprint of this class's mirrors, for the Figure 3
    /// memory measurements: the mirror array itself plus each mirror's
    /// statics array and bookkeeping.
    pub(crate) fn mirror_metadata_bytes(&self) -> usize {
        let per_mirror = |m: &TaskClassMirror| 16 + m.statics.len() * 8 + 8;
        self.mirrors.len() * 8 + self.mirrors.iter().flatten().map(per_mirror).sum::<usize>()
    }
}
