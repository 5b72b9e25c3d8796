//! # ijvm-core — the I-JVM virtual machine
//!
//! A from-scratch Java-style virtual machine implementing the design of
//! *"I-JVM: a Java Virtual Machine for Component Isolation in OSGi"*
//! (Geoffray, Thomas, Muller, Parrend, Frénot, Folliot — DSN 2009):
//!
//! * **Lightweight isolates** — one per class loader; per-isolate *task
//!   class mirrors* hold static variables, interned strings and
//!   `java.lang.Class` objects, so bundles cannot corrupt or lock each
//!   other's shared state.
//! * **Thread migration** — an inter-isolate call is a direct method call
//!   that updates the thread's isolate reference; objects are shared by
//!   passing references, with no RPC or copying.
//! * **Resource accounting** — per-isolate CPU (sampled), memory
//!   (recomputed by the GC, charging each object to the first isolate that
//!   references it), threads, I/O, connections and GC activations.
//! * **Isolate termination** — stack patching raises an uncatchable
//!   `StoppedIsolateException` in code returning to a terminated isolate,
//!   and every method of the isolate is poisoned.
//! * **Cluster scheduling** ([`sched`]) — beyond the paper: whole VMs
//!   are `Send` execution units scheduled across OS workers with
//!   per-worker run queues and work stealing, keeping per-isolate CPU
//!   accounting exact at every migration point and delivering isolate
//!   termination cross-worker.
//!
//! The same VM runs in [`vm::IsolationMode::Shared`] as the *baseline*
//! (the unmodified "LadyVM"/"Sun JVM" whose vulnerabilities the paper
//! demonstrates) and in [`vm::IsolationMode::Isolated`] as I-JVM; every
//! overhead the paper measures is the delta between the two modes on
//! identical bytecode.
//!
//! ```
//! use ijvm_core::prelude::*;
//! use ijvm_classfile::{AccessFlags, ClassBuilder, Opcode};
//!
//! let mut vm = Vm::new(VmOptions::isolated());
//! ijvm_core::bootstrap::install(&mut vm).unwrap();
//! let iso = vm.create_isolate("demo");
//! let loader = vm.loader_of(iso).unwrap();
//!
//! let mut cb = ClassBuilder::new("Demo", "java/lang/Object", AccessFlags::PUBLIC);
//! let mut m = cb.method("addOne", "(I)I", AccessFlags::PUBLIC | AccessFlags::STATIC);
//! m.iload(0);
//! m.const_int(1);
//! m.op(Opcode::Iadd);
//! m.op(Opcode::Ireturn);
//! m.done().unwrap();
//! let bytes = ijvm_classfile::writer::write_class(&cb.build().unwrap()).unwrap();
//!
//! vm.add_class_bytes(loader, "Demo", bytes);
//! let class = vm.load_class(loader, "Demo").unwrap();
//! let out = vm.call_static(class, "addOne", "(I)I", vec![Value::Int(41)]).unwrap();
//! assert_eq!(out, Some(Value::Int(42)));
//! ```

pub mod accounting;
pub mod bootstrap;
pub mod checkpoint;
pub mod class;
pub mod engine;
pub mod error;
pub(crate) mod gc;
pub mod heap;
pub mod ids;
pub(crate) mod interp;
pub mod isolate;
pub(crate) mod mailbox;
pub(crate) mod monitor;
pub mod natives;
pub mod port;
pub mod sched;
pub(crate) mod terminate;
pub mod thread;
pub mod trace;
pub mod value;
pub mod vm;
pub(crate) mod vmrc;
pub mod wire;

// Concurrency models over the crate-private cluster protocols; see the
// module docs for the `--cfg loom` invocation and the offline-stub
// semantics.
#[cfg(all(test, loom))]
mod loom_models;

/// The most commonly used types, for glob import.
pub mod prelude {
    pub use crate::accounting::{IsolateSnapshot, ResourceStats};
    pub use crate::checkpoint::{CheckpointError, UnitImage};
    pub use crate::engine::EngineKind;
    pub use crate::error::{Result as VmResult, VmError};
    pub use crate::ids::{ClassId, IsolateId, LoaderId, MethodRef, ThreadId};
    pub use crate::isolate::IsolateState;
    pub use crate::natives::{NativeFn, NativeResult};
    pub use crate::port::{ExportError, HubStats, MailboxStat, ServiceStat};
    pub use crate::sched::{
        CheckpointTicket, Cluster, ClusterBuilder, ClusterOutcome, SchedulerKind, UnitHandle,
        UnitId, UnitOutcome,
    };
    pub use crate::trace::{
        ClusterMetrics, EventKind, LatencyHistogram, MethodHotness, TraceConfig, TraceEvent,
        TraceRing, TraceSink, VmMetrics,
    };
    pub use crate::value::{GcRef, Value};
    pub use crate::vm::{IsolationMode, RunOutcome, Vm, VmOptions};
}

pub use crate::error::{Result, VmError};
pub use crate::ids::{ClassId, IsolateId, LoaderId, MethodRef, ThreadId};
pub use crate::value::{GcRef, Value};
pub use crate::vm::{IsolationMode, RunOutcome, Vm, VmOptions};
