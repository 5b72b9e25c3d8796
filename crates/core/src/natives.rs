//! Native-method registry.
//!
//! Native methods are host (Rust) functions bound to `native` methods of
//! loaded classes. The Java System Library (`ijvm-jsl`) and the OSGi
//! framework (`ijvm-osgi`) register their intrinsics here before loading
//! code that uses them.

use crate::error::VmError;
use crate::ids::ThreadId;
use crate::value::{GcRef, Value};
use crate::vm::Vm;
use std::collections::HashMap;
use std::sync::Arc;

/// Outcome of a native call.
#[derive(Debug)]
pub enum NativeResult {
    /// Normal completion with an optional return value (must match the
    /// method descriptor: `Some` for value-returning methods).
    Return(Option<Value>),
    /// Throw a new exception of the named class with a message.
    Throw {
        /// Internal name of the exception class (must be a system class).
        class_name: &'static str,
        /// Detail message.
        message: String,
    },
    /// Throw an existing exception object.
    ThrowRef(GcRef),
    /// The native has parked the calling thread (set its state itself);
    /// when the thread resumes, the call completes with this value.
    BlockReturn(Option<Value>),
    /// The native has parked the calling thread (set its state itself)
    /// and the call's result is not known yet: whoever wakes the thread
    /// must first push the return value onto its top frame's operand
    /// stack (or install a pending exception). Used by the cross-unit
    /// service layer ([`crate::port`]), where the reply arrives later.
    BlockPending,
    /// Host-level failure; aborts the VM run.
    Fail(VmError),
}

/// Signature of a native implementation. Arguments include the receiver
/// (slot 0) for instance methods. `Send + Sync` because a whole [`Vm`]
/// is a `Send` execution unit under the parallel scheduler
/// ([`crate::sched`]): the registry migrates with the VM across worker
/// threads, so natives may only capture thread-safe state.
pub type NativeFn = Arc<dyn Fn(&mut Vm, ThreadId, &[Value]) -> NativeResult + Send + Sync>;

/// Registry keyed by `(class_name, method_name, descriptor)`.
#[derive(Default)]
pub(crate) struct NativeRegistry {
    fns: Vec<NativeFn>,
    index: HashMap<(String, String, String), u32>,
}

impl std::fmt::Debug for NativeRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeRegistry")
            .field("bound", &self.fns.len())
            .finish()
    }
}

impl NativeRegistry {
    /// Creates an empty registry.
    pub(crate) fn new() -> NativeRegistry {
        NativeRegistry::default()
    }

    /// Registers (or replaces) a native implementation.
    pub(crate) fn register(
        &mut self,
        class_name: &str,
        method_name: &str,
        descriptor: &str,
        f: NativeFn,
    ) {
        let key = (
            class_name.to_owned(),
            method_name.to_owned(),
            descriptor.to_owned(),
        );
        match self.index.get(&key) {
            Some(&idx) => self.fns[idx as usize] = f,
            None => {
                let idx = self.fns.len() as u32;
                self.fns.push(f);
                self.index.insert(key, idx);
            }
        }
    }

    /// Looks up the binding index for a native method.
    pub(crate) fn lookup(
        &self,
        class_name: &str,
        method_name: &str,
        descriptor: &str,
    ) -> Option<u32> {
        self.index
            .get(&(
                class_name.to_owned(),
                method_name.to_owned(),
                descriptor.to_owned(),
            ))
            .copied()
    }

    /// Fetches a bound function by index (cheap `Arc` clone so the caller
    /// can invoke it while mutating the VM).
    pub(crate) fn get(&self, idx: u32) -> NativeFn {
        Arc::clone(&self.fns[idx as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut reg = NativeRegistry::new();
        assert!(reg.lookup("C", "m", "()V").is_none());
        reg.register(
            "C",
            "m",
            "()V",
            Arc::new(|_, _, _| NativeResult::Return(None)),
        );
        let idx = reg.lookup("C", "m", "()V").unwrap();
        assert_eq!(reg.fns.len(), 1);
        // Re-registering replaces in place.
        reg.register(
            "C",
            "m",
            "()V",
            Arc::new(|_, _, _| NativeResult::Return(Some(Value::Int(1)))),
        );
        assert_eq!(reg.lookup("C", "m", "()V").unwrap(), idx);
        assert_eq!(reg.fns.len(), 1);
    }
}
