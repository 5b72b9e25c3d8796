//! Small typed identifiers used across the VM.

use std::fmt;

/// Identifies a loaded class inside one [`crate::vm::Vm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u32);

/// Identifies an isolate. `IsolateId(0)` is always `Isolate0`, the
/// privileged isolate the OSGi runtime executes in (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IsolateId(pub u16);

impl IsolateId {
    /// The privileged isolate.
    pub(crate) const ISOLATE0: IsolateId = IsolateId(0);

    /// `true` for `Isolate0`.
    pub fn is_privileged(self) -> bool {
        self.0 == 0
    }
}

/// Identifies a green thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub u32);

/// Identifies a class loader. The bootstrap loader is `LoaderId(0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoaderId(pub u16);

impl LoaderId {
    /// The bootstrap loader holding the Java System Library.
    pub const BOOTSTRAP: LoaderId = LoaderId(0);
}

/// A method within a class: `(class, index into the class's method table)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MethodRef {
    /// Defining class.
    pub class: ClassId,
    /// Index into [`crate::class::RuntimeClass::methods`].
    pub index: u16,
}

impl fmt::Display for IsolateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "isolate{}", self.0)
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread{}", self.0)
    }
}
