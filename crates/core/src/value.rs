//! Runtime values and heap references.

use std::fmt;

/// A handle to a heap object. Handles are slab indices and stay stable for
/// the lifetime of the object (the collector does not move objects).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GcRef(pub u32);

/// A single operand-stack / local-variable slot.
///
/// Per the crate-wide single-slot model, `long` and `double` occupy one
/// slot. `Null` is the null reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// `int`, `short`, `char`, `byte`, `boolean` (all widened to i32).
    Int(i32),
    /// `long`.
    Long(i64),
    /// `float`.
    Float(f32),
    /// `double`.
    Double(f64),
    /// The null reference.
    Null,
    /// A non-null object reference.
    Ref(GcRef),
}

impl Value {
    /// The default value for a field of the given descriptor.
    pub(crate) fn default_for_descriptor(desc: &str) -> Value {
        match desc.as_bytes().first() {
            Some(b'J') => Value::Long(0),
            Some(b'F') => Value::Float(0.0),
            Some(b'D') => Value::Double(0.0),
            Some(b'L') | Some(b'[') => Value::Null,
            _ => Value::Int(0),
        }
    }

    /// Reads an `int`, panicking on type confusion (the verifier and the
    /// compiler guarantee well-typed stacks; a mismatch is a VM bug).
    pub fn as_int(self) -> i32 {
        match self {
            Value::Int(v) => v,
            other => panic!("expected Int, found {other:?}"),
        }
    }

    /// Reads a `long`.
    pub fn as_long(self) -> i64 {
        match self {
            Value::Long(v) => v,
            other => panic!("expected Long, found {other:?}"),
        }
    }

    /// Reads a `float`.
    pub(crate) fn as_float(self) -> f32 {
        match self {
            Value::Float(v) => v,
            other => panic!("expected Float, found {other:?}"),
        }
    }

    /// Reads a `double`.
    pub fn as_double(self) -> f64 {
        match self {
            Value::Double(v) => v,
            other => panic!("expected Double, found {other:?}"),
        }
    }

    /// Reads a reference, returning `None` for null.
    pub fn as_ref(self) -> Option<GcRef> {
        match self {
            Value::Null => None,
            Value::Ref(r) => Some(r),
            other => panic!("expected reference, found {other:?}"),
        }
    }

    /// Reference equality as used by `if_acmpeq`.
    pub fn ref_eq(self, other: Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Ref(a), Value::Ref(b)) => a == b,
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Long(v) => write!(f, "{v}L"),
            Value::Float(v) => write!(f, "{v}f"),
            Value::Double(v) => write!(f, "{v}d"),
            Value::Null => write!(f, "null"),
            Value::Ref(r) => write!(f, "@{}", r.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_descriptors() {
        assert_eq!(Value::default_for_descriptor("I"), Value::Int(0));
        assert_eq!(Value::default_for_descriptor("Z"), Value::Int(0));
        assert_eq!(Value::default_for_descriptor("J"), Value::Long(0));
        assert_eq!(Value::default_for_descriptor("D"), Value::Double(0.0));
        assert_eq!(
            Value::default_for_descriptor("Ljava/lang/String;"),
            Value::Null
        );
        assert_eq!(Value::default_for_descriptor("[I"), Value::Null);
    }

    #[test]
    fn ref_eq_semantics() {
        let a = Value::Ref(GcRef(1));
        let b = Value::Ref(GcRef(2));
        assert!(a.ref_eq(a));
        assert!(!a.ref_eq(b));
        assert!(Value::Null.ref_eq(Value::Null));
        assert!(!a.ref_eq(Value::Null));
    }
}
