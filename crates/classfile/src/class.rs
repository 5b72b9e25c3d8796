//! The class-file data model: classes, fields, methods, code attributes.

use crate::constant::{ConstPool, CpIndex};
use crate::error::{ClassFileError, Result};
use crate::flags::AccessFlags;

/// One entry in a method's exception table.
///
/// If an exception of (a subclass of) `catch_type` is thrown while the pc is
/// in `[start_pc, end_pc)`, control transfers to `handler_pc`. A
/// `catch_type` of 0 catches everything (used for `finally`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExceptionTableEntry {
    /// Start of the protected range (inclusive).
    pub start_pc: u32,
    /// End of the protected range (exclusive).
    pub end_pc: u32,
    /// Handler entry point.
    pub handler_pc: u32,
    /// Constant-pool `Class` index of the caught type, or 0 for catch-all.
    pub catch_type: CpIndex,
}

/// The body of a non-native, non-abstract method.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Code {
    /// Maximum operand-stack depth (one slot per value).
    pub max_stack: u16,
    /// Number of local-variable slots, including parameters and receiver.
    pub max_locals: u16,
    /// Raw bytecode.
    pub code: Vec<u8>,
    /// Exception handlers, in priority order.
    pub exception_table: Vec<ExceptionTableEntry>,
}

/// A generic named attribute (forward compatibility; the reader preserves
/// attributes it does not understand).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// `Utf8` constant-pool index of the attribute name.
    pub name: CpIndex,
    /// Raw attribute payload.
    pub data: Vec<u8>,
}

/// A field declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldInfo {
    /// Access flags (`STATIC` decides static vs. instance).
    pub access: AccessFlags,
    /// `Utf8` index of the field name.
    pub name: CpIndex,
    /// `Utf8` index of the field descriptor.
    pub descriptor: CpIndex,
}

/// A method declaration, optionally with code.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodInfo {
    /// Access flags (`NATIVE`/`ABSTRACT` methods have no code).
    pub access: AccessFlags,
    /// `Utf8` index of the method name (`<init>` for constructors,
    /// `<clinit>` for the class initializer).
    pub name: CpIndex,
    /// `Utf8` index of the method descriptor.
    pub descriptor: CpIndex,
    /// Bytecode body; `None` for native and abstract methods.
    pub code: Option<Code>,
}

/// An in-memory class file.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassFile {
    /// Minor format version.
    pub minor_version: u16,
    /// Major format version.
    pub major_version: u16,
    /// The constant pool.
    pub pool: ConstPool,
    /// Class-level access flags.
    pub access: AccessFlags,
    /// `Class` constant-pool index of this class.
    pub this_class: CpIndex,
    /// `Class` index of the superclass; 0 only for `java/lang/Object`.
    pub super_class: CpIndex,
    /// `Class` indices of directly implemented interfaces.
    pub interfaces: Vec<CpIndex>,
    /// Declared fields (static and instance).
    pub fields: Vec<FieldInfo>,
    /// Declared methods.
    pub methods: Vec<MethodInfo>,
    /// Class-level attributes (preserved, not interpreted).
    pub attributes: Vec<Attribute>,
}

impl ClassFile {
    /// Internal name of this class (e.g. `com/example/Foo`).
    pub fn name(&self) -> Result<&str> {
        self.pool.class_name_at(self.this_class)
    }

    /// Internal name of the superclass, or `None` for `java/lang/Object`.
    pub fn super_name(&self) -> Result<Option<&str>> {
        if self.super_class == 0 {
            Ok(None)
        } else {
            self.pool.class_name_at(self.super_class).map(Some)
        }
    }

    /// Internal names of the directly implemented interfaces.
    pub fn interface_names(&self) -> Result<Vec<&str>> {
        self.interfaces
            .iter()
            .map(|&i| self.pool.class_name_at(i))
            .collect()
    }

    /// Looks up a declared method by name and descriptor.
    pub fn find_method(&self, name: &str, descriptor: &str) -> Option<&MethodInfo> {
        self.methods.iter().find(|m| {
            self.pool
                .utf8_at(m.name)
                .map(|n| n == name)
                .unwrap_or(false)
                && self
                    .pool
                    .utf8_at(m.descriptor)
                    .map(|d| d == descriptor)
                    .unwrap_or(false)
        })
    }

    /// Basic structural sanity checks shared by the reader and the builder:
    /// the `this_class`/`super_class` indices resolve, every field/method
    /// name and descriptor resolves and parses, exception-table ranges are
    /// ordered and inside the code.
    pub fn validate(&self) -> Result<()> {
        self.name()?;
        self.super_name()?;
        for &i in &self.interfaces {
            self.pool.class_name_at(i)?;
        }
        for f in &self.fields {
            self.pool.utf8_at(f.name)?;
            let d = self.pool.utf8_at(f.descriptor)?;
            crate::descriptor::FieldType::parse(d)?;
        }
        for m in &self.methods {
            self.pool.utf8_at(m.name)?;
            let d = self.pool.utf8_at(m.descriptor)?;
            crate::descriptor::MethodDescriptor::parse(d)?;
            if let Some(code) = &m.code {
                if code.code.is_empty() {
                    return Err(ClassFileError::Malformed("empty code array"));
                }
                for e in &code.exception_table {
                    let len = code.code.len() as u32;
                    if e.start_pc >= e.end_pc || e.end_pc > len || e.handler_pc >= len {
                        return Err(ClassFileError::Malformed("exception table range"));
                    }
                    if e.catch_type != 0 {
                        self.pool.class_name_at(e.catch_type)?;
                    }
                }
            } else if !m.access.is_native() && !m.access.is_abstract() {
                return Err(ClassFileError::Malformed(
                    "non-native, non-abstract method without code",
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_class() -> ClassFile {
        let mut pool = ConstPool::new();
        let this_class = pool.class("Foo").unwrap();
        let super_class = pool.class("java/lang/Object").unwrap();
        let name = pool.utf8("bar").unwrap();
        let desc = pool.utf8("()V").unwrap();
        ClassFile {
            minor_version: crate::MINOR_VERSION,
            major_version: crate::MAJOR_VERSION,
            pool,
            access: AccessFlags::PUBLIC,
            this_class,
            super_class,
            interfaces: vec![],
            fields: vec![],
            methods: vec![MethodInfo {
                access: AccessFlags::PUBLIC,
                name,
                descriptor: desc,
                code: Some(Code {
                    max_stack: 0,
                    max_locals: 1,
                    code: vec![0xb1], // return
                    exception_table: vec![],
                }),
            }],
            attributes: vec![],
        }
    }

    #[test]
    fn names_resolve() {
        let c = tiny_class();
        assert_eq!(c.name().unwrap(), "Foo");
        assert_eq!(c.super_name().unwrap(), Some("java/lang/Object"));
        assert!(c.find_method("bar", "()V").is_some());
        assert!(c.find_method("bar", "(I)V").is_none());
        c.validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_exception_range() {
        let mut c = tiny_class();
        c.methods[0]
            .code
            .as_mut()
            .unwrap()
            .exception_table
            .push(ExceptionTableEntry {
                start_pc: 5,
                end_pc: 2,
                handler_pc: 0,
                catch_type: 0,
            });
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_missing_code() {
        let mut c = tiny_class();
        c.methods[0].code = None;
        assert!(c.validate().is_err());
        // …but native methods may omit code.
        c.methods[0].access |= AccessFlags::NATIVE;
        c.validate().unwrap();
    }
}
