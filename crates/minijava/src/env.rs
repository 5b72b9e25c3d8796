//! The compilation environment: type signatures of every class a program
//! may reference — the built-in system library, previously compiled
//! units (so OSGi bundles can import each other's classes), and the unit
//! being compiled.

use crate::error::{CompileError, Result};
use std::collections::HashMap;
use std::fmt;

/// A semantic type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ty {
    /// `int` (also the stack type of `short`/`byte`).
    Int,
    /// `long`
    Long,
    /// `float`
    Float,
    /// `double`
    Double,
    /// `boolean`
    Boolean,
    /// `char`
    Char,
    /// `void`
    Void,
    /// The type of `null`.
    Null,
    /// A class/interface type by internal name.
    Object(String),
    /// An array type.
    Array(Box<Ty>),
}

impl Ty {
    /// Shorthand for `java/lang/String`.
    pub fn string() -> Ty {
        Ty::Object("java/lang/String".to_owned())
    }

    /// Shorthand for `java/lang/Object`.
    pub fn object() -> Ty {
        Ty::Object("java/lang/Object".to_owned())
    }

    /// `true` for any numeric type.
    pub fn is_numeric(&self) -> bool {
        matches!(self, Ty::Int | Ty::Long | Ty::Float | Ty::Double | Ty::Char)
    }

    /// `true` for reference types (objects, arrays, null).
    pub fn is_reference(&self) -> bool {
        matches!(self, Ty::Object(_) | Ty::Array(_) | Ty::Null)
    }

    /// The field descriptor of this type.
    pub fn descriptor(&self) -> String {
        match self {
            Ty::Int => "I".to_owned(),
            Ty::Long => "J".to_owned(),
            Ty::Float => "F".to_owned(),
            Ty::Double => "D".to_owned(),
            Ty::Boolean => "Z".to_owned(),
            Ty::Char => "C".to_owned(),
            Ty::Void => "V".to_owned(),
            Ty::Null => "Ljava/lang/Object;".to_owned(),
            Ty::Object(name) => format!("L{name};"),
            Ty::Array(elem) => format!("[{}", elem.descriptor()),
        }
    }

    /// Parses a field descriptor into a `Ty`.
    pub fn from_descriptor(desc: &str) -> Result<Ty> {
        let mut chars = desc.chars();
        let t = Self::parse_one(&mut chars, desc)?;
        if chars.next().is_some() {
            return Err(CompileError::check(0, format!("bad descriptor {desc}")));
        }
        Ok(t)
    }

    fn parse_one(chars: &mut std::str::Chars<'_>, whole: &str) -> Result<Ty> {
        let bad = || CompileError::check(0, format!("bad descriptor {whole}"));
        Ok(match chars.next().ok_or_else(bad)? {
            'I' => Ty::Int,
            'J' => Ty::Long,
            'F' => Ty::Float,
            'D' => Ty::Double,
            'Z' => Ty::Boolean,
            'C' => Ty::Char,
            'V' => Ty::Void,
            'B' | 'S' => Ty::Int,
            'L' => {
                let name: String = chars.take_while(|c| *c != ';').collect();
                // `take_while` consumed the ';'.
                Ty::Object(name)
            }
            '[' => Ty::Array(Box::new(Self::parse_one(chars, whole)?)),
            _ => return Err(bad()),
        })
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Int => write!(f, "int"),
            Ty::Long => write!(f, "long"),
            Ty::Float => write!(f, "float"),
            Ty::Double => write!(f, "double"),
            Ty::Boolean => write!(f, "boolean"),
            Ty::Char => write!(f, "char"),
            Ty::Void => write!(f, "void"),
            Ty::Null => write!(f, "null"),
            Ty::Object(n) => write!(f, "{}", n.rsplit('/').next().unwrap_or(n)),
            Ty::Array(e) => write!(f, "{e}[]"),
        }
    }
}

/// A field signature.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldSig {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: Ty,
    /// `static`?
    pub is_static: bool,
}

/// A method signature.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodSig {
    /// Method name (`<init>` for constructors).
    pub name: String,
    /// Parameter types (excluding the receiver).
    pub params: Vec<Ty>,
    /// Return type.
    pub ret: Ty,
    /// `static`?
    pub is_static: bool,
}

impl MethodSig {
    /// The JVM method descriptor.
    pub fn descriptor(&self) -> String {
        let mut s = String::from("(");
        for p in &self.params {
            s.push_str(&p.descriptor());
        }
        s.push(')');
        s.push_str(&self.ret.descriptor());
        s
    }
}

/// Signature information for one class.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassInfo {
    /// Internal name (`com/example/Foo`).
    pub internal: String,
    /// `true` for interfaces.
    pub is_interface: bool,
    /// Superclass internal name (`None` only for `java/lang/Object`).
    pub superclass: Option<String>,
    /// Implemented interface internal names.
    pub interfaces: Vec<String>,
    /// Declared fields.
    pub fields: Vec<FieldSig>,
    /// Declared methods and constructors.
    pub methods: Vec<MethodSig>,
}

/// The environment mapping names to signatures.
#[derive(Debug, Clone, Default)]
pub struct Env {
    classes: HashMap<String, ClassInfo>,
    by_simple: HashMap<String, String>,
}

impl Env {
    /// An empty environment (no builtins).
    pub fn empty() -> Env {
        Env::default()
    }

    /// The environment with all system-library builtins registered.
    pub fn with_builtins() -> Env {
        let mut env = Env::empty();
        crate::builtins::register(&mut env);
        env
    }

    /// Registers a class, indexing it by its simple name too. A later
    /// registration takes the simple-name slot from an earlier one, so
    /// user and imported classes shadow same-named builtins (a bundle
    /// may define its own `Service` without colliding with
    /// `ijvm/Service`); exact internal names always resolve regardless.
    pub fn add_class(&mut self, info: ClassInfo) {
        let simple = info
            .internal
            .rsplit('/')
            .next()
            .unwrap_or(&info.internal)
            .to_owned();
        self.by_simple.insert(simple, info.internal.clone());
        self.classes.insert(info.internal.clone(), info);
    }

    /// Registers signatures extracted from a compiled class file, so later
    /// compilation units can reference it (bundle imports).
    pub fn add_class_file(&mut self, cf: &ijvm_classfile::ClassFile) -> Result<()> {
        let to_check = |e: ijvm_classfile::ClassFileError| CompileError::check(0, e.to_string());
        let internal = cf.name().map_err(to_check)?.to_owned();
        let superclass = cf.super_name().map_err(to_check)?.map(str::to_owned);
        let interfaces = cf
            .interface_names()
            .map_err(to_check)?
            .into_iter()
            .map(str::to_owned)
            .collect();
        let mut fields = Vec::new();
        for f in &cf.fields {
            let name = cf.pool.utf8_at(f.name).map_err(to_check)?.to_owned();
            let desc = cf.pool.utf8_at(f.descriptor).map_err(to_check)?;
            fields.push(FieldSig {
                name,
                ty: Ty::from_descriptor(desc)?,
                is_static: f.access.is_static(),
            });
        }
        let mut methods = Vec::new();
        for m in &cf.methods {
            let name = cf.pool.utf8_at(m.name).map_err(to_check)?.to_owned();
            let desc = cf.pool.utf8_at(m.descriptor).map_err(to_check)?;
            let parsed = ijvm_classfile::MethodDescriptor::parse(desc).map_err(to_check)?;
            let params = parsed
                .params
                .iter()
                .map(|p| Ty::from_descriptor(&p.to_string()))
                .collect::<Result<Vec<_>>>()?;
            let ret = match &parsed.ret {
                None => Ty::Void,
                Some(t) => Ty::from_descriptor(&t.to_string())?,
            };
            methods.push(MethodSig {
                name,
                params,
                ret,
                is_static: m.access.is_static(),
            });
        }
        self.add_class(ClassInfo {
            internal,
            is_interface: cf.access.is_interface(),
            superclass,
            interfaces,
            fields,
            methods,
        });
        Ok(())
    }

    /// Looks up a class by internal name.
    pub fn class(&self, internal: &str) -> Option<&ClassInfo> {
        self.classes.get(internal)
    }

    /// Resolves a simple name (or already-internal name) to internal form.
    pub fn resolve(&self, name: &str) -> Option<&str> {
        if let Some((k, _)) = self.classes.get_key_value(name) {
            return Some(k.as_str());
        }
        self.by_simple.get(name).map(String::as_str)
    }

    /// Finds a field by name, walking up the superclass chain. Returns
    /// `(declaring class internal name, signature)`.
    pub fn lookup_field(&self, internal: &str, name: &str) -> Option<(&str, &FieldSig)> {
        let mut cur = Some(internal);
        while let Some(c) = cur {
            let info = self.classes.get(c)?;
            if let Some(f) = info.fields.iter().find(|f| f.name == name) {
                return Some((&info.internal, f));
            }
            cur = info.superclass.as_deref();
        }
        None
    }

    /// Finds methods by name (superclass chain + interfaces), returning
    /// `(declaring class, signature)` candidates in resolution order.
    pub fn lookup_methods<'a>(
        &'a self,
        internal: &str,
        name: &str,
    ) -> Vec<(&'a str, &'a MethodSig)> {
        let mut out = Vec::new();
        let mut seen_descs = Vec::new();
        let mut stack = vec![internal.to_owned()];
        while let Some(c) = stack.pop() {
            let Some(info) = self.classes.get(&c) else {
                continue;
            };
            for m in info.methods.iter().filter(|m| m.name == name) {
                let d = m.descriptor();
                if !seen_descs.contains(&d) {
                    seen_descs.push(d);
                    out.push((info.internal.as_str(), m));
                }
            }
            if let Some(s) = &info.superclass {
                stack.push(s.clone());
            }
            for i in &info.interfaces {
                stack.push(i.clone());
            }
        }
        out
    }

    /// `true` when `sub` is the same as or a subtype of `sup` (classes and
    /// interfaces, by name).
    pub fn is_subtype(&self, sub: &str, sup: &str) -> bool {
        if sub == sup || sup == "java/lang/Object" {
            return true;
        }
        let mut stack = vec![sub.to_owned()];
        while let Some(c) = stack.pop() {
            if c == sup {
                return true;
            }
            let Some(info) = self.classes.get(&c) else {
                continue;
            };
            if let Some(s) = &info.superclass {
                stack.push(s.clone());
            }
            for i in &info.interfaces {
                stack.push(i.clone());
            }
        }
        false
    }

    /// Assignability for argument passing and assignment:
    /// identity, numeric widening, null-to-reference, subtype.
    pub fn assignable(&self, from: &Ty, to: &Ty) -> bool {
        if from == to {
            return true;
        }
        match (from, to) {
            // char/boolean fit int-typed slots and vice versa is NOT ok.
            (Ty::Char, Ty::Int) => true,
            (Ty::Int, Ty::Long) | (Ty::Char, Ty::Long) => true,
            (Ty::Int, Ty::Float) | (Ty::Char, Ty::Float) | (Ty::Long, Ty::Float) => true,
            (Ty::Int, Ty::Double)
            | (Ty::Char, Ty::Double)
            | (Ty::Long, Ty::Double)
            | (Ty::Float, Ty::Double) => true,
            (Ty::Null, Ty::Object(_)) | (Ty::Null, Ty::Array(_)) => true,
            (Ty::Object(a), Ty::Object(b)) => self.is_subtype(a, b),
            (Ty::Array(_), Ty::Object(b)) => b == "java/lang/Object",
            (Ty::Array(a), Ty::Array(b)) => a == b || self.assignable_array_elem(a, b),
            _ => false,
        }
    }

    fn assignable_array_elem(&self, a: &Ty, b: &Ty) -> bool {
        match (a, b) {
            (Ty::Object(x), Ty::Object(y)) => self.is_subtype(x, y),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptors_round_trip() {
        for t in [
            Ty::Int,
            Ty::Long,
            Ty::Boolean,
            Ty::string(),
            Ty::Array(Box::new(Ty::Array(Box::new(Ty::Double)))),
        ] {
            assert_eq!(Ty::from_descriptor(&t.descriptor()).unwrap(), t);
        }
    }

    #[test]
    fn builtins_resolve_simple_names() {
        let env = Env::with_builtins();
        assert_eq!(env.resolve("String"), Some("java/lang/String"));
        assert_eq!(env.resolve("ArrayList"), Some("java/util/ArrayList"));
        assert_eq!(env.resolve("java/lang/String"), Some("java/lang/String"));
        assert_eq!(env.resolve("Nope"), None);
    }

    #[test]
    fn field_and_method_lookup_walk_supers() {
        let env = Env::with_builtins();
        // getMessage is declared on Throwable, visible from subclasses.
        let ms = env.lookup_methods("java/lang/RuntimeException", "getMessage");
        assert!(!ms.is_empty());
        assert_eq!(ms[0].0, "java/lang/Throwable");
    }

    #[test]
    fn subtype_and_assignability() {
        let env = Env::with_builtins();
        assert!(env.is_subtype("java/lang/NullPointerException", "java/lang/Exception"));
        assert!(!env.is_subtype("java/lang/Exception", "java/lang/NullPointerException"));
        assert!(env.assignable(&Ty::Int, &Ty::Double));
        assert!(!env.assignable(&Ty::Double, &Ty::Int));
        assert!(env.assignable(&Ty::Null, &Ty::string()));
        assert!(env.assignable(
            &Ty::Object("java/lang/Thread".into()),
            &Ty::Object("java/lang/Runnable".into())
        ));
    }
}
