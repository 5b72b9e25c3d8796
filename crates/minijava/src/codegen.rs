//! Typed bytecode generation: AST → `ijvm-classfile` class files.

use crate::ast::*;
use crate::env::{ClassInfo, Env, FieldSig, MethodSig, Ty};
use crate::error::{CompileError, Result};
use ijvm_classfile::{
    AccessFlags, BaseType, ClassBuilder, ClassFile, Label, MethodBuilder, Opcode,
};
use std::collections::HashMap;

/// Compiles a parsed unit against `env`. `package` (may be empty) prefixes
/// the internal names of the unit's classes, e.g. `"bundlea"` turns class
/// `Impl` into `bundlea/Impl`.
pub fn compile_unit(unit: &Unit, env: &Env, package: &str) -> Result<Vec<ClassFile>> {
    // Phase 1: register unit classes in a local environment so they can
    // reference each other (and themselves).
    let mut local = env.clone();
    let internal_of = |simple: &str| -> String {
        if package.is_empty() {
            simple.to_owned()
        } else {
            format!("{package}/{simple}")
        }
    };
    let mut infos = Vec::new();
    for c in &unit.classes {
        let info = signature_of(c, unit, env, package)?;
        local.add_class(info.clone());
        infos.push(info);
    }
    // Phase 2: generate code.
    let mut out = Vec::new();
    for (c, info) in unit.classes.iter().zip(&infos) {
        out.push(gen_class(c, info, &local, &internal_of(&c.name))?);
    }
    Ok(out)
}

/// Resolves a surface type name against the unit + environment.
fn resolve_type(tn: &TypeName, unit: &Unit, env: &Env, package: &str, line: u32) -> Result<Ty> {
    Ok(match tn {
        TypeName::Int => Ty::Int,
        TypeName::Long => Ty::Long,
        TypeName::Float => Ty::Float,
        TypeName::Double => Ty::Double,
        TypeName::Boolean => Ty::Boolean,
        TypeName::Char => Ty::Char,
        TypeName::Void => Ty::Void,
        TypeName::Array(e) => Ty::Array(Box::new(resolve_type(e, unit, env, package, line)?)),
        TypeName::Named(n) => {
            if unit.classes.iter().any(|c| &c.name == n) {
                let internal = if package.is_empty() {
                    n.clone()
                } else {
                    format!("{package}/{n}")
                };
                Ty::Object(internal)
            } else if let Some(internal) = env.resolve(n) {
                Ty::Object(internal.to_owned())
            } else {
                return Err(CompileError::check(line, format!("unknown type `{n}`")));
            }
        }
    })
}

fn resolve_class_name(
    name: &str,
    unit: &Unit,
    env: &Env,
    package: &str,
    line: u32,
) -> Result<String> {
    match resolve_type(&TypeName::Named(name.to_owned()), unit, env, package, line)? {
        Ty::Object(internal) => Ok(internal),
        _ => Err(CompileError::check(
            line,
            format!("`{name}` is not a class"),
        )),
    }
}

fn signature_of(c: &ClassDecl, unit: &Unit, env: &Env, package: &str) -> Result<ClassInfo> {
    let internal = if package.is_empty() {
        c.name.clone()
    } else {
        format!("{package}/{}", c.name)
    };
    let superclass = match &c.superclass {
        Some(s) => Some(resolve_class_name(s, unit, env, package, c.line)?),
        None => Some("java/lang/Object".to_owned()),
    };
    let interfaces = c
        .interfaces
        .iter()
        .map(|i| resolve_class_name(i, unit, env, package, c.line))
        .collect::<Result<Vec<_>>>()?;
    let mut fields = Vec::new();
    for f in &c.fields {
        fields.push(FieldSig {
            name: f.name.clone(),
            ty: resolve_type(&f.ty, unit, env, package, f.line)?,
            is_static: f.is_static,
        });
    }
    let mut methods = Vec::new();
    let mut has_ctor = false;
    for mdecl in &c.methods {
        has_ctor |= mdecl.is_ctor;
        let params = mdecl
            .params
            .iter()
            .map(|(_, t)| resolve_type(t, unit, env, package, mdecl.line))
            .collect::<Result<Vec<_>>>()?;
        let ret = resolve_type(&mdecl.ret, unit, env, package, mdecl.line)?;
        methods.push(MethodSig {
            name: mdecl.name.clone(),
            params,
            ret,
            is_static: mdecl.is_static,
        });
    }
    if !has_ctor && !c.is_interface {
        methods.push(MethodSig {
            name: "<init>".to_owned(),
            params: vec![],
            ret: Ty::Void,
            is_static: false,
        });
    }
    Ok(ClassInfo {
        internal,
        is_interface: c.is_interface,
        superclass,
        interfaces,
        fields,
        methods,
    })
}

fn gen_class(c: &ClassDecl, info: &ClassInfo, env: &Env, internal: &str) -> Result<ClassFile> {
    let mut flags = AccessFlags::PUBLIC;
    if c.is_interface {
        flags |= AccessFlags::INTERFACE | AccessFlags::ABSTRACT;
    }
    let superclass = info
        .superclass
        .clone()
        .unwrap_or_else(|| "java/lang/Object".to_owned());
    let mut cb = ClassBuilder::new(internal, &superclass, flags);
    for i in &info.interfaces {
        cb.implements(i);
    }
    for (f, sig) in c.fields.iter().zip(&info.fields) {
        let mut fflags = AccessFlags::PUBLIC;
        if sig.is_static {
            fflags |= AccessFlags::STATIC;
        }
        cb.field(&f.name, &sig.ty.descriptor(), fflags);
    }

    if c.is_interface {
        for m in &c.methods {
            let sig = info
                .methods
                .iter()
                .find(|s| s.name == m.name)
                .expect("signature registered in phase 1");
            cb.abstract_method(&m.name, &sig.descriptor(), AccessFlags::PUBLIC);
        }
        return cb
            .build()
            .map_err(|e| CompileError::emit(c.line, e.to_string()));
    }

    // <clinit> for static field initializers.
    let static_inits: Vec<(&FieldDecl, &FieldSig)> = c
        .fields
        .iter()
        .zip(&info.fields)
        .filter(|(f, _)| f.is_static && f.init.is_some())
        .collect();
    if !static_inits.is_empty() {
        let mb = cb.method("<clinit>", "()V", AccessFlags::STATIC);
        let mut g = Gen::new(mb, env, internal, Ty::Void, true);
        for (f, sig) in &static_inits {
            let t = g.expr(f.init.as_ref().expect("filtered on init"))?;
            g.convert(&t, &sig.ty, f.line)?;
            g.mb.putstatic(internal, &f.name, &sig.ty.descriptor());
        }
        g.mb.op(Opcode::Return);
        g.mb.done()
            .map_err(|e| CompileError::emit(c.line, e.to_string()))?;
    }

    let instance_inits: Vec<(&FieldDecl, &FieldSig)> = c
        .fields
        .iter()
        .zip(&info.fields)
        .filter(|(f, _)| !f.is_static && f.init.is_some())
        .collect();

    let mut has_ctor = false;
    for m in &c.methods {
        if m.is_ctor {
            has_ctor = true;
        }
        gen_method(&mut cb, m, c, env, internal, &superclass, &instance_inits)?;
    }
    if !has_ctor {
        // Default constructor.
        let mb = cb.method("<init>", "()V", AccessFlags::PUBLIC);
        let mut g = Gen::new(mb, env, internal, Ty::Void, false);
        g.mb.aload(0);
        g.mb.invokespecial(&superclass, "<init>", "()V");
        gen_field_inits(&mut g, internal, &instance_inits)?;
        g.mb.op(Opcode::Return);
        g.mb.done()
            .map_err(|e| CompileError::emit(c.line, e.to_string()))?;
    }

    cb.build()
        .map_err(|e| CompileError::emit(c.line, e.to_string()))
}

fn gen_field_inits(
    g: &mut Gen<'_>,
    internal: &str,
    inits: &[(&FieldDecl, &FieldSig)],
) -> Result<()> {
    for (f, sig) in inits {
        g.mb.aload(0);
        let t = g.expr(f.init.as_ref().expect("filtered on init"))?;
        g.convert(&t, &sig.ty, f.line)?;
        g.mb.putfield(internal, &f.name, &sig.ty.descriptor());
    }
    Ok(())
}

fn gen_method(
    cb: &mut ClassBuilder,
    m: &MethodDecl,
    c: &ClassDecl,
    env: &Env,
    internal: &str,
    superclass: &str,
    instance_inits: &[(&FieldDecl, &FieldSig)],
) -> Result<()> {
    let sig = env
        .class(internal)
        .and_then(|ci| {
            ci.methods
                .iter()
                .find(|s| s.name == m.name && s.params.len() == m.params.len())
        })
        .cloned()
        .expect("signature registered in phase 1");
    let mut flags = AccessFlags::PUBLIC;
    if m.is_static {
        flags |= AccessFlags::STATIC;
    }
    if m.is_synchronized {
        flags |= AccessFlags::SYNCHRONIZED;
    }
    let mb = cb.method(&m.name, &sig.descriptor(), flags);
    let mut g = Gen::new(mb, env, internal, sig.ret.clone(), m.is_static);
    // Parameters.
    let first_slot = if m.is_static { 0 } else { 1 };
    for (slot, ((pname, _), pty)) in (first_slot..).zip(m.params.iter().zip(&sig.params)) {
        g.declare(pname, slot, pty.clone(), m.line)?;
    }
    if m.is_ctor {
        g.mb.aload(0);
        g.mb.invokespecial(superclass, "<init>", "()V");
        gen_field_inits(&mut g, internal, instance_inits)?;
    }
    let body = m.body.as_ref().expect("non-interface methods have bodies");
    for s in body {
        g.stmt(s)?;
    }
    // Terminator: void methods get an implicit `return`; value-returning
    // methods get an unreachable `aconst_null; athrow` so loop-exit labels
    // bound at the end of the body always target a real instruction. A
    // body that genuinely falls through without returning fails at run
    // time instead of assembly time (no full reachability analysis here).
    if sig.ret == Ty::Void {
        g.mb.op(Opcode::Return);
    } else {
        g.mb.const_null();
        g.mb.op(Opcode::Athrow);
    }
    g.mb.done()
        .map_err(|e| CompileError::emit(m.line, format!("in {}.{}: {e}", c.name, m.name)))
}

/// Per-method code generator.
struct Gen<'cb> {
    mb: MethodBuilder<'cb>,
    env: &'cb Env,
    internal: &'cb str,
    ret: Ty,
    is_static: bool,
    scopes: Vec<HashMap<String, (u16, Ty)>>,
    loops: Vec<(Label, Label)>, // (continue, break)
}

impl<'cb> Gen<'cb> {
    fn new(
        mb: MethodBuilder<'cb>,
        env: &'cb Env,
        internal: &'cb str,
        ret: Ty,
        is_static: bool,
    ) -> Gen<'cb> {
        Gen {
            mb,
            env,
            internal,
            ret,
            is_static,
            scopes: vec![HashMap::new()],
            loops: Vec::new(),
        }
    }

    fn declare(&mut self, name: &str, slot: u16, ty: Ty, line: u32) -> Result<()> {
        self.mb.ensure_locals(slot + 1);
        let scope = self.scopes.last_mut().expect("scope stack never empty");
        if scope.insert(name.to_owned(), (slot, ty)).is_some() {
            return Err(CompileError::check(
                line,
                format!("duplicate variable `{name}`"),
            ));
        }
        Ok(())
    }

    fn lookup_local(&self, name: &str) -> Option<(u16, Ty)> {
        for scope in self.scopes.iter().rev() {
            if let Some(v) = scope.get(name) {
                return Some(v.clone());
            }
        }
        None
    }

    fn is_class_name(&self, name: &str) -> bool {
        self.lookup_local(name).is_none()
            && self.env.lookup_field(self.internal, name).is_none()
            && self.env.resolve(name).is_some()
    }

    // ---- statements ---------------------------------------------------

    fn stmt(&mut self, s: &Stmt) -> Result<()> {
        match s {
            Stmt::Block(stmts) => {
                self.scopes.push(HashMap::new());
                for s in stmts {
                    self.stmt(s)?;
                }
                self.scopes.pop();
                Ok(())
            }
            Stmt::VarDecl {
                ty,
                name,
                init,
                line,
            } => {
                let ty = self.resolve(ty, *line)?;
                let slot = self.mb.alloc_local();
                if let Some(e) = init {
                    let t = self.expr(e)?;
                    self.convert(&t, &ty, *line)?;
                    self.store_local(slot, &ty);
                } else {
                    self.default_value(&ty);
                    self.store_local(slot, &ty);
                }
                self.declare(name, slot, ty, *line)
            }
            Stmt::Expr(e) => self.expr_stmt(e),
            Stmt::If {
                cond,
                then,
                otherwise,
            } => {
                let t = self.expr(cond)?;
                self.expect_boolean(&t, cond.line())?;
                let lfalse = self.mb.new_label();
                self.mb.branch(Opcode::Ifeq, lfalse);
                self.stmt(then)?;
                match otherwise {
                    Some(e) => {
                        let lend = self.mb.new_label();
                        self.mb.goto(lend);
                        self.mb.bind(lfalse);
                        self.stmt(e)?;
                        self.mb.bind(lend);
                    }
                    None => self.mb.bind(lfalse),
                }
                Ok(())
            }
            Stmt::While { cond, body } => {
                let head = self.mb.here();
                let exit = self.mb.new_label();
                // `while (true)` is a plain jump; no exit test emitted.
                if !matches!(cond, Expr::Bool(true, _)) {
                    let t = self.expr(cond)?;
                    self.expect_boolean(&t, cond.line())?;
                    self.mb.branch(Opcode::Ifeq, exit);
                }
                self.loops.push((head, exit));
                self.stmt(body)?;
                self.loops.pop();
                self.mb.goto(head);
                self.mb.bind(exit);
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
            } => {
                self.scopes.push(HashMap::new());
                if let Some(i) = init {
                    self.stmt(i)?;
                }
                let head = self.mb.here();
                let exit = self.mb.new_label();
                let cont = self.mb.new_label();
                if let Some(c) = cond {
                    let t = self.expr(c)?;
                    self.expect_boolean(&t, c.line())?;
                    self.mb.branch(Opcode::Ifeq, exit);
                }
                self.loops.push((cont, exit));
                self.stmt(body)?;
                self.loops.pop();
                self.mb.bind(cont);
                if let Some(u) = update {
                    self.expr_stmt(u)?;
                }
                self.mb.goto(head);
                self.mb.bind(exit);
                self.scopes.pop();
                Ok(())
            }
            Stmt::Return(value, line) => {
                match (value, self.ret.clone()) {
                    (None, Ty::Void) => {
                        self.mb.op(Opcode::Return);
                    }
                    (Some(_), Ty::Void) => {
                        return Err(CompileError::check(*line, "void method returns a value"));
                    }
                    (None, _) => {
                        return Err(CompileError::check(*line, "missing return value"));
                    }
                    (Some(e), ret) => {
                        let t = self.expr(e)?;
                        self.convert(&t, &ret, *line)?;
                        self.mb.op(return_op(&ret));
                    }
                }
                Ok(())
            }
            Stmt::Throw(e, line) => {
                let t = self.expr(e)?;
                if !matches!(t, Ty::Object(_) | Ty::Null) {
                    return Err(CompileError::check(*line, "can only throw objects"));
                }
                self.mb.op(Opcode::Athrow);
                Ok(())
            }
            Stmt::Break(line) => {
                let (_, brk) = *self
                    .loops
                    .last()
                    .ok_or_else(|| CompileError::check(*line, "break outside loop"))?;
                self.mb.goto(brk);
                Ok(())
            }
            Stmt::Continue(line) => {
                let (cont, _) = *self
                    .loops
                    .last()
                    .ok_or_else(|| CompileError::check(*line, "continue outside loop"))?;
                self.mb.goto(cont);
                Ok(())
            }
            Stmt::Try { body, catches } => self.gen_try(body, catches),
            Stmt::Synchronized { lock, body, line } => self.gen_sync(lock, body, *line),
        }
    }

    fn gen_try(&mut self, body: &[Stmt], catches: &[CatchClause]) -> Result<()> {
        let start = self.mb.here();
        self.scopes.push(HashMap::new());
        for s in body {
            self.stmt(s)?;
        }
        self.scopes.pop();
        let after = self.mb.new_label();
        self.mb.goto(after);
        // The protected range includes the goto so exceptions delivered at
        // the resume point of a trailing call still match.
        let end = self.mb.here();
        let mut handler_specs = Vec::new();
        for c in catches {
            let handler = self.mb.here();
            let ty_internal = self
                .env
                .resolve(&c.ty)
                .ok_or_else(|| {
                    CompileError::check(c.line, format!("unknown exception type `{}`", c.ty))
                })?
                .to_owned();
            self.scopes.push(HashMap::new());
            let slot = self.mb.alloc_local();
            self.mb.astore(slot);
            self.declare(&c.name, slot, Ty::Object(ty_internal.clone()), c.line)?;
            for s in &c.body {
                self.stmt(s)?;
            }
            self.scopes.pop();
            self.mb.goto(after);
            handler_specs.push((handler, ty_internal));
        }
        for (handler, ty) in handler_specs {
            self.mb.exception_handler(start, end, handler, Some(&ty));
        }
        self.mb.bind(after);
        Ok(())
    }

    fn gen_sync(&mut self, lock: &Expr, body: &[Stmt], line: u32) -> Result<()> {
        let t = self.expr(lock)?;
        if !t.is_reference() {
            return Err(CompileError::check(line, "synchronized needs an object"));
        }
        let slot = self.mb.alloc_local();
        self.mb.astore(slot);
        self.mb.aload(slot);
        self.mb.op(Opcode::Monitorenter);
        let start = self.mb.here();
        self.scopes.push(HashMap::new());
        for s in body {
            self.stmt(s)?;
        }
        self.scopes.pop();
        self.mb.aload(slot);
        self.mb.op(Opcode::Monitorexit);
        let after = self.mb.new_label();
        self.mb.goto(after);
        let end = self.mb.here();
        // Catch-all: release the monitor and rethrow.
        let handler = self.mb.here();
        let ex = self.mb.alloc_local();
        self.mb.astore(ex);
        self.mb.aload(slot);
        self.mb.op(Opcode::Monitorexit);
        self.mb.aload(ex);
        self.mb.op(Opcode::Athrow);
        self.mb.exception_handler(start, end, handler, None);
        self.mb.bind(after);
        Ok(())
    }

    /// An expression in statement position: assignments, increments and
    /// calls; any leftover value is popped.
    fn expr_stmt(&mut self, e: &Expr) -> Result<()> {
        match e {
            Expr::Assign { .. } | Expr::Incr { .. } => {
                let t = self.expr(e)?;
                debug_assert_eq!(t, Ty::Void);
                Ok(())
            }
            Expr::Call { .. } | Expr::New { .. } => {
                let t = self.expr(e)?;
                if t != Ty::Void {
                    self.mb.op(Opcode::Pop);
                }
                Ok(())
            }
            other => Err(CompileError::check(
                other.line(),
                "only assignments, increments, calls and `new` can be statements",
            )),
        }
    }

    // ---- expressions -----------------------------------------------------

    fn resolve(&self, tn: &TypeName, line: u32) -> Result<Ty> {
        // The unit's classes are already in env (phase 1), so a dummy unit
        // suffices here.
        let empty = Unit { classes: vec![] };
        match tn {
            TypeName::Named(n) => {
                let internal = self
                    .env
                    .resolve(n)
                    .ok_or_else(|| CompileError::check(line, format!("unknown type `{n}`")))?;
                Ok(Ty::Object(internal.to_owned()))
            }
            TypeName::Array(e) => Ok(Ty::Array(Box::new(self.resolve(e, line)?))),
            other => resolve_type(other, &empty, self.env, "", line),
        }
    }

    fn default_value(&mut self, ty: &Ty) {
        match ty {
            Ty::Long => {
                self.mb.const_long(0);
            }
            Ty::Float => {
                self.mb.const_float(0.0);
            }
            Ty::Double => {
                self.mb.const_double(0.0);
            }
            Ty::Object(_) | Ty::Array(_) | Ty::Null => {
                self.mb.const_null();
            }
            _ => {
                self.mb.const_int(0);
            }
        }
    }

    fn store_local(&mut self, slot: u16, ty: &Ty) {
        match ty {
            Ty::Long => self.mb.lstore(slot),
            Ty::Float => self.mb.fstore(slot),
            Ty::Double => self.mb.dstore(slot),
            Ty::Object(_) | Ty::Array(_) | Ty::Null => self.mb.astore(slot),
            _ => self.mb.istore(slot),
        };
    }

    fn load_local(&mut self, slot: u16, ty: &Ty) {
        match ty {
            Ty::Long => self.mb.lload(slot),
            Ty::Float => self.mb.fload(slot),
            Ty::Double => self.mb.dload(slot),
            Ty::Object(_) | Ty::Array(_) | Ty::Null => self.mb.aload(slot),
            _ => self.mb.iload(slot),
        };
    }

    fn expect_boolean(&self, t: &Ty, line: u32) -> Result<()> {
        if *t == Ty::Boolean {
            Ok(())
        } else {
            Err(CompileError::check(
                line,
                format!("expected boolean, found {t}"),
            ))
        }
    }

    /// Emits a conversion of the stack top from `from` to `to`.
    fn convert(&mut self, from: &Ty, to: &Ty, line: u32) -> Result<()> {
        if from == to {
            return Ok(());
        }
        use Opcode as O;
        match (from, to) {
            (Ty::Char, Ty::Int) | (Ty::Int, Ty::Char) if false => {}
            (Ty::Char, Ty::Int) => {}
            (Ty::Int, Ty::Long) | (Ty::Char, Ty::Long) => {
                self.mb.op(O::I2l);
            }
            (Ty::Int, Ty::Float) | (Ty::Char, Ty::Float) => {
                self.mb.op(O::I2f);
            }
            (Ty::Int, Ty::Double) | (Ty::Char, Ty::Double) => {
                self.mb.op(O::I2d);
            }
            (Ty::Long, Ty::Float) => {
                self.mb.op(O::L2f);
            }
            (Ty::Long, Ty::Double) => {
                self.mb.op(O::L2d);
            }
            (Ty::Float, Ty::Double) => {
                self.mb.op(O::F2d);
            }
            (Ty::Null, Ty::Object(_)) | (Ty::Null, Ty::Array(_)) => {}
            (Ty::Object(a), Ty::Object(b)) if self.env.is_subtype(a, b) => {}
            (Ty::Array(_), Ty::Object(b)) if b == "java/lang/Object" => {}
            (Ty::Array(a), Ty::Array(b)) if a == b => {}
            _ => {
                return Err(CompileError::check(
                    line,
                    format!("cannot implicitly convert {from} to {to}"),
                ));
            }
        }
        Ok(())
    }

    /// Explicit cast conversions (numeric narrowing, checkcast).
    fn cast(&mut self, from: &Ty, to: &Ty, line: u32) -> Result<()> {
        use Opcode as O;
        if from == to {
            return Ok(());
        }
        match (from, to) {
            // Numeric casts.
            (f, t) if f.is_numeric() && t.is_numeric() => {
                let ops: &[Opcode] = match (norm(f), norm(t)) {
                    (Ty::Int, Ty::Long) => &[O::I2l],
                    (Ty::Int, Ty::Float) => &[O::I2f],
                    (Ty::Int, Ty::Double) => &[O::I2d],
                    (Ty::Long, Ty::Int) => &[O::L2i],
                    (Ty::Long, Ty::Float) => &[O::L2f],
                    (Ty::Long, Ty::Double) => &[O::L2d],
                    (Ty::Float, Ty::Int) => &[O::F2i],
                    (Ty::Float, Ty::Long) => &[O::F2l],
                    (Ty::Float, Ty::Double) => &[O::F2d],
                    (Ty::Double, Ty::Int) => &[O::D2i],
                    (Ty::Double, Ty::Long) => &[O::D2l],
                    (Ty::Double, Ty::Float) => &[O::D2f],
                    _ => &[],
                };
                for op in ops {
                    self.mb.op(*op);
                }
                if *to == Ty::Char {
                    self.mb.op(O::I2c);
                }
                Ok(())
            }
            (Ty::Object(_) | Ty::Null | Ty::Array(_), Ty::Object(target)) => {
                self.mb.checkcast(target);
                Ok(())
            }
            (Ty::Object(_) | Ty::Null | Ty::Array(_), Ty::Array(elem)) => {
                // checkcast against the array descriptor.
                let desc = Ty::Array(elem.clone()).descriptor();
                self.mb.checkcast(&desc);
                Ok(())
            }
            _ => Err(CompileError::check(
                line,
                format!("cannot cast {from} to {to}"),
            )),
        }
    }

    fn expr(&mut self, e: &Expr) -> Result<Ty> {
        match e {
            Expr::Int(v, _) => {
                self.mb.const_int(*v);
                Ok(Ty::Int)
            }
            Expr::Long(v, _) => {
                self.mb.const_long(*v);
                Ok(Ty::Long)
            }
            Expr::Float(v, _) => {
                self.mb.const_float(*v);
                Ok(Ty::Float)
            }
            Expr::Double(v, _) => {
                self.mb.const_double(*v);
                Ok(Ty::Double)
            }
            Expr::Char(v, _) => {
                self.mb.const_int(*v as i32);
                Ok(Ty::Char)
            }
            Expr::Bool(v, _) => {
                self.mb.const_int(*v as i32);
                Ok(Ty::Boolean)
            }
            Expr::Str(s, _) => {
                self.mb.const_string(s);
                Ok(Ty::string())
            }
            Expr::Null(_) => {
                self.mb.const_null();
                Ok(Ty::Null)
            }
            Expr::This(line) => {
                if self.is_static {
                    return Err(CompileError::check(*line, "`this` in static context"));
                }
                self.mb.aload(0);
                Ok(Ty::Object(self.internal.to_owned()))
            }
            Expr::Name(n, line) => self.gen_name(n, *line),
            Expr::Field { target, name, line } => self.gen_field_read(target, name, *line),
            Expr::Index { array, index, line } => {
                let at = self.expr(array)?;
                let Ty::Array(elem) = at else {
                    return Err(CompileError::check(
                        *line,
                        format!("indexing non-array {at}"),
                    ));
                };
                let it = self.expr(index)?;
                self.convert(&it, &Ty::Int, *line)?;
                self.mb.op(array_load_op(&elem));
                Ok(*elem)
            }
            Expr::Call {
                target,
                method,
                args,
                line,
            } => self.gen_call(target.as_deref(), method, args, *line),
            Expr::New { class, args, line } => self.gen_new(class, args, *line),
            Expr::NewArray { elem, len, line } => {
                let elem_ty = self.resolve(elem, *line)?;
                let lt = self.expr(len)?;
                self.convert(&lt, &Ty::Int, *line)?;
                match &elem_ty {
                    Ty::Int => self.mb.newarray(BaseType::Int),
                    Ty::Long => self.mb.newarray(BaseType::Long),
                    Ty::Float => self.mb.newarray(BaseType::Float),
                    Ty::Double => self.mb.newarray(BaseType::Double),
                    Ty::Boolean => self.mb.newarray(BaseType::Boolean),
                    Ty::Char => self.mb.newarray(BaseType::Char),
                    Ty::Object(name) => self.mb.anewarray(name),
                    Ty::Array(inner) => self.mb.anewarray(&Ty::Array(inner.clone()).descriptor()),
                    other => {
                        return Err(CompileError::check(*line, format!("cannot make {other}[]")));
                    }
                };
                Ok(Ty::Array(Box::new(elem_ty)))
            }
            Expr::Bin { op, lhs, rhs, line } => self.gen_bin(*op, lhs, rhs, *line),
            Expr::Not(inner, line) => {
                let t = self.expr(inner)?;
                self.expect_boolean(&t, *line)?;
                self.mb.const_int(1);
                self.mb.op(Opcode::Ixor);
                Ok(Ty::Boolean)
            }
            Expr::Neg(inner, line) => {
                let t = self.expr(inner)?;
                match norm(&t) {
                    Ty::Int => self.mb.op(Opcode::Ineg),
                    Ty::Long => self.mb.op(Opcode::Lneg),
                    Ty::Float => self.mb.op(Opcode::Fneg),
                    Ty::Double => self.mb.op(Opcode::Dneg),
                    other => {
                        return Err(CompileError::check(*line, format!("cannot negate {other}")));
                    }
                };
                Ok(norm(&t))
            }
            Expr::Cast { ty, expr, line } => {
                let to = self.resolve(ty, *line)?;
                let from = self.expr(expr)?;
                self.cast(&from, &to, *line)?;
                Ok(to)
            }
            Expr::InstanceOf { expr, ty, line } => {
                let t = self.expr(expr)?;
                if !t.is_reference() {
                    return Err(CompileError::check(*line, "instanceof needs a reference"));
                }
                let internal = self
                    .env
                    .resolve(ty)
                    .ok_or_else(|| CompileError::check(*line, format!("unknown type `{ty}`")))?
                    .to_owned();
                self.mb.instanceof(&internal);
                Ok(Ty::Boolean)
            }
            Expr::Assign {
                target,
                op,
                value,
                line,
            } => {
                self.gen_assign(target, *op, value, *line)?;
                Ok(Ty::Void)
            }
            Expr::Incr {
                target,
                delta,
                line,
            } => {
                self.gen_incr(target, *delta, *line)?;
                Ok(Ty::Void)
            }
        }
    }

    fn gen_name(&mut self, n: &str, line: u32) -> Result<Ty> {
        if let Some((slot, ty)) = self.lookup_local(n) {
            self.load_local(slot, &ty);
            return Ok(ty);
        }
        if let Some((decl, sig)) = self.env.lookup_field(self.internal, n) {
            let decl = decl.to_owned();
            let sig = sig.clone();
            if sig.is_static {
                self.mb.getstatic(&decl, n, &sig.ty.descriptor());
            } else {
                if self.is_static {
                    return Err(CompileError::check(
                        line,
                        format!("instance field `{n}` in static context"),
                    ));
                }
                self.mb.aload(0);
                self.mb.getfield(&decl, n, &sig.ty.descriptor());
            }
            return Ok(sig.ty);
        }
        Err(CompileError::check(line, format!("unknown name `{n}`")))
    }

    fn gen_field_read(&mut self, target: &Expr, name: &str, line: u32) -> Result<Ty> {
        // `ClassName.field` → static access.
        if let Expr::Name(base, _) = target {
            if self.is_class_name(base) {
                let internal = self.env.resolve(base).expect("checked").to_owned();
                let (decl, sig) = self.env.lookup_field(&internal, name).ok_or_else(|| {
                    CompileError::check(line, format!("no field `{name}` on {base}"))
                })?;
                let (decl, sig) = (decl.to_owned(), sig.clone());
                if !sig.is_static {
                    return Err(CompileError::check(
                        line,
                        format!("`{base}.{name}` is not static"),
                    ));
                }
                self.mb.getstatic(&decl, name, &sig.ty.descriptor());
                return Ok(sig.ty);
            }
        }
        let t = self.expr(target)?;
        match &t {
            Ty::Array(_) if name == "length" => {
                self.mb.op(Opcode::Arraylength);
                Ok(Ty::Int)
            }
            Ty::Object(internal) => {
                let (decl, sig) = self.env.lookup_field(internal, name).ok_or_else(|| {
                    CompileError::check(line, format!("no field `{name}` on {t}"))
                })?;
                let (decl, sig) = (decl.to_owned(), sig.clone());
                if sig.is_static {
                    // Reading a static through an instance: drop the
                    // receiver and read the static.
                    self.mb.op(Opcode::Pop);
                    self.mb.getstatic(&decl, name, &sig.ty.descriptor());
                } else {
                    self.mb.getfield(&decl, name, &sig.ty.descriptor());
                }
                Ok(sig.ty)
            }
            other => Err(CompileError::check(
                line,
                format!("no field `{name}` on {other}"),
            )),
        }
    }

    fn select_overload<'e>(
        &self,
        candidates: &[(&'e str, &'e MethodSig)],
        arg_types: &[Ty],
        line: u32,
        what: &str,
    ) -> Result<(&'e str, MethodSig)> {
        let mut best: Option<(&str, &MethodSig, u32)> = None;
        for (decl, sig) in candidates {
            if sig.params.len() != arg_types.len() {
                continue;
            }
            let mut score = 0;
            let mut ok = true;
            for (a, p) in arg_types.iter().zip(&sig.params) {
                if a == p {
                    score += 2;
                } else if self.env.assignable(a, p) {
                    score += 1;
                } else {
                    ok = false;
                    break;
                }
            }
            if ok && best.map(|(_, _, s)| score > s).unwrap_or(true) {
                best = Some((decl, sig, score));
            }
        }
        match best {
            Some((decl, sig, _)) => Ok((decl, sig.clone())),
            None => Err(CompileError::check(
                line,
                format!(
                    "no applicable overload of {what} for ({})",
                    arg_types
                        .iter()
                        .map(|t| t.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            )),
        }
    }

    /// Pre-pass type inference used where argument types must be known
    /// before emitting (overload selection, string concatenation).
    fn infer(&self, e: &Expr) -> Result<Ty> {
        Ok(match e {
            Expr::Int(..) => Ty::Int,
            Expr::Long(..) => Ty::Long,
            Expr::Float(..) => Ty::Float,
            Expr::Double(..) => Ty::Double,
            Expr::Char(..) => Ty::Char,
            Expr::Bool(..) => Ty::Boolean,
            Expr::Str(..) => Ty::string(),
            Expr::Null(_) => Ty::Null,
            Expr::This(line) => {
                if self.is_static {
                    return Err(CompileError::check(*line, "`this` in static context"));
                }
                Ty::Object(self.internal.to_owned())
            }
            Expr::Name(n, line) => {
                if let Some((_, ty)) = self.lookup_local(n) {
                    ty
                } else if let Some((_, sig)) = self.env.lookup_field(self.internal, n) {
                    sig.ty.clone()
                } else {
                    return Err(CompileError::check(*line, format!("unknown name `{n}`")));
                }
            }
            Expr::Field { target, name, line } => {
                if let Expr::Name(base, _) = &**target {
                    if self.is_class_name(base) {
                        let internal = self.env.resolve(base).expect("checked").to_owned();
                        return self
                            .env
                            .lookup_field(&internal, name)
                            .map(|(_, sig)| sig.ty.clone())
                            .ok_or_else(|| {
                                CompileError::check(*line, format!("no field `{name}` on {base}"))
                            });
                    }
                }
                let t = self.infer(target)?;
                match &t {
                    Ty::Array(_) if name == "length" => Ty::Int,
                    Ty::Object(internal) => self
                        .env
                        .lookup_field(internal, name)
                        .map(|(_, sig)| sig.ty.clone())
                        .ok_or_else(|| {
                            CompileError::check(*line, format!("no field `{name}` on {t}"))
                        })?,
                    other => {
                        return Err(CompileError::check(
                            *line,
                            format!("no field `{name}` on {other}"),
                        ));
                    }
                }
            }
            Expr::Index { array, line, .. } => match self.infer(array)? {
                Ty::Array(e) => *e,
                other => {
                    return Err(CompileError::check(
                        *line,
                        format!("indexing non-array {other}"),
                    ));
                }
            },
            Expr::Call {
                target,
                method,
                args,
                line,
            } => {
                let (owner, candidates_owner) = match target.as_deref() {
                    None => (self.internal.to_owned(), None),
                    Some(Expr::Name(base, _)) if self.is_class_name(base) => {
                        (self.env.resolve(base).expect("checked").to_owned(), None)
                    }
                    Some(t) => match self.infer(t)? {
                        Ty::Object(o) => (o.clone(), Some(o)),
                        other => {
                            return Err(CompileError::check(
                                *line,
                                format!("cannot call method on {other}"),
                            ));
                        }
                    },
                };
                let _ = candidates_owner;
                let arg_types = args
                    .iter()
                    .map(|a| self.infer(a))
                    .collect::<Result<Vec<_>>>()?;
                let cands = self.env.lookup_methods(&owner, method);
                if cands.is_empty() && target.is_none() {
                    // Builtin `println` / `print` shorthand.
                    if method == "println" {
                        return Ok(Ty::Void);
                    }
                }
                let (_, sig) = self.select_overload(&cands, &arg_types, *line, method)?;
                sig.ret
            }
            Expr::New { class, line, .. } => {
                let internal = self.env.resolve(class).ok_or_else(|| {
                    CompileError::check(*line, format!("unknown class `{class}`"))
                })?;
                Ty::Object(internal.to_owned())
            }
            Expr::NewArray { elem, line, .. } => Ty::Array(Box::new(self.resolve(elem, *line)?)),
            Expr::Bin { op, lhs, rhs, line } => {
                let l = self.infer(lhs)?;
                let r = self.infer(rhs)?;
                match op {
                    BinOp::LAnd
                    | BinOp::LOr
                    | BinOp::Eq
                    | BinOp::Ne
                    | BinOp::Lt
                    | BinOp::Le
                    | BinOp::Gt
                    | BinOp::Ge => Ty::Boolean,
                    BinOp::Add if l == Ty::string() || r == Ty::string() => Ty::string(),
                    BinOp::Shl | BinOp::Shr | BinOp::Ushr => norm(&l),
                    BinOp::And | BinOp::Or | BinOp::Xor if l == Ty::Boolean && r == Ty::Boolean => {
                        Ty::Boolean
                    }
                    _ => promote(&l, &r).ok_or_else(|| {
                        CompileError::check(*line, format!("bad operands {l} and {r}"))
                    })?,
                }
            }
            Expr::Not(..) => Ty::Boolean,
            Expr::Neg(inner, _) => norm(&self.infer(inner)?),
            Expr::Cast { ty, line, .. } => self.resolve(ty, *line)?,
            Expr::InstanceOf { .. } => Ty::Boolean,
            Expr::Assign { .. } | Expr::Incr { .. } => Ty::Void,
        })
    }

    fn gen_call(
        &mut self,
        target: Option<&Expr>,
        method: &str,
        args: &[Expr],
        line: u32,
    ) -> Result<Ty> {
        let arg_types = args
            .iter()
            .map(|a| self.infer(a))
            .collect::<Result<Vec<_>>>()?;

        // Unqualified call.
        let (owner, receiver): (String, Option<&Expr>) = match target {
            None => {
                let cands = self.env.lookup_methods(self.internal, method);
                if cands.is_empty() && method == "println" {
                    // Builtin shorthand for System.println.
                    let sys_cands = self.env.lookup_methods("java/lang/System", "println");
                    let (decl, sig) = self.select_overload(&sys_cands, &arg_types, line, method)?;
                    let decl = decl.to_owned();
                    for (a, p) in args.iter().zip(&sig.params) {
                        let t = self.expr(a)?;
                        self.convert(&t, p, line)?;
                    }
                    self.mb.invokestatic(&decl, "println", &sig.descriptor());
                    return Ok(Ty::Void);
                }
                (self.internal.to_owned(), None)
            }
            Some(Expr::Name(base, _)) if self.is_class_name(base) => {
                (self.env.resolve(base).expect("checked").to_owned(), None)
            }
            Some(recv) => {
                let t = self.infer(recv)?;
                match t {
                    Ty::Object(o) => (o, Some(recv)),
                    other => {
                        return Err(CompileError::check(
                            line,
                            format!("cannot call `{method}` on {other}"),
                        ));
                    }
                }
            }
        };

        let cands = self.env.lookup_methods(&owner, method);
        let (decl, sig) = self.select_overload(&cands, &arg_types, line, method)?;
        let decl = decl.to_owned();
        let decl_is_interface = self
            .env
            .class(&decl)
            .map(|c| c.is_interface)
            .unwrap_or(false);

        if sig.is_static {
            for (a, p) in args.iter().zip(&sig.params) {
                let t = self.expr(a)?;
                self.convert(&t, p, line)?;
            }
            self.mb.invokestatic(&decl, method, &sig.descriptor());
        } else {
            match receiver {
                Some(r) => {
                    self.expr(r)?;
                }
                None => {
                    if self.is_static {
                        return Err(CompileError::check(
                            line,
                            format!("instance method `{method}` called from static context"),
                        ));
                    }
                    self.mb.aload(0);
                }
            }
            for (a, p) in args.iter().zip(&sig.params) {
                let t = self.expr(a)?;
                self.convert(&t, p, line)?;
            }
            // The receiver's *static* type decides interface vs virtual
            // dispatch; the owner may be a class implementing the
            // interface method, in which case virtual is correct.
            let owner_is_interface = self
                .env
                .class(&owner)
                .map(|c| c.is_interface)
                .unwrap_or(false);
            if owner_is_interface || (decl_is_interface && owner == decl) {
                self.mb.invokeinterface(&owner, method, &sig.descriptor());
            } else {
                self.mb.invokevirtual(&decl, method, &sig.descriptor());
            }
        }
        Ok(sig.ret)
    }

    fn gen_new(&mut self, class: &str, args: &[Expr], line: u32) -> Result<Ty> {
        let internal = self
            .env
            .resolve(class)
            .ok_or_else(|| CompileError::check(line, format!("unknown class `{class}`")))?
            .to_owned();
        if self
            .env
            .class(&internal)
            .map(|c| c.is_interface)
            .unwrap_or(false)
        {
            return Err(CompileError::check(
                line,
                format!("cannot instantiate interface {class}"),
            ));
        }
        let arg_types = args
            .iter()
            .map(|a| self.infer(a))
            .collect::<Result<Vec<_>>>()?;
        let cands = self.env.lookup_methods(&internal, "<init>");
        // Constructors do not inherit: only the class's own.
        let own: Vec<_> = cands.into_iter().filter(|(d, _)| *d == internal).collect();
        let (_, sig) =
            self.select_overload(&own, &arg_types, line, &format!("{class} constructor"))?;
        self.mb.new_object(&internal);
        self.mb.op(Opcode::Dup);
        for (a, p) in args.iter().zip(&sig.params) {
            let t = self.expr(a)?;
            self.convert(&t, p, line)?;
        }
        self.mb
            .invokespecial(&internal, "<init>", &sig.descriptor());
        Ok(Ty::Object(internal))
    }

    fn gen_bin(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr, line: u32) -> Result<Ty> {
        use Opcode as O;
        match op {
            BinOp::LAnd => {
                let t = self.expr(lhs)?;
                self.expect_boolean(&t, line)?;
                let lfalse = self.mb.new_label();
                let lend = self.mb.new_label();
                self.mb.branch(O::Ifeq, lfalse);
                let t = self.expr(rhs)?;
                self.expect_boolean(&t, line)?;
                self.mb.goto(lend);
                self.mb.bind(lfalse);
                self.mb.const_int(0);
                self.mb.bind(lend);
                return Ok(Ty::Boolean);
            }
            BinOp::LOr => {
                let t = self.expr(lhs)?;
                self.expect_boolean(&t, line)?;
                let ltrue = self.mb.new_label();
                let lend = self.mb.new_label();
                self.mb.branch(O::Ifne, ltrue);
                let t = self.expr(rhs)?;
                self.expect_boolean(&t, line)?;
                self.mb.goto(lend);
                self.mb.bind(ltrue);
                self.mb.const_int(1);
                self.mb.bind(lend);
                return Ok(Ty::Boolean);
            }
            _ => {}
        }

        let lt = self.infer(lhs)?;
        let rt = self.infer(rhs)?;

        // String concatenation.
        if op == BinOp::Add && (lt == Ty::string() || rt == Ty::string()) {
            return self.gen_string_concat(lhs, rhs, line);
        }

        // Reference equality (including String: paper §3.5 — `==` does
        // not hold across bundles; use equals()).
        if matches!(op, BinOp::Eq | BinOp::Ne) && lt.is_reference() && rt.is_reference() {
            self.expr(lhs)?;
            self.expr(rhs)?;
            let branch = if op == BinOp::Eq {
                O::IfAcmpeq
            } else {
                O::IfAcmpne
            };
            return self.bool_from_branch(branch);
        }

        // Boolean bit ops.
        if matches!(op, BinOp::And | BinOp::Or | BinOp::Xor)
            && lt == Ty::Boolean
            && rt == Ty::Boolean
        {
            self.expr(lhs)?;
            self.expr(rhs)?;
            self.mb.op(match op {
                BinOp::And => O::Iand,
                BinOp::Or => O::Ior,
                _ => O::Ixor,
            });
            return Ok(Ty::Boolean);
        }

        // Shifts: left operand keeps its (int/long) type, right is int.
        if matches!(op, BinOp::Shl | BinOp::Shr | BinOp::Ushr) {
            let t = norm(&lt);
            if !matches!(t, Ty::Int | Ty::Long) {
                return Err(CompileError::check(line, format!("cannot shift {lt}")));
            }
            let actual = self.expr(lhs)?;
            self.convert(&actual, &t, line)?;
            let rtv = self.expr(rhs)?;
            self.convert(&norm(&rtv), &Ty::Int, line)?;
            let opcode = match (op, &t) {
                (BinOp::Shl, Ty::Int) => O::Ishl,
                (BinOp::Shr, Ty::Int) => O::Ishr,
                (BinOp::Ushr, Ty::Int) => O::Iushr,
                (BinOp::Shl, _) => O::Lshl,
                (BinOp::Shr, _) => O::Lshr,
                (BinOp::Ushr, _) => O::Lushr,
                _ => unreachable!(),
            };
            self.mb.op(opcode);
            return Ok(t);
        }

        // Numeric (and char) operations with promotion.
        let t = promote(&lt, &rt)
            .ok_or_else(|| CompileError::check(line, format!("bad operands {lt} and {rt}")))?;
        let actual = self.expr(lhs)?;
        self.convert(&norm(&actual), &t, line)?;
        let actual = self.expr(rhs)?;
        self.convert(&norm(&actual), &t, line)?;

        match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                let opcode = arith_op(op, &t);
                self.mb.op(opcode);
                Ok(t)
            }
            BinOp::And | BinOp::Or | BinOp::Xor => {
                let opcode = match (op, &t) {
                    (BinOp::And, Ty::Int) => O::Iand,
                    (BinOp::Or, Ty::Int) => O::Ior,
                    (BinOp::Xor, Ty::Int) => O::Ixor,
                    (BinOp::And, Ty::Long) => O::Land,
                    (BinOp::Or, Ty::Long) => O::Lor,
                    (BinOp::Xor, Ty::Long) => O::Lxor,
                    _ => {
                        return Err(CompileError::check(
                            line,
                            format!("bad bit-op operands {t}"),
                        ));
                    }
                };
                self.mb.op(opcode);
                Ok(t)
            }
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => match &t {
                Ty::Int => {
                    let branch = match op {
                        BinOp::Eq => O::IfIcmpeq,
                        BinOp::Ne => O::IfIcmpne,
                        BinOp::Lt => O::IfIcmplt,
                        BinOp::Le => O::IfIcmple,
                        BinOp::Gt => O::IfIcmpgt,
                        _ => O::IfIcmpge,
                    };
                    self.bool_from_branch(branch)
                }
                Ty::Long | Ty::Float | Ty::Double => {
                    self.mb.op(match &t {
                        Ty::Long => O::Lcmp,
                        Ty::Float => O::Fcmpl,
                        _ => O::Dcmpl,
                    });
                    let branch = match op {
                        BinOp::Eq => O::Ifeq,
                        BinOp::Ne => O::Ifne,
                        BinOp::Lt => O::Iflt,
                        BinOp::Le => O::Ifle,
                        BinOp::Gt => O::Ifgt,
                        _ => O::Ifge,
                    };
                    self.bool_from_branch(branch)
                }
                other => Err(CompileError::check(line, format!("cannot compare {other}"))),
            },
            BinOp::LAnd | BinOp::LOr | BinOp::Shl | BinOp::Shr | BinOp::Ushr => unreachable!(),
        }
    }

    /// Turns a comparison branch into a 0/1 boolean on the stack.
    fn bool_from_branch(&mut self, branch: Opcode) -> Result<Ty> {
        let ltrue = self.mb.new_label();
        let lend = self.mb.new_label();
        self.mb.branch(branch, ltrue);
        self.mb.const_int(0);
        self.mb.goto(lend);
        self.mb.bind(ltrue);
        self.mb.const_int(1);
        self.mb.bind(lend);
        Ok(Ty::Boolean)
    }

    fn gen_string_concat(&mut self, lhs: &Expr, rhs: &Expr, line: u32) -> Result<Ty> {
        // Flatten nested `+` that are part of the same string chain.
        let mut parts = Vec::new();
        collect_concat(lhs, &mut parts);
        collect_concat(rhs, &mut parts);
        let sb = "java/lang/StringBuilder";
        self.mb.new_object(sb);
        self.mb.op(Opcode::Dup);
        self.mb.invokespecial(sb, "<init>", "()V");
        for p in parts {
            let t = self.expr(p)?;
            let desc = match norm(&t) {
                Ty::Int => "(I)Ljava/lang/StringBuilder;",
                Ty::Long => "(J)Ljava/lang/StringBuilder;",
                Ty::Float => {
                    self.mb.op(Opcode::F2d);
                    "(D)Ljava/lang/StringBuilder;"
                }
                Ty::Double => "(D)Ljava/lang/StringBuilder;",
                Ty::Boolean => "(Z)Ljava/lang/StringBuilder;",
                Ty::Char => "(C)Ljava/lang/StringBuilder;",
                Ty::Object(ref o) if o == "java/lang/String" => {
                    "(Ljava/lang/String;)Ljava/lang/StringBuilder;"
                }
                Ty::Object(_) | Ty::Array(_) | Ty::Null => {
                    "(Ljava/lang/Object;)Ljava/lang/StringBuilder;"
                }
                other => {
                    return Err(CompileError::check(
                        line,
                        format!("cannot concatenate {other}"),
                    ));
                }
            };
            self.mb.invokevirtual(sb, "append", desc);
        }
        self.mb
            .invokevirtual(sb, "toString", "()Ljava/lang/String;");
        Ok(Ty::string())
    }

    fn gen_assign(
        &mut self,
        target: &Expr,
        op: Option<BinOp>,
        value: &Expr,
        line: u32,
    ) -> Result<()> {
        // Rewrite compound assignment `t op= v` as `t = t op v` while
        // keeping single evaluation of the target's subexpressions.
        match target {
            Expr::Name(n, _) => {
                if let Some((slot, ty)) = self.lookup_local(n) {
                    if let Some(op) = op {
                        self.load_local(slot, &ty);
                        self.gen_compound_value(op, &ty, value, line)?;
                    } else {
                        let t = self.expr(value)?;
                        self.convert(&t, &ty, line)?;
                    }
                    self.store_local(slot, &ty);
                    return Ok(());
                }
                // Field of this / static of current class.
                let (decl, sig) = self
                    .env
                    .lookup_field(self.internal, n)
                    .ok_or_else(|| CompileError::check(line, format!("unknown name `{n}`")))?;
                let (decl, sig) = (decl.to_owned(), sig.clone());
                if sig.is_static {
                    if let Some(op) = op {
                        self.mb.getstatic(&decl, n, &sig.ty.descriptor());
                        self.gen_compound_value(op, &sig.ty, value, line)?;
                    } else {
                        let t = self.expr(value)?;
                        self.convert(&t, &sig.ty, line)?;
                    }
                    self.mb.putstatic(&decl, n, &sig.ty.descriptor());
                } else {
                    if self.is_static {
                        return Err(CompileError::check(
                            line,
                            format!("instance field `{n}` in static context"),
                        ));
                    }
                    self.mb.aload(0);
                    if let Some(op) = op {
                        self.mb.op(Opcode::Dup);
                        self.mb.getfield(&decl, n, &sig.ty.descriptor());
                        self.gen_compound_value(op, &sig.ty, value, line)?;
                    } else {
                        let t = self.expr(value)?;
                        self.convert(&t, &sig.ty, line)?;
                    }
                    self.mb.putfield(&decl, n, &sig.ty.descriptor());
                }
                Ok(())
            }
            Expr::Field {
                target: base,
                name,
                line: fline,
            } => {
                // Static via class name?
                if let Expr::Name(b, _) = &**base {
                    if self.is_class_name(b) {
                        let internal = self.env.resolve(b).expect("checked").to_owned();
                        let (decl, sig) =
                            self.env.lookup_field(&internal, name).ok_or_else(|| {
                                CompileError::check(*fline, format!("no field `{name}` on {b}"))
                            })?;
                        let (decl, sig) = (decl.to_owned(), sig.clone());
                        if !sig.is_static {
                            return Err(CompileError::check(
                                *fline,
                                format!("`{b}.{name}` is not static"),
                            ));
                        }
                        if let Some(op) = op {
                            self.mb.getstatic(&decl, name, &sig.ty.descriptor());
                            self.gen_compound_value(op, &sig.ty, value, line)?;
                        } else {
                            let t = self.expr(value)?;
                            self.convert(&t, &sig.ty, line)?;
                        }
                        self.mb.putstatic(&decl, name, &sig.ty.descriptor());
                        return Ok(());
                    }
                }
                let bt = self.expr(base)?;
                let Ty::Object(internal) = &bt else {
                    return Err(CompileError::check(
                        *fline,
                        format!("no field `{name}` on {bt}"),
                    ));
                };
                let (decl, sig) = self.env.lookup_field(internal, name).ok_or_else(|| {
                    CompileError::check(*fline, format!("no field `{name}` on {bt}"))
                })?;
                let (decl, sig) = (decl.to_owned(), sig.clone());
                if let Some(op) = op {
                    self.mb.op(Opcode::Dup);
                    self.mb.getfield(&decl, name, &sig.ty.descriptor());
                    self.gen_compound_value(op, &sig.ty, value, line)?;
                } else {
                    let t = self.expr(value)?;
                    self.convert(&t, &sig.ty, line)?;
                }
                self.mb.putfield(&decl, name, &sig.ty.descriptor());
                Ok(())
            }
            Expr::Index {
                array,
                index,
                line: iline,
            } => {
                let at = self.expr(array)?;
                let Ty::Array(elem) = at else {
                    return Err(CompileError::check(*iline, "indexing non-array"));
                };
                let it = self.expr(index)?;
                self.convert(&it, &Ty::Int, *iline)?;
                if let Some(op) = op {
                    self.mb.op(Opcode::Dup2);
                    self.mb.op(array_load_op(&elem));
                    self.gen_compound_value(op, &elem, value, line)?;
                } else {
                    let t = self.expr(value)?;
                    self.convert(&t, &elem, line)?;
                }
                self.mb.op(array_store_op(&elem));
                Ok(())
            }
            other => Err(CompileError::check(
                other.line(),
                "invalid assignment target",
            )),
        }
    }

    /// With the current value of type `ty` on the stack, applies
    /// `op value` and leaves the result (converted back to `ty`).
    fn gen_compound_value(&mut self, op: BinOp, ty: &Ty, value: &Expr, line: u32) -> Result<()> {
        // String += is concatenation.
        if *ty == Ty::string() && op == BinOp::Add {
            let t = self.expr(value)?;
            if t == Ty::string() {
                self.mb.invokevirtual(
                    "java/lang/String",
                    "concat",
                    "(Ljava/lang/String;)Ljava/lang/String;",
                );
                return Ok(());
            }
            return Err(CompileError::check(
                line,
                "can only += a String to a String",
            ));
        }
        let vt = self.expr(value)?;
        let work = promote(&norm(ty), &norm(&vt))
            .ok_or_else(|| CompileError::check(line, format!("bad operands {ty} and {vt}")))?;
        // The current value was pushed before `value`; if it needs
        // widening the work type must equal ty (no narrowing back).
        if work != norm(ty) {
            return Err(CompileError::check(
                line,
                format!("compound assignment would narrow {work} to {ty}"),
            ));
        }
        self.convert(&norm(&vt), &work, line)?;
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                let opcode = arith_op(op, &work);
                self.mb.op(opcode);
            }
            BinOp::And | BinOp::Or | BinOp::Xor => {
                let opcode = match (&work, op) {
                    (Ty::Int, BinOp::And) => Opcode::Iand,
                    (Ty::Int, BinOp::Or) => Opcode::Ior,
                    (Ty::Int, BinOp::Xor) => Opcode::Ixor,
                    (Ty::Long, BinOp::And) => Opcode::Land,
                    (Ty::Long, BinOp::Or) => Opcode::Lor,
                    (Ty::Long, BinOp::Xor) => Opcode::Lxor,
                    _ => return Err(CompileError::check(line, "bad compound bit-op")),
                };
                self.mb.op(opcode);
            }
            BinOp::Shl | BinOp::Shr | BinOp::Ushr => {
                let opcode = match (&work, op) {
                    (Ty::Int, BinOp::Shl) => Opcode::Ishl,
                    (Ty::Int, BinOp::Shr) => Opcode::Ishr,
                    (Ty::Int, BinOp::Ushr) => Opcode::Iushr,
                    (Ty::Long, BinOp::Shl) => Opcode::Lshl,
                    (Ty::Long, BinOp::Shr) => Opcode::Lshr,
                    (Ty::Long, BinOp::Ushr) => Opcode::Lushr,
                    _ => return Err(CompileError::check(line, "bad compound shift")),
                };
                self.mb.op(opcode);
            }
            _ => return Err(CompileError::check(line, "bad compound operator")),
        }
        if *ty == Ty::Char {
            self.mb.op(Opcode::I2c);
        }
        Ok(())
    }

    fn gen_incr(&mut self, target: &Expr, delta: i32, line: u32) -> Result<()> {
        if let Expr::Name(n, _) = target {
            if let Some((slot, ty)) = self.lookup_local(n) {
                if ty == Ty::Int {
                    self.mb.iinc(slot, delta as i16);
                    return Ok(());
                }
            }
        }
        // General case: t = t + delta.
        let value = Expr::Int(delta, line);
        self.gen_assign(target, Some(BinOp::Add), &value, line)
    }
}

/// Normalizes char to int for arithmetic purposes.
fn norm(t: &Ty) -> Ty {
    match t {
        Ty::Char => Ty::Int,
        other => other.clone(),
    }
}

/// Binary numeric promotion.
fn promote(l: &Ty, r: &Ty) -> Option<Ty> {
    let l = norm(l);
    let r = norm(r);
    if !matches!(l, Ty::Int | Ty::Long | Ty::Float | Ty::Double)
        || !matches!(r, Ty::Int | Ty::Long | Ty::Float | Ty::Double)
    {
        return None;
    }
    Some(match (l, r) {
        (Ty::Double, _) | (_, Ty::Double) => Ty::Double,
        (Ty::Float, _) | (_, Ty::Float) => Ty::Float,
        (Ty::Long, _) | (_, Ty::Long) => Ty::Long,
        _ => Ty::Int,
    })
}

fn arith_op(op: BinOp, t: &Ty) -> Opcode {
    use Opcode as O;
    match (op, t) {
        (BinOp::Add, Ty::Int) => O::Iadd,
        (BinOp::Sub, Ty::Int) => O::Isub,
        (BinOp::Mul, Ty::Int) => O::Imul,
        (BinOp::Div, Ty::Int) => O::Idiv,
        (BinOp::Rem, Ty::Int) => O::Irem,
        (BinOp::Add, Ty::Long) => O::Ladd,
        (BinOp::Sub, Ty::Long) => O::Lsub,
        (BinOp::Mul, Ty::Long) => O::Lmul,
        (BinOp::Div, Ty::Long) => O::Ldiv,
        (BinOp::Rem, Ty::Long) => O::Lrem,
        (BinOp::Add, Ty::Float) => O::Fadd,
        (BinOp::Sub, Ty::Float) => O::Fsub,
        (BinOp::Mul, Ty::Float) => O::Fmul,
        (BinOp::Div, Ty::Float) => O::Fdiv,
        (BinOp::Rem, Ty::Float) => O::Frem,
        (BinOp::Add, Ty::Double) => O::Dadd,
        (BinOp::Sub, Ty::Double) => O::Dsub,
        (BinOp::Mul, Ty::Double) => O::Dmul,
        (BinOp::Div, Ty::Double) => O::Ddiv,
        (BinOp::Rem, Ty::Double) => O::Drem,
        _ => unreachable!("arith_op on non-numeric type"),
    }
}

fn array_load_op(elem: &Ty) -> Opcode {
    match elem {
        Ty::Int => Opcode::Iaload,
        Ty::Long => Opcode::Laload,
        Ty::Float => Opcode::Faload,
        Ty::Double => Opcode::Daload,
        Ty::Boolean => Opcode::Baload,
        Ty::Char => Opcode::Caload,
        _ => Opcode::Aaload,
    }
}

fn array_store_op(elem: &Ty) -> Opcode {
    match elem {
        Ty::Int => Opcode::Iastore,
        Ty::Long => Opcode::Lastore,
        Ty::Float => Opcode::Fastore,
        Ty::Double => Opcode::Dastore,
        Ty::Boolean => Opcode::Bastore,
        Ty::Char => Opcode::Castore,
        _ => Opcode::Aastore,
    }
}

/// Flattens a `+` tree into concatenation parts.
fn collect_concat<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    if let Expr::Bin {
        op: BinOp::Add,
        lhs,
        rhs,
        ..
    } = e
    {
        // Only flatten if this subtree is itself stringy-ambiguous; to
        // keep arithmetic like `1 + 2 + "s"` left-folded correctly we
        // flatten conservatively: nested `+` flattens only when one side
        // is a string literal chain. Simplest correct choice: do not
        // flatten nested arithmetic — flatten only direct string `+`.
        if contains_string_literal(e) {
            collect_concat(lhs, out);
            collect_concat(rhs, out);
            return;
        }
    }
    out.push(e);
}

fn contains_string_literal(e: &Expr) -> bool {
    match e {
        Expr::Str(..) => true,
        Expr::Bin {
            op: BinOp::Add,
            lhs,
            rhs,
            ..
        } => contains_string_literal(lhs) || contains_string_literal(rhs),
        _ => false,
    }
}

fn return_op(ret: &Ty) -> Opcode {
    match ret {
        Ty::Long => Opcode::Lreturn,
        Ty::Float => Opcode::Freturn,
        Ty::Double => Opcode::Dreturn,
        Ty::Object(_) | Ty::Array(_) | Ty::Null => Opcode::Areturn,
        Ty::Void => Opcode::Return,
        _ => Opcode::Ireturn,
    }
}
