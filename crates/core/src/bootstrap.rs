//! Essential system classes, built programmatically and installed into the
//! bootstrap loader: `java/lang/Object`, `java/lang/Class`,
//! `java/lang/String`, the `Throwable` hierarchy, and
//! `org/ijvm/StoppedIsolateException`.
//!
//! The full system library (collections, `Thread`, `System`, I/O, …) lives
//! in `ijvm-jsl`; this module is only what the VM itself needs to operate
//! (string literals, exception delivery).

use crate::error::Result;
use crate::interp::STOPPED_ISOLATE_EXCEPTION;
use crate::natives::NativeResult;
use crate::value::Value;
use crate::vm::Vm;
use ijvm_classfile::{AccessFlags, ClassBuilder, ClassFile, Opcode};
use std::sync::Arc;

const PUB: AccessFlags = AccessFlags::PUBLIC;

/// Builds `java/lang/Object`.
pub(crate) fn object_class() -> ClassFile {
    let mut cb = ClassBuilder::new_root("java/lang/Object", PUB);
    let mut m = cb.method("<init>", "()V", PUB);
    m.op(Opcode::Return);
    m.done().expect("Object.<init>");
    cb.native_method("hashCode", "()I", PUB);
    cb.native_method("getClass", "()Ljava/lang/Class;", PUB);
    cb.native_method("toString", "()Ljava/lang/String;", PUB);
    let mut m = cb.method("equals", "(Ljava/lang/Object;)Z", PUB);
    let eq = m.new_label();
    m.aload(0);
    m.aload(1);
    m.branch(Opcode::IfAcmpeq, eq);
    m.const_int(0);
    m.op(Opcode::Ireturn);
    m.bind(eq);
    m.const_int(1);
    m.op(Opcode::Ireturn);
    m.done().expect("Object.equals");
    cb.build().expect("java/lang/Object")
}

/// Builds `java/lang/Class` (per-isolate instances are the monitors that
/// synchronized static methods lock — the state attack A2 targets).
pub(crate) fn class_class() -> ClassFile {
    let mut cb = ClassBuilder::new("java/lang/Class", "java/lang/Object", PUB);
    cb.field("name", "Ljava/lang/String;", PUB | AccessFlags::FINAL);
    let mut m = cb.method("getName", "()Ljava/lang/String;", PUB);
    m.aload(0);
    m.getfield("java/lang/Class", "name", "Ljava/lang/String;");
    m.op(Opcode::Areturn);
    m.done().expect("Class.getName");
    cb.build().expect("java/lang/Class")
}

/// Builds `java/lang/String` (backed by a `[C` value array).
pub(crate) fn string_class() -> ClassFile {
    let mut cb = ClassBuilder::new(
        "java/lang/String",
        "java/lang/Object",
        PUB | AccessFlags::FINAL,
    );
    cb.field("value", "[C", AccessFlags::PRIVATE | AccessFlags::FINAL);
    let mut m = cb.method("length", "()I", PUB);
    m.aload(0);
    m.getfield("java/lang/String", "value", "[C");
    m.op(Opcode::Arraylength);
    m.op(Opcode::Ireturn);
    m.done().expect("String.length");
    let mut m = cb.method("charAt", "(I)C", PUB);
    m.aload(0);
    m.getfield("java/lang/String", "value", "[C");
    m.iload(1);
    m.op(Opcode::Caload);
    m.op(Opcode::Ireturn);
    m.done().expect("String.charAt");
    cb.native_method("equals", "(Ljava/lang/Object;)Z", PUB);
    cb.native_method("hashCode", "()I", PUB);
    cb.native_method("concat", "(Ljava/lang/String;)Ljava/lang/String;", PUB);
    cb.native_method("substring", "(II)Ljava/lang/String;", PUB);
    cb.native_method("indexOf", "(I)I", PUB);
    cb.native_method("intern", "()Ljava/lang/String;", PUB);
    cb.native_method("toString", "()Ljava/lang/String;", PUB);
    cb.build().expect("java/lang/String")
}

/// Builds `java/lang/Throwable` with a `message` field.
pub(crate) fn throwable_class() -> ClassFile {
    let mut cb = ClassBuilder::new("java/lang/Throwable", "java/lang/Object", PUB);
    cb.field("message", "Ljava/lang/String;", AccessFlags::PROTECTED);
    let mut m = cb.method("<init>", "()V", PUB);
    m.aload(0);
    m.invokespecial("java/lang/Object", "<init>", "()V");
    m.op(Opcode::Return);
    m.done().expect("Throwable.<init>()");
    let mut m = cb.method("<init>", "(Ljava/lang/String;)V", PUB);
    m.aload(0);
    m.invokespecial("java/lang/Object", "<init>", "()V");
    m.aload(0);
    m.aload(1);
    m.putfield("java/lang/Throwable", "message", "Ljava/lang/String;");
    m.op(Opcode::Return);
    m.done().expect("Throwable.<init>(String)");
    let mut m = cb.method("getMessage", "()Ljava/lang/String;", PUB);
    m.aload(0);
    m.getfield("java/lang/Throwable", "message", "Ljava/lang/String;");
    m.op(Opcode::Areturn);
    m.done().expect("Throwable.getMessage");
    cb.build().expect("java/lang/Throwable")
}

/// Builds a trivial `Throwable` subclass with the two standard
/// constructors delegating to `super_name`.
pub(crate) fn exception_subclass(name: &str, super_name: &str) -> ClassFile {
    let mut cb = ClassBuilder::new(name, super_name, PUB);
    let mut m = cb.method("<init>", "()V", PUB);
    m.aload(0);
    m.invokespecial(super_name, "<init>", "()V");
    m.op(Opcode::Return);
    m.done().expect("ctor");
    let mut m = cb.method("<init>", "(Ljava/lang/String;)V", PUB);
    m.aload(0);
    m.aload(1);
    m.invokespecial(super_name, "<init>", "(Ljava/lang/String;)V");
    m.op(Opcode::Return);
    m.done().expect("ctor(String)");
    cb.build().expect("exception subclass")
}

/// Builds `org/ijvm/StoppedIsolateException`, the uncatchable-by-its-own-
/// isolate exception that isolate termination raises (paper §3.3). The
/// `isolateId` field records the terminated isolate.
pub(crate) fn stopped_isolate_exception_class() -> ClassFile {
    let mut cb = ClassBuilder::new(STOPPED_ISOLATE_EXCEPTION, "java/lang/Error", PUB);
    cb.field("isolateId", "I", PUB);
    let mut m = cb.method("<init>", "()V", PUB);
    m.aload(0);
    m.invokespecial("java/lang/Error", "<init>", "()V");
    m.op(Opcode::Return);
    m.done().expect("ctor");
    let mut m = cb.method("getIsolateId", "()I", PUB);
    m.aload(0);
    m.getfield(STOPPED_ISOLATE_EXCEPTION, "isolateId", "I");
    m.op(Opcode::Ireturn);
    m.done().expect("getIsolateId");
    cb.build().expect("StoppedIsolateException")
}

/// The standard exception hierarchy installed by [`install`], as
/// `(class, superclass)` pairs in installation order.
pub(crate) const EXCEPTION_HIERARCHY: &[(&str, &str)] = &[
    ("java/lang/Exception", "java/lang/Throwable"),
    ("java/lang/RuntimeException", "java/lang/Exception"),
    ("java/lang/Error", "java/lang/Throwable"),
    (
        "java/lang/NullPointerException",
        "java/lang/RuntimeException",
    ),
    (
        "java/lang/ArithmeticException",
        "java/lang/RuntimeException",
    ),
    (
        "java/lang/ArrayIndexOutOfBoundsException",
        "java/lang/RuntimeException",
    ),
    (
        "java/lang/NegativeArraySizeException",
        "java/lang/RuntimeException",
    ),
    ("java/lang/ClassCastException", "java/lang/RuntimeException"),
    (
        "java/lang/IllegalMonitorStateException",
        "java/lang/RuntimeException",
    ),
    (
        "java/lang/IllegalArgumentException",
        "java/lang/RuntimeException",
    ),
    (
        "java/lang/IllegalStateException",
        "java/lang/RuntimeException",
    ),
    (
        "java/lang/UnsupportedOperationException",
        "java/lang/RuntimeException",
    ),
    ("java/lang/SecurityException", "java/lang/RuntimeException"),
    ("java/lang/InterruptedException", "java/lang/Exception"),
    ("java/io/IOException", "java/lang/Exception"),
    ("java/lang/OutOfMemoryError", "java/lang/Error"),
    ("java/lang/StackOverflowError", "java/lang/Error"),
    ("java/lang/VerifyError", "java/lang/Error"),
    ("java/lang/InternalError", "java/lang/Error"),
    ("java/lang/NoClassDefFoundError", "java/lang/Error"),
    ("java/lang/NoSuchFieldError", "java/lang/Error"),
    ("java/lang/NoSuchMethodError", "java/lang/Error"),
    ("java/lang/AbstractMethodError", "java/lang/Error"),
    ("java/lang/UnsatisfiedLinkError", "java/lang/Error"),
    ("java/lang/ExceptionInInitializerError", "java/lang/Error"),
    // Raised at a caller whose cross-unit service call targets a
    // terminated isolate (see `crate::port`).
    (
        "org/ijvm/ServiceRevokedException",
        "java/lang/RuntimeException",
    ),
];

/// Installs the essential bootstrap classes and their natives. Must run
/// before any string or exception is created; `ijvm-jsl` calls this first.
pub fn install(vm: &mut Vm) -> Result<()> {
    register_core_natives(vm);
    vm.install_system_class(&object_class())?;
    vm.install_system_class(&string_class())?;
    vm.install_system_class(&class_class())?;
    vm.install_system_class(&throwable_class())?;
    for (name, sup) in EXCEPTION_HIERARCHY {
        vm.install_system_class(&exception_subclass(name, sup))?;
    }
    vm.install_system_class(&stopped_isolate_exception_class())?;
    crate::port::install(vm)?;
    Ok(())
}

/// Registers exactly the native implementations [`install`] would,
/// without installing any system class. This is the natives hook for
/// checkpoint restore ([`crate::checkpoint::restore`]): a checkpoint
/// image carries the bootstrap classpath — including every system-class
/// byte stream `install` originally wrote — so restore replays the class
/// definitions from the image and must not re-install them; only the
/// host-side native function table (which cannot be serialized) has to
/// be rebuilt. Embedders that registered additional natives must layer
/// their registrations on top, the same way they layered them over
/// [`install`] (e.g. `ijvm_jsl::install_natives`).
pub fn install_natives(vm: &mut Vm) {
    register_core_natives(vm);
    crate::port::install_natives(vm);
}

fn register_core_natives(vm: &mut Vm) {
    vm.register_native(
        "java/lang/Object",
        "hashCode",
        "()I",
        Arc::new(|_vm, _tid, args| {
            let r = args[0].as_ref().expect("receiver");
            // Identity hash: the slab index is stable for the object's life.
            NativeResult::Return(Some(Value::Int(r.0 as i32)))
        }),
    );
    vm.register_native(
        "java/lang/Object",
        "getClass",
        "()Ljava/lang/Class;",
        Arc::new(|vm, tid, args| {
            let r = args[0].as_ref().expect("receiver");
            let class = vm.heap().get(r).class;
            let iso = vm.thread(tid).expect("current thread").current_isolate;
            vm.ensure_mirror(class, iso);
            let mi = vm.mirror_index(iso);
            let class_obj = vm.class(class).mirrors[mi]
                .as_ref()
                .expect("mirror just ensured")
                .class_object;
            NativeResult::Return(Some(Value::Ref(class_obj)))
        }),
    );
    vm.register_native(
        "java/lang/Object",
        "toString",
        "()Ljava/lang/String;",
        Arc::new(|vm, tid, args| {
            let r = args[0].as_ref().expect("receiver");
            let class_name = vm.class(vm.heap().get(r).class).name.to_string();
            let iso = vm.thread(tid).expect("current thread").current_isolate;
            string_result(vm.new_string(iso, &format!("{class_name}@{}", r.0)))
        }),
    );
    vm.register_native(
        "java/lang/String",
        "toString",
        "()Ljava/lang/String;",
        Arc::new(|_vm, _tid, args| NativeResult::Return(Some(args[0]))),
    );
    // The String natives below work on the UTF-16 body in place, so they
    // are exact on every code unit (unpaired surrogates included).
    vm.register_native(
        "java/lang/String",
        "equals",
        "(Ljava/lang/Object;)Z",
        Arc::new(|vm, _tid, args| {
            let a = args[0].as_ref().expect("receiver");
            let eq = match args[1].as_ref().and_then(|b| vm.string_chars(b)) {
                Some(sb) => vm.string_chars(a) == Some(sb),
                None => false,
            };
            NativeResult::Return(Some(Value::Int(eq as i32)))
        }),
    );
    vm.register_native(
        "java/lang/String",
        "hashCode",
        "()I",
        Arc::new(|vm, _tid, args| {
            let r = args[0].as_ref().expect("receiver");
            // Java's String.hashCode.
            let h = vm
                .string_chars(r)
                .unwrap_or_default()
                .iter()
                .fold(0i32, |h, &c| h.wrapping_mul(31).wrapping_add(c as i32));
            NativeResult::Return(Some(Value::Int(h)))
        }),
    );
    vm.register_native(
        "java/lang/String",
        "concat",
        "(Ljava/lang/String;)Ljava/lang/String;",
        Arc::new(|vm, tid, args| {
            let a = args[0].as_ref().expect("receiver");
            let sa = vm.string_chars(a).unwrap_or_default();
            let chars: Box<[u16]> = match args[1].as_ref().and_then(|b| vm.string_chars(b)) {
                Some(sb) => [sa, sb].concat().into(),
                None => sa.iter().copied().chain("null".encode_utf16()).collect(),
            };
            let iso = vm.thread(tid).expect("current thread").current_isolate;
            string_result(vm.new_string_utf16(iso, chars))
        }),
    );
    vm.register_native(
        "java/lang/String",
        "substring",
        "(II)Ljava/lang/String;",
        Arc::new(|vm, tid, args| {
            let r = args[0].as_ref().expect("receiver");
            let chars = vm.string_chars(r).unwrap_or_default();
            let from = args[1].as_int();
            let to = args[2].as_int();
            if from < 0 || to > chars.len() as i32 || from > to {
                return NativeResult::Throw {
                    class_name: "java/lang/ArrayIndexOutOfBoundsException",
                    message: format!("substring({from}, {to}) of length {}", chars.len()),
                };
            }
            let sub: Box<[u16]> = chars[from as usize..to as usize].into();
            let iso = vm.thread(tid).expect("current thread").current_isolate;
            string_result(vm.new_string_utf16(iso, sub))
        }),
    );
    vm.register_native(
        "java/lang/String",
        "indexOf",
        "(I)I",
        Arc::new(|vm, _tid, args| {
            let r = args[0].as_ref().expect("receiver");
            let needle = args[1].as_int() as u16;
            let idx = vm
                .string_chars(r)
                .unwrap_or_default()
                .iter()
                .position(|&c| c == needle)
                .map(|i| i as i32)
                .unwrap_or(-1);
            NativeResult::Return(Some(Value::Int(idx)))
        }),
    );
    vm.register_native(
        "java/lang/String",
        "intern",
        "()Ljava/lang/String;",
        Arc::new(|vm, tid, args| {
            let r = args[0].as_ref().expect("receiver");
            let s = vm.read_string(r).unwrap_or_default();
            let iso = vm.thread(tid).expect("current thread").current_isolate;
            string_result(vm.intern_string(iso, &s))
        }),
    );
}

/// Returns a freshly allocated string, or throws `OutOfMemoryError` when
/// the allocation failed.
fn string_result(r: Option<crate::value::GcRef>) -> NativeResult {
    match r {
        Some(r) => NativeResult::Return(Some(Value::Ref(r))),
        None => NativeResult::Throw {
            class_name: "java/lang/OutOfMemoryError",
            message: "Java heap space".to_owned(),
        },
    }
}
