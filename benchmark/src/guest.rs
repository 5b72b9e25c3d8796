//! Calls into the layers under test, each wrapped in a span and feeding
//! the per-layer samples: compile (`minijava` + `classfile`), boot
//! (`jsl`), class loading and static calls (`core::vm`).

use crate::spans::Recorder;
use ijvm_core::prelude::*;
use ijvm_minijava::CompileEnv;

/// Compiled guest classes as `(internal name, class-file bytes)`.
pub type Classes = Vec<(String, Vec<u8>)>;

/// Compiles mini-Java `source`, timing `compile_to_bytes` from outside.
pub fn compile(rec: &mut Recorder, source: &str) -> Classes {
    let span = rec.begin("minijava.compile_to_bytes");
    let classes = ijvm_minijava::compile_to_bytes(source, &CompileEnv::new())
        .unwrap_or_else(|e| panic!("benchmark guest source does not compile: {e}"));
    rec.end_ms(span, "compile_ms");
    note_compiled(rec, &classes);
    classes
}

/// Counts freshly compiled classes into the compile layer's counters.
pub fn note_compiled(rec: &mut Recorder, classes: &Classes) {
    rec.add("classes_emitted", classes.len() as f64);
    rec.add(
        "class_bytes",
        classes.iter().map(|(_, b)| b.len()).sum::<usize>() as f64,
    );
}

/// Boots a VM with the system library, timing `ijvm_jsl::boot`.
pub fn boot(rec: &mut Recorder, options: VmOptions) -> Vm {
    let span = rec.begin("jsl.boot");
    let vm = ijvm_jsl::boot(options);
    rec.end_ms(span, "boot_ms");
    rec.add("vms_booted", 1.0);
    vm
}

/// Creates an isolate named `name` with `classes` on its loader's class
/// path.
pub fn new_isolate(vm: &mut Vm, name: &str, classes: &Classes) -> (IsolateId, LoaderId) {
    let iso = vm.create_isolate(name);
    let loader = vm.loader_of(iso).expect("fresh isolate has a loader");
    for (class_name, bytes) in classes {
        vm.add_class_bytes(loader, class_name, bytes.clone());
    }
    (iso, loader)
}

/// Loads (defines, links) the class `name`, timing `Vm::load_class`.
pub fn load_class(rec: &mut Recorder, vm: &mut Vm, loader: LoaderId, name: &str) -> ClassId {
    let before = vm.class_count();
    let span = rec.begin("vm.load_class");
    let class = vm
        .load_class(loader, name)
        .unwrap_or_else(|e| panic!("benchmark guest class {name} does not load: {e}"));
    rec.end_ms(span, "load_class_ms");
    rec.add("classes_loaded", (vm.class_count() - before) as f64);
    class
}

/// Calls a static guest method that returns `int`.
pub fn call_int(
    vm: &mut Vm,
    class: ClassId,
    method: &str,
    descriptor: &str,
    args: &[i32],
    caller: IsolateId,
) -> Result<i32, String> {
    let args = args.iter().map(|a| Value::Int(*a)).collect();
    match vm.call_static_as(class, method, descriptor, args, caller) {
        Ok(Some(Value::Int(v))) => Ok(v),
        Ok(other) => Err(format!("{method} returned {other:?}")),
        Err(e) => Err(format!("{method} raised {e}")),
    }
}

/// Spawns (without running) a static guest method as a green thread.
pub fn spawn(
    vm: &mut Vm,
    class: ClassId,
    method: &str,
    descriptor: &str,
    args: &[i32],
    iso: IsolateId,
) -> ThreadId {
    let index = vm
        .class(class)
        .find_method(method, descriptor)
        .unwrap_or_else(|| panic!("benchmark guest method {method}{descriptor} missing"));
    let args = args.iter().map(|a| Value::Int(*a)).collect();
    vm.spawn_thread(method, MethodRef { class, index }, args, iso)
        .expect("a fresh VM is far below its thread limit")
}

/// The `int` a finished guest thread returned.
pub fn thread_int(vm: &Vm, tid: ThreadId) -> Result<i32, String> {
    match vm.thread_outcome(tid) {
        Ok(Some(Value::Int(v))) => Ok(v),
        Ok(other) => Err(format!("thread finished with {other:?}")),
        Err(e) => Err(format!("thread raised {e}")),
    }
}

/// VM options of every benchmark VM: I-JVM isolation on the default
/// (threaded) engine, with the flight recorder on for the traced run.
pub fn vm_options(rec: &Recorder) -> VmOptions {
    let trace = if rec.traced() {
        TraceConfig::Full
    } else {
        TraceConfig::Off
    };
    VmOptions::isolated().with_trace(trace)
}
