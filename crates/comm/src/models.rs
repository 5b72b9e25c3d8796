//! The four inter-bundle communication models of Table 1, on a common
//! two-bundle fixture (a canvas dragging a shape, as in the Felix paint
//! demo of §4.1):
//!
//! * **Local** — callee lives in the caller's own bundle: plain
//!   intra-isolate calls.
//! * **I-JVM** — callee lives in another bundle: direct calls with thread
//!   migration (the paper's contribution).
//! * **Links** — Incommunicado-style isolate links: every call deep-copies
//!   its arguments into the callee isolate and hands off to a callee-side
//!   thread.
//! * **RMI** — full marshalling: arguments and results are serialized,
//!   shipped through a loopback transport, and deserialized.

// This module *times* the four models (Table 1 is wall-clock data), so
// the workspace clippy wall-clock ban is lifted here.
#![allow(clippy::disallowed_types)]

use crate::copy::deep_copy_value;
use ijvm_core::ids::{ClassId, IsolateId, LoaderId, MethodRef};
use ijvm_core::value::{GcRef, Value};
use ijvm_core::vm::{Vm, VmOptions};
use ijvm_core::wire::{deserialize_value, serialize_value};
use ijvm_minijava::{compile_to_bytes, CompileEnv};
use std::time::{Duration, Instant};

/// A communication model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// Intra-bundle direct call.
    Local,
    /// Inter-bundle direct call with thread migration (I-JVM).
    IJvm,
    /// Incommunicado-style link: deep copy + thread hand-off.
    Links,
    /// RMI-style: serialize → loopback transport → deserialize.
    Rmi,
    /// Cross-unit cluster call (`ijvm_core::port`): the caller and the
    /// shape live in *different VMs* scheduled as cluster units; each
    /// call is serialized into the target unit's mailbox, dispatched on
    /// its service pump, and the reply copied back — the copying-model
    /// cost structure, across share-nothing units, on one worker.
    CrossUnit,
}

impl Model {
    /// All five models: the paper's Table 1 order plus the beyond-paper
    /// cross-unit cluster row.
    pub const ALL: [Model; 5] = [
        Model::Local,
        Model::Rmi,
        Model::Links,
        Model::IJvm,
        Model::CrossUnit,
    ];

    /// Display name matching the paper's Table 1 columns.
    pub fn name(self) -> &'static str {
        match self {
            Model::Local => "Local method",
            Model::IJvm => "I-JVM",
            Model::Links => "Incommunicado (links)",
            Model::Rmi => "RMI local call",
            Model::CrossUnit => "cross-unit (cluster)",
        }
    }
}

/// Measured cost of a batch of inter-bundle calls.
#[derive(Debug, Clone)]
pub struct CallCostReport {
    /// The model measured.
    pub model: Model,
    /// Number of calls in the batch (the paper uses 200).
    pub calls: u32,
    /// Wall-clock time for the whole batch.
    pub wall: Duration,
    /// Guest instructions interpreted during the batch.
    pub guest_instructions: u64,
    /// Checksum of the results (guards against dead-code elimination and
    /// validates that every model computed the same thing).
    pub checksum: i64,
}

impl CallCostReport {
    /// Nanoseconds per call.
    pub fn ns_per_call(&self) -> f64 {
        self.wall.as_nanos() as f64 / self.calls.max(1) as f64
    }
}

const SHAPE_SRC: &str = r#"
    class Shape {
        int moveTo(int x) { return x + 1; }
    }
    class ShapeFactory {
        static Shape make() { return new Shape(); }
    }
"#;

fn canvas_src() -> &'static str {
    r#"
    class Canvas {
        static int drag(Shape s, int n) {
            int acc = 0;
            for (int i = 0; i < n; i++) acc += s.moveTo(i);
            return acc;
        }
    }
    "#
}

struct Fixture {
    vm: Vm,
    caller_iso: IsolateId,
    callee_iso: IsolateId,
    callee_loader: LoaderId,
    canvas: Option<ClassId>,
    shape_obj: GcRef,
    shape_move: MethodRef,
    _pin: usize,
}

/// Builds the fixture. For `Local` the shape classes are compiled *into*
/// the caller bundle; otherwise they live in a separate bundle.
fn fixture(model: Model) -> Fixture {
    let mut vm = ijvm_jsl::boot(VmOptions::isolated());
    let caller_iso = vm.create_isolate("canvas-bundle");
    let caller_loader = vm.loader_of(caller_iso).unwrap();

    let (callee_iso, callee_loader) = if model == Model::Local {
        (caller_iso, caller_loader)
    } else {
        let iso = vm.create_isolate("shape-bundle");
        let loader = vm.loader_of(iso).unwrap();
        (iso, loader)
    };

    // Shape classes.
    let shape_env = CompileEnv::new();
    let shape_classes = compile_to_bytes(SHAPE_SRC, &shape_env).unwrap();
    for (name, bytes) in &shape_classes {
        vm.add_class_bytes(callee_loader, name, bytes.clone());
    }
    if callee_loader != caller_loader {
        vm.add_loader_delegate(caller_loader, callee_loader);
    }

    // Canvas (the caller loop), used by Local and IJvm.
    let canvas = if matches!(model, Model::Local | Model::IJvm) {
        let mut cenv = CompileEnv::new();
        for (_, bytes) in &shape_classes {
            let cf = ijvm_classfile::reader::read_class(bytes).unwrap();
            cenv.import_class_file(&cf).unwrap();
        }
        for (name, bytes) in compile_to_bytes(canvas_src(), &cenv).unwrap() {
            vm.add_class_bytes(caller_loader, &name, bytes);
        }
        Some(vm.load_class(caller_loader, "Canvas").unwrap())
    } else {
        None
    };

    // The shared service object: a Shape made by (and charged to) the
    // callee bundle — the reference is then passed explicitly, which is
    // I-JVM's sharing model.
    let factory = vm.load_class(callee_loader, "ShapeFactory").unwrap();
    let made = vm
        .call_static_as(factory, "make", "()LShape;", vec![], callee_iso)
        .unwrap()
        .unwrap();
    let Value::Ref(shape_obj) = made else {
        panic!("factory returned {made}")
    };
    let pin = vm.pin(shape_obj);

    let shape_class = vm.heap().get(shape_obj).class;
    let move_index = vm.class(shape_class).find_method("moveTo", "(I)I").unwrap();
    let shape_move = MethodRef {
        class: shape_class,
        index: move_index,
    };

    Fixture {
        vm,
        caller_iso,
        callee_iso,
        callee_loader,
        canvas,
        shape_obj,
        shape_move,
        _pin: pin,
    }
}

/// Measures `calls` inter-bundle calls under `model`.
pub fn measure(model: Model, calls: u32) -> CallCostReport {
    if model == Model::CrossUnit {
        return measure_cross_unit(calls);
    }
    let mut fx = fixture(model);
    // Warm up: class loading, lazy resolution, allocator growth.
    let warmup = (calls / 10).max(4);
    match model {
        Model::Local | Model::IJvm => {
            run_direct(&mut fx, warmup);
        }
        Model::Links => {
            run_links(&mut fx, warmup);
        }
        Model::Rmi => {
            run_rmi(&mut fx, warmup);
        }
        Model::CrossUnit => unreachable!("dispatched above"),
    };
    let start_insns = fx.vm.vclock();
    let start = Instant::now();
    let checksum = match model {
        Model::Local | Model::IJvm => run_direct(&mut fx, calls),
        Model::Links => run_links(&mut fx, calls),
        Model::Rmi => run_rmi(&mut fx, calls),
        Model::CrossUnit => unreachable!("dispatched above"),
    };
    let wall = start.elapsed();
    let guest_instructions = fx.vm.vclock() - start_insns;
    CallCostReport {
        model,
        calls,
        wall,
        guest_instructions,
        checksum,
    }
}

/// Mini-Java for the cross-unit fixture: the shape bundle exports its
/// `moveTo` as a cluster service; the canvas unit drags through it.
const XUNIT_SHAPE_SRC: &str = r#"
    class ShapeService {
        int handle(int x) { return x + 1; }
    }
    class Boot {
        static int start(int n) {
            Service.export("shape.moveTo", new ShapeService());
            return n;
        }
    }
"#;

const XUNIT_CANVAS_SRC: &str = r#"
    class Canvas {
        static int drag(int n) {
            int acc = 0;
            for (int i = 0; i < n; i++) acc += Service.call("shape.moveTo", i);
            return acc;
        }
    }
"#;

/// Builds one cross-unit fixture unit: compiled classes, pre-loaded, an
/// entry thread spawned for `arg`.
fn xunit_vm(src: &str, entry: &str, method: &str, arg: i32, options: VmOptions) -> Vm {
    let mut vm = ijvm_jsl::boot(options);
    let iso = vm.create_isolate("bundle");
    let loader = vm.loader_of(iso).unwrap();
    for (name, bytes) in compile_to_bytes(src, &CompileEnv::new()).unwrap() {
        vm.add_class_bytes(loader, &name, bytes);
    }
    let class = vm.load_class(loader, entry).unwrap();
    let index = vm.class(class).find_method(method, "(I)I").unwrap();
    vm.spawn_thread(
        method,
        MethodRef { class, index },
        vec![Value::Int(arg)],
        iso,
    )
    .unwrap();
    vm
}

/// Measures `calls` cross-unit service calls on a one-worker cluster
/// (the apples-to-apples comparison against the in-VM models: no
/// parallelism, pure mechanism cost).
pub fn measure_cross_unit(calls: u32) -> CallCostReport {
    measure_cross_unit_with(calls, VmOptions::isolated())
}

/// [`measure_cross_unit`] with explicit per-unit [`VmOptions`] — both
/// units get the same configuration. The bench crate uses this to put
/// the flight recorder's trace-on overhead on the same call micro the
/// cross-unit ceiling is gated on.
pub fn measure_cross_unit_with(calls: u32, options: VmOptions) -> CallCostReport {
    use ijvm_core::sched::{Cluster, SchedulerKind};
    let mut cluster = Cluster::builder()
        .scheduler(SchedulerKind::Deterministic)
        .build();
    let canvas = cluster.submit(xunit_vm(
        XUNIT_CANVAS_SRC,
        "Canvas",
        "drag",
        calls as i32,
        options.clone(),
    ));
    let shape = cluster.submit(xunit_vm(XUNIT_SHAPE_SRC, "Boot", "start", 1, options));
    let start = Instant::now();
    let outcome = cluster.run();
    let wall = start.elapsed();
    let canvas_vm = &outcome.unit(&canvas).vm;
    let shape_vm = &outcome.unit(&shape).vm;
    let checksum = canvas_vm
        .thread_result(ijvm_core::ids::ThreadId(0))
        .map(|v| v.as_int() as i64)
        .expect("canvas finished");
    CallCostReport {
        model: Model::CrossUnit,
        calls,
        wall,
        guest_instructions: canvas_vm.vclock() + shape_vm.vclock(),
        checksum,
    }
}

/// Direct calls: the guest loop invokes `shape.moveTo(i)` n times. For
/// `IJvm` every call migrates the thread into the shape bundle and back.
fn run_direct(fx: &mut Fixture, calls: u32) -> i64 {
    let canvas = fx.canvas.expect("direct models have a Canvas");
    let out = fx
        .vm
        .call_static_as(
            canvas,
            "drag",
            "(LShape;I)I",
            vec![Value::Ref(fx.shape_obj), Value::Int(calls as i32)],
            fx.caller_iso,
        )
        .unwrap()
        .unwrap();
    out.as_int() as i64
}

/// Incommunicado-style links: each call deep-copies the arguments into
/// the callee isolate and executes on a callee-side thread — the caller
/// synchronizes on completion. No object is ever shared.
fn run_links(fx: &mut Fixture, calls: u32) -> i64 {
    let mut acc = 0i64;
    for i in 0..calls {
        let arg =
            deep_copy_value(&mut fx.vm, Value::Int(i as i32), fx.callee_iso).expect("copy arg");
        let tid = fx
            .vm
            .spawn_thread(
                "link-call",
                fx.shape_move,
                vec![Value::Ref(fx.shape_obj), arg],
                fx.callee_iso,
            )
            .expect("spawn link thread");
        let _ = fx.vm.run(None);
        let result = fx.vm.thread_result(tid).expect("link call result");
        let back = deep_copy_value(&mut fx.vm, result, fx.caller_iso).expect("copy result");
        acc += back.as_int() as i64;
    }
    acc
}

/// RMI-style: marshal a full call envelope (service name, method name,
/// descriptor, arguments — what `java.rmi` actually puts on the wire),
/// ship it through a layered loopback transport, unmarshal at the callee,
/// dispatch on a callee thread, and do the same for the response.
fn run_rmi(fx: &mut Fixture, calls: u32) -> i64 {
    let mut acc = 0i64;
    let mut socket_a: Vec<u8> = Vec::new();
    let mut socket_b: Vec<u8> = Vec::new();
    for i in 0..calls {
        // Marshal the request envelope: the metadata strings are guest
        // objects, as a real RMI stub would marshal them. Each is written
        // before the next is made: a string allocation may collect, and
        // a host local is not a root.
        let mut wire = Vec::new();
        for part in ["shape-service", "moveTo", "(I)I"] {
            let s = fx
                .vm
                .new_string(fx.caller_iso, part)
                .expect("heap has room");
            serialize_value(&fx.vm, Value::Ref(s), &mut wire);
        }
        serialize_value(&fx.vm, Value::Int(i as i32), &mut wire);
        loopback(&mut socket_a, &mut socket_b, &wire);

        // Unmarshal the envelope at the callee (allocates the metadata
        // strings in the callee isolate) and dispatch.
        let mut pos = 0usize;
        let mut parts = Vec::with_capacity(4);
        for _ in 0..4 {
            let (v, used) = deserialize_prefix(
                &mut fx.vm,
                &socket_b[pos..],
                fx.callee_iso,
                fx.callee_loader,
            );
            parts.push(v);
            pos += used;
        }
        let arg = parts[3];
        let tid = fx
            .vm
            .spawn_thread(
                "rmi-call",
                fx.shape_move,
                vec![Value::Ref(fx.shape_obj), arg],
                fx.callee_iso,
            )
            .expect("spawn rmi thread");
        let _ = fx.vm.run(None);
        let result = fx.vm.thread_result(tid).expect("rmi call result");

        // Marshal the response envelope.
        let status = fx
            .vm
            .new_string(fx.callee_iso, "ok")
            .expect("heap has room");
        let mut wire = Vec::new();
        serialize_value(&fx.vm, Value::Ref(status), &mut wire);
        serialize_value(&fx.vm, result, &mut wire);
        loopback(&mut socket_b, &mut socket_a, &wire);
        let (_status, used) =
            deserialize_prefix(&mut fx.vm, &socket_a, fx.caller_iso, fx.callee_loader);
        let (back, _) = deserialize_prefix(
            &mut fx.vm,
            &socket_a[used..],
            fx.caller_iso,
            fx.callee_loader,
        );
        acc += back.as_int() as i64;
    }
    acc
}

/// Deserializes one value from the front of `bytes`, returning it and the
/// number of bytes consumed (envelope fields are concatenated streams).
fn deserialize_prefix(
    vm: &mut Vm,
    bytes: &[u8],
    target: IsolateId,
    loader: LoaderId,
) -> (Value, usize) {
    // Streams are self-delimiting; probe increasing prefixes.
    for end in 1..=bytes.len() {
        if let Ok(v) = deserialize_value(vm, &bytes[..end], target, loader) {
            return (v, end);
        }
    }
    panic!("corrupt envelope");
}

/// A layered loopback transport: three copy+checksum passes each way,
/// standing in for the socket, IP and protocol layers a local RMI call
/// still traverses.
fn loopback(send: &mut Vec<u8>, recv: &mut Vec<u8>, payload: &[u8]) {
    send.clear();
    send.extend_from_slice(payload);
    for _ in 0..3 {
        let mut sum = 0u32;
        for b in send.iter() {
            sum = sum.wrapping_mul(31).wrapping_add(*b as u32);
        }
        recv.clear();
        recv.extend_from_slice(send);
        recv.push((sum & 0x7f) as u8);
        recv.pop();
        std::mem::swap(send, recv);
    }
    std::mem::swap(send, recv);
}

/// Runs the full Table 1 comparison.
pub fn table1(calls: u32) -> Vec<CallCostReport> {
    Model::ALL.iter().map(|&m| measure(m, calls)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_compute_the_same_result() {
        let reports = table1(50);
        let expect: i64 = (0..50).map(|i| i as i64 + 1).sum();
        for r in &reports {
            assert_eq!(r.checksum, expect, "{} wrong result", r.model.name());
        }
    }

    #[test]
    fn ijvm_migrates_and_local_does_not() {
        let mut fx = fixture(Model::Local);
        run_direct(&mut fx, 100);
        let local_migrations = fx.vm.migrations();

        let mut fx = fixture(Model::IJvm);
        run_direct(&mut fx, 100);
        let inter_migrations = fx.vm.migrations();

        assert_eq!(local_migrations, 0, "intra-bundle calls must not migrate");
        // 100 calls in + 100 returns + fixture calls.
        assert!(
            inter_migrations >= 200,
            "expected ≥200 migrations, got {inter_migrations}"
        );
    }

    #[test]
    fn table1_ordering_matches_the_paper() {
        // Local ≈ I-JVM ≪ Links ≪ RMI, in wall-clock per call.
        let reports = table1(200);
        let get = |m: Model| {
            reports
                .iter()
                .find(|r| r.model == m)
                .map(|r| r.ns_per_call())
                .expect("model measured")
        };
        let (local, ijvm, links, rmi) = (
            get(Model::Local),
            get(Model::IJvm),
            get(Model::Links),
            get(Model::Rmi),
        );
        assert!(
            ijvm < links,
            "I-JVM ({ijvm:.0} ns) should beat links ({links:.0} ns)"
        );
        assert!(
            links <= rmi * 1.5,
            "links should not be slower than RMI (links {links:.0}, rmi {rmi:.0})"
        );
        assert!(
            ijvm < rmi / 5.0,
            "I-JVM ({ijvm:.0} ns) should be far below RMI ({rmi:.0} ns)"
        );
        // I-JVM is within a small factor of a plain local call.
        assert!(
            ijvm < local * 3.0 + 1000.0,
            "I-JVM ({ijvm:.0} ns) should be close to local ({local:.0} ns)"
        );
    }

    #[test]
    fn ijvm_charges_calls_to_the_callee_bundle() {
        let mut fx = fixture(Model::IJvm);
        run_direct(&mut fx, 64);
        let stats = fx.vm.isolate_stats(fx.callee_iso).unwrap();
        assert!(
            stats.calls_in >= 64,
            "callee should record ≥64 incoming calls"
        );
    }
}
