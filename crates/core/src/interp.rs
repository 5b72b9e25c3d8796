//! The bytecode interpreter.
//!
//! `step_thread` runs one green thread for up to a quantum of instructions.
//! Inter-isolate method calls migrate the thread (paper §3.1): the thread's
//! isolate reference is set to the callee's isolate on entry and restored
//! on return — there is no RPC, no copying, and shared objects are passed
//! by reference.

use crate::class::{ClassTarget, InitState, RtCp};
use crate::heap::ObjBody;
use crate::ids::{ClassId, IsolateId, MethodRef, ThreadId};
use crate::isolate::IsolateState;
use crate::monitor::{monitor_enter, monitor_exit, EnterResult};
use crate::natives::NativeResult;
use crate::thread::ThreadState;
use crate::value::{GcRef, Value};
use crate::vm::{Thrown, Vm};
use ijvm_classfile::descriptor::BaseType;
use ijvm_classfile::{ConstEntry, Opcode};

/// Name of the exception raised into code returning to a terminated
/// isolate (paper §3.3).
pub const STOPPED_ISOLATE_EXCEPTION: &str = "org/ijvm/StoppedIsolateException";

/// Executes thread `tid` for at most `budget` instructions, returning how
/// many were consumed. Dispatches to the engine selected by
/// [`crate::vm::VmOptions::engine`].
pub(crate) fn step_thread(vm: &mut Vm, tid: ThreadId, budget: u32) -> u32 {
    match vm.options.engine {
        crate::engine::EngineKind::Raw => step_thread_raw(vm, tid, budget),
        crate::engine::EngineKind::Threaded => {
            crate::engine::handlers::step_thread_threaded(vm, tid, budget)
        }
    }
}

/// What [`frame_prologue`] decided about the thread's top frame.
pub(crate) enum Prologue {
    /// Execute the frame at the given index.
    Run(usize),
    /// An exception was delivered (or state changed); re-run the prologue.
    Redeliver,
    /// The thread cannot make progress this step.
    Yield,
}

/// Common per-resumption bookkeeping shared by both engines: delivers
/// injected exceptions, finishes empty threads, and takes the lazy
/// monitor of thread-entry `synchronized` methods.
pub(crate) fn frame_prologue(vm: &mut Vm, tid: ThreadId) -> Prologue {
    let t = tid.0 as usize;
    // Deliver externally injected exceptions (termination, interrupt).
    if vm.threads[t].pending_exception.is_some() {
        let ex = vm.threads[t].pending_exception.take().unwrap();
        if !unwind(vm, tid, ex) {
            return Prologue::Yield;
        }
        return Prologue::Redeliver;
    }
    if vm.threads[t].frames.is_empty() {
        finish_thread(vm, tid, None);
        return Prologue::Yield;
    }
    if !vm.threads[t].is_runnable() {
        return Prologue::Yield;
    }

    let fidx = vm.threads[t].frames.len() - 1;
    // Thread-entry `synchronized` methods take their monitor on first
    // step (invoked frames acquire it in do_invoke instead).
    if vm.threads[t].frames[fidx].needs_sync_enter {
        let class = vm.threads[t].frames[fidx].class;
        let cur_iso = vm.threads[t].current_isolate;
        let is_static = vm.classes[class.0 as usize].methods
            [vm.threads[t].frames[fidx].method.index as usize]
            .is_static();
        let lock = if is_static {
            vm.ensure_mirror(class, cur_iso);
            let mi = vm.mirror_index(cur_iso);
            vm.classes[class.0 as usize].mirrors[mi]
                .as_ref()
                .expect("mirror just ensured")
                .class_object
        } else {
            match vm.threads[t].frames[fidx].locals[0] {
                Value::Ref(r) => r,
                _ => {
                    // Null receiver on a synchronized entry: NPE.
                    let ex = materialize(
                        vm,
                        tid,
                        Thrown::ByName {
                            class_name: "java/lang/NullPointerException",
                            message: String::new(),
                        },
                    );
                    vm.threads[t].frames[fidx].needs_sync_enter = false;
                    if unwind(vm, tid, ex) {
                        return Prologue::Redeliver;
                    }
                    return Prologue::Yield;
                }
            }
        };
        match monitor_enter(vm, tid, lock) {
            EnterResult::Acquired => {
                let f = &mut vm.threads[t].frames[fidx];
                f.sync_object = Some(lock);
                f.needs_sync_enter = false;
            }
            EnterResult::Blocked => return Prologue::Yield,
        }
    }
    Prologue::Run(fidx)
}

/// The raw engine: decodes classfile bytes instruction by instruction.
#[allow(unused_assignments)] // operand readers advance pc even when a branch overwrites it
pub(crate) fn step_thread_raw(vm: &mut Vm, tid: ThreadId, budget: u32) -> u32 {
    let t = tid.0 as usize;
    let mut consumed: u32 = 0;

    'outer: while consumed < budget {
        let fidx = match frame_prologue(vm, tid) {
            Prologue::Run(fidx) => fidx,
            Prologue::Redeliver => continue 'outer,
            Prologue::Yield => return consumed,
        };
        let code = vm.threads[t].frames[fidx].code.share();
        let bytes = &code.bytes;
        let mut pc = vm.threads[t].frames[fidx].pc as usize;
        let mut local_insns: u32 = 0;
        // Start pc of the instruction being executed (used by exception
        // delivery); declared before the macros below so they can see it.
        #[allow(unused_assignments)]
        let mut insn_pc: usize = pc;

        macro_rules! fr {
            () => {
                vm.threads[t].frames[fidx]
            };
        }
        macro_rules! push {
            ($v:expr) => {
                fr!().stack.push($v)
            };
        }
        macro_rules! pop {
            () => {
                fr!().stack.pop().expect("operand stack underflow")
            };
        }
        macro_rules! flush {
            () => {{
                fr!().pc = pc as u32;
                vm.threads[t].insns_since_switch += local_insns as u64;
                consumed += local_insns;
                #[allow(unused_assignments)]
                {
                    local_insns = 0;
                }
            }};
        }
        // Raise a Java exception from the current instruction.
        macro_rules! throw {
            ($thrown:expr) => {{
                flush!();
                // Handler ranges are matched against the faulting
                // instruction's start pc.
                fr!().pc = insn_pc as u32;
                let ex = materialize(vm, tid, $thrown);
                if unwind(vm, tid, ex) {
                    continue 'outer;
                }
                return consumed;
            }};
        }
        macro_rules! check {
            ($res:expr) => {
                match $res {
                    Ok(v) => v,
                    Err(thrown) => throw!(thrown),
                }
            };
        }
        // Integer operand readers.
        macro_rules! op_u8 {
            () => {{
                let v = bytes[pc];
                pc += 1;
                v
            }};
        }
        macro_rules! op_u16 {
            () => {{
                let v = ((bytes[pc] as u16) << 8) | bytes[pc + 1] as u16;
                pc += 2;
                v
            }};
        }
        macro_rules! op_i32 {
            () => {{
                let v =
                    i32::from_be_bytes([bytes[pc], bytes[pc + 1], bytes[pc + 2], bytes[pc + 3]]);
                pc += 4;
                v
            }};
        }
        // Arithmetic helpers.
        macro_rules! binop_i {
            ($m:ident) => {{
                let b = pop!().as_int();
                let a = pop!().as_int();
                push!(Value::Int(a.$m(b)));
            }};
            (op $op:tt) => {{
                let b = pop!().as_int();
                let a = pop!().as_int();
                push!(Value::Int(a $op b));
            }};
        }
        macro_rules! binop_l {
            ($m:ident) => {{
                let b = pop!().as_long();
                let a = pop!().as_long();
                push!(Value::Long(a.$m(b)));
            }};
            (op $op:tt) => {{
                let b = pop!().as_long();
                let a = pop!().as_long();
                push!(Value::Long(a $op b));
            }};
        }
        macro_rules! binop_f {
            ($op:tt) => {{
                let b = pop!().as_float();
                let a = pop!().as_float();
                push!(Value::Float(a $op b));
            }};
        }
        macro_rules! binop_d {
            ($op:tt) => {{
                let b = pop!().as_double();
                let a = pop!().as_double();
                push!(Value::Double(a $op b));
            }};
        }
        macro_rules! conv {
            ($get:ident, $to:ident, $ty:ty) => {{
                let v = pop!().$get();
                push!(Value::$to(v as $ty));
            }};
        }

        #[allow(unused_labels)]
        'inner: loop {
            if consumed + local_insns >= budget {
                flush!();
                return consumed;
            }
            insn_pc = pc;
            local_insns += 1;
            let op = match Opcode::from_byte(bytes[pc]) {
                Ok(op) => op,
                Err(_) => {
                    pc += 1;
                    throw!(Thrown::ByName {
                        class_name: "java/lang/VerifyError",
                        message: format!("bad opcode {:#04x}", bytes[insn_pc]),
                    });
                }
            };
            pc += 1;
            use Opcode as O;
            match op {
                O::Nop => {}
                // ---- constants ----
                O::AconstNull => push!(Value::Null),
                O::IconstM1 => push!(Value::Int(-1)),
                O::Iconst0 => push!(Value::Int(0)),
                O::Iconst1 => push!(Value::Int(1)),
                O::Iconst2 => push!(Value::Int(2)),
                O::Iconst3 => push!(Value::Int(3)),
                O::Iconst4 => push!(Value::Int(4)),
                O::Iconst5 => push!(Value::Int(5)),
                O::Lconst0 => push!(Value::Long(0)),
                O::Lconst1 => push!(Value::Long(1)),
                O::Fconst0 => push!(Value::Float(0.0)),
                O::Fconst1 => push!(Value::Float(1.0)),
                O::Fconst2 => push!(Value::Float(2.0)),
                O::Dconst0 => push!(Value::Double(0.0)),
                O::Dconst1 => push!(Value::Double(1.0)),
                O::Bipush => {
                    let v = op_u8!() as i8 as i32;
                    push!(Value::Int(v));
                }
                O::Sipush => {
                    let v = op_u16!() as i16 as i32;
                    push!(Value::Int(v));
                }
                O::Ldc | O::LdcW | O::Ldc2W => {
                    let idx = if op == O::Ldc {
                        op_u8!() as u16
                    } else {
                        op_u16!()
                    };
                    flush!();
                    let class_id = vm.threads[t].frames[fidx].class;
                    let v = check!(load_constant(vm, tid, class_id, idx));
                    push!(v);
                }
                // ---- locals ----
                O::Iload | O::Lload | O::Fload | O::Dload | O::Aload => {
                    let n = op_u8!() as usize;
                    let v = fr!().locals[n];
                    push!(v);
                }
                O::Iload0 | O::Iload1 | O::Iload2 | O::Iload3 => {
                    let n = (op as u8 - O::Iload0 as u8) as usize;
                    let v = fr!().locals[n];
                    push!(v);
                }
                O::Lload0 | O::Lload1 | O::Lload2 | O::Lload3 => {
                    let n = (op as u8 - O::Lload0 as u8) as usize;
                    let v = fr!().locals[n];
                    push!(v);
                }
                O::Fload0 | O::Fload1 | O::Fload2 | O::Fload3 => {
                    let n = (op as u8 - O::Fload0 as u8) as usize;
                    let v = fr!().locals[n];
                    push!(v);
                }
                O::Dload0 | O::Dload1 | O::Dload2 | O::Dload3 => {
                    let n = (op as u8 - O::Dload0 as u8) as usize;
                    let v = fr!().locals[n];
                    push!(v);
                }
                O::Aload0 | O::Aload1 | O::Aload2 | O::Aload3 => {
                    let n = (op as u8 - O::Aload0 as u8) as usize;
                    let v = fr!().locals[n];
                    push!(v);
                }
                O::Istore | O::Lstore | O::Fstore | O::Dstore | O::Astore => {
                    let n = op_u8!() as usize;
                    let v = pop!();
                    fr!().locals[n] = v;
                }
                O::Istore0 | O::Istore1 | O::Istore2 | O::Istore3 => {
                    let n = (op as u8 - O::Istore0 as u8) as usize;
                    let v = pop!();
                    fr!().locals[n] = v;
                }
                O::Lstore0 | O::Lstore1 | O::Lstore2 | O::Lstore3 => {
                    let n = (op as u8 - O::Lstore0 as u8) as usize;
                    let v = pop!();
                    fr!().locals[n] = v;
                }
                O::Fstore0 | O::Fstore1 | O::Fstore2 | O::Fstore3 => {
                    let n = (op as u8 - O::Fstore0 as u8) as usize;
                    let v = pop!();
                    fr!().locals[n] = v;
                }
                O::Dstore0 | O::Dstore1 | O::Dstore2 | O::Dstore3 => {
                    let n = (op as u8 - O::Dstore0 as u8) as usize;
                    let v = pop!();
                    fr!().locals[n] = v;
                }
                O::Astore0 | O::Astore1 | O::Astore2 | O::Astore3 => {
                    let n = (op as u8 - O::Astore0 as u8) as usize;
                    let v = pop!();
                    fr!().locals[n] = v;
                }
                O::Iinc => {
                    let n = op_u8!() as usize;
                    let d = op_u8!() as i8 as i32;
                    let f = &mut fr!();
                    f.locals[n] = Value::Int(f.locals[n].as_int().wrapping_add(d));
                }
                // ---- array loads/stores ----
                O::Iaload
                | O::Laload
                | O::Faload
                | O::Daload
                | O::Aaload
                | O::Baload
                | O::Caload
                | O::Saload => {
                    let idx = pop!().as_int();
                    let arr = pop!();
                    let Some(arr) = arr.as_ref() else {
                        throw!(npe())
                    };
                    let obj = vm.heap.get(arr);
                    let len = obj.body.array_len().unwrap_or(0);
                    if idx < 0 || idx as usize >= len {
                        throw!(aioobe(idx, len));
                    }
                    let i = idx as usize;
                    let v = match &obj.body {
                        ObjBody::ArrInt(a) => Value::Int(a[i]),
                        ObjBody::ArrLong(a) => Value::Long(a[i]),
                        ObjBody::ArrFloat(a) => Value::Float(a[i]),
                        ObjBody::ArrDouble(a) => Value::Double(a[i]),
                        ObjBody::ArrRef { data, .. } => data[i],
                        ObjBody::ArrByte(a) => Value::Int(a[i] as i32),
                        ObjBody::ArrChar(a) => Value::Int(a[i] as i32),
                        ObjBody::ArrShort(a) => Value::Int(a[i] as i32),
                        ObjBody::ArrBool(a) => Value::Int(a[i] as i32),
                        ObjBody::Fields(_) => {
                            throw!(internal_err("array load on non-array"))
                        }
                    };
                    push!(v);
                }
                O::Iastore
                | O::Lastore
                | O::Fastore
                | O::Dastore
                | O::Aastore
                | O::Bastore
                | O::Castore
                | O::Sastore => {
                    let v = pop!();
                    let idx = pop!().as_int();
                    let arr = pop!();
                    let Some(arr) = arr.as_ref() else {
                        throw!(npe())
                    };
                    let obj = vm.heap.get_mut(arr);
                    let len = obj.body.array_len().unwrap_or(0);
                    if idx < 0 || idx as usize >= len {
                        throw!(aioobe(idx, len));
                    }
                    let i = idx as usize;
                    match &mut obj.body {
                        ObjBody::ArrInt(a) => a[i] = v.as_int(),
                        ObjBody::ArrLong(a) => a[i] = v.as_long(),
                        ObjBody::ArrFloat(a) => a[i] = v.as_float(),
                        ObjBody::ArrDouble(a) => a[i] = v.as_double(),
                        ObjBody::ArrRef { data, .. } => data[i] = v,
                        ObjBody::ArrByte(a) => a[i] = v.as_int() as i8,
                        ObjBody::ArrChar(a) => a[i] = v.as_int() as u16,
                        ObjBody::ArrShort(a) => a[i] = v.as_int() as i16,
                        ObjBody::ArrBool(a) => a[i] = (v.as_int() != 0) as u8,
                        ObjBody::Fields(_) => {
                            throw!(internal_err("array store on non-array"))
                        }
                    }
                }
                // ---- stack manipulation ----
                O::Pop => {
                    pop!();
                }
                O::Pop2 => {
                    pop!();
                    pop!();
                }
                O::Dup => {
                    let v = *fr!().stack.last().expect("dup on empty stack");
                    push!(v);
                }
                O::DupX1 => {
                    let a = pop!();
                    let b = pop!();
                    push!(a);
                    push!(b);
                    push!(a);
                }
                O::DupX2 => {
                    let a = pop!();
                    let b = pop!();
                    let c = pop!();
                    push!(a);
                    push!(c);
                    push!(b);
                    push!(a);
                }
                O::Dup2 => {
                    let a = pop!();
                    let b = pop!();
                    push!(b);
                    push!(a);
                    push!(b);
                    push!(a);
                }
                O::Dup2X1 => {
                    let a = pop!();
                    let b = pop!();
                    let c = pop!();
                    push!(b);
                    push!(a);
                    push!(c);
                    push!(b);
                    push!(a);
                }
                O::Dup2X2 => {
                    let a = pop!();
                    let b = pop!();
                    let c = pop!();
                    let d = pop!();
                    push!(b);
                    push!(a);
                    push!(d);
                    push!(c);
                    push!(b);
                    push!(a);
                }
                O::Swap => {
                    let a = pop!();
                    let b = pop!();
                    push!(a);
                    push!(b);
                }
                // ---- arithmetic ----
                O::Iadd => binop_i!(wrapping_add),
                O::Isub => binop_i!(wrapping_sub),
                O::Imul => binop_i!(wrapping_mul),
                O::Idiv => {
                    let b = pop!().as_int();
                    let a = pop!().as_int();
                    if b == 0 {
                        throw!(arith());
                    }
                    push!(Value::Int(a.wrapping_div(b)));
                }
                O::Irem => {
                    let b = pop!().as_int();
                    let a = pop!().as_int();
                    if b == 0 {
                        throw!(arith());
                    }
                    push!(Value::Int(a.wrapping_rem(b)));
                }
                O::Ladd => binop_l!(wrapping_add),
                O::Lsub => binop_l!(wrapping_sub),
                O::Lmul => binop_l!(wrapping_mul),
                O::Ldiv => {
                    let b = pop!().as_long();
                    let a = pop!().as_long();
                    if b == 0 {
                        throw!(arith());
                    }
                    push!(Value::Long(a.wrapping_div(b)));
                }
                O::Lrem => {
                    let b = pop!().as_long();
                    let a = pop!().as_long();
                    if b == 0 {
                        throw!(arith());
                    }
                    push!(Value::Long(a.wrapping_rem(b)));
                }
                O::Fadd => binop_f!(+),
                O::Fsub => binop_f!(-),
                O::Fmul => binop_f!(*),
                O::Fdiv => binop_f!(/),
                O::Frem => {
                    let b = pop!().as_float();
                    let a = pop!().as_float();
                    push!(Value::Float(a % b));
                }
                O::Dadd => binop_d!(+),
                O::Dsub => binop_d!(-),
                O::Dmul => binop_d!(*),
                O::Ddiv => binop_d!(/),
                O::Drem => {
                    let b = pop!().as_double();
                    let a = pop!().as_double();
                    push!(Value::Double(a % b));
                }
                O::Ineg => {
                    let a = pop!().as_int();
                    push!(Value::Int(a.wrapping_neg()));
                }
                O::Lneg => {
                    let a = pop!().as_long();
                    push!(Value::Long(a.wrapping_neg()));
                }
                O::Fneg => {
                    let a = pop!().as_float();
                    push!(Value::Float(-a));
                }
                O::Dneg => {
                    let a = pop!().as_double();
                    push!(Value::Double(-a));
                }
                O::Ishl => {
                    let b = pop!().as_int();
                    let a = pop!().as_int();
                    push!(Value::Int(a.wrapping_shl(b as u32 & 31)));
                }
                O::Ishr => {
                    let b = pop!().as_int();
                    let a = pop!().as_int();
                    push!(Value::Int(a.wrapping_shr(b as u32 & 31)));
                }
                O::Iushr => {
                    let b = pop!().as_int();
                    let a = pop!().as_int();
                    push!(Value::Int(((a as u32).wrapping_shr(b as u32 & 31)) as i32));
                }
                O::Lshl => {
                    let b = pop!().as_int();
                    let a = pop!().as_long();
                    push!(Value::Long(a.wrapping_shl(b as u32 & 63)));
                }
                O::Lshr => {
                    let b = pop!().as_int();
                    let a = pop!().as_long();
                    push!(Value::Long(a.wrapping_shr(b as u32 & 63)));
                }
                O::Lushr => {
                    let b = pop!().as_int();
                    let a = pop!().as_long();
                    push!(Value::Long(((a as u64).wrapping_shr(b as u32 & 63)) as i64));
                }
                O::Iand => binop_i!(op &),
                O::Ior => binop_i!(op |),
                O::Ixor => binop_i!(op ^),
                O::Land => binop_l!(op &),
                O::Lor => binop_l!(op |),
                O::Lxor => binop_l!(op ^),
                // ---- conversions ----
                O::I2l => conv!(as_int, Long, i64),
                O::I2f => conv!(as_int, Float, f32),
                O::I2d => conv!(as_int, Double, f64),
                O::L2i => conv!(as_long, Int, i32),
                O::L2f => conv!(as_long, Float, f32),
                O::L2d => conv!(as_long, Double, f64),
                O::F2i => {
                    let v = pop!().as_float();
                    push!(Value::Int(f2i(v)));
                }
                O::F2l => {
                    let v = pop!().as_float();
                    push!(Value::Long(f2l(v as f64)));
                }
                O::F2d => conv!(as_float, Double, f64),
                O::D2i => {
                    let v = pop!().as_double();
                    push!(Value::Int(f2i(v as f32)));
                }
                O::D2l => {
                    let v = pop!().as_double();
                    push!(Value::Long(f2l(v)));
                }
                O::D2f => conv!(as_double, Float, f32),
                O::I2b => {
                    let v = pop!().as_int();
                    push!(Value::Int(v as i8 as i32));
                }
                O::I2c => {
                    let v = pop!().as_int();
                    push!(Value::Int(v as u16 as i32));
                }
                O::I2s => {
                    let v = pop!().as_int();
                    push!(Value::Int(v as i16 as i32));
                }
                // ---- comparisons ----
                O::Lcmp => {
                    let b = pop!().as_long();
                    let a = pop!().as_long();
                    push!(Value::Int(cmp3(a, b)));
                }
                O::Fcmpl | O::Fcmpg => {
                    let b = pop!().as_float();
                    let a = pop!().as_float();
                    push!(Value::Int(fcmp(a as f64, b as f64, op == O::Fcmpg)));
                }
                O::Dcmpl | O::Dcmpg => {
                    let b = pop!().as_double();
                    let a = pop!().as_double();
                    push!(Value::Int(fcmp(a, b, op == O::Dcmpg)));
                }
                // ---- branches ----
                O::Ifeq | O::Ifne | O::Iflt | O::Ifge | O::Ifgt | O::Ifle => {
                    let off = op_u16!() as i16 as i64;
                    let v = pop!().as_int();
                    let take = match op {
                        O::Ifeq => v == 0,
                        O::Ifne => v != 0,
                        O::Iflt => v < 0,
                        O::Ifge => v >= 0,
                        O::Ifgt => v > 0,
                        _ => v <= 0,
                    };
                    if take {
                        pc = (insn_pc as i64 + off) as usize;
                    }
                }
                O::IfIcmpeq
                | O::IfIcmpne
                | O::IfIcmplt
                | O::IfIcmpge
                | O::IfIcmpgt
                | O::IfIcmple => {
                    let off = op_u16!() as i16 as i64;
                    let b = pop!().as_int();
                    let a = pop!().as_int();
                    let take = match op {
                        O::IfIcmpeq => a == b,
                        O::IfIcmpne => a != b,
                        O::IfIcmplt => a < b,
                        O::IfIcmpge => a >= b,
                        O::IfIcmpgt => a > b,
                        _ => a <= b,
                    };
                    if take {
                        pc = (insn_pc as i64 + off) as usize;
                    }
                }
                O::IfAcmpeq | O::IfAcmpne => {
                    let off = op_u16!() as i16 as i64;
                    let b = pop!();
                    let a = pop!();
                    let eq = a.ref_eq(b);
                    if (op == O::IfAcmpeq) == eq {
                        pc = (insn_pc as i64 + off) as usize;
                    }
                }
                O::Ifnull | O::Ifnonnull => {
                    let off = op_u16!() as i16 as i64;
                    let v = pop!();
                    let is_null = matches!(v, Value::Null);
                    if (op == O::Ifnull) == is_null {
                        pc = (insn_pc as i64 + off) as usize;
                    }
                }
                O::Goto => {
                    let off = op_u16!() as i16 as i64;
                    pc = (insn_pc as i64 + off) as usize;
                }
                O::Tableswitch => {
                    while !pc.is_multiple_of(4) {
                        pc += 1;
                    }
                    let default = op_i32!() as i64;
                    let low = op_i32!();
                    let high = op_i32!();
                    let key = pop!().as_int();
                    if key < low || key > high {
                        pc = (insn_pc as i64 + default) as usize;
                    } else {
                        let slot = pc + 4 * (key - low) as usize;
                        let off = i32::from_be_bytes([
                            bytes[slot],
                            bytes[slot + 1],
                            bytes[slot + 2],
                            bytes[slot + 3],
                        ]) as i64;
                        pc = (insn_pc as i64 + off) as usize;
                    }
                }
                O::Lookupswitch => {
                    while !pc.is_multiple_of(4) {
                        pc += 1;
                    }
                    let default = op_i32!() as i64;
                    let npairs = op_i32!() as usize;
                    let key = pop!().as_int();
                    let mut target = insn_pc as i64 + default;
                    for i in 0..npairs {
                        let base = pc + 8 * i;
                        let k = i32::from_be_bytes([
                            bytes[base],
                            bytes[base + 1],
                            bytes[base + 2],
                            bytes[base + 3],
                        ]);
                        if k == key {
                            let off = i32::from_be_bytes([
                                bytes[base + 4],
                                bytes[base + 5],
                                bytes[base + 6],
                                bytes[base + 7],
                            ]) as i64;
                            target = insn_pc as i64 + off;
                            break;
                        }
                    }
                    pc = target as usize;
                }
                // ---- returns ----
                O::Return => {
                    flush!();
                    if do_return(vm, tid, None) {
                        continue 'outer;
                    }
                    return consumed;
                }
                O::Ireturn | O::Lreturn | O::Freturn | O::Dreturn | O::Areturn => {
                    let v = pop!();
                    flush!();
                    if do_return(vm, tid, Some(v)) {
                        continue 'outer;
                    }
                    return consumed;
                }
                // ---- fields ----
                O::Getstatic | O::Putstatic => {
                    let cp = op_u16!();
                    flush!();
                    let class_id = vm.threads[t].frames[fidx].class;
                    // Shared-mode fast path: LadyVM's JIT removes the
                    // initialization check once the class is initialized;
                    // the baseline models that by caching an init-elided
                    // entry. I-JVM always re-checks (paper §3.1).
                    if let RtCp::StaticFieldInit { class, slot } =
                        vm.classes[class_id.0 as usize].rtcp[cp as usize]
                    {
                        if op == O::Getstatic {
                            let v = vm.classes[class.0 as usize].mirrors[0]
                                .as_ref()
                                .expect("fast entries only exist after init")
                                .statics[slot as usize];
                            push!(v);
                        } else {
                            let v = pop!();
                            vm.classes[class.0 as usize].mirrors[0]
                                .as_mut()
                                .expect("fast entries only exist after init")
                                .statics[slot as usize] = v;
                        }
                        continue 'inner;
                    }
                    let (def_class, slot) = check!(resolve_static_field(vm, class_id, cp));
                    let iso = vm.threads[t].current_isolate;
                    // I-JVM: current-isolate load + mirror index + init
                    // state test on every access (the paper's two extra
                    // loads plus the unremovable init check), fused into a
                    // single mirror access.
                    let mi = vm.mirror_index(iso);
                    let ready_value = match vm.classes[def_class.0 as usize].mirrors.get(mi) {
                        Some(Some(m)) if m.init == InitState::Initialized => {
                            Some(m.statics[slot as usize])
                        }
                        _ => None,
                    };
                    let hit = if let Some(v) = ready_value {
                        if op == O::Getstatic {
                            push!(v);
                        } else {
                            let v = pop!();
                            vm.classes[def_class.0 as usize].mirrors[mi]
                                .as_mut()
                                .expect("checked above")
                                .statics[slot as usize] = v;
                        }
                        true
                    } else {
                        false
                    };
                    if !hit {
                        match check!(ensure_initialized(vm, tid, def_class, iso)) {
                            InitAction::Ready => {}
                            InitAction::Suspend => {
                                // Re-execute this instruction once <clinit> ran.
                                vm.threads[t].frames[fidx].pc = insn_pc as u32;
                                continue 'outer;
                            }
                        }
                        if op == O::Getstatic {
                            let v = vm.classes[def_class.0 as usize].mirrors[mi]
                                .as_ref()
                                .expect("mirror created by ensure_initialized")
                                .statics[slot as usize];
                            push!(v);
                        } else {
                            let v = pop!();
                            vm.classes[def_class.0 as usize].mirrors[mi]
                                .as_mut()
                                .expect("mirror created by ensure_initialized")
                                .statics[slot as usize] = v;
                        }
                    }
                    if vm.options.isolation == crate::vm::IsolationMode::Shared {
                        vm.classes[class_id.0 as usize].rtcp[cp as usize] = RtCp::StaticFieldInit {
                            class: def_class,
                            slot,
                        };
                    }
                }
                O::Getfield => {
                    let cp = op_u16!();
                    flush!();
                    let class_id = vm.threads[t].frames[fidx].class;
                    let slot = check!(resolve_instance_field(vm, class_id, cp));
                    let r = pop!();
                    let Some(r) = r.as_ref() else { throw!(npe()) };
                    let obj = vm.heap.get(r);
                    let ObjBody::Fields(fields) = &obj.body else {
                        throw!(internal_err("getfield on array"))
                    };
                    let v = fields[slot as usize];
                    push!(v);
                }
                O::Putfield => {
                    let cp = op_u16!();
                    flush!();
                    let class_id = vm.threads[t].frames[fidx].class;
                    let slot = check!(resolve_instance_field(vm, class_id, cp));
                    let v = pop!();
                    let r = pop!();
                    let Some(r) = r.as_ref() else { throw!(npe()) };
                    let obj = vm.heap.get_mut(r);
                    let ObjBody::Fields(fields) = &mut obj.body else {
                        throw!(internal_err("putfield on array"))
                    };
                    fields[slot as usize] = v;
                }
                // ---- invocation ----
                O::Invokestatic | O::Invokespecial | O::Invokevirtual | O::Invokeinterface => {
                    let cp = op_u16!();
                    if op == O::Invokeinterface {
                        #[allow(unused_assignments)]
                        {
                            pc += 2; // count + zero bytes
                        }
                    }
                    flush!();
                    let class_id = vm.threads[t].frames[fidx].class;
                    let action = check!(do_invoke(vm, tid, fidx, class_id, cp, op, insn_pc));
                    match action {
                        InvokeAction::FramePushed | InvokeAction::Suspended => continue 'outer,
                        InvokeAction::NativeDone => {
                            if !vm.threads[t].is_runnable()
                                || vm.threads[t].pending_exception.is_some()
                            {
                                continue 'outer;
                            }
                            // Stay in this frame; reload pc (unchanged).
                            pc = vm.threads[t].frames[fidx].pc as usize;
                        }
                    }
                }
                // ---- objects ----
                O::New => {
                    let cp = op_u16!();
                    flush!();
                    let class_id = vm.threads[t].frames[fidx].class;
                    // Shared-mode fast path (init check elided, as a JIT
                    // would after first execution).
                    if let RtCp::ClassInit(new_class) =
                        vm.classes[class_id.0 as usize].rtcp[cp as usize]
                    {
                        let iso = vm.threads[t].current_isolate;
                        let r = check!(vm.alloc_instance(new_class, iso));
                        push!(Value::Ref(r));
                        continue 'inner;
                    }
                    let target = check!(resolve_class(vm, class_id, cp));
                    let ClassTarget::Class(new_class) = target else {
                        throw!(internal_err("new on array type"))
                    };
                    let iso = vm.threads[t].current_isolate;
                    check!(check_not_poisoned(vm, tid, new_class));
                    let mi = vm.mirror_index(iso);
                    let ready = matches!(
                        vm.classes[new_class.0 as usize].mirrors.get(mi),
                        Some(Some(m)) if m.init == InitState::Initialized
                    );
                    if !ready {
                        match check!(ensure_initialized(vm, tid, new_class, iso)) {
                            InitAction::Ready => {}
                            InitAction::Suspend => {
                                vm.threads[t].frames[fidx].pc = insn_pc as u32;
                                continue 'outer;
                            }
                        }
                    }
                    if vm.options.isolation == crate::vm::IsolationMode::Shared {
                        vm.classes[class_id.0 as usize].rtcp[cp as usize] =
                            RtCp::ClassInit(new_class);
                    }
                    let r = check!(vm.alloc_instance(new_class, iso));
                    push!(Value::Ref(r));
                }
                O::Newarray => {
                    let atype = op_u8!();
                    flush!();
                    let len = pop!().as_int();
                    if len < 0 {
                        throw!(Thrown::ByName {
                            class_name: "java/lang/NegativeArraySizeException",
                            message: len.to_string(),
                        });
                    }
                    let iso = vm.threads[t].current_isolate;
                    let r = check!(alloc_prim_array(vm, iso, atype, len as usize));
                    push!(Value::Ref(r));
                }
                O::Anewarray => {
                    let cp = op_u16!();
                    flush!();
                    let class_id = vm.threads[t].frames[fidx].class;
                    let target = check!(resolve_class(vm, class_id, cp));
                    let len = pop!().as_int();
                    if len < 0 {
                        throw!(Thrown::ByName {
                            class_name: "java/lang/NegativeArraySizeException",
                            message: len.to_string(),
                        });
                    }
                    let elem_desc = match &target {
                        ClassTarget::Class(c) => format!("L{};", vm.classes[c.0 as usize].name),
                        ClassTarget::Array(d) => d.clone(),
                    };
                    let iso = vm.threads[t].current_isolate;
                    let r = check!(vm.alloc_zeroed_array(iso, &elem_desc, len as usize));
                    push!(Value::Ref(r));
                }
                O::Arraylength => {
                    let r = pop!();
                    let Some(r) = r.as_ref() else { throw!(npe()) };
                    let len = vm.heap.get(r).body.array_len();
                    let Some(len) = len else {
                        throw!(internal_err("arraylength on non-array"))
                    };
                    push!(Value::Int(len as i32));
                }
                O::Athrow => {
                    let r = pop!();
                    let Some(r) = r.as_ref() else { throw!(npe()) };
                    flush!();
                    if unwind(vm, tid, r) {
                        continue 'outer;
                    }
                    return consumed;
                }
                O::Checkcast => {
                    let cp = op_u16!();
                    flush!();
                    let class_id = vm.threads[t].frames[fidx].class;
                    let target = check!(resolve_class(vm, class_id, cp));
                    let v = *fr!().stack.last().expect("checkcast on empty stack");
                    if let Value::Ref(r) = v {
                        if !is_instance(vm, r, &target) {
                            let from = vm.classes[vm.heap.get(r).class.0 as usize].name.clone();
                            throw!(Thrown::ByName {
                                class_name: "java/lang/ClassCastException",
                                message: format!("{from} cannot be cast"),
                            });
                        }
                    }
                }
                O::Instanceof => {
                    let cp = op_u16!();
                    flush!();
                    let class_id = vm.threads[t].frames[fidx].class;
                    let target = check!(resolve_class(vm, class_id, cp));
                    let v = pop!();
                    let res = match v {
                        Value::Ref(r) => is_instance(vm, r, &target) as i32,
                        _ => 0,
                    };
                    push!(Value::Int(res));
                }
                // ---- monitors ----
                O::Monitorenter => {
                    let v = *fr!().stack.last().expect("monitorenter on empty stack");
                    let Some(r) = v.as_ref() else {
                        pop!();
                        throw!(npe())
                    };
                    flush!();
                    match monitor_enter(vm, tid, r) {
                        EnterResult::Acquired => {
                            pop!();
                        }
                        EnterResult::Blocked => {
                            // Retry the monitorenter when rescheduled.
                            vm.threads[t].frames[fidx].pc = insn_pc as u32;
                            return consumed;
                        }
                    }
                }
                O::Monitorexit => {
                    let v = pop!();
                    let Some(r) = v.as_ref() else { throw!(npe()) };
                    flush!();
                    check!(monitor_exit(vm, tid, r));
                }
            }
        }
    }
    consumed
}

/// Three-way comparison for `lcmp`.
pub(crate) fn cmp3<T: Ord>(a: T, b: T) -> i32 {
    match a.cmp(&b) {
        std::cmp::Ordering::Less => -1,
        std::cmp::Ordering::Equal => 0,
        std::cmp::Ordering::Greater => 1,
    }
}

/// `fcmpl`/`fcmpg`/`dcmpl`/`dcmpg` semantics (NaN direction differs).
pub(crate) fn fcmp(a: f64, b: f64, nan_is_one: bool) -> i32 {
    if a.is_nan() || b.is_nan() {
        if nan_is_one {
            1
        } else {
            -1
        }
    } else if a < b {
        -1
    } else if a > b {
        1
    } else {
        0
    }
}

/// `f2i` saturating conversion per the JVM spec.
pub(crate) fn f2i(v: f32) -> i32 {
    if v.is_nan() {
        0
    } else {
        v as i32 // Rust float→int casts saturate, matching the JVM
    }
}

/// `d2l` saturating conversion per the JVM spec.
pub(crate) fn f2l(v: f64) -> i64 {
    if v.is_nan() {
        0
    } else {
        v as i64
    }
}

pub(crate) fn npe() -> Thrown {
    Thrown::ByName {
        class_name: "java/lang/NullPointerException",
        message: String::new(),
    }
}

pub(crate) fn arith() -> Thrown {
    Thrown::ByName {
        class_name: "java/lang/ArithmeticException",
        message: "/ by zero".to_owned(),
    }
}

pub(crate) fn aioobe(idx: i32, len: usize) -> Thrown {
    Thrown::ByName {
        class_name: "java/lang/ArrayIndexOutOfBoundsException",
        message: format!("index {idx} out of bounds for length {len}"),
    }
}

pub(crate) fn internal_err(msg: &str) -> Thrown {
    Thrown::ByName {
        class_name: "java/lang/VerifyError",
        message: msg.to_owned(),
    }
}

// ---------------------------------------------------------------------
// Invocation
// ---------------------------------------------------------------------

/// What `do_invoke` did.
pub(crate) enum InvokeAction {
    /// A bytecode frame was pushed (or a `<clinit>` must run first).
    FramePushed,
    /// A native completed inline; the caller frame continues.
    NativeDone,
    /// The thread blocked (monitor, class init); the instruction will
    /// re-execute when the thread resumes.
    Suspended,
}

/// Outcome of a class-initialization check.
pub(crate) enum InitAction {
    /// The class is initialized for this isolate; proceed.
    Ready,
    /// A `<clinit>` frame was pushed or the thread blocked; re-execute the
    /// triggering instruction later.
    Suspend,
}

fn do_invoke(
    vm: &mut Vm,
    tid: ThreadId,
    fidx: usize,
    caller_class: ClassId,
    cp: u16,
    op: Opcode,
    insn_pc: usize,
) -> Result<InvokeAction, Thrown> {
    let t = tid.0 as usize;
    let cur_iso = vm.threads[t].current_isolate;

    // Resolve the call target.
    let (target, arg_slots) = match op {
        Opcode::Invokestatic | Opcode::Invokespecial => {
            // Shared-mode fast path: init check elided after first call.
            let target = if let RtCp::DirectMethodInit(mref) =
                vm.classes[caller_class.0 as usize].rtcp[cp as usize]
            {
                mref
            } else {
                let target = resolve_direct_method(vm, caller_class, cp)?;
                if op == Opcode::Invokestatic {
                    let mi = vm.mirror_index(cur_iso);
                    let ready = matches!(
                        vm.classes[target.class.0 as usize].mirrors.get(mi),
                        Some(Some(m)) if m.init == InitState::Initialized
                    );
                    if !ready {
                        match ensure_initialized(vm, tid, target.class, cur_iso)? {
                            InitAction::Ready => {}
                            InitAction::Suspend => {
                                vm.threads[t].frames[fidx].pc = insn_pc as u32;
                                return Ok(InvokeAction::Suspended);
                            }
                        }
                    }
                    if vm.options.isolation == crate::vm::IsolationMode::Shared {
                        vm.classes[caller_class.0 as usize].rtcp[cp as usize] =
                            RtCp::DirectMethodInit(target);
                    }
                }
                target
            };
            let arg_slots =
                vm.classes[target.class.0 as usize].methods[target.index as usize].arg_slots;
            (target, arg_slots)
        }
        Opcode::Invokevirtual => {
            let (vslot, arg_slots) = resolve_virtual_method(vm, caller_class, cp)?;
            let receiver = peek_receiver(vm, t, fidx, arg_slots)?;
            let rc = vm.heap.get(receiver).class;
            let vt = &vm.classes[rc.0 as usize].vtable;
            let target = *vt.get(vslot as usize).ok_or_else(|| Thrown::ByName {
                class_name: "java/lang/AbstractMethodError",
                message: format!("vtable slot {vslot} missing"),
            })?;
            (target, arg_slots)
        }
        Opcode::Invokeinterface => {
            let (name, desc, arg_slots) = resolve_interface_method(vm, caller_class, cp)?;
            let receiver = peek_receiver(vm, t, fidx, arg_slots)?;
            let rc = vm.heap.get(receiver).class;
            // Inline cache on the call site.
            let cached = match &vm.classes[caller_class.0 as usize].rtcp[cp as usize] {
                RtCp::InterfaceMethod {
                    cache: Some((cc, mref)),
                    ..
                } if *cc == rc => Some(*mref),
                _ => None,
            };
            let target = match cached {
                Some(mref) => mref,
                None => {
                    let found =
                        lookup_virtual(vm, rc, &name, &desc).ok_or_else(|| Thrown::ByName {
                            class_name: "java/lang/AbstractMethodError",
                            message: format!("{name}{desc} on {}", vm.classes[rc.0 as usize].name),
                        })?;
                    if let RtCp::InterfaceMethod { cache, .. } =
                        &mut vm.classes[caller_class.0 as usize].rtcp[cp as usize]
                    {
                        *cache = Some((rc, found));
                    }
                    found
                }
            };
            (target, arg_slots)
        }
        _ => unreachable!("do_invoke on non-invoke opcode"),
    };

    invoke_resolved(vm, tid, fidx, target, arg_slots, insn_pc)
}

/// Performs a call through a fused [`crate::engine::CallSite`]: the frame
/// shape is precomputed, so no `RuntimeMethod` metadata is read and the
/// callee's locals are carved straight off the caller's operand-stack
/// window into a pooled buffer. Semantics match [`invoke_resolved`]
/// exactly for the targets that fuse (plain bytecode methods): poisoning
/// check first, then the frame-depth check, then the arg transfer and the
/// inter-isolate migration of paper §3.1 (with its exact CPU flush).
pub(crate) fn invoke_fused(
    vm: &mut Vm,
    tid: ThreadId,
    fidx: usize,
    site: &crate::engine::CallSite,
) -> Result<(), Thrown> {
    let t = tid.0 as usize;
    let cur_iso = vm.threads[t].current_isolate;

    if !site.is_system {
        check_not_poisoned(vm, tid, site.target.class)?;
    }
    if vm.threads[t].frames.len() >= vm.options.max_frames {
        return Err(Thrown::ByName {
            class_name: "java/lang/StackOverflowError",
            message: String::new(),
        });
    }

    let th = &mut vm.threads[t];
    // Carve the callee's locals from the caller-adjacent stack window:
    // one pooled buffer, one memcpy, no intermediate args Vec.
    let mut locals = th.frame_pool.take(site.max_locals as usize);
    {
        let stack = &mut th.frames[fidx].stack;
        let start = stack.len() - site.arg_slots as usize;
        locals.extend_from_slice(&stack[start..]);
        stack.truncate(start);
    }
    locals.resize(site.max_locals as usize, Value::Int(0));
    let stack = th.frame_pool.take(site.max_stack as usize);

    let callee_iso = site.frame_isolate.unwrap_or(cur_iso);
    let frame = crate::thread::Frame {
        method: site.target,
        class: site.target.class,
        isolate: callee_iso,
        caller_isolate: cur_iso,
        is_system: site.is_system,
        code: site.code.share(),
        pc: 0,
        locals,
        stack,
        sync_object: None,
        needs_sync_enter: false,
        poisoned_return: None,
    };
    if callee_iso != cur_iso {
        switch_isolate(vm, tid, callee_iso, true);
    }
    vm.threads[t].frames.push(frame);
    Ok(())
}

/// Performs a call whose target method is already resolved: poisoning
/// check, native dispatch or frame push, `synchronized` entry, and the
/// inter-isolate thread migration of paper §3.1. Shared by the raw
/// interpreter's `do_invoke` and the threaded engine's invoke handlers.
pub(crate) fn invoke_resolved(
    vm: &mut Vm,
    tid: ThreadId,
    fidx: usize,
    target: MethodRef,
    arg_slots: u16,
    insn_pc: usize,
) -> Result<InvokeAction, Thrown> {
    let t = tid.0 as usize;
    let cur_iso = vm.threads[t].current_isolate;

    check_not_poisoned(vm, tid, target.class)?;

    let (is_native, is_bytecode, is_sync, is_static, returns_value) = {
        let m = &vm.classes[target.class.0 as usize].methods[target.index as usize];
        (
            m.access.is_native(),
            m.code.is_some(),
            m.synchronized,
            m.is_static(),
            m.returns_value,
        )
    };

    if is_native {
        let native_idx = vm.classes[target.class.0 as usize].methods[target.index as usize]
            .native_idx
            .or_else(|| {
                let c = &vm.classes[target.class.0 as usize];
                let m = &c.methods[target.index as usize];
                vm.natives.lookup(&c.name, &m.name, &m.descriptor)
            });
        let Some(native_idx) = native_idx else {
            let c = &vm.classes[target.class.0 as usize];
            let m = &c.methods[target.index as usize];
            return Err(Thrown::ByName {
                class_name: "java/lang/UnsatisfiedLinkError",
                message: format!("{}.{}:{}", c.name, m.name, m.descriptor),
            });
        };
        vm.classes[target.class.0 as usize].methods[target.index as usize].native_idx =
            Some(native_idx);
        // The arguments stay on the caller's operand stack while the
        // native runs — roots of the calling frame's isolate — so a
        // collection triggered by an allocation inside the native cannot
        // free them. They are dropped once it returns, leaving the stack
        // exactly as popping them first would have.
        let start = vm.threads[t].frames[fidx].stack.len() - arg_slots as usize;
        let args = vm.threads[t].frames[fidx].stack[start..].to_vec();
        let f = vm.natives.get(native_idx);
        let result = f(vm, tid, &args);
        if let Some(frame) = vm.threads[t].frames.get_mut(fidx) {
            frame.stack.drain(start..start + args.len());
        }
        match result {
            NativeResult::Return(v) => {
                if returns_value {
                    let v = v.expect("native for value-returning method returned nothing");
                    vm.threads[t].frames[fidx].stack.push(v);
                }
                Ok(InvokeAction::NativeDone)
            }
            NativeResult::BlockReturn(v) => {
                if returns_value {
                    let v = v.expect("native for value-returning method returned nothing");
                    vm.threads[t].frames[fidx].stack.push(v);
                }
                Ok(InvokeAction::NativeDone)
            }
            // Nothing is pushed: the waker delivers the result (value on
            // the operand stack, or a pending exception) before the
            // thread resumes, so the post-call stack shape matches
            // `BlockReturn` exactly.
            NativeResult::BlockPending => Ok(InvokeAction::NativeDone),
            NativeResult::Throw {
                class_name,
                message,
            } => Err(Thrown::ByName {
                class_name,
                message,
            }),
            NativeResult::ThrowRef(r) => Err(Thrown::Ref(r)),
            NativeResult::Fail(e) => Err(Thrown::ByName {
                class_name: "java/lang/InternalError",
                message: e.to_string(),
            }),
        }
    } else if is_bytecode {
        if vm.threads[t].frames.len() >= vm.options.max_frames {
            return Err(Thrown::ByName {
                class_name: "java/lang/StackOverflowError",
                message: String::new(),
            });
        }
        // Synchronized methods take their monitor *before* the args are
        // popped, so a contended monitor simply re-executes the invoke.
        let mut sync_object = None;
        if is_sync {
            let lock_target = if is_static {
                vm.ensure_mirror(target.class, cur_iso);
                let mi = vm.mirror_index(cur_iso);
                vm.classes[target.class.0 as usize].mirrors[mi]
                    .as_ref()
                    .expect("mirror just ensured")
                    .class_object
            } else {
                peek_receiver(vm, t, fidx, arg_slots)?
            };
            match monitor_enter(vm, tid, lock_target) {
                EnterResult::Acquired => sync_object = Some(lock_target),
                EnterResult::Blocked => {
                    vm.threads[t].frames[fidx].pc = insn_pc as u32;
                    return Ok(InvokeAction::Suspended);
                }
            }
        }
        let args = pop_args(vm, t, fidx, arg_slots);
        let mut frame = vm.make_frame(target, args, cur_iso);
        frame.sync_object = sync_object;
        frame.needs_sync_enter = false; // acquired above (or not synchronized)
        let callee_iso = frame.isolate;
        if callee_iso != cur_iso {
            switch_isolate(vm, tid, callee_iso, true);
        }
        vm.threads[t].frames.push(frame);
        Ok(InvokeAction::FramePushed)
    } else {
        let c = &vm.classes[target.class.0 as usize];
        let m = &c.methods[target.index as usize];
        Err(Thrown::ByName {
            class_name: "java/lang/AbstractMethodError",
            message: format!("{}.{}:{}", c.name, m.name, m.descriptor),
        })
    }
}

pub(crate) fn peek_receiver(
    vm: &Vm,
    t: usize,
    fidx: usize,
    arg_slots: u16,
) -> Result<GcRef, Thrown> {
    let stack = &vm.threads[t].frames[fidx].stack;
    let v = stack
        .get(stack.len().wrapping_sub(arg_slots as usize))
        .copied()
        .unwrap_or(Value::Null);
    v.as_ref().ok_or(Thrown::ByName {
        class_name: "java/lang/NullPointerException",
        message: String::new(),
    })
}

fn pop_args(vm: &mut Vm, t: usize, fidx: usize, arg_slots: u16) -> Vec<Value> {
    let stack = &mut vm.threads[t].frames[fidx].stack;
    let start = stack.len() - arg_slots as usize;
    stack.drain(start..).collect()
}

/// Migrates `tid` to isolate `to` (paper §3.1), flushing the exact CPU
/// counter of the isolate it leaves.
pub(crate) fn switch_isolate(vm: &mut Vm, tid: ThreadId, to: IsolateId, is_call: bool) {
    let t = tid.0 as usize;
    let from = vm.threads[t].current_isolate;
    if from == to {
        return;
    }
    let insns = std::mem::take(&mut vm.threads[t].insns_since_switch);
    if vm.options.accounting {
        let mut charged = false;
        if let Some(i) = vm.isolates.get_mut(from.0 as usize) {
            i.stats.charge_cpu(insns);
            charged = true;
        }
        if charged && insns > 0 {
            vm.trace_cpu_charge(from, Some(tid), insns);
        }
        if is_call {
            if let Some(i) = vm.isolates.get_mut(to.0 as usize) {
                i.stats.calls_in += 1;
            }
        }
    }
    vm.threads[t].current_isolate = to;
    vm.migrations += 1;
    vm.trace_emit(
        crate::trace::EventKind::IsolateSwitch,
        Some(from),
        Some(tid),
        to.0 as u64,
    );
}

/// Pops the top frame on normal return. Returns `true` when the thread
/// still has work (caller frame or handler); `false` when it finished.
pub(crate) fn do_return(vm: &mut Vm, tid: ThreadId, value: Option<Value>) -> bool {
    let t = tid.0 as usize;
    let frame = vm.threads[t].frames.pop().expect("return with no frame");
    if let Some(obj) = frame.sync_object {
        let _ = monitor_exit(vm, tid, obj);
    }
    let (returns_value, is_clinit) = {
        let m = &vm.classes[frame.method.class.0 as usize].methods[frame.method.index as usize];
        (m.returns_value, &*m.name == "<clinit>")
    };
    if is_clinit {
        mark_initialized(
            vm,
            frame.method.class,
            frame.isolate,
            InitState::Initialized,
        );
    }
    // Paper §3.3: returning into a frame of a terminated isolate raises
    // StoppedIsolateException instead.
    if let Some(dead_iso) = frame.poisoned_return {
        let caller_isolate = frame.caller_isolate;
        vm.threads[t].frame_pool.recycle_frame(frame);
        let ex = make_sie(vm, tid, dead_iso);
        switch_isolate(vm, tid, caller_isolate, false);
        return unwind(vm, tid, ex);
    }
    switch_isolate(vm, tid, frame.caller_isolate, false);
    vm.threads[t].frame_pool.recycle_frame(frame);
    match vm.threads[t].frames.last_mut() {
        Some(caller) => {
            if returns_value {
                caller
                    .stack
                    .push(value.expect("value-returning method returned nothing"));
            }
            true
        }
        None => {
            finish_thread(vm, tid, value);
            false
        }
    }
}

pub(crate) fn mark_initialized(vm: &mut Vm, class: ClassId, iso: IsolateId, state: InitState) {
    let mi = vm.mirror_index(iso);
    if let Some(Some(m)) = vm.classes[class.0 as usize].mirrors.get_mut(mi) {
        m.init = state;
    }
    vm.poll_unblock();
}

pub(crate) fn finish_thread(vm: &mut Vm, tid: ThreadId, value: Option<Value>) {
    let t = tid.0 as usize;
    let iso = vm.threads[t].current_isolate;
    let insns = std::mem::take(&mut vm.threads[t].insns_since_switch);
    if vm.options.accounting {
        let mut charged = false;
        if let Some(i) = vm.isolates.get_mut(iso.0 as usize) {
            i.stats.charge_cpu(insns);
            charged = true;
        }
        if charged && insns > 0 {
            vm.trace_cpu_charge(iso, Some(tid), insns);
        }
    }
    // A service pump draining its last frame has completed one request,
    // not its life: the port layer sends the reply and re-parks (or
    // re-dispatches) the thread. Everything burned was charged above.
    if vm.threads[t].is_service_pump && crate::port::pump_completed(vm, tid, value) {
        return;
    }
    let th = &mut vm.threads[t];
    th.state = ThreadState::Terminated;
    th.result = value;
    // Drop the frames *and* the pool: a terminated thread never invokes
    // again, and its slot stays in `vm.threads` until the host gives it
    // back (`Vm::release_thread`), which for a Java thread or a call that
    // returned a reference is never.
    th.frames.clear();
    th.frame_pool = crate::thread::FramePool::default();
    vm.trace_emit(
        crate::trace::EventKind::ThreadFinish,
        Some(iso),
        Some(tid),
        0,
    );
}

// ---------------------------------------------------------------------
// Exceptions
// ---------------------------------------------------------------------

/// Allocates the exception object for a `Thrown`.
pub(crate) fn materialize(vm: &mut Vm, tid: ThreadId, thrown: Thrown) -> GcRef {
    match thrown {
        Thrown::Ref(r) => r,
        Thrown::ByName {
            class_name,
            message,
        } => alloc_exception(vm, tid, class_name, &message),
    }
}

/// Allocates an exception bypassing the heap limit (so OOM reporting
/// cannot itself OOM).
pub(crate) fn alloc_exception(
    vm: &mut Vm,
    tid: ThreadId,
    class_name: &str,
    message: &str,
) -> GcRef {
    let iso = vm.threads[tid.0 as usize].current_isolate;
    let class = vm
        .load_class(crate::ids::LoaderId::BOOTSTRAP, class_name)
        .unwrap_or_else(|e| panic!("bootstrap exception class {class_name} missing: {e}"));
    vm.alloc_exception_unchecked(class, iso, message)
}

/// Builds a `StoppedIsolateException` for `dead_iso` (paper §3.3). The
/// exception records the terminated isolate so unwinding can refuse to let
/// that isolate catch it.
pub(crate) fn make_sie(vm: &mut Vm, tid: ThreadId, dead_iso: IsolateId) -> GcRef {
    let name = vm
        .isolates
        .get(dead_iso.0 as usize)
        .map(|i| i.name.clone())
        .unwrap_or_default();
    let r = alloc_exception(
        vm,
        tid,
        STOPPED_ISOLATE_EXCEPTION,
        &format!("isolate {name} stopped"),
    );
    let class = vm.heap.get(r).class;
    if let Some(slot) = vm.classes[class.0 as usize].find_instance_slot("isolateId") {
        if let crate::heap::ObjBody::Fields(fields) = &mut vm.heap.get_mut(r).body {
            fields[slot as usize] = Value::Int(dead_iso.0 as i32);
        }
    }
    vm.trace_emit(
        crate::trace::EventKind::SieRaised,
        Some(dead_iso),
        Some(tid),
        0,
    );
    r
}

pub(crate) fn sie_isolate_of(vm: &Vm, ex: GcRef) -> Option<IsolateId> {
    let obj = vm.heap.get(ex);
    let class = &vm.classes[obj.class.0 as usize];
    if &*class.name != STOPPED_ISOLATE_EXCEPTION {
        return None;
    }
    let slot = class.find_instance_slot("isolateId")?;
    let crate::heap::ObjBody::Fields(fields) = &obj.body else {
        return None;
    };
    match fields[slot as usize] {
        Value::Int(v) => Some(IsolateId(v as u16)),
        _ => None,
    }
}

/// Unwinds `tid` delivering `ex`. Handlers belonging to non-active
/// isolates are skipped — in particular a terminated isolate can never
/// catch its own `StoppedIsolateException` (paper §3.3). Returns `true`
/// when a handler took over; `false` when the thread died.
pub(crate) fn unwind(vm: &mut Vm, tid: ThreadId, ex: GcRef) -> bool {
    let t = tid.0 as usize;
    let ex_class = vm.heap.get(ex).class;
    let sie_iso = sie_isolate_of(vm, ex);

    loop {
        let Some(frame) = vm.threads[t].frames.last() else {
            let iso = vm.threads[t].current_isolate;
            let insns = std::mem::take(&mut vm.threads[t].insns_since_switch);
            if vm.options.accounting {
                let mut charged = false;
                if let Some(i) = vm.isolates.get_mut(iso.0 as usize) {
                    i.stats.charge_cpu(insns);
                    charged = true;
                }
                if charged && insns > 0 {
                    vm.trace_cpu_charge(iso, Some(tid), insns);
                }
            }
            // A handler exception inside a service pump becomes a failed
            // (or revoked) reply to the caller; the pump survives unless
            // its isolate was terminated. `false` still tells the engine
            // to stop stepping this thread — it was re-parked or
            // re-dispatched, not terminated.
            if vm.threads[t].is_service_pump && crate::port::pump_failed(vm, tid, ex) {
                return false;
            }
            let th = &mut vm.threads[t];
            th.uncaught = Some(ex);
            th.state = ThreadState::Terminated;
            vm.trace_emit(
                crate::trace::EventKind::ThreadFinish,
                Some(iso),
                Some(tid),
                1,
            );
            return false;
        };

        let frame_iso = frame.isolate;
        let iso_active = vm
            .isolates
            .get(frame_iso.0 as usize)
            .map(|i| i.is_active())
            .unwrap_or(true);
        let may_catch = iso_active && sie_iso != Some(frame_iso);

        if may_catch {
            let code = frame.code.share();
            let pc = frame.pc;
            let frame_class = frame.class;
            let mut handler_pc = None;
            for h in &code.handlers {
                if pc < h.start_pc || pc >= h.end_pc {
                    continue;
                }
                let matches = if h.catch_type == 0 {
                    true
                } else {
                    let cname = match vm.classes[frame_class.0 as usize]
                        .pool
                        .class_name_at(h.catch_type)
                    {
                        Ok(n) => n.to_owned(),
                        Err(_) => continue,
                    };
                    let loader = vm.classes[frame_class.0 as usize].loader;
                    match vm.load_class(loader, &cname) {
                        Ok(catch_class) => vm.is_assignable_to(ex_class, catch_class),
                        Err(_) => false,
                    }
                };
                if matches {
                    handler_pc = Some(h.handler_pc);
                    break;
                }
            }
            if let Some(hpc) = handler_pc {
                let frame = vm.threads[t]
                    .frames
                    .last_mut()
                    .expect("frame checked above");
                frame.stack.clear();
                frame.stack.push(Value::Ref(ex));
                frame.pc = hpc;
                return true;
            }
        }

        // No handler here: pop and continue below.
        let frame = vm.threads[t].frames.pop().expect("frame checked above");
        if let Some(obj) = frame.sync_object {
            let _ = monitor_exit(vm, tid, obj);
        }
        let is_clinit = {
            let m = &vm.classes[frame.method.class.0 as usize].methods[frame.method.index as usize];
            &*m.name == "<clinit>"
        };
        if is_clinit {
            mark_initialized(vm, frame.method.class, frame.isolate, InitState::Failed);
        }
        switch_isolate(vm, tid, frame.caller_isolate, false);
        vm.threads[t].frame_pool.recycle_frame(frame);
    }
}

// ---------------------------------------------------------------------
// Class initialization
// ---------------------------------------------------------------------

/// Ensures `(class, iso)` is initialized, running superclass `<clinit>`s
/// first (root-most first, per the JVM spec).
pub(crate) fn ensure_initialized(
    vm: &mut Vm,
    tid: ThreadId,
    class: ClassId,
    iso: IsolateId,
) -> Result<InitAction, Thrown> {
    let t = tid.0 as usize;
    // Collect the superclass chain, root first.
    let mut chain = Vec::new();
    let mut cur = Some(class);
    while let Some(c) = cur {
        chain.push(c);
        cur = vm.classes[c.0 as usize].super_class;
    }
    for &c in chain.iter().rev() {
        check_not_poisoned(vm, tid, c)?;
        vm.ensure_mirror(c, iso);
        let mi = vm.mirror_index(iso);
        let state = vm.classes[c.0 as usize].mirrors[mi]
            .as_ref()
            .expect("mirror just ensured")
            .init;
        match state {
            InitState::Initialized => continue,
            InitState::Failed => {
                return Err(Thrown::ByName {
                    class_name: "java/lang/NoClassDefFoundError",
                    message: format!("initialization of {} failed", vm.classes[c.0 as usize].name),
                });
            }
            InitState::InProgress(owner) if owner == tid => continue,
            InitState::InProgress(_) => {
                vm.threads[t].state = ThreadState::BlockedOnClassInit {
                    class: c,
                    isolate: iso,
                };
                return Ok(InitAction::Suspend);
            }
            InitState::Uninitialized => {
                let clinit = vm.classes[c.0 as usize].find_method("<clinit>", "()V");
                match clinit {
                    None => {
                        vm.classes[c.0 as usize].mirrors[mi]
                            .as_mut()
                            .expect("mirror just ensured")
                            .init = InitState::Initialized;
                        continue;
                    }
                    Some(index) => {
                        vm.classes[c.0 as usize].mirrors[mi]
                            .as_mut()
                            .expect("mirror just ensured")
                            .init = InitState::InProgress(tid);
                        let mref = MethodRef { class: c, index };
                        let frame = vm.make_frame(mref, Vec::new(), iso);
                        vm.threads[t].frames.push(frame);
                        return Ok(InitAction::Suspend);
                    }
                }
            }
        }
    }
    Ok(InitAction::Ready)
}

/// Rejects calls into classes of terminated isolates with a
/// `StoppedIsolateException` (paper §3.3 "method poisoning").
pub(crate) fn check_not_poisoned(vm: &mut Vm, tid: ThreadId, class: ClassId) -> Result<(), Thrown> {
    let (poisoned, iso, is_system) = {
        let c = &vm.classes[class.0 as usize];
        (c.poisoned, c.isolate, c.is_system)
    };
    if is_system {
        return Ok(());
    }
    let iso_dead = vm
        .isolates
        .get(iso.0 as usize)
        .map(|i| i.state != IsolateState::Active)
        .unwrap_or(false);
    if poisoned || iso_dead {
        let ex = make_sie(vm, tid, iso);
        return Err(Thrown::Ref(ex));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Resolution (runtime constant pool cache)
// ---------------------------------------------------------------------

fn link_error(kind: &'static str, detail: String) -> Thrown {
    let class_name = match kind {
        "class" => "java/lang/NoClassDefFoundError",
        "field" => "java/lang/NoSuchFieldError",
        _ => "java/lang/NoSuchMethodError",
    };
    Thrown::ByName {
        class_name,
        message: detail,
    }
}

pub(crate) fn resolve_class(
    vm: &mut Vm,
    class_id: ClassId,
    cp: u16,
) -> Result<ClassTarget, Thrown> {
    if let RtCp::Class(target) = &vm.classes[class_id.0 as usize].rtcp[cp as usize] {
        return Ok(target.clone());
    }
    let name = vm.classes[class_id.0 as usize]
        .pool
        .class_name_at(cp)
        .map_err(|e| link_error("class", e.to_string()))?
        .to_owned();
    let target = if name.starts_with('[') {
        ClassTarget::Array(name)
    } else {
        let loader = vm.classes[class_id.0 as usize].loader;
        let id = vm
            .load_class(loader, &name)
            .map_err(|e| link_error("class", e.to_string()))?;
        ClassTarget::Class(id)
    };
    vm.classes[class_id.0 as usize].rtcp[cp as usize] = RtCp::Class(target.clone());
    Ok(target)
}

fn resolve_member(
    vm: &mut Vm,
    class_id: ClassId,
    cp: u16,
) -> Result<(ClassId, String, String), Thrown> {
    let (cname, mname, mdesc) = {
        let c = &vm.classes[class_id.0 as usize];
        let (a, b, d) = c
            .pool
            .member_ref_at(cp)
            .map_err(|e| link_error("class", e.to_string()))?;
        (a.to_owned(), b.to_owned(), d.to_owned())
    };
    let loader = vm.classes[class_id.0 as usize].loader;
    let target_class = vm
        .load_class(loader, &cname)
        .map_err(|e| link_error("class", e.to_string()))?;
    Ok((target_class, mname, mdesc))
}

pub(crate) fn resolve_static_field(
    vm: &mut Vm,
    class_id: ClassId,
    cp: u16,
) -> Result<(ClassId, u32), Thrown> {
    if let RtCp::StaticField { class, slot } = vm.classes[class_id.0 as usize].rtcp[cp as usize] {
        return Ok((class, slot));
    }
    let (target_class, fname, _fdesc) = resolve_member(vm, class_id, cp)?;
    // Walk up the hierarchy to the declaring class.
    let mut cur = Some(target_class);
    while let Some(c) = cur {
        if let Some(slot) = vm.classes[c.0 as usize].find_static_slot(&fname) {
            vm.classes[class_id.0 as usize].rtcp[cp as usize] =
                RtCp::StaticField { class: c, slot };
            return Ok((c, slot));
        }
        cur = vm.classes[c.0 as usize].super_class;
    }
    Err(link_error("field", fname))
}

pub(crate) fn resolve_instance_field(
    vm: &mut Vm,
    class_id: ClassId,
    cp: u16,
) -> Result<u32, Thrown> {
    if let RtCp::InstanceField { slot } = vm.classes[class_id.0 as usize].rtcp[cp as usize] {
        return Ok(slot);
    }
    let (target_class, fname, _fdesc) = resolve_member(vm, class_id, cp)?;
    let slot = vm.classes[target_class.0 as usize]
        .find_instance_slot(&fname)
        .ok_or_else(|| link_error("field", fname))?;
    vm.classes[class_id.0 as usize].rtcp[cp as usize] = RtCp::InstanceField { slot };
    Ok(slot)
}

fn find_method_up(vm: &Vm, class: ClassId, name: &str, desc: &str) -> Option<MethodRef> {
    let mut cur = Some(class);
    while let Some(c) = cur {
        if let Some(index) = vm.classes[c.0 as usize].find_method(name, desc) {
            return Some(MethodRef { class: c, index });
        }
        cur = vm.classes[c.0 as usize].super_class;
    }
    None
}

/// Virtual lookup used by `invokeinterface`: searches the class chain,
/// then the interface hierarchy (for default-less interfaces this only
/// validates existence).
pub(crate) fn lookup_virtual(vm: &Vm, class: ClassId, name: &str, desc: &str) -> Option<MethodRef> {
    find_method_up(vm, class, name, desc)
}

pub(crate) fn resolve_direct_method(
    vm: &mut Vm,
    class_id: ClassId,
    cp: u16,
) -> Result<MethodRef, Thrown> {
    if let RtCp::DirectMethod(mref) = vm.classes[class_id.0 as usize].rtcp[cp as usize] {
        return Ok(mref);
    }
    let (target_class, mname, mdesc) = resolve_member(vm, class_id, cp)?;
    let mref = find_method_up(vm, target_class, &mname, &mdesc)
        .ok_or_else(|| link_error("method", format!("{mname}:{mdesc}")))?;
    vm.classes[class_id.0 as usize].rtcp[cp as usize] = RtCp::DirectMethod(mref);
    Ok(mref)
}

pub(crate) fn resolve_virtual_method(
    vm: &mut Vm,
    class_id: ClassId,
    cp: u16,
) -> Result<(u32, u16), Thrown> {
    if let RtCp::VirtualMethod { vslot, arg_slots } =
        vm.classes[class_id.0 as usize].rtcp[cp as usize]
    {
        return Ok((vslot, arg_slots));
    }
    let (target_class, mname, mdesc) = resolve_member(vm, class_id, cp)?;
    let mref = find_method_up(vm, target_class, &mname, &mdesc)
        .ok_or_else(|| link_error("method", format!("{mname}:{mdesc}")))?;
    let m = &vm.classes[mref.class.0 as usize].methods[mref.index as usize];
    let arg_slots = m.arg_slots;
    match m.vslot {
        Some(vslot) => {
            vm.classes[class_id.0 as usize].rtcp[cp as usize] =
                RtCp::VirtualMethod { vslot, arg_slots };
            Ok((vslot, arg_slots))
        }
        None => {
            // Private or constructor invoked virtually: treat as direct by
            // caching a degenerate entry through DirectMethod.
            vm.classes[class_id.0 as usize].rtcp[cp as usize] = RtCp::DirectMethod(mref);
            Err(link_error(
                "method",
                format!("{mname}:{mdesc} is not virtual"),
            ))
        }
    }
}

pub(crate) fn resolve_interface_method(
    vm: &mut Vm,
    class_id: ClassId,
    cp: u16,
) -> Result<(std::sync::Arc<str>, std::sync::Arc<str>, u16), Thrown> {
    if let RtCp::InterfaceMethod {
        name,
        descriptor,
        arg_slots,
        ..
    } = &vm.classes[class_id.0 as usize].rtcp[cp as usize]
    {
        return Ok((name.clone(), descriptor.clone(), *arg_slots));
    }
    let (_target_class, mname, mdesc) = resolve_member(vm, class_id, cp)?;
    let parsed = ijvm_classfile::MethodDescriptor::parse(&mdesc)
        .map_err(|e| link_error("method", e.to_string()))?;
    let arg_slots = parsed.param_slots() as u16 + 1; // + receiver
    let name: std::sync::Arc<str> = std::sync::Arc::from(mname.as_str());
    let descriptor: std::sync::Arc<str> = std::sync::Arc::from(mdesc.as_str());
    vm.classes[class_id.0 as usize].rtcp[cp as usize] = RtCp::InterfaceMethod {
        name: name.clone(),
        descriptor: descriptor.clone(),
        arg_slots,
        cache: None,
    };
    Ok((name, descriptor, arg_slots))
}

// ---------------------------------------------------------------------
// Constants, type tests, arrays
// ---------------------------------------------------------------------

pub(crate) fn load_constant(
    vm: &mut Vm,
    tid: ThreadId,
    class_id: ClassId,
    idx: u16,
) -> Result<Value, Thrown> {
    let t = tid.0 as usize;
    let entry = vm.classes[class_id.0 as usize]
        .pool
        .get(idx)
        .map_err(|e| link_error("class", e.to_string()))?
        .clone();
    Ok(match entry {
        ConstEntry::Integer(v) => Value::Int(v),
        ConstEntry::Float(v) => Value::Float(v),
        ConstEntry::Long(v) => Value::Long(v),
        ConstEntry::Double(v) => Value::Double(v),
        ConstEntry::String { .. } => {
            let s = vm.classes[class_id.0 as usize]
                .pool
                .string_at(idx)
                .map_err(|e| link_error("class", e.to_string()))?
                .to_owned();
            // Paper §3.1: string literals resolve through the *current
            // isolate's* string map, so `==` only holds within a bundle.
            let iso = vm.threads[t].current_isolate;
            Value::Ref(vm.intern_string(iso, &s).ok_or_else(crate::vm::heap_oom)?)
        }
        ConstEntry::Class { .. } => {
            let target = resolve_class(vm, class_id, idx)?;
            match target {
                ClassTarget::Class(c) => {
                    let iso = vm.threads[t].current_isolate;
                    vm.ensure_mirror(c, iso);
                    let mi = vm.mirror_index(iso);
                    Value::Ref(
                        vm.classes[c.0 as usize].mirrors[mi]
                            .as_ref()
                            .expect("mirror just ensured")
                            .class_object,
                    )
                }
                ClassTarget::Array(_) => {
                    return Err(Thrown::ByName {
                        class_name: "java/lang/VerifyError",
                        message: "ldc of array class constants is unsupported".to_owned(),
                    });
                }
            }
        }
        other => {
            return Err(Thrown::ByName {
                class_name: "java/lang/VerifyError",
                message: format!("ldc of {:?}", other.tag()),
            });
        }
    })
}

pub(crate) fn is_instance(vm: &Vm, r: GcRef, target: &ClassTarget) -> bool {
    let obj = vm.heap.get(r);
    match target {
        ClassTarget::Class(c) => {
            if obj.is_array() {
                // Arrays are instances of java/lang/Object only.
                Some(*c) == vm.well_known.object
            } else {
                vm.is_assignable_to(obj.class, *c)
            }
        }
        ClassTarget::Array(desc) => {
            if !obj.is_array() {
                return false;
            }
            if obj.array_desc == *desc {
                return true;
            }
            // A reference array is assignable to Object[].
            desc == "[Ljava/lang/Object;"
                && (obj.array_desc.starts_with("[L") || obj.array_desc.starts_with("[["))
        }
    }
}

pub(crate) fn alloc_prim_array(
    vm: &mut Vm,
    iso: IsolateId,
    atype: u8,
    len: usize,
) -> Result<GcRef, Thrown> {
    let Some(base) = BaseType::from_newarray_code(atype) else {
        return Err(Thrown::ByName {
            class_name: "java/lang/VerifyError",
            message: format!("bad newarray type {atype}"),
        });
    };
    vm.alloc_zeroed_array(iso, base.descriptor_char().encode_utf8(&mut [0; 4]), len)
}
