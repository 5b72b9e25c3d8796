//! Native implementations backing the system-library classes.

use ijvm_core::heap::ObjBody;
use ijvm_core::ids::{LoaderId, ThreadId};
use ijvm_core::natives::NativeResult;
use ijvm_core::thread::ThreadState;
use ijvm_core::value::{GcRef, Value};
use ijvm_core::vm::Vm;
use std::sync::Arc;
use std::sync::Mutex;

/// Registers every JSL native. Idempotent (re-registering replaces).
pub fn register_all(vm: &mut Vm) {
    register_system(vm);
    register_thread(vm);
    register_math(vm);
    register_stringbuilder(vm);
    register_arraylist(vm);
    register_hashmap(vm);
    register_vconnection(vm);
}

fn ret(v: Value) -> NativeResult {
    NativeResult::Return(Some(v))
}

fn ret_void() -> NativeResult {
    NativeResult::Return(None)
}

fn oom(what: &str) -> NativeResult {
    NativeResult::Throw {
        class_name: "java/lang/OutOfMemoryError",
        message: what.to_owned(),
    }
}

/// Formats a value for `println`, mirroring Java's `String.valueOf`.
fn display_value(vm: &Vm, v: Value) -> String {
    match v {
        Value::Int(x) => x.to_string(),
        Value::Long(x) => x.to_string(),
        Value::Float(x) => format!("{x}"),
        Value::Double(x) => format!("{x}"),
        Value::Null => "null".to_owned(),
        Value::Ref(r) => match vm.read_string(r) {
            Some(s) => s,
            None => {
                let name = vm.class(vm.heap().get(r).class).name.to_string();
                format!("{name}@{}", r.0)
            }
        },
    }
}

fn register_system(vm: &mut Vm) {
    let sys = "java/lang/System";
    for desc in ["(Ljava/lang/String;)V", "(Ljava/lang/Object;)V"] {
        vm.register_native(
            sys,
            "println",
            desc,
            Arc::new(|vm, _tid, args| {
                let line = display_value(vm, args[0]);
                vm.console_print(line);
                ret_void()
            }),
        );
    }
    for desc in ["(I)V", "(J)V", "(D)V"] {
        vm.register_native(
            sys,
            "println",
            desc,
            Arc::new(|vm, _tid, args| {
                let line = display_value(vm, args[0]);
                vm.console_print(line);
                ret_void()
            }),
        );
    }
    vm.register_native(
        sys,
        "println",
        "(Z)V",
        Arc::new(|vm, _tid, args| {
            let line = if args[0].as_int() != 0 {
                "true"
            } else {
                "false"
            };
            vm.console_print(line.to_owned());
            ret_void()
        }),
    );
    vm.register_native(
        sys,
        "println",
        "(C)V",
        Arc::new(|vm, _tid, args| {
            let c = char::from_u32(args[0].as_int() as u32).unwrap_or('?');
            vm.console_print(c.to_string());
            ret_void()
        }),
    );
    vm.register_native(
        sys,
        "currentTimeMillis",
        "()J",
        Arc::new(|vm, _tid, _args| ret(Value::Long((vm.vclock() / 1_000_000) as i64))),
    );
    vm.register_native(
        sys,
        "nanoTime",
        "()J",
        Arc::new(|vm, _tid, _args| ret(Value::Long(vm.vclock() as i64))),
    );
    vm.register_native(
        sys,
        "gc",
        "()V",
        Arc::new(|vm, tid, _args| {
            let iso = vm.current_isolate(tid);
            vm.collect_garbage(Some(iso));
            ret_void()
        }),
    );
    // Paper §3.4 rule 2: System.exit is a privileged resource; only
    // Isolate0 (the OSGi runtime) may shut the platform down.
    vm.register_native(
        sys,
        "exit",
        "(I)V",
        Arc::new(|vm, tid, args| {
            let iso = vm.current_isolate(tid);
            if vm.is_isolated() && !iso.is_privileged() {
                return NativeResult::Throw {
                    class_name: "java/lang/SecurityException",
                    message: format!("System.exit denied to {iso}"),
                };
            }
            vm.request_exit(args[0].as_int());
            ret_void()
        }),
    );
    vm.register_native(
        sys,
        "identityHashCode",
        "(Ljava/lang/Object;)I",
        Arc::new(|_vm, _tid, args| {
            let h = match args[0] {
                Value::Ref(r) => r.0 as i32,
                _ => 0,
            };
            ret(Value::Int(h))
        }),
    );
    vm.register_native(
        sys,
        "arraycopy",
        "(Ljava/lang/Object;ILjava/lang/Object;II)V",
        Arc::new(|vm, _tid, args| {
            let (Some(src), Some(dst)) = (args[0].as_ref(), args[2].as_ref()) else {
                return NativeResult::Throw {
                    class_name: "java/lang/NullPointerException",
                    message: "arraycopy".to_owned(),
                };
            };
            let (spos, dpos, len) = (args[1].as_int(), args[3].as_int(), args[4].as_int());
            if spos < 0 || dpos < 0 || len < 0 {
                return NativeResult::Throw {
                    class_name: "java/lang/ArrayIndexOutOfBoundsException",
                    message: format!("arraycopy({spos}, {dpos}, {len})"),
                };
            }
            // Non-negative `i32`s: the sums below cannot overflow `usize`.
            match copy_array(vm, src, spos as usize, dst, dpos as usize, len as usize) {
                Ok(()) => ret_void(),
                Err(msg) => NativeResult::Throw {
                    class_name: "java/lang/ArrayIndexOutOfBoundsException",
                    message: msg,
                },
            }
        }),
    );
}

fn copy_array(
    vm: &mut Vm,
    src: GcRef,
    spos: usize,
    dst: GcRef,
    dpos: usize,
    len: usize,
) -> Result<(), String> {
    macro_rules! copy_kind {
        ($variant:ident) => {{
            let data: Vec<_> = match &vm.heap().get(src).body {
                ObjBody::$variant(a) => {
                    if spos + len > a.len() {
                        return Err(format!("src range {spos}+{len} > {}", a.len()));
                    }
                    a[spos..spos + len].to_vec()
                }
                _ => return Err("mismatched array kinds".to_owned()),
            };
            match &mut vm.heap_mut().get_mut(dst).body {
                ObjBody::$variant(a) => {
                    if dpos + len > a.len() {
                        return Err(format!("dst range {dpos}+{len} > {}", a.len()));
                    }
                    a[dpos..dpos + len].copy_from_slice(&data);
                    Ok(())
                }
                _ => Err("mismatched array kinds".to_owned()),
            }
        }};
    }
    let kind = std::mem::discriminant(&vm.heap().get(src).body);
    if kind != std::mem::discriminant(&vm.heap().get(dst).body) {
        return Err("mismatched array kinds".to_owned());
    }
    match &vm.heap().get(src).body {
        ObjBody::ArrBool(_) => copy_kind!(ArrBool),
        ObjBody::ArrByte(_) => copy_kind!(ArrByte),
        ObjBody::ArrChar(_) => copy_kind!(ArrChar),
        ObjBody::ArrShort(_) => copy_kind!(ArrShort),
        ObjBody::ArrInt(_) => copy_kind!(ArrInt),
        ObjBody::ArrLong(_) => copy_kind!(ArrLong),
        ObjBody::ArrFloat(_) => copy_kind!(ArrFloat),
        ObjBody::ArrDouble(_) => copy_kind!(ArrDouble),
        ObjBody::ArrRef { data, .. } => {
            if spos + len > data.len() {
                return Err("src range".to_owned());
            }
            let slice = data[spos..spos + len].to_vec();
            match &mut vm.heap_mut().get_mut(dst).body {
                ObjBody::ArrRef { data, .. } => {
                    if dpos + len > data.len() {
                        return Err("dst range".to_owned());
                    }
                    data[dpos..dpos + len].copy_from_slice(&slice);
                    Ok(())
                }
                _ => Err("mismatched array kinds".to_owned()),
            }
        }
        ObjBody::Fields(_) => Err("arraycopy on non-array".to_owned()),
    }
}

fn register_thread(vm: &mut Vm) {
    let th = "java/lang/Thread";
    vm.register_native(
        th,
        "start",
        "()V",
        Arc::new(|vm, tid, args| {
            let receiver = args[0].as_ref().expect("receiver");
            // Threads are charged to the isolate that creates them
            // (paper §3.2); they may then execute anywhere.
            let creator = vm.current_isolate(tid);
            if !vm.can_spawn_thread() {
                return oom("unable to create new native thread");
            }
            match vm.spawn_thread_on("java-thread", receiver, "run", "()V", creator) {
                Ok(new_tid) => {
                    vm.set_field(receiver, "vmTid", Value::Int(new_tid.0 as i32 + 1));
                    ret_void()
                }
                Err(e) => NativeResult::Fail(e),
            }
        }),
    );
    vm.register_native(
        th,
        "sleep",
        "(J)V",
        Arc::new(|vm, tid, args| {
            if vm.take_interrupted(tid) {
                return NativeResult::Throw {
                    class_name: "java/lang/InterruptedException",
                    message: "sleep interrupted".to_owned(),
                };
            }
            let ms = args[0].as_long().max(0) as u64;
            // 1 interpreted instruction ≈ 1 virtual ns.
            vm.native_sleep(tid, ms.saturating_mul(1_000_000).max(1));
            NativeResult::BlockReturn(None)
        }),
    );
    vm.register_native(th, "yield", "()V", Arc::new(|_vm, _tid, _args| ret_void()));
    vm.register_native(
        th,
        "join",
        "()V",
        Arc::new(|vm, tid, args| {
            let receiver = args[0].as_ref().expect("receiver");
            let vm_tid = vm
                .get_field(receiver, "vmTid")
                .map(|v| v.as_int())
                .unwrap_or(0);
            if vm_tid <= 0 {
                return ret_void(); // never started
            }
            if vm.native_join(tid, ThreadId(vm_tid as u32 - 1)) {
                NativeResult::BlockReturn(None)
            } else {
                ret_void()
            }
        }),
    );
    vm.register_native(
        th,
        "interrupt",
        "()V",
        Arc::new(|vm, _tid, args| {
            let receiver = args[0].as_ref().expect("receiver");
            let vm_tid = vm
                .get_field(receiver, "vmTid")
                .map(|v| v.as_int())
                .unwrap_or(0);
            if vm_tid > 0 {
                vm.interrupt(ThreadId(vm_tid as u32 - 1));
            }
            ret_void()
        }),
    );
    vm.register_native(
        th,
        "isAlive",
        "()Z",
        Arc::new(|vm, _tid, args| {
            let receiver = args[0].as_ref().expect("receiver");
            let vm_tid = vm
                .get_field(receiver, "vmTid")
                .map(|v| v.as_int())
                .unwrap_or(0);
            let alive = vm_tid > 0
                && vm
                    .thread_state_of(ThreadId(vm_tid as u32 - 1))
                    .map(|s| s != ThreadState::Terminated)
                    .unwrap_or(false);
            ret(Value::Int(alive as i32))
        }),
    );
    vm.register_native(
        th,
        "interrupted",
        "()Z",
        Arc::new(|vm, tid, _args| ret(Value::Int(vm.take_interrupted(tid) as i32))),
    );
}

fn register_math(vm: &mut Vm) {
    let math = "java/lang/Math";
    vm.register_native(
        math,
        "abs",
        "(I)I",
        Arc::new(|_v, _t, a| ret(Value::Int(a[0].as_int().wrapping_abs()))),
    );
    vm.register_native(
        math,
        "abs",
        "(J)J",
        Arc::new(|_v, _t, a| ret(Value::Long(a[0].as_long().wrapping_abs()))),
    );
    vm.register_native(
        math,
        "abs",
        "(D)D",
        Arc::new(|_v, _t, a| ret(Value::Double(a[0].as_double().abs()))),
    );
    vm.register_native(
        math,
        "min",
        "(II)I",
        Arc::new(|_v, _t, a| ret(Value::Int(a[0].as_int().min(a[1].as_int())))),
    );
    vm.register_native(
        math,
        "max",
        "(II)I",
        Arc::new(|_v, _t, a| ret(Value::Int(a[0].as_int().max(a[1].as_int())))),
    );
    vm.register_native(
        math,
        "min",
        "(JJ)J",
        Arc::new(|_v, _t, a| ret(Value::Long(a[0].as_long().min(a[1].as_long())))),
    );
    vm.register_native(
        math,
        "max",
        "(JJ)J",
        Arc::new(|_v, _t, a| ret(Value::Long(a[0].as_long().max(a[1].as_long())))),
    );
    vm.register_native(
        math,
        "min",
        "(DD)D",
        Arc::new(|_v, _t, a| ret(Value::Double(a[0].as_double().min(a[1].as_double())))),
    );
    vm.register_native(
        math,
        "max",
        "(DD)D",
        Arc::new(|_v, _t, a| ret(Value::Double(a[0].as_double().max(a[1].as_double())))),
    );
    vm.register_native(
        math,
        "sqrt",
        "(D)D",
        Arc::new(|_v, _t, a| ret(Value::Double(a[0].as_double().sqrt()))),
    );
    vm.register_native(
        math,
        "floor",
        "(D)D",
        Arc::new(|_v, _t, a| ret(Value::Double(a[0].as_double().floor()))),
    );
    vm.register_native(
        math,
        "ceil",
        "(D)D",
        Arc::new(|_v, _t, a| ret(Value::Double(a[0].as_double().ceil()))),
    );
    vm.register_native(
        math,
        "pow",
        "(DD)D",
        Arc::new(|_v, _t, a| ret(Value::Double(a[0].as_double().powf(a[1].as_double())))),
    );
    vm.register_native(
        math,
        "sin",
        "(D)D",
        Arc::new(|_v, _t, a| ret(Value::Double(a[0].as_double().sin()))),
    );
    vm.register_native(
        math,
        "cos",
        "(D)D",
        Arc::new(|_v, _t, a| ret(Value::Double(a[0].as_double().cos()))),
    );
    // Deterministic xorshift so runs are reproducible.
    let seed = Mutex::new(0x9E3779B97F4A7C15u64);
    vm.register_native(
        math,
        "random",
        "()D",
        Arc::new(move |_vm, _tid, _args| {
            let mut s = seed.lock().unwrap();
            *s ^= *s << 13;
            *s ^= *s >> 7;
            *s ^= *s << 17;
            ret(Value::Double((*s >> 11) as f64 / (1u64 << 53) as f64))
        }),
    );
}

/// Reads the `buf`/`len` pair of a `StringBuilder`.
fn sb_state(vm: &Vm, sb: GcRef) -> (GcRef, i32) {
    let buf = vm
        .get_field(sb, "buf")
        .and_then(|v| v.as_ref())
        .expect("StringBuilder.buf");
    let len = vm.get_field(sb, "len").map(|v| v.as_int()).unwrap_or(0);
    (buf, len)
}

/// Appends UTF-16 units to a `StringBuilder`, growing its buffer.
fn sb_append_chars(
    vm: &mut Vm,
    tid: ThreadId,
    sb: GcRef,
    chars: &[u16],
) -> Result<(), NativeResult> {
    let (buf, len) = sb_state(vm, sb);
    let cap = match &vm.heap().get(buf).body {
        ObjBody::ArrChar(a) => a.len(),
        _ => 0,
    };
    let needed = len as usize + chars.len();
    let target_buf = if needed > cap {
        let mut new_cap = cap.max(16);
        while new_cap < needed {
            new_cap *= 2;
        }
        let iso = vm.current_isolate(tid);
        let old: Vec<u16> = match &vm.heap().get(buf).body {
            ObjBody::ArrChar(a) => a[..len as usize].to_vec(),
            _ => Vec::new(),
        };
        let mut grown = vec![0u16; new_cap];
        grown[..old.len()].copy_from_slice(&old);
        let new_buf = vm
            .alloc_chars(iso, &grown)
            .ok_or_else(|| oom("StringBuilder buffer"))?;
        vm.set_field(sb, "buf", Value::Ref(new_buf));
        new_buf
    } else {
        buf
    };
    if let ObjBody::ArrChar(a) = &mut vm.heap_mut().get_mut(target_buf).body {
        a[len as usize..needed].copy_from_slice(chars);
    }
    vm.set_field(sb, "len", Value::Int(needed as i32));
    Ok(())
}

fn register_stringbuilder(vm: &mut Vm) {
    let sbc = "java/lang/StringBuilder";
    let sbd = "Ljava/lang/StringBuilder;";
    let append = |fmt: fn(&Vm, Value) -> String| {
        move |vm: &mut Vm, tid: ThreadId, args: &[Value]| {
            let sb = args[0].as_ref().expect("receiver");
            let text = fmt(vm, args[1]);
            let chars: Vec<u16> = text.encode_utf16().collect();
            match sb_append_chars(vm, tid, sb, &chars) {
                Ok(()) => ret(Value::Ref(sb)),
                Err(e) => e,
            }
        }
    };
    for desc in [
        format!("(Ljava/lang/String;){sbd}"),
        format!("(I){sbd}"),
        format!("(J){sbd}"),
        format!("(D){sbd}"),
        format!("(Ljava/lang/Object;){sbd}"),
    ] {
        vm.register_native(sbc, "append", &desc, Arc::new(append(display_value)));
    }
    vm.register_native(
        sbc,
        "append",
        &format!("(Z){sbd}"),
        Arc::new(append(|_vm, v| {
            if v.as_int() != 0 {
                "true".into()
            } else {
                "false".into()
            }
        })),
    );
    vm.register_native(
        sbc,
        "append",
        &format!("(C){sbd}"),
        Arc::new(append(|_vm, v| {
            char::from_u32(v.as_int() as u32).unwrap_or('?').to_string()
        })),
    );
    vm.register_native(
        sbc,
        "toString",
        "()Ljava/lang/String;",
        Arc::new(|vm, tid, args| {
            let sb = args[0].as_ref().expect("receiver");
            let (buf, len) = sb_state(vm, sb);
            let chars: Box<[u16]> = match &vm.heap().get(buf).body {
                ObjBody::ArrChar(a) => a[..len as usize].into(),
                _ => Box::default(),
            };
            let iso = vm.current_isolate(tid);
            match vm.new_string_utf16(iso, chars) {
                Some(out) => ret(Value::Ref(out)),
                None => oom("StringBuilder.toString"),
            }
        }),
    );
}

/// Equality used by collections: string value equality when both sides
/// are strings, reference identity otherwise.
fn values_equal(vm: &Vm, a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::Ref(x), Value::Ref(y)) => {
            if x == y {
                return true;
            }
            match (vm.string_chars(x), vm.string_chars(y)) {
                (Some(sx), Some(sy)) => sx == sy,
                _ => false,
            }
        }
        _ => a.ref_eq(b),
    }
}

fn register_arraylist(vm: &mut Vm) {
    let al = "java/util/ArrayList";
    vm.register_native(
        al,
        "add",
        "(Ljava/lang/Object;)Z",
        Arc::new(|vm, tid, args| {
            let list = args[0].as_ref().expect("receiver");
            let elems = vm
                .get_field(list, "elems")
                .and_then(|v| v.as_ref())
                .expect("ArrayList.elems");
            let size = vm.get_field(list, "size").map(|v| v.as_int()).unwrap_or(0) as usize;
            let cap = vm.heap().get(elems).body.array_len().unwrap_or(0);
            let target = if size >= cap {
                let iso = vm.current_isolate(tid);
                let Some(grown) = vm.alloc_ref_array(iso, "Ljava/lang/Object;", (cap * 2).max(8))
                else {
                    return oom("ArrayList grow");
                };
                let old: Vec<Value> = match &vm.heap().get(elems).body {
                    ObjBody::ArrRef { data, .. } => data.to_vec(),
                    _ => Vec::new(),
                };
                if let ObjBody::ArrRef { data, .. } = &mut vm.heap_mut().get_mut(grown).body {
                    data[..old.len()].copy_from_slice(&old);
                }
                vm.set_field(list, "elems", Value::Ref(grown));
                grown
            } else {
                elems
            };
            if let ObjBody::ArrRef { data, .. } = &mut vm.heap_mut().get_mut(target).body {
                data[size] = args[1];
            }
            vm.set_field(list, "size", Value::Int(size as i32 + 1));
            ret(Value::Int(1))
        }),
    );
    vm.register_native(
        al,
        "get",
        "(I)Ljava/lang/Object;",
        Arc::new(|vm, _tid, args| {
            let list = args[0].as_ref().expect("receiver");
            let idx = args[1].as_int();
            let size = vm.get_field(list, "size").map(|v| v.as_int()).unwrap_or(0);
            if idx < 0 || idx >= size {
                return NativeResult::Throw {
                    class_name: "java/lang/ArrayIndexOutOfBoundsException",
                    message: format!("index {idx}, size {size}"),
                };
            }
            let elems = vm
                .get_field(list, "elems")
                .and_then(|v| v.as_ref())
                .expect("elems");
            let v = match &vm.heap().get(elems).body {
                ObjBody::ArrRef { data, .. } => data[idx as usize],
                _ => Value::Null,
            };
            ret(v)
        }),
    );
    vm.register_native(
        al,
        "set",
        "(ILjava/lang/Object;)Ljava/lang/Object;",
        Arc::new(|vm, _tid, args| {
            let list = args[0].as_ref().expect("receiver");
            let idx = args[1].as_int();
            let size = vm.get_field(list, "size").map(|v| v.as_int()).unwrap_or(0);
            if idx < 0 || idx >= size {
                return NativeResult::Throw {
                    class_name: "java/lang/ArrayIndexOutOfBoundsException",
                    message: format!("index {idx}, size {size}"),
                };
            }
            let elems = vm
                .get_field(list, "elems")
                .and_then(|v| v.as_ref())
                .expect("elems");
            let old = match &mut vm.heap_mut().get_mut(elems).body {
                ObjBody::ArrRef { data, .. } => {
                    let old = data[idx as usize];
                    data[idx as usize] = args[2];
                    old
                }
                _ => Value::Null,
            };
            ret(old)
        }),
    );
    vm.register_native(
        al,
        "remove",
        "(I)Ljava/lang/Object;",
        Arc::new(|vm, _tid, args| {
            let list = args[0].as_ref().expect("receiver");
            let idx = args[1].as_int();
            let size = vm.get_field(list, "size").map(|v| v.as_int()).unwrap_or(0);
            if idx < 0 || idx >= size {
                return NativeResult::Throw {
                    class_name: "java/lang/ArrayIndexOutOfBoundsException",
                    message: format!("index {idx}, size {size}"),
                };
            }
            let elems = vm
                .get_field(list, "elems")
                .and_then(|v| v.as_ref())
                .expect("elems");
            let old = match &mut vm.heap_mut().get_mut(elems).body {
                ObjBody::ArrRef { data, .. } => {
                    let old = data[idx as usize];
                    data.copy_within(idx as usize + 1..size as usize, idx as usize);
                    data[size as usize - 1] = Value::Null;
                    old
                }
                _ => Value::Null,
            };
            vm.set_field(list, "size", Value::Int(size - 1));
            ret(old)
        }),
    );
    vm.register_native(
        al,
        "clear",
        "()V",
        Arc::new(|vm, _tid, args| {
            let list = args[0].as_ref().expect("receiver");
            let elems = vm
                .get_field(list, "elems")
                .and_then(|v| v.as_ref())
                .expect("elems");
            if let ObjBody::ArrRef { data, .. } = &mut vm.heap_mut().get_mut(elems).body {
                data.fill(Value::Null);
            }
            vm.set_field(list, "size", Value::Int(0));
            ret_void()
        }),
    );
    vm.register_native(
        al,
        "contains",
        "(Ljava/lang/Object;)Z",
        Arc::new(|vm, _tid, args| {
            let list = args[0].as_ref().expect("receiver");
            let size = vm.get_field(list, "size").map(|v| v.as_int()).unwrap_or(0) as usize;
            let elems = vm
                .get_field(list, "elems")
                .and_then(|v| v.as_ref())
                .expect("elems");
            let found = match &vm.heap().get(elems).body {
                ObjBody::ArrRef { data, .. } => {
                    data[..size].iter().any(|&v| values_equal(vm, v, args[1]))
                }
                _ => false,
            };
            ret(Value::Int(found as i32))
        }),
    );
}

/// Hash for map keys: string value hash for strings, identity otherwise.
fn key_hash(vm: &Vm, key: Value) -> u64 {
    match key {
        Value::Ref(r) => match vm.read_string(r) {
            Some(s) => {
                let mut h: u64 = 1469598103934665603;
                for b in s.as_bytes() {
                    h ^= *b as u64;
                    h = h.wrapping_mul(1099511628211);
                }
                h
            }
            None => (r.0 as u64).wrapping_mul(0x9E3779B97F4A7C15),
        },
        _ => 0,
    }
}

fn map_arrays(vm: &Vm, map: GcRef) -> (GcRef, GcRef, usize) {
    let keys = vm
        .get_field(map, "keys")
        .and_then(|v| v.as_ref())
        .expect("HashMap.keys");
    let vals = vm
        .get_field(map, "vals")
        .and_then(|v| v.as_ref())
        .expect("HashMap.vals");
    let cap = vm.heap().get(keys).body.array_len().unwrap_or(0);
    (keys, vals, cap)
}

fn map_probe(vm: &Vm, map: GcRef, key: Value) -> (GcRef, GcRef, usize, Option<usize>) {
    let (keys, vals, cap) = map_arrays(vm, map);
    let mut idx = (key_hash(vm, key) % cap as u64) as usize;
    for _ in 0..cap {
        let k = match &vm.heap().get(keys).body {
            ObjBody::ArrRef { data, .. } => data[idx],
            _ => Value::Null,
        };
        if matches!(k, Value::Null) {
            return (keys, vals, idx, None);
        }
        if values_equal(vm, k, key) {
            return (keys, vals, idx, Some(idx));
        }
        idx = (idx + 1) % cap;
    }
    (keys, vals, idx, None)
}

fn map_grow(vm: &mut Vm, tid: ThreadId, map: GcRef) -> Result<(), NativeResult> {
    let (keys, vals, cap) = map_arrays(vm, map);
    let entries: Vec<(Value, Value)> = {
        let kd = match &vm.heap().get(keys).body {
            ObjBody::ArrRef { data, .. } => data.to_vec(),
            _ => Vec::new(),
        };
        let vd = match &vm.heap().get(vals).body {
            ObjBody::ArrRef { data, .. } => data.to_vec(),
            _ => Vec::new(),
        };
        kd.into_iter()
            .zip(vd)
            .filter(|(k, _)| !matches!(k, Value::Null))
            .collect()
    };
    let iso = vm.current_isolate(tid);
    let new_cap = (cap * 2).max(16);
    let nk = vm
        .alloc_ref_array(iso, "Ljava/lang/Object;", new_cap)
        .ok_or_else(|| oom("HashMap grow"))?;
    let nv = vm
        .with_native_root(tid, nk, |vm| {
            vm.alloc_ref_array(iso, "Ljava/lang/Object;", new_cap)
        })
        .ok_or_else(|| oom("HashMap grow"))?;
    vm.set_field(map, "keys", Value::Ref(nk));
    vm.set_field(map, "vals", Value::Ref(nv));
    for (k, v) in entries {
        let (keys, vals, idx, found) = map_probe(vm, map, k);
        let slot = found.unwrap_or(idx);
        if let ObjBody::ArrRef { data, .. } = &mut vm.heap_mut().get_mut(keys).body {
            data[slot] = k;
        }
        if let ObjBody::ArrRef { data, .. } = &mut vm.heap_mut().get_mut(vals).body {
            data[slot] = v;
        }
    }
    Ok(())
}

fn register_hashmap(vm: &mut Vm) {
    let hm = "java/util/HashMap";
    vm.register_native(
        hm,
        "put",
        "(Ljava/lang/Object;Ljava/lang/Object;)Ljava/lang/Object;",
        Arc::new(|vm, tid, args| {
            let map = args[0].as_ref().expect("receiver");
            let size = vm.get_field(map, "size").map(|v| v.as_int()).unwrap_or(0) as usize;
            let (_, _, cap) = map_arrays(vm, map);
            if (size + 1) * 4 >= cap * 3 {
                if let Err(e) = map_grow(vm, tid, map) {
                    return e;
                }
            }
            let (keys, vals, idx, found) = map_probe(vm, map, args[1]);
            let slot = found.unwrap_or(idx);
            let old = match &vm.heap().get(vals).body {
                ObjBody::ArrRef { data, .. } => data[slot],
                _ => Value::Null,
            };
            if let ObjBody::ArrRef { data, .. } = &mut vm.heap_mut().get_mut(keys).body {
                data[slot] = args[1];
            }
            if let ObjBody::ArrRef { data, .. } = &mut vm.heap_mut().get_mut(vals).body {
                data[slot] = args[2];
            }
            if found.is_none() {
                vm.set_field(map, "size", Value::Int(size as i32 + 1));
                ret(Value::Null)
            } else {
                ret(old)
            }
        }),
    );
    vm.register_native(
        hm,
        "get",
        "(Ljava/lang/Object;)Ljava/lang/Object;",
        Arc::new(|vm, _tid, args| {
            let map = args[0].as_ref().expect("receiver");
            let (_, vals, _, found) = map_probe(vm, map, args[1]);
            let v = match found {
                Some(slot) => match &vm.heap().get(vals).body {
                    ObjBody::ArrRef { data, .. } => data[slot],
                    _ => Value::Null,
                },
                None => Value::Null,
            };
            ret(v)
        }),
    );
    vm.register_native(
        hm,
        "containsKey",
        "(Ljava/lang/Object;)Z",
        Arc::new(|vm, _tid, args| {
            let map = args[0].as_ref().expect("receiver");
            let (_, _, _, found) = map_probe(vm, map, args[1]);
            ret(Value::Int(found.is_some() as i32))
        }),
    );
    vm.register_native(
        hm,
        "remove",
        "(Ljava/lang/Object;)Ljava/lang/Object;",
        Arc::new(|vm, tid, args| {
            let map = args[0].as_ref().expect("receiver");
            let (keys, vals, _, found) = map_probe(vm, map, args[1]);
            let Some(slot) = found else {
                return ret(Value::Null);
            };
            let old = match &vm.heap().get(vals).body {
                ObjBody::ArrRef { data, .. } => data[slot],
                _ => Value::Null,
            };
            if let ObjBody::ArrRef { data, .. } = &mut vm.heap_mut().get_mut(keys).body {
                data[slot] = Value::Null;
            }
            if let ObjBody::ArrRef { data, .. } = &mut vm.heap_mut().get_mut(vals).body {
                data[slot] = Value::Null;
            }
            let size = vm.get_field(map, "size").map(|v| v.as_int()).unwrap_or(1);
            vm.set_field(map, "size", Value::Int(size - 1));
            // Rehash the cluster after the removed slot so probing stays
            // correct (linear probing without tombstones).
            if map_grow(vm, tid, map).is_err() {
                return oom("HashMap rehash");
            }
            ret(old)
        }),
    );
}

fn register_vconnection(vm: &mut Vm) {
    let vc = "org/ijvm/VConnection";
    vm.register_native(
        vc,
        "connect",
        "()Lorg/ijvm/VConnection;",
        Arc::new(|vm, tid, _args| {
            let iso = vm.current_isolate(tid);
            let class = vm
                .find_class(LoaderId::BOOTSTRAP, "org/ijvm/VConnection")
                .expect("VConnection installed");
            let Some(conn) = vm.alloc_object(class, iso) else {
                return oom("connection");
            };
            vm.mark_connection(conn, iso);
            vm.set_field(conn, "open", Value::Int(1));
            ret(Value::Ref(conn))
        }),
    );
    vm.register_native(
        vc,
        "read",
        "(I)I",
        Arc::new(|vm, tid, args| {
            let n = args[1].as_int().max(0) as u64;
            let iso = vm.current_isolate(tid);
            if vm.take_interrupted(tid) {
                return NativeResult::Throw {
                    class_name: "java/io/IOException",
                    message: "read interrupted".to_owned(),
                };
            }
            vm.charge_io(iso, n, 0);
            ret(Value::Int(n as i32))
        }),
    );
    vm.register_native(
        vc,
        "write",
        "(I)I",
        Arc::new(|vm, tid, args| {
            let n = args[1].as_int().max(0) as u64;
            let iso = vm.current_isolate(tid);
            vm.charge_io(iso, 0, n);
            ret(Value::Int(n as i32))
        }),
    );
    vm.register_native(
        vc,
        "close",
        "()V",
        Arc::new(|vm, _tid, args| {
            let conn = args[0].as_ref().expect("receiver");
            vm.set_field(conn, "open", Value::Int(0));
            ret_void()
        }),
    );
}
