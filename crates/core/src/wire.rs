//! Wire format for [`Value`] object graphs — a self-contained, cycle-aware
//! serialization of guest values to bytes and back.
//!
//! This codec is the copy mechanism of the inter-unit service/message
//! layer ([`crate::port`]): cross-unit call arguments and results are
//! serialized in the sender's VM, shipped as bytes through the target
//! unit's mailbox, and deserialized into the receiving isolate. The
//! `ijvm-comm` crate's RMI comparison model (paper Table 1) uses it as
//! its marshalling layer — one wire format, two roles, so the
//! "copy/marshalling cost" the paper measures and the cost the cluster
//! charges senders for are the same bytes.
//!
//! Sharing and cycles within one serialized graph are preserved through
//! back-references; sharing *across* messages is not (each message is an
//! independent deep copy, the Incommunicado/links semantics).

use crate::heap::ObjBody;
use crate::ids::{IsolateId, LoaderId};
use crate::value::{GcRef, Value};
use crate::vm::Vm;
use std::collections::HashMap;

/// Errors raised during (de)serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Ran out of bytes while decoding.
    Truncated,
    /// Unknown tag byte.
    BadTag(u8),
    /// A class named in the stream is not loadable at the receiver.
    UnknownClass(String),
    /// Receiver heap exhausted.
    OutOfMemory,
    /// Structural mismatch (e.g. field count).
    Corrupt(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated stream"),
            WireError::BadTag(t) => write!(f, "bad tag {t:#x}"),
            WireError::UnknownClass(c) => write!(f, "unknown class {c}"),
            WireError::OutOfMemory => write!(f, "receiver heap exhausted"),
            WireError::Corrupt(w) => write!(f, "corrupt stream: {w}"),
        }
    }
}

impl std::error::Error for WireError {}

mod tag {
    pub const NULL: u8 = 0;
    pub const INT: u8 = 1;
    pub const LONG: u8 = 2;
    pub const FLOAT: u8 = 3;
    pub const DOUBLE: u8 = 4;
    pub const STRING: u8 = 5;
    pub const OBJECT: u8 = 6;
    pub const BACKREF: u8 = 7;
    pub const ARR_INT: u8 = 8;
    pub const ARR_LONG: u8 = 9;
    pub const ARR_DOUBLE: u8 = 10;
    pub const ARR_CHAR: u8 = 11;
    pub const ARR_BYTE: u8 = 12;
    pub const ARR_REF: u8 = 13;
    pub const ARR_OTHER: u8 = 14;
}

/// Serializes a value (full object graph) to bytes.
pub fn serialize_value(vm: &Vm, v: Value, out: &mut Vec<u8>) {
    let mut seen: HashMap<GcRef, u32> = HashMap::new();
    write_value(vm, v, out, &mut seen);
}

fn write_value(vm: &Vm, v: Value, out: &mut Vec<u8>, seen: &mut HashMap<GcRef, u32>) {
    match v {
        Value::Null => out.push(tag::NULL),
        Value::Int(x) => {
            out.push(tag::INT);
            out.extend_from_slice(&x.to_be_bytes());
        }
        Value::Long(x) => {
            out.push(tag::LONG);
            out.extend_from_slice(&x.to_be_bytes());
        }
        Value::Float(x) => {
            out.push(tag::FLOAT);
            out.extend_from_slice(&x.to_bits().to_be_bytes());
        }
        Value::Double(x) => {
            out.push(tag::DOUBLE);
            out.extend_from_slice(&x.to_bits().to_be_bytes());
        }
        Value::Ref(r) => write_ref(vm, r, out, seen),
    }
}

fn write_len(out: &mut Vec<u8>, n: usize) {
    out.extend_from_slice(&(n as u32).to_be_bytes());
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    write_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn write_ref(vm: &Vm, r: GcRef, out: &mut Vec<u8>, seen: &mut HashMap<GcRef, u32>) {
    if let Some(&id) = seen.get(&r) {
        out.push(tag::BACKREF);
        out.extend_from_slice(&id.to_be_bytes());
        return;
    }
    let id = seen.len() as u32;
    seen.insert(r, id);

    if let Some(s) = vm.read_string(r) {
        out.push(tag::STRING);
        write_str(out, &s);
        return;
    }
    let obj = vm.heap().get(r);
    match &obj.body {
        ObjBody::Fields(fields) => {
            out.push(tag::OBJECT);
            write_str(out, &vm.class(obj.class).name);
            write_len(out, fields.len());
            let fields: Vec<Value> = fields.to_vec();
            for f in fields {
                write_value(vm, f, out, seen);
            }
        }
        ObjBody::ArrInt(a) => {
            out.push(tag::ARR_INT);
            write_len(out, a.len());
            for x in a.iter() {
                out.extend_from_slice(&x.to_be_bytes());
            }
        }
        ObjBody::ArrLong(a) => {
            out.push(tag::ARR_LONG);
            write_len(out, a.len());
            for x in a.iter() {
                out.extend_from_slice(&x.to_be_bytes());
            }
        }
        ObjBody::ArrDouble(a) => {
            out.push(tag::ARR_DOUBLE);
            write_len(out, a.len());
            for x in a.iter() {
                out.extend_from_slice(&x.to_bits().to_be_bytes());
            }
        }
        ObjBody::ArrChar(a) => {
            out.push(tag::ARR_CHAR);
            write_len(out, a.len());
            for x in a.iter() {
                out.extend_from_slice(&x.to_be_bytes());
            }
        }
        ObjBody::ArrByte(a) => {
            out.push(tag::ARR_BYTE);
            write_len(out, a.len());
            for x in a.iter() {
                out.push(*x as u8);
            }
        }
        ObjBody::ArrRef { elem_desc, data } => {
            out.push(tag::ARR_REF);
            write_str(out, elem_desc);
            write_len(out, data.len());
            let data: Vec<Value> = data.to_vec();
            for v in data {
                write_value(vm, v, out, seen);
            }
        }
        other => {
            // Bool/short/float arrays: ship as OTHER with element kind.
            out.push(tag::ARR_OTHER);
            let (kind, len): (u8, usize) = match other {
                ObjBody::ArrBool(a) => (0, a.len()),
                ObjBody::ArrShort(a) => (1, a.len()),
                ObjBody::ArrFloat(a) => (2, a.len()),
                _ => unreachable!("covered above"),
            };
            out.push(kind);
            write_len(out, len);
            match other {
                ObjBody::ArrBool(a) => out.extend(a.iter()),
                ObjBody::ArrShort(a) => {
                    for x in a.iter() {
                        out.extend_from_slice(&x.to_be_bytes());
                    }
                }
                ObjBody::ArrFloat(a) => {
                    for x in a.iter() {
                        out.extend_from_slice(&x.to_bits().to_be_bytes());
                    }
                }
                _ => unreachable!(),
            }
        }
    }
}

/// Deserializes a value into `target` isolate, resolving classes through
/// `loader`.
pub fn deserialize_value(
    vm: &mut Vm,
    bytes: &[u8],
    target: IsolateId,
    loader: LoaderId,
) -> Result<Value, WireError> {
    let mut r = Reader { bytes, pos: 0 };
    let mut seen: Vec<GcRef> = Vec::new();
    let result = read_value(vm, &mut r, target, loader, &mut seen);
    // Intermediate objects were pinned as they were created (an
    // allocation mid-graph may trigger a collection, and `seen` is host
    // state the collector cannot see); release the pins now.
    for r in &seen {
        unpin_ref(vm, *r);
    }
    result
}

/// Releases the host-root pin added by `pin_ref` for `r`.
fn unpin_ref(vm: &mut Vm, r: GcRef) {
    // Pins are keyed by handle; we recorded them in creation order, but
    // the cheap and safe inverse is to scan: pin handles are small.
    // To avoid O(n^2), deserialization records handles alongside `seen`
    // via the thread-local below.
    PIN_HANDLES.with(|h| {
        let mut h = h.borrow_mut();
        if let Some(handle) = h.remove(&r) {
            vm.unpin(handle);
        }
    });
}

fn pin_ref(vm: &mut Vm, r: GcRef) {
    let handle = vm.pin(r);
    PIN_HANDLES.with(|h| {
        h.borrow_mut().insert(r, handle);
    });
}

thread_local! {
    static PIN_HANDLES: std::cell::RefCell<std::collections::HashMap<GcRef, usize>> =
        std::cell::RefCell::new(std::collections::HashMap::new());
}

/// Bounds-checked big-endian byte reader, shared with the checkpoint
/// image decoder ([`crate::checkpoint`]), which faces the same hostile-
/// input surface as the wire codec.
pub(crate) struct Reader<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) pos: usize,
}

impl Reader<'_> {
    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.bytes.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }
    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        let mut buf = [0u8; 4];
        for b in &mut buf {
            *b = self.u8()?;
        }
        Ok(u32::from_be_bytes(buf))
    }
    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        Ok(((self.u32()? as u64) << 32) | self.u32()? as u64)
    }
    pub(crate) fn u16(&mut self) -> Result<u16, WireError> {
        Ok(((self.u8()? as u16) << 8) | self.u8()? as u16)
    }
    pub(crate) fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let end = self.pos.checked_add(len).ok_or(WireError::Truncated)?;
        if end > self.bytes.len() {
            return Err(WireError::Truncated);
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| WireError::Corrupt("utf8"))?
            .to_owned();
        self.pos = end;
        Ok(s)
    }
    /// Bytes left in the stream — the checkpoint decoder validates every
    /// element count against this before allocating, so a hostile length
    /// field cannot request an absurd buffer.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }
}

fn read_value(
    vm: &mut Vm,
    r: &mut Reader<'_>,
    target: IsolateId,
    loader: LoaderId,
    seen: &mut Vec<GcRef>,
) -> Result<Value, WireError> {
    let t = r.u8()?;
    Ok(match t {
        tag::NULL => Value::Null,
        tag::INT => Value::Int(r.u32()? as i32),
        tag::LONG => Value::Long(r.u64()? as i64),
        tag::FLOAT => Value::Float(f32::from_bits(r.u32()?)),
        tag::DOUBLE => Value::Double(f64::from_bits(r.u64()?)),
        tag::BACKREF => {
            let id = r.u32()? as usize;
            Value::Ref(*seen.get(id).ok_or(WireError::Corrupt("backref"))?)
        }
        tag::STRING => {
            let s = r.str()?;
            let obj = vm.new_string(target, &s);
            pin_ref(vm, obj);
            seen.push(obj);
            Value::Ref(obj)
        }
        tag::OBJECT => {
            let class_name = r.str()?;
            let nfields = r.u32()? as usize;
            let class = vm
                .load_class(loader, &class_name)
                .map_err(|_| WireError::UnknownClass(class_name))?;
            let obj = vm
                .alloc_object(class, target)
                .ok_or(WireError::OutOfMemory)?;
            pin_ref(vm, obj);
            seen.push(obj);
            for slot in 0..nfields {
                let v = read_value(vm, r, target, loader, seen)?;
                if let ObjBody::Fields(fields) = &mut vm.heap_mut().get_mut(obj).body {
                    if slot < fields.len() {
                        fields[slot] = v;
                    } else {
                        return Err(WireError::Corrupt("field count"));
                    }
                }
            }
            Value::Ref(obj)
        }
        tag::ARR_INT | tag::ARR_LONG | tag::ARR_DOUBLE | tag::ARR_CHAR | tag::ARR_BYTE => {
            let len = r.u32()? as usize;
            let placeholder = vm
                .alloc_ref_array(target, "Ljava/lang/Object;", len)
                .ok_or(WireError::OutOfMemory)?;
            let (body, desc): (ObjBody, &str) = match t {
                tag::ARR_INT => {
                    let mut a = vec![0i32; len];
                    for x in &mut a {
                        *x = r.u32()? as i32;
                    }
                    (ObjBody::ArrInt(a.into_boxed_slice()), "[I")
                }
                tag::ARR_LONG => {
                    let mut a = vec![0i64; len];
                    for x in &mut a {
                        *x = r.u64()? as i64;
                    }
                    (ObjBody::ArrLong(a.into_boxed_slice()), "[J")
                }
                tag::ARR_DOUBLE => {
                    let mut a = vec![0f64; len];
                    for x in &mut a {
                        *x = f64::from_bits(r.u64()?);
                    }
                    (ObjBody::ArrDouble(a.into_boxed_slice()), "[D")
                }
                tag::ARR_CHAR => {
                    let mut a = vec![0u16; len];
                    for x in &mut a {
                        *x = r.u16()?;
                    }
                    (ObjBody::ArrChar(a.into_boxed_slice()), "[C")
                }
                _ => {
                    let mut a = vec![0i8; len];
                    for x in &mut a {
                        *x = r.u8()? as i8;
                    }
                    (ObjBody::ArrByte(a.into_boxed_slice()), "[B")
                }
            };
            let obj = vm.heap_mut().get_mut(placeholder);
            obj.body = body;
            obj.array_desc = desc.to_owned();
            pin_ref(vm, placeholder);
            seen.push(placeholder);
            Value::Ref(placeholder)
        }
        tag::ARR_REF => {
            let elem_desc = r.str()?;
            let len = r.u32()? as usize;
            let arr = vm
                .alloc_ref_array(target, &elem_desc, len)
                .ok_or(WireError::OutOfMemory)?;
            pin_ref(vm, arr);
            seen.push(arr);
            for i in 0..len {
                let v = read_value(vm, r, target, loader, seen)?;
                if let ObjBody::ArrRef { data, .. } = &mut vm.heap_mut().get_mut(arr).body {
                    data[i] = v;
                }
            }
            Value::Ref(arr)
        }
        tag::ARR_OTHER => {
            let kind = r.u8()?;
            let len = r.u32()? as usize;
            let placeholder = vm
                .alloc_ref_array(target, "Ljava/lang/Object;", len)
                .ok_or(WireError::OutOfMemory)?;
            let (body, desc): (ObjBody, &str) = match kind {
                0 => {
                    let mut a = vec![0u8; len];
                    for x in &mut a {
                        *x = r.u8()?;
                    }
                    (ObjBody::ArrBool(a.into_boxed_slice()), "[Z")
                }
                1 => {
                    let mut a = vec![0i16; len];
                    for x in &mut a {
                        *x = r.u16()? as i16;
                    }
                    (ObjBody::ArrShort(a.into_boxed_slice()), "[S")
                }
                2 => {
                    let mut a = vec![0f32; len];
                    for x in &mut a {
                        *x = f32::from_bits(r.u32()?);
                    }
                    (ObjBody::ArrFloat(a.into_boxed_slice()), "[F")
                }
                other => return Err(WireError::BadTag(other)),
            };
            let obj = vm.heap_mut().get_mut(placeholder);
            obj.body = body;
            obj.array_desc = desc.to_owned();
            pin_ref(vm, placeholder);
            seen.push(placeholder);
            Value::Ref(placeholder)
        }
        other => return Err(WireError::BadTag(other)),
    })
}
