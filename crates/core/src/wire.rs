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
//!
//! Primitive arrays travel as one big-endian block and are decoded
//! straight into their final body, charged to the receiver at their real
//! size. Every length is checked against the bytes actually present
//! before anything is allocated. Strings travel as UTF-8: a string body
//! holding an unpaired surrogate arrives with U+FFFD in its place (the
//! VM's own string operations keep such code units exact).

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
    pub(crate) const NULL: u8 = 0;
    pub(crate) const INT: u8 = 1;
    pub(crate) const LONG: u8 = 2;
    pub(crate) const FLOAT: u8 = 3;
    pub(crate) const DOUBLE: u8 = 4;
    pub(crate) const STRING: u8 = 5;
    pub(crate) const OBJECT: u8 = 6;
    pub(crate) const BACKREF: u8 = 7;
    pub(crate) const ARR_INT: u8 = 8;
    pub(crate) const ARR_LONG: u8 = 9;
    pub(crate) const ARR_DOUBLE: u8 = 10;
    pub(crate) const ARR_CHAR: u8 = 11;
    pub(crate) const ARR_BYTE: u8 = 12;
    pub(crate) const ARR_REF: u8 = 13;
    pub(crate) const ARR_OTHER: u8 = 14;
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

/// Writes a length and then every element of `a`, `W` bytes each, into
/// one pre-sized block (shared with the checkpoint image encoder).
pub(crate) fn write_elems<T: Copy, const W: usize>(
    out: &mut Vec<u8>,
    a: &[T],
    be: impl Fn(T) -> [u8; W],
) {
    write_len(out, a.len());
    let start = out.len();
    out.resize(start + a.len() * W, 0);
    for (dst, &x) in out[start..].chunks_exact_mut(W).zip(a) {
        dst.copy_from_slice(&be(x));
    }
}

fn write_ref(vm: &Vm, r: GcRef, out: &mut Vec<u8>, seen: &mut HashMap<GcRef, u32>) {
    if let Some(&id) = seen.get(&r) {
        out.push(tag::BACKREF);
        out.extend_from_slice(&id.to_be_bytes());
        return;
    }
    let id = seen.len() as u32;
    seen.insert(r, id);

    if let Some(chars) = vm.string_chars(r) {
        out.push(tag::STRING);
        if chars.iter().all(|&c| c < 0x80) {
            write_len(out, chars.len());
            out.extend(chars.iter().map(|&c| c as u8));
        } else {
            write_str(out, &String::from_utf16_lossy(chars));
        }
        return;
    }
    let obj = vm.heap().get(r);
    match &obj.body {
        ObjBody::Fields(fields) => {
            out.push(tag::OBJECT);
            write_str(out, &vm.class(obj.class).name);
            write_len(out, fields.len());
            for &f in fields.iter() {
                write_value(vm, f, out, seen);
            }
        }
        ObjBody::ArrRef { elem_desc, data } => {
            out.push(tag::ARR_REF);
            write_str(out, elem_desc);
            write_len(out, data.len());
            for &v in data.iter() {
                write_value(vm, v, out, seen);
            }
        }
        ObjBody::ArrInt(a) => {
            out.push(tag::ARR_INT);
            write_elems(out, a, i32::to_be_bytes);
        }
        ObjBody::ArrLong(a) => {
            out.push(tag::ARR_LONG);
            write_elems(out, a, i64::to_be_bytes);
        }
        ObjBody::ArrDouble(a) => {
            out.push(tag::ARR_DOUBLE);
            write_elems(out, a, |x: f64| x.to_bits().to_be_bytes());
        }
        ObjBody::ArrChar(a) => {
            out.push(tag::ARR_CHAR);
            write_elems(out, a, u16::to_be_bytes);
        }
        ObjBody::ArrByte(a) => {
            out.push(tag::ARR_BYTE);
            write_elems(out, a, i8::to_be_bytes);
        }
        // Bool/short/float arrays ship as OTHER with an element-kind byte.
        ObjBody::ArrBool(a) => {
            out.extend_from_slice(&[tag::ARR_OTHER, 0]);
            write_elems(out, a, u8::to_be_bytes);
        }
        ObjBody::ArrShort(a) => {
            out.extend_from_slice(&[tag::ARR_OTHER, 1]);
            write_elems(out, a, i16::to_be_bytes);
        }
        ObjBody::ArrFloat(a) => {
            out.extend_from_slice(&[tag::ARR_OTHER, 2]);
            write_elems(out, a, |x: f32| x.to_bits().to_be_bytes());
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
    let mut d = Decoder {
        r: Reader { bytes, pos: 0 },
        target,
        loader,
        seen: Vec::new(),
        pins: Vec::new(),
    };
    let result = d.value(vm);
    for handle in d.pins {
        vm.unpin(handle);
    }
    result
}

/// Bounds-checked big-endian byte reader, shared with the checkpoint
/// image decoder ([`crate::checkpoint`]), which faces the same hostile-
/// input surface as the wire codec.
pub(crate) struct Reader<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    /// The next `n` bytes. Fails with `Truncated`, consuming nothing, when
    /// fewer remain.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let s = self
            .bytes
            .get(self.pos..)
            .and_then(|rest| rest.get(..n))
            .ok_or(WireError::Truncated)?;
        self.pos += n;
        Ok(s)
    }
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut a = [0; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }
    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.array::<1>()?[0])
    }
    pub(crate) fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.array()?))
    }
    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.array()?))
    }
    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.array()?))
    }
    /// A length-prefixed UTF-8 string, borrowed from the stream.
    fn utf8(&mut self) -> Result<&'a str, WireError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| WireError::Corrupt("utf8"))
    }
    pub(crate) fn str(&mut self) -> Result<String, WireError> {
        self.utf8().map(str::to_owned)
    }
    /// A `u32` count, then that many elements of `W` bytes each, decoded
    /// by `from_be`. The whole block is bounds-checked before the result
    /// is allocated.
    pub(crate) fn elems<T, const W: usize>(
        &mut self,
        from_be: impl Fn([u8; W]) -> T,
    ) -> Result<Box<[T]>, WireError> {
        let n = self.u32()? as usize;
        let block = self.take(n.checked_mul(W).ok_or(WireError::Truncated)?)?;
        Ok(block
            .chunks_exact(W)
            .map(|c| {
                let mut a = [0; W];
                a.copy_from_slice(c);
                from_be(a)
            })
            .collect())
    }
    /// Bytes left in the stream — decoders validate every element count
    /// against this before allocating, so a hostile length field cannot
    /// request an absurd buffer.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }
}

/// One decode: the stream, where objects go, and every object made so
/// far (by back-reference id) with the pin that roots it until the decode
/// ends — an allocation mid-graph may trigger a collection, and these
/// host-side lists are invisible to the collector.
struct Decoder<'a> {
    r: Reader<'a>,
    target: IsolateId,
    loader: LoaderId,
    seen: Vec<GcRef>,
    pins: Vec<usize>,
}

impl Decoder<'_> {
    /// Roots a freshly made object and gives it the next back-reference id.
    fn keep(&mut self, vm: &mut Vm, obj: GcRef) -> Value {
        self.pins.push(vm.pin(obj));
        self.seen.push(obj);
        Value::Ref(obj)
    }

    fn value(&mut self, vm: &mut Vm) -> Result<Value, WireError> {
        let body = match self.r.u8()? {
            tag::NULL => return Ok(Value::Null),
            tag::INT => return Ok(Value::Int(self.r.u32()? as i32)),
            tag::LONG => return Ok(Value::Long(self.r.u64()? as i64)),
            tag::FLOAT => return Ok(Value::Float(f32::from_bits(self.r.u32()?))),
            tag::DOUBLE => return Ok(Value::Double(f64::from_bits(self.r.u64()?))),
            tag::BACKREF => {
                let id = self.r.u32()? as usize;
                let obj = self.seen.get(id).ok_or(WireError::Corrupt("backref"))?;
                return Ok(Value::Ref(*obj));
            }
            tag::STRING => {
                let s = self.r.utf8()?;
                let chars: Box<[u16]> = if s.is_ascii() {
                    s.bytes().map(u16::from).collect()
                } else {
                    s.encode_utf16().collect()
                };
                let obj = vm
                    .new_string_utf16(self.target, chars)
                    .ok_or(WireError::OutOfMemory)?;
                return Ok(self.keep(vm, obj));
            }
            tag::OBJECT => return self.object(vm),
            tag::ARR_REF => return self.ref_array(vm),
            tag::ARR_INT => ObjBody::ArrInt(self.r.elems(i32::from_be_bytes)?),
            tag::ARR_LONG => ObjBody::ArrLong(self.r.elems(i64::from_be_bytes)?),
            tag::ARR_DOUBLE => {
                ObjBody::ArrDouble(self.r.elems(|b| f64::from_bits(u64::from_be_bytes(b)))?)
            }
            tag::ARR_CHAR => ObjBody::ArrChar(self.r.elems(u16::from_be_bytes)?),
            tag::ARR_BYTE => ObjBody::ArrByte(self.r.elems(i8::from_be_bytes)?),
            tag::ARR_OTHER => match self.r.u8()? {
                0 => ObjBody::ArrBool(self.r.elems(u8::from_be_bytes)?),
                1 => ObjBody::ArrShort(self.r.elems(i16::from_be_bytes)?),
                2 => ObjBody::ArrFloat(self.r.elems(|b| f32::from_bits(u32::from_be_bytes(b)))?),
                other => return Err(WireError::BadTag(other)),
            },
            other => return Err(WireError::BadTag(other)),
        };
        let arr = vm
            .alloc_array(self.target, body)
            .ok_or(WireError::OutOfMemory)?;
        Ok(self.keep(vm, arr))
    }

    fn object(&mut self, vm: &mut Vm) -> Result<Value, WireError> {
        let class_name = self.r.str()?;
        let nfields = self.r.u32()? as usize;
        let class = vm
            .load_class(self.loader, &class_name)
            .map_err(|_| WireError::UnknownClass(class_name))?;
        let obj = vm
            .alloc_object(class, self.target)
            .ok_or(WireError::OutOfMemory)?;
        self.keep(vm, obj);
        for slot in 0..nfields {
            let v = self.value(vm)?;
            match &mut vm.heap_mut().get_mut(obj).body {
                ObjBody::Fields(fields) if slot < fields.len() => fields[slot] = v,
                _ => return Err(WireError::Corrupt("field count")),
            }
        }
        Ok(Value::Ref(obj))
    }

    fn ref_array(&mut self, vm: &mut Vm) -> Result<Value, WireError> {
        let elem_desc = self.r.str()?;
        let len = self.r.u32()? as usize;
        // Every element takes at least its tag byte.
        if len > self.r.remaining() {
            return Err(WireError::Truncated);
        }
        let body = ObjBody::ArrRef {
            elem_desc,
            data: vec![Value::Null; len].into_boxed_slice(),
        };
        let arr = vm
            .alloc_array(self.target, body)
            .ok_or(WireError::OutOfMemory)?;
        self.keep(vm, arr);
        for i in 0..len {
            let v = self.value(vm)?;
            if let ObjBody::ArrRef { data, .. } = &mut vm.heap_mut().get_mut(arr).body {
                data[i] = v;
            }
        }
        Ok(Value::Ref(arr))
    }
}
