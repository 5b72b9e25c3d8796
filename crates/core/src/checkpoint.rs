//! Unit checkpoint/restore: stable byte images of whole execution units.
//!
//! A checkpoint captures a *quiesced* unit — a VM parked at a quantum
//! boundary with no in-flight cross-unit traffic — as a self-describing
//! binary image ([`UnitImage`]) that can be written to disk, restored
//! into a fresh [`Vm`] (crash-restart), or restored N times with
//! remapped service names (snapshot-fork scale-out,
//! [`crate::sched::Cluster::submit_image_n`]).
//!
//! # Image format
//!
//! ```text
//! magic   b"CKPT"                      4 bytes
//! version u16 (currently 2)            2 bytes
//! count   u32 section count (8)        4 bytes
//! table   count × { tag u8, offset u32, len u32, crc32 u32 }
//! payload concatenated section bodies (offsets relative to payload)
//! ```
//!
//! Sections, in tag order: OPTS (hard VM options), LOADERS (names,
//! classpaths, delegation), ISOLATES (state, interned strings, resource
//! stats, exported ports), CLASSES (per-class loader + name + task class
//! mirrors), HEAP (the slab, positionally, plus the free list), THREADS
//! (green-thread stacks and the run queue), PORT (exported pumps and
//! resolved futures), MISC (vclock, console, host roots, counters).
//! Every section carries a CRC32; a flipped bit anywhere fails restore
//! with [`CheckpointError::ChecksumMismatch`] instead of resurrecting a
//! corrupt unit.
//!
//! # What is serialized vs. re-derived
//!
//! The image stores only *semantic* state. Everything derivable is
//! rebuilt on restore so an image can never smuggle stale derived state
//! across an engine or version change:
//!
//! * class metadata is **replayed** from the classfile bytes carried in
//!   the loader classpaths (`load_class` in recorded [`ClassId`] order),
//!   so vtables, field layouts and constant pools are re-derived;
//! * pre-decoded threaded code ([`crate::engine::PreparedCode`]) is *not*
//!   serialized — `prepared` starts `None` and every method re-quickens
//!   lazily, which is what lets a Deterministic-oracle image restore
//!   under a different engine;
//! * runtime constant-pool caches restart cold (`RtCp::Untouched`),
//!   native bindings are re-looked-up at define time from the natives
//!   the embedder re-registers, frame pools start empty, and `pc` is a
//!   stable bytecode offset, never an engine-internal index.
//!
//! Restore is oracle-transparent: a restored unit's heap slab, free
//! list, run queue, vclock and per-isolate exact-CPU counters are
//! bit-identical to the captured unit's, so resuming mid-run produces
//! exactly the results, console, vclock and accounting of the
//! uninterrupted run under every scheduler mode.

use crate::class::{InitState, TaskClassMirror};
use crate::heap::{Heap, MonitorState, ObjBody, Object};
use crate::ids::{ClassId, IsolateId, LoaderId, MethodRef, ThreadId};
use crate::isolate::{Isolate, IsolateState};
use crate::port::{FutureImage, FutureSlotImage, PayloadKind, PortImage, PumpImage, ReplyError};
use crate::thread::{Frame, FramePool, ThreadState, VmThread};
use crate::value::{GcRef, Value};
use crate::vm::{IsolationMode, Vm, VmOptions};
use crate::wire::{write_elems, Reader, WireError};
use std::collections::VecDeque;

/// Image magic: the first four bytes of every unit image.
pub(crate) const MAGIC: &[u8; 4] = b"CKPT";
/// Current image format version.
pub(crate) const FORMAT_VERSION: u16 = 2;

const SECTION_COUNT: usize = 8;
const SECTION_NAMES: [&str; SECTION_COUNT] = [
    "OPTS", "LOADERS", "ISOLATES", "CLASSES", "HEAP", "THREADS", "PORT", "MISC",
];
const HEADER_BYTES: usize = 4 + 2 + 4;
const TABLE_ENTRY_BYTES: usize = 1 + 4 + 4 + 4;

/// Errors raised while capturing or restoring a unit image.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The unit is not at a clean quantum boundary (in-flight cross-unit
    /// traffic, a thread parked on the port layer, unflushed quota).
    /// Capture again after more slices; the scheduler's drain-to-boundary
    /// protocol retries automatically.
    NotQuiescent(&'static str),
    /// The image ends mid-structure.
    Truncated,
    /// The first four bytes are not `b"CKPT"`.
    BadMagic,
    /// The format version is not one this build can decode.
    BadVersion(u16),
    /// A section body does not match its table checksum.
    ChecksumMismatch(&'static str),
    /// Structurally invalid image (bad tag, dangling reference, replay
    /// divergence, trailing bytes, ...).
    Corrupt(&'static str),
    /// A hard VM option in the image differs from the restore options.
    OptionsMismatch(&'static str),
    /// The live unit holds state the image format cannot represent.
    Unsupported(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::NotQuiescent(w) => write!(f, "unit not quiescent: {w}"),
            CheckpointError::Truncated => write!(f, "truncated image"),
            CheckpointError::BadMagic => write!(f, "not a unit image (bad magic)"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported image version {v}"),
            CheckpointError::ChecksumMismatch(s) => {
                write!(f, "checksum mismatch in {s} section")
            }
            CheckpointError::Corrupt(w) => write!(f, "corrupt image: {w}"),
            CheckpointError::OptionsMismatch(w) => {
                write!(f, "restore options disagree with image: {w}")
            }
            CheckpointError::Unsupported(w) => write!(f, "cannot checkpoint: {w}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<WireError> for CheckpointError {
    fn from(e: WireError) -> CheckpointError {
        match e {
            WireError::Truncated => CheckpointError::Truncated,
            WireError::BadTag(_) => CheckpointError::Corrupt("bad tag"),
            WireError::UnknownClass(_) => CheckpointError::Corrupt("unknown class"),
            WireError::OutOfMemory => CheckpointError::Corrupt("image exhausts heap"),
            WireError::Corrupt(w) => CheckpointError::Corrupt(w),
        }
    }
}

/// A complete, validated-on-construction byte image of one unit.
///
/// Obtain one with [`Vm::checkpoint`] (an already-quiesced VM) or
/// [`crate::sched::UnitHandle::checkpoint_at`] (a running unit, cut at a
/// quantum boundary by the cluster scheduler). Feed it back through
/// [`restore`], [`crate::sched::Cluster::submit_image`] or
/// [`crate::sched::Cluster::submit_image_n`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct UnitImage {
    bytes: Vec<u8>,
}

impl UnitImage {
    /// The raw image bytes (stable: safe to write to disk).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the image, returning the raw bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Image size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// `true` if the image holds no bytes (never true for a parsed image).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Wraps bytes read back from storage, validating the header, the
    /// section table and every section checksum. Deep structural
    /// validation happens at [`restore`] time.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<UnitImage, CheckpointError> {
        parse(&bytes)?;
        Ok(UnitImage { bytes })
    }
}

// ----------------------------------------------------------------------
// CRC32 (IEEE, the zip/PNG polynomial) — hand-rolled so the image format
// has zero dependencies.
// ----------------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ----------------------------------------------------------------------
// Big-endian writers (the Reader in `wire.rs` is the matching decoder;
// array bodies go through its `write_elems`).
// ----------------------------------------------------------------------

fn w_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn w_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn w_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn w_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn w_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

fn w_str(out: &mut Vec<u8>, s: &str) {
    w_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn w_opt_u32(out: &mut Vec<u8>, v: Option<u32>) {
    match v {
        None => w_u8(out, 0),
        Some(x) => {
            w_u8(out, 1);
            w_u32(out, x);
        }
    }
}

fn w_value(out: &mut Vec<u8>, v: Value) {
    match v {
        Value::Null => w_u8(out, 0),
        Value::Int(x) => {
            w_u8(out, 1);
            w_u32(out, x as u32);
        }
        Value::Long(x) => {
            w_u8(out, 2);
            w_u64(out, x as u64);
        }
        Value::Float(x) => {
            w_u8(out, 3);
            w_u32(out, x.to_bits());
        }
        Value::Double(x) => {
            w_u8(out, 4);
            w_u64(out, x.to_bits());
        }
        Value::Ref(r) => {
            w_u8(out, 5);
            w_u32(out, r.0);
        }
    }
}

fn w_values(out: &mut Vec<u8>, vs: &[Value]) {
    w_u32(out, vs.len() as u32);
    for &v in vs {
        w_value(out, v);
    }
}

fn w_methodref(out: &mut Vec<u8>, m: MethodRef) {
    w_u32(out, m.class.0);
    w_u16(out, m.index);
}

fn w_opt_methodref(out: &mut Vec<u8>, m: Option<MethodRef>) {
    match m {
        None => w_u8(out, 0),
        Some(m) => {
            w_u8(out, 1);
            w_methodref(out, m);
        }
    }
}

// ----------------------------------------------------------------------
// Bounds-checked readers on top of `wire::Reader`. Counts are validated
// against the bytes actually present *before* any allocation, so a
// hostile length field fails with `Truncated` instead of an absurd
// allocation.
// ----------------------------------------------------------------------

fn r_bool(r: &mut Reader<'_>) -> Result<bool, CheckpointError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(CheckpointError::Corrupt("bool out of range")),
    }
}

/// Reads an element count whose elements each occupy at least
/// `min_elem_bytes` encoded bytes.
fn r_count(r: &mut Reader<'_>, min_elem_bytes: usize) -> Result<usize, CheckpointError> {
    let n = r.u32()? as usize;
    if n.saturating_mul(min_elem_bytes.max(1)) > r.remaining() {
        return Err(CheckpointError::Truncated);
    }
    Ok(n)
}

fn r_opt_u32(r: &mut Reader<'_>) -> Result<Option<u32>, CheckpointError> {
    Ok(if r_bool(r)? { Some(r.u32()?) } else { None })
}

fn r_value(r: &mut Reader<'_>) -> Result<Value, CheckpointError> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::Int(r.u32()? as i32),
        2 => Value::Long(r.u64()? as i64),
        3 => Value::Float(f32::from_bits(r.u32()?)),
        4 => Value::Double(f64::from_bits(r.u64()?)),
        5 => Value::Ref(GcRef(r.u32()?)),
        _ => return Err(CheckpointError::Corrupt("value tag")),
    })
}

fn r_values(r: &mut Reader<'_>) -> Result<Vec<Value>, CheckpointError> {
    let n = r_count(r, 1)?;
    let mut out = Vec::new();
    for _ in 0..n {
        out.push(r_value(r)?);
    }
    Ok(out)
}

fn r_methodref(r: &mut Reader<'_>) -> Result<MethodRef, CheckpointError> {
    Ok(MethodRef {
        class: ClassId(r.u32()?),
        index: r.u16()?,
    })
}

fn r_opt_methodref(r: &mut Reader<'_>) -> Result<Option<MethodRef>, CheckpointError> {
    Ok(if r_bool(r)? {
        Some(r_methodref(r)?)
    } else {
        None
    })
}

fn r_tid_list(r: &mut Reader<'_>) -> Result<VecDeque<ThreadId>, CheckpointError> {
    let n = r_count(r, 4)?;
    let mut out = VecDeque::new();
    for _ in 0..n {
        out.push_back(ThreadId(r.u32()?));
    }
    Ok(out)
}

// ----------------------------------------------------------------------
// Header + section table
// ----------------------------------------------------------------------

fn parse(bytes: &[u8]) -> Result<[&[u8]; SECTION_COUNT], CheckpointError> {
    if bytes.len() < 4 {
        return Err(CheckpointError::Truncated);
    }
    if &bytes[0..4] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let mut r = Reader { bytes, pos: 4 };
    let version = r.u16()?;
    if version != FORMAT_VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    let count = r.u32()?;
    if count != SECTION_COUNT as u32 {
        return Err(CheckpointError::Corrupt("section count"));
    }
    let payload_start = HEADER_BYTES + SECTION_COUNT * TABLE_ENTRY_BYTES;
    let mut out = [&bytes[0..0]; SECTION_COUNT];
    let mut expect_off = 0u32;
    for (i, slot) in out.iter_mut().enumerate() {
        let tag = r.u8()?;
        let off = r.u32()?;
        let len = r.u32()?;
        let crc = r.u32()?;
        if tag != (i + 1) as u8 {
            return Err(CheckpointError::Corrupt("section table order"));
        }
        if off != expect_off {
            return Err(CheckpointError::Corrupt("section offsets not contiguous"));
        }
        let start = payload_start
            .checked_add(off as usize)
            .ok_or(CheckpointError::Truncated)?;
        let end = start
            .checked_add(len as usize)
            .ok_or(CheckpointError::Truncated)?;
        if end > bytes.len() {
            return Err(CheckpointError::Truncated);
        }
        let body = &bytes[start..end];
        if crc32(body) != crc {
            return Err(CheckpointError::ChecksumMismatch(SECTION_NAMES[i]));
        }
        *slot = body;
        expect_off = expect_off
            .checked_add(len)
            .ok_or(CheckpointError::Corrupt("section length overflow"))?;
    }
    if payload_start + expect_off as usize != bytes.len() {
        return Err(CheckpointError::Corrupt(
            "trailing bytes after last section",
        ));
    }
    Ok(out)
}

fn assemble(sections: [Vec<u8>; SECTION_COUNT]) -> UnitImage {
    let payload_len: usize = sections.iter().map(Vec::len).sum();
    let mut bytes =
        Vec::with_capacity(HEADER_BYTES + SECTION_COUNT * TABLE_ENTRY_BYTES + payload_len);
    bytes.extend_from_slice(MAGIC);
    w_u16(&mut bytes, FORMAT_VERSION);
    w_u32(&mut bytes, SECTION_COUNT as u32);
    let mut off = 0u32;
    for (i, body) in sections.iter().enumerate() {
        w_u8(&mut bytes, (i + 1) as u8);
        w_u32(&mut bytes, off);
        w_u32(&mut bytes, body.len() as u32);
        w_u32(&mut bytes, crc32(body));
        off += body.len() as u32;
    }
    for body in &sections {
        bytes.extend_from_slice(body);
    }
    UnitImage { bytes }
}

// ----------------------------------------------------------------------
// Capture
// ----------------------------------------------------------------------

/// Captures a quiesced VM as a unit image. Prefer the public entry
/// points: [`Vm::checkpoint`] for a VM the embedder holds directly,
/// [`crate::sched::UnitHandle::checkpoint_at`] for a running unit.
pub(crate) fn capture(vm: &Vm) -> Result<UnitImage, CheckpointError> {
    // Quiescence: the port layer must be at a drained boundary...
    vm.port_checkpoint_clean()
        .map_err(CheckpointError::NotQuiescent)?;
    // ...and no green thread may be parked on cross-unit machinery
    // (those states name hub-side entities that do not survive into an
    // image; the scheduler's drain-to-boundary protocol retries the
    // capture once replies land and wake the threads).
    for t in &vm.threads {
        match t.state {
            ThreadState::BlockedOnPort { .. } => {
                return Err(CheckpointError::NotQuiescent(
                    "thread parked in a cross-unit call",
                ))
            }
            ThreadState::BlockedOnFuture { .. } => {
                return Err(CheckpointError::NotQuiescent(
                    "thread parked on an unresolved future",
                ))
            }
            ThreadState::BlockedOnQuota => {
                return Err(CheckpointError::NotQuiescent(
                    "thread parked on a destination quota",
                ))
            }
            _ => {}
        }
    }
    // Replayability: every class's bytes must be present in its defining
    // loader's classpath (true for classes installed via
    // `install_system_class` / `add_class_bytes`, i.e. everything the
    // embedding API can produce), and no bundle class may shadow a
    // bootstrap classpath name, or the restore-side replay would resolve
    // it through the bootstrap loader instead.
    for c in &vm.classes {
        let ld = vm
            .loaders
            .get(c.loader.0 as usize)
            .ok_or(CheckpointError::Corrupt("class with unknown loader"))?;
        if !ld.classpath.contains_key(c.name.as_ref() as &str) {
            return Err(CheckpointError::Unsupported(
                "class bytes missing from its defining loader's classpath",
            ));
        }
        if !c.is_system
            && vm.loaders[0]
                .classpath
                .contains_key(c.name.as_ref() as &str)
        {
            return Err(CheckpointError::Unsupported(
                "bundle class shadows a bootstrap class name",
            ));
        }
    }

    Ok(assemble([
        enc_opts(vm),
        enc_loaders(vm),
        enc_isolates(vm),
        enc_classes(vm),
        enc_heap(vm),
        enc_threads(vm)?,
        enc_port(vm),
        enc_misc(vm),
    ]))
}

fn enc_opts(vm: &Vm) -> Vec<u8> {
    let o = &vm.options;
    let mut out = Vec::new();
    w_u8(
        &mut out,
        match o.isolation {
            IsolationMode::Shared => 0,
            IsolationMode::Isolated => 1,
        },
    );
    w_bool(&mut out, o.accounting);
    w_u64(&mut out, o.heap_limit_bytes as u64);
    w_u64(&mut out, o.max_threads as u64);
    w_u64(&mut out, o.max_frames as u64);
    w_u32(&mut out, o.quantum);
    w_u64(&mut out, o.gc_threshold_bytes as u64);
    out
}

fn enc_loaders(vm: &Vm) -> Vec<u8> {
    let mut out = Vec::new();
    w_u32(&mut out, vm.loaders.len() as u32);
    for l in &vm.loaders {
        w_str(&mut out, &l.name);
        w_u16(&mut out, l.isolate.0);
        w_bool(&mut out, l.is_system);
        // Classpaths live in a hash map; sort so image bytes are a pure
        // function of VM state, not hash order.
        let mut entries: Vec<(&String, &Vec<u8>)> = l.classpath.iter().collect();
        entries.sort_unstable_by_key(|(k, _)| *k);
        w_u32(&mut out, entries.len() as u32);
        for (name, bytes) in entries {
            w_str(&mut out, name);
            w_u32(&mut out, bytes.len() as u32);
            out.extend_from_slice(bytes);
        }
        w_u32(&mut out, l.delegates.len() as u32);
        for d in &l.delegates {
            w_u16(&mut out, d.0);
        }
    }
    out
}

fn enc_isolates(vm: &Vm) -> Vec<u8> {
    let mut out = Vec::new();
    w_u32(&mut out, vm.isolates.len() as u32);
    for iso in &vm.isolates {
        w_str(&mut out, &iso.name);
        w_u8(
            &mut out,
            match iso.state {
                IsolateState::Active => 0,
                IsolateState::Terminating => 1,
                IsolateState::Dead => 2,
            },
        );
        w_u16(&mut out, iso.loader.0);
        let mut strings: Vec<(&String, &GcRef)> = iso.strings.iter().collect();
        strings.sort_unstable_by_key(|(k, _)| *k);
        w_u32(&mut out, strings.len() as u32);
        for (s, r) in strings {
            w_str(&mut out, s);
            w_u32(&mut out, r.0);
        }
        let st = &iso.stats;
        for v in [
            st.cpu_sampled,
            st.cpu_exact,
            st.allocated_bytes,
            st.allocated_objects,
            st.live_bytes,
            st.live_objects,
            st.threads_created,
            st.threads_live,
            st.threads_parked,
            st.gc_triggers,
            st.io_read_bytes,
            st.io_written_bytes,
            st.connections_opened,
            st.live_connections,
            st.calls_in,
        ] {
            w_u64(&mut out, v);
        }
        w_u32(&mut out, iso.exported_ports.len() as u32);
        for p in &iso.exported_ports {
            w_str(&mut out, p);
        }
    }
    out
}

fn enc_classes(vm: &Vm) -> Vec<u8> {
    let mut out = Vec::new();
    w_u32(&mut out, vm.classes.len() as u32);
    for c in &vm.classes {
        w_u16(&mut out, c.loader.0);
        w_str(&mut out, &c.name);
        w_bool(&mut out, c.poisoned);
        w_u32(&mut out, c.mirrors.len() as u32);
        for m in &c.mirrors {
            match m {
                None => w_u8(&mut out, 0),
                Some(m) => {
                    w_u8(&mut out, 1);
                    match m.init {
                        InitState::Uninitialized => w_u8(&mut out, 0),
                        InitState::InProgress(tid) => {
                            w_u8(&mut out, 1);
                            w_u32(&mut out, tid.0);
                        }
                        InitState::Initialized => w_u8(&mut out, 2),
                        InitState::Failed => w_u8(&mut out, 3),
                    }
                    w_values(&mut out, &m.statics);
                    w_u32(&mut out, m.class_object.0);
                }
            }
        }
    }
    out
}

fn enc_body(out: &mut Vec<u8>, body: &ObjBody) {
    match body {
        ObjBody::Fields(f) => {
            w_u8(out, 0);
            w_values(out, f);
        }
        ObjBody::ArrBool(a) => {
            w_u8(out, 1);
            write_elems(out, a, u8::to_be_bytes);
        }
        ObjBody::ArrByte(a) => {
            w_u8(out, 2);
            write_elems(out, a, i8::to_be_bytes);
        }
        ObjBody::ArrChar(a) => {
            w_u8(out, 3);
            write_elems(out, a, u16::to_be_bytes);
        }
        ObjBody::ArrShort(a) => {
            w_u8(out, 4);
            write_elems(out, a, i16::to_be_bytes);
        }
        ObjBody::ArrInt(a) => {
            w_u8(out, 5);
            write_elems(out, a, i32::to_be_bytes);
        }
        ObjBody::ArrLong(a) => {
            w_u8(out, 6);
            write_elems(out, a, i64::to_be_bytes);
        }
        ObjBody::ArrFloat(a) => {
            w_u8(out, 7);
            write_elems(out, a, |x: f32| x.to_bits().to_be_bytes());
        }
        ObjBody::ArrDouble(a) => {
            w_u8(out, 8);
            write_elems(out, a, |x: f64| x.to_bits().to_be_bytes());
        }
        ObjBody::ArrRef { elem_desc, data } => {
            w_u8(out, 9);
            w_str(out, elem_desc);
            w_values(out, data);
        }
    }
}

fn enc_heap(vm: &Vm) -> Vec<u8> {
    let mut out = Vec::new();
    let slots = vm.heap.slots();
    // The slab is written positionally, holes included: slab indices ARE
    // the GcRef identities every other section refers to.
    w_u32(&mut out, slots.len() as u32);
    for slot in slots {
        match slot {
            None => w_u8(&mut out, 0),
            Some(obj) => {
                w_u8(&mut out, 1);
                w_u32(&mut out, obj.class.0);
                w_str(&mut out, &obj.array_desc);
                w_u16(&mut out, obj.owner.0);
                w_bool(&mut out, obj.is_connection);
                match &obj.monitor {
                    None => w_u8(&mut out, 0),
                    Some(m) => {
                        w_u8(&mut out, 1);
                        w_opt_u32(&mut out, m.owner.map(|t| t.0));
                        w_u32(&mut out, m.count);
                        w_u32(&mut out, m.entry_queue.len() as u32);
                        for t in &m.entry_queue {
                            w_u32(&mut out, t.0);
                        }
                    }
                }
                enc_body(&mut out, &obj.body);
            }
        }
    }
    // Free list in stack order: `alloc` pops the back, so preserving the
    // order makes post-restore allocation replay identically.
    let free = vm.heap.free_list();
    w_u32(&mut out, free.len() as u32);
    for &idx in free {
        w_u32(&mut out, idx);
    }
    out
}

fn enc_thread_state(out: &mut Vec<u8>, state: ThreadState) -> Result<(), CheckpointError> {
    match state {
        ThreadState::Runnable => w_u8(out, 0),
        ThreadState::Sleeping { until } => {
            w_u8(out, 1);
            w_u64(out, until);
        }
        ThreadState::BlockedOnMonitor(r) => {
            w_u8(out, 2);
            w_u32(out, r.0);
        }
        ThreadState::BlockedOnJoin(t) => {
            w_u8(out, 4);
            w_u32(out, t.0);
        }
        ThreadState::BlockedOnClassInit { class, isolate } => {
            w_u8(out, 5);
            w_u32(out, class.0);
            w_u16(out, isolate.0);
        }
        // Tag 3 is never written (format 1's wait state; decode rejects
        // it). Tags 6..=8 are reserved for the port-layer parked states,
        // which quiescence rules out of every image.
        ThreadState::BlockedOnPort { .. }
        | ThreadState::BlockedOnFuture { .. }
        | ThreadState::BlockedOnQuota => {
            return Err(CheckpointError::NotQuiescent(
                "thread parked on the port layer",
            ))
        }
        ThreadState::ServicePump => w_u8(out, 9),
        ThreadState::Terminated => w_u8(out, 10),
    }
    Ok(())
}

fn enc_threads(vm: &Vm) -> Result<Vec<u8>, CheckpointError> {
    let mut out = Vec::new();
    w_u32(&mut out, vm.threads.len() as u32);
    for t in &vm.threads {
        w_str(&mut out, &t.name);
        enc_thread_state(&mut out, t.state)?;
        w_u16(&mut out, t.current_isolate.0);
        w_u16(&mut out, t.creator_isolate.0);
        w_opt_u32(&mut out, t.pending_exception.map(|r| r.0));
        w_bool(&mut out, t.interrupted);
        match t.result {
            None => w_u8(&mut out, 0),
            Some(v) => {
                w_u8(&mut out, 1);
                w_value(&mut out, v);
            }
        }
        w_opt_u32(&mut out, t.uncaught.map(|r| r.0));
        w_u64(&mut out, t.insns_since_switch);
        w_bool(&mut out, t.is_service_pump);
        w_bool(&mut out, t.guest_started);
        w_u32(&mut out, t.frames.len() as u32);
        for f in &t.frames {
            w_methodref(&mut out, f.method);
            w_u16(&mut out, f.isolate.0);
            w_u16(&mut out, f.caller_isolate.0);
            w_bool(&mut out, f.is_system);
            // `pc` is a bytecode byte offset — stable across engines and
            // quickening states, unlike prepared-code indices.
            w_u32(&mut out, f.pc);
            w_values(&mut out, &f.locals);
            w_values(&mut out, &f.stack);
            w_opt_u32(&mut out, f.sync_object.map(|r| r.0));
            w_bool(&mut out, f.needs_sync_enter);
            match f.poisoned_return {
                None => w_u8(&mut out, 0),
                Some(iso) => {
                    w_u8(&mut out, 1);
                    w_u16(&mut out, iso.0);
                }
            }
        }
    }
    w_u32(&mut out, vm.run_queue.len() as u32);
    for t in &vm.run_queue {
        w_u32(&mut out, t.0);
    }
    Ok(out)
}

fn enc_port(vm: &Vm) -> Vec<u8> {
    let img = vm.port_snapshot();
    let mut out = Vec::new();
    w_u32(&mut out, img.pumps.len() as u32);
    for p in &img.pumps {
        w_str(&mut out, &p.name);
        w_u32(&mut out, p.thread);
        w_u16(&mut out, p.isolate);
        w_u64(&mut out, p.handler_pin);
        w_opt_methodref(&mut out, p.handle_int);
        w_opt_methodref(&mut out, p.handle_obj);
    }
    w_u32(&mut out, img.futures.len() as u32);
    for f in &img.futures {
        w_u32(&mut out, f.id);
        w_u16(&mut out, f.owner);
        match &f.slot {
            FutureSlotImage::Ready(Ok((kind, bytes))) => {
                w_u8(&mut out, 0);
                w_u8(
                    &mut out,
                    match kind {
                        PayloadKind::Int => 0,
                        PayloadKind::Obj => 1,
                    },
                );
                w_u32(&mut out, bytes.len() as u32);
                out.extend_from_slice(bytes);
            }
            FutureSlotImage::Ready(Err(ReplyError::Revoked(s))) => {
                w_u8(&mut out, 1);
                w_str(&mut out, s);
            }
            FutureSlotImage::Ready(Err(ReplyError::Failed(s))) => {
                w_u8(&mut out, 2);
                w_str(&mut out, s);
            }
            FutureSlotImage::Cancelled => w_u8(&mut out, 3),
        }
    }
    w_u32(&mut out, img.next_future);
    w_u64(&mut out, img.next_local_call);
    out
}

fn enc_misc(vm: &Vm) -> Vec<u8> {
    let mut out = Vec::new();
    w_u64(&mut out, vm.vclock);
    w_u64(&mut out, vm.migrations);
    w_u64(&mut out, vm.gc_count);
    w_u64(&mut out, vm.allocated_since_gc as u64);
    match vm.exit_code {
        None => w_u8(&mut out, 0),
        Some(c) => {
            w_u8(&mut out, 1);
            w_u32(&mut out, c as u32);
        }
    }
    w_u32(&mut out, vm.console.len() as u32);
    for line in &vm.console {
        w_str(&mut out, line);
    }
    // Host roots keep their exact slot layout (`Vm::pin` hands out slot
    // indices that service pumps hold as `handler_pin`s).
    w_u32(&mut out, vm.host_roots.len() as u32);
    for r in &vm.host_roots {
        w_opt_u32(&mut out, r.map(|g| g.0));
    }
    out
}

// ----------------------------------------------------------------------
// Restore
// ----------------------------------------------------------------------

/// Rebuilds a [`Vm`] from a unit image.
///
/// `base` supplies the VM options. Hard state-shape options (isolation,
/// accounting, quantum, heap limit, thread/frame caps, GC threshold)
/// must match the image or restore fails with
/// [`CheckpointError::OptionsMismatch`]; *soft* options — engine,
/// superinstruction fusing, scheduler kind, tracing — are free, which is
/// what lets one image restore under a different execution engine (the
/// image carries no prepared code to go stale).
///
/// `natives` must register exactly the native methods the captured VM
/// had (e.g. `ijvm_jsl::install_natives` for a JSL-booted VM): the image
/// replays class *definitions* from the recorded classfile bytes, and
/// native linkage is re-derived at define time from this registry.
pub fn restore(
    image: &UnitImage,
    base: VmOptions,
    natives: impl FnOnce(&mut Vm),
) -> Result<Vm, CheckpointError> {
    let sections = parse(&image.bytes)?;
    check_opts(sections[0], &base)?;

    let mut vm = Vm::new(base);
    natives(&mut vm);

    dec_loaders(sections[1], &mut vm)?;
    dec_isolates(sections[2], &mut vm)?;
    let mirrors = dec_classes(sections[3], &mut vm)?;
    let (slots, free) = dec_heap(sections[4], &vm)?;
    let (threads, run_queue) = dec_threads(sections[5], &vm)?;
    let port = dec_port(sections[6])?;
    let misc = dec_misc(sections[7])?;

    validate(
        &vm, &mirrors, &slots, &free, &threads, &run_queue, &port, &misc,
    )?;

    for (class_idx, ms) in mirrors {
        let c = &mut vm.classes[class_idx];
        c.mirrors = ms;
    }
    vm.heap = Heap::from_parts(slots, free);
    vm.threads = threads;
    // `monitors_held` is not in the image: recount it from the owners.
    for (_, obj) in vm.heap.iter() {
        if let Some(owner) = obj.monitor.as_ref().and_then(|m| m.owner) {
            vm.threads[owner.0 as usize].monitors_held += 1;
        }
    }
    vm.run_queue = run_queue;
    vm.port_restore(port);
    vm.vclock = misc.vclock;
    vm.migrations = misc.migrations;
    vm.gc_count = misc.gc_count;
    vm.allocated_since_gc = misc.allocated_since_gc as usize;
    vm.exit_code = misc.exit_code;
    vm.console = misc.console;
    vm.restore_host_roots(misc.host_roots);
    Ok(vm)
}

fn check_opts(bytes: &[u8], base: &VmOptions) -> Result<(), CheckpointError> {
    let mut r = Reader { bytes, pos: 0 };
    let isolation = match r.u8()? {
        0 => IsolationMode::Shared,
        1 => IsolationMode::Isolated,
        _ => return Err(CheckpointError::Corrupt("isolation mode")),
    };
    let accounting = r_bool(&mut r)?;
    let heap_limit = r.u64()?;
    let max_threads = r.u64()?;
    let max_frames = r.u64()?;
    let quantum = r.u32()?;
    let gc_threshold = r.u64()?;
    if isolation != base.isolation {
        return Err(CheckpointError::OptionsMismatch("isolation mode"));
    }
    if accounting != base.accounting {
        return Err(CheckpointError::OptionsMismatch("accounting"));
    }
    if heap_limit != base.heap_limit_bytes as u64 {
        return Err(CheckpointError::OptionsMismatch("heap_limit_bytes"));
    }
    if max_threads != base.max_threads as u64 {
        return Err(CheckpointError::OptionsMismatch("max_threads"));
    }
    if max_frames != base.max_frames as u64 {
        return Err(CheckpointError::OptionsMismatch("max_frames"));
    }
    if quantum != base.quantum {
        return Err(CheckpointError::OptionsMismatch("quantum"));
    }
    if gc_threshold != base.gc_threshold_bytes as u64 {
        return Err(CheckpointError::OptionsMismatch("gc_threshold_bytes"));
    }
    Ok(())
}

fn dec_loaders(bytes: &[u8], vm: &mut Vm) -> Result<(), CheckpointError> {
    let r = &mut Reader { bytes, pos: 0 };
    let count = r_count(r, 1)?;
    if count == 0 {
        return Err(CheckpointError::Corrupt("no bootstrap loader"));
    }
    if count > u16::MAX as usize {
        return Err(CheckpointError::Corrupt("loader count"));
    }
    for i in 0..count {
        let name = r.str()?;
        let isolate = IsolateId(r.u16()?);
        let is_system = r_bool(r)?;
        if i == 0 && !(is_system && isolate == IsolateId::ISOLATE0) {
            return Err(CheckpointError::Corrupt("loader 0 is not bootstrap"));
        }
        let id = if i == 0 {
            LoaderId::BOOTSTRAP
        } else {
            if is_system {
                return Err(CheckpointError::Corrupt("system loader beyond slot 0"));
            }
            vm.restore_push_loader(name, isolate)
        };
        if id.0 as usize != i {
            return Err(CheckpointError::Corrupt("loader ids not sequential"));
        }
        let n_classes = r_count(r, 8)?;
        for _ in 0..n_classes {
            let cname = r.str()?;
            let blen = r.u32()? as usize;
            let cbytes = r.take(blen)?.to_vec();
            if i == 0 {
                vm.add_system_class_bytes(&cname, cbytes);
            } else {
                vm.add_class_bytes(id, &cname, cbytes);
            }
        }
        let n_delegates = r_count(r, 2)?;
        let mut delegates = Vec::new();
        for _ in 0..n_delegates {
            let d = LoaderId(r.u16()?);
            if d.0 as usize >= count {
                return Err(CheckpointError::Corrupt("delegate loader out of range"));
            }
            delegates.push(d);
        }
        vm.loaders[i].delegates = delegates;
    }
    if r.remaining() != 0 {
        return Err(CheckpointError::Corrupt("trailing bytes in LOADERS"));
    }
    Ok(())
}

fn dec_isolates(bytes: &[u8], vm: &mut Vm) -> Result<(), CheckpointError> {
    let r = &mut Reader { bytes, pos: 0 };
    let count = r_count(r, 1)?;
    if count > u16::MAX as usize {
        return Err(CheckpointError::Corrupt("isolate count"));
    }
    for i in 0..count {
        let name = r.str()?;
        let state = match r.u8()? {
            0 => IsolateState::Active,
            1 => IsolateState::Terminating,
            2 => IsolateState::Dead,
            _ => return Err(CheckpointError::Corrupt("isolate state")),
        };
        let loader = LoaderId(r.u16()?);
        if loader.0 as usize >= vm.loaders.len() {
            return Err(CheckpointError::Corrupt("isolate loader out of range"));
        }
        let mut iso = Isolate::new(IsolateId(i as u16), &name, loader);
        iso.state = state;
        let n_strings = r_count(r, 8)?;
        for _ in 0..n_strings {
            let s = r.str()?;
            let gc = GcRef(r.u32()?);
            iso.strings.insert(s, gc);
        }
        let st = &mut iso.stats;
        for slot in [
            &mut st.cpu_sampled,
            &mut st.cpu_exact,
            &mut st.allocated_bytes,
            &mut st.allocated_objects,
            &mut st.live_bytes,
            &mut st.live_objects,
            &mut st.threads_created,
            &mut st.threads_live,
            &mut st.threads_parked,
            &mut st.gc_triggers,
            &mut st.io_read_bytes,
            &mut st.io_written_bytes,
            &mut st.connections_opened,
            &mut st.live_connections,
            &mut st.calls_in,
        ] {
            *slot = r.u64()?;
        }
        let n_ports = r_count(r, 4)?;
        for _ in 0..n_ports {
            iso.exported_ports.push(r.str()?);
        }
        vm.isolates.push(iso);
    }
    if r.remaining() != 0 {
        return Err(CheckpointError::Corrupt("trailing bytes in ISOLATES"));
    }
    Ok(())
}

type MirrorSets = Vec<(usize, Vec<Option<TaskClassMirror>>)>;

/// Replays class definitions in recorded [`ClassId`] order and decodes
/// the task class mirrors (returned, not yet installed — installation
/// waits for the cross-reference sweep).
fn dec_classes(bytes: &[u8], vm: &mut Vm) -> Result<MirrorSets, CheckpointError> {
    let r = &mut Reader { bytes, pos: 0 };
    let count = r_count(r, 8)?;
    let mut mirror_sets = Vec::new();
    for k in 0..count {
        let loader = LoaderId(r.u16()?);
        let name = r.str()?;
        let poisoned = r_bool(r)?;
        if loader.0 as usize >= vm.loaders.len() {
            return Err(CheckpointError::Corrupt("class loader out of range"));
        }
        // Replay: supers/interfaces were defined first in the original
        // run (they have lower ids), so they are already present and
        // this call defines exactly one new class...
        let id = vm
            .load_class(loader, &name)
            .map_err(|_| CheckpointError::Corrupt("class replay failed"))?;
        // ...and resolution must land where the original did, or every
        // serialized ClassId would be off.
        if id.0 as usize != k {
            return Err(CheckpointError::Corrupt("class replay diverged"));
        }
        vm.classes[k].poisoned = poisoned;
        let n_mirrors = r_count(r, 1)?;
        let mut mirrors = Vec::new();
        for _ in 0..n_mirrors {
            if !r_bool(r)? {
                mirrors.push(None);
                continue;
            }
            let init = match r.u8()? {
                0 => InitState::Uninitialized,
                1 => InitState::InProgress(ThreadId(r.u32()?)),
                2 => InitState::Initialized,
                3 => InitState::Failed,
                _ => return Err(CheckpointError::Corrupt("mirror init state")),
            };
            let statics = r_values(r)?;
            if statics.len() != vm.classes[k].static_fields.len() {
                return Err(CheckpointError::Corrupt("mirror statics arity"));
            }
            let class_object = GcRef(r.u32()?);
            mirrors.push(Some(TaskClassMirror {
                init,
                statics: statics.into_boxed_slice(),
                class_object,
            }));
        }
        mirror_sets.push((k, mirrors));
    }
    if r.remaining() != 0 {
        return Err(CheckpointError::Corrupt("trailing bytes in CLASSES"));
    }
    Ok(mirror_sets)
}

fn dec_body(r: &mut Reader<'_>) -> Result<ObjBody, CheckpointError> {
    let tag = r.u8()?;
    Ok(match tag {
        0 => ObjBody::Fields(r_values(r)?.into_boxed_slice()),
        1 => ObjBody::ArrBool(r.elems(u8::from_be_bytes)?),
        2 => ObjBody::ArrByte(r.elems(i8::from_be_bytes)?),
        3 => ObjBody::ArrChar(r.elems(u16::from_be_bytes)?),
        4 => ObjBody::ArrShort(r.elems(i16::from_be_bytes)?),
        5 => ObjBody::ArrInt(r.elems(i32::from_be_bytes)?),
        6 => ObjBody::ArrLong(r.elems(i64::from_be_bytes)?),
        7 => ObjBody::ArrFloat(r.elems(|b| f32::from_bits(u32::from_be_bytes(b)))?),
        8 => ObjBody::ArrDouble(r.elems(|b| f64::from_bits(u64::from_be_bytes(b)))?),
        9 => {
            let elem_desc = r.str()?;
            ObjBody::ArrRef {
                elem_desc,
                data: r_values(r)?.into_boxed_slice(),
            }
        }
        _ => return Err(CheckpointError::Corrupt("object body tag")),
    })
}

type HeapParts = (Vec<Option<Object>>, Vec<u32>);

fn dec_heap(bytes: &[u8], vm: &Vm) -> Result<HeapParts, CheckpointError> {
    let r = &mut Reader { bytes, pos: 0 };
    let n_slots = r_count(r, 1)?;
    let mut slots = Vec::new();
    for _ in 0..n_slots {
        if !r_bool(r)? {
            slots.push(None);
            continue;
        }
        let class = ClassId(r.u32()?);
        if class.0 as usize >= vm.classes.len() {
            return Err(CheckpointError::Corrupt("object class out of range"));
        }
        let array_desc = r.str()?;
        let owner = IsolateId(r.u16()?);
        if owner.0 as usize >= vm.isolates.len() {
            return Err(CheckpointError::Corrupt("object owner out of range"));
        }
        let is_connection = r_bool(r)?;
        let monitor = if r_bool(r)? {
            let owner = r_opt_u32(r)?.map(ThreadId);
            let count = r.u32()?;
            let entry_queue = r_tid_list(r)?;
            Some(Box::new(MonitorState {
                owner,
                count,
                entry_queue,
            }))
        } else {
            None
        };
        let body = dec_body(r)?;
        slots.push(Some(Object {
            class,
            array_desc,
            owner,
            is_connection,
            mark: false,
            monitor,
            body,
        }));
    }
    let n_free = r_count(r, 4)?;
    let mut free = Vec::new();
    for _ in 0..n_free {
        free.push(r.u32()?);
    }
    if r.remaining() != 0 {
        return Err(CheckpointError::Corrupt("trailing bytes in HEAP"));
    }
    Ok((slots, free))
}

fn dec_thread_state(r: &mut Reader<'_>) -> Result<ThreadState, CheckpointError> {
    Ok(match r.u8()? {
        0 => ThreadState::Runnable,
        1 => ThreadState::Sleeping { until: r.u64()? },
        2 => ThreadState::BlockedOnMonitor(GcRef(r.u32()?)),
        4 => ThreadState::BlockedOnJoin(ThreadId(r.u32()?)),
        5 => ThreadState::BlockedOnClassInit {
            class: ClassId(r.u32()?),
            isolate: IsolateId(r.u16()?),
        },
        9 => ThreadState::ServicePump,
        10 => ThreadState::Terminated,
        // 3: format 1's wait state; 6..=8: port-layer parked states —
        // never valid in an image.
        _ => return Err(CheckpointError::Corrupt("thread state tag")),
    })
}

type ThreadParts = (Vec<VmThread>, VecDeque<ThreadId>);

fn dec_threads(bytes: &[u8], vm: &Vm) -> Result<ThreadParts, CheckpointError> {
    let r = &mut Reader { bytes, pos: 0 };
    let n_threads = r_count(r, 8)?;
    let mut threads = Vec::new();
    for i in 0..n_threads {
        let name = r.str()?;
        let state = dec_thread_state(r)?;
        let current_isolate = IsolateId(r.u16()?);
        let creator_isolate = IsolateId(r.u16()?);
        if current_isolate.0 as usize >= vm.isolates.len()
            || creator_isolate.0 as usize >= vm.isolates.len()
        {
            return Err(CheckpointError::Corrupt("thread isolate out of range"));
        }
        let pending_exception = r_opt_u32(r)?.map(GcRef);
        let interrupted = r_bool(r)?;
        let result = if r_bool(r)? { Some(r_value(r)?) } else { None };
        let uncaught = r_opt_u32(r)?.map(GcRef);
        let insns_since_switch = r.u64()?;
        let is_service_pump = r_bool(r)?;
        let guest_started = r_bool(r)?;
        let n_frames = r_count(r, 8)?;
        let mut frames = Vec::new();
        for _ in 0..n_frames {
            let method = r_methodref(r)?;
            let cls = vm
                .classes
                .get(method.class.0 as usize)
                .ok_or(CheckpointError::Corrupt("frame method class out of range"))?;
            let m = cls
                .methods
                .get(method.index as usize)
                .ok_or(CheckpointError::Corrupt("frame method index out of range"))?;
            // Re-link the code body from the replayed class — the frame
            // runs the re-derived bytecode, never serialized code.
            let code = m
                .code
                .as_ref()
                .ok_or(CheckpointError::Corrupt("frame into codeless method"))?
                .share();
            let isolate = IsolateId(r.u16()?);
            let caller_isolate = IsolateId(r.u16()?);
            if isolate.0 as usize >= vm.isolates.len()
                || caller_isolate.0 as usize >= vm.isolates.len()
            {
                return Err(CheckpointError::Corrupt("frame isolate out of range"));
            }
            let is_system = r_bool(r)?;
            let pc = r.u32()?;
            if pc as usize >= code.bytes.len() {
                return Err(CheckpointError::Corrupt("frame pc out of range"));
            }
            let locals = r_values(r)?;
            let stack = r_values(r)?;
            let sync_object = r_opt_u32(r)?.map(GcRef);
            let needs_sync_enter = r_bool(r)?;
            let poisoned_return = if r_bool(r)? {
                Some(IsolateId(r.u16()?))
            } else {
                None
            };
            frames.push(Frame {
                method,
                class: method.class,
                isolate,
                caller_isolate,
                is_system,
                code,
                pc,
                locals,
                stack,
                sync_object,
                needs_sync_enter,
                poisoned_return,
            });
        }
        threads.push(VmThread {
            id: ThreadId(i as u32),
            name,
            frames,
            state,
            current_isolate,
            creator_isolate,
            pending_exception,
            interrupted,
            result,
            uncaught,
            insns_since_switch,
            frame_pool: FramePool::default(),
            is_service_pump,
            guest_started,
            monitors_held: 0,
        });
    }
    let run_queue = r_tid_list(r)?;
    if r.remaining() != 0 {
        return Err(CheckpointError::Corrupt("trailing bytes in THREADS"));
    }
    Ok((threads, run_queue))
}

fn dec_port(bytes: &[u8]) -> Result<PortImage, CheckpointError> {
    let r = &mut Reader { bytes, pos: 0 };
    let n_pumps = r_count(r, 8)?;
    let mut pumps = Vec::new();
    for _ in 0..n_pumps {
        pumps.push(PumpImage {
            name: r.str()?,
            thread: r.u32()?,
            isolate: r.u16()?,
            handler_pin: r.u64()?,
            handle_int: r_opt_methodref(r)?,
            handle_obj: r_opt_methodref(r)?,
        });
    }
    let n_futures = r_count(r, 7)?;
    let mut futures = Vec::new();
    let mut last_id = None;
    for _ in 0..n_futures {
        let id = r.u32()?;
        if last_id.is_some_and(|prev| prev >= id) {
            return Err(CheckpointError::Corrupt("future ids not ascending"));
        }
        last_id = Some(id);
        let owner = r.u16()?;
        let slot = match r.u8()? {
            0 => {
                let kind = match r.u8()? {
                    0 => PayloadKind::Int,
                    1 => PayloadKind::Obj,
                    _ => return Err(CheckpointError::Corrupt("payload kind")),
                };
                let blen = r.u32()? as usize;
                let payload = r.take(blen)?.to_vec();
                FutureSlotImage::Ready(Ok((kind, payload)))
            }
            1 => FutureSlotImage::Ready(Err(ReplyError::Revoked(r.str()?))),
            2 => FutureSlotImage::Ready(Err(ReplyError::Failed(r.str()?))),
            3 => FutureSlotImage::Cancelled,
            _ => return Err(CheckpointError::Corrupt("future slot tag")),
        };
        futures.push(FutureImage { id, owner, slot });
    }
    let next_future = r.u32()?;
    let next_local_call = r.u64()?;
    if r.remaining() != 0 {
        return Err(CheckpointError::Corrupt("trailing bytes in PORT"));
    }
    Ok(PortImage {
        pumps,
        futures,
        next_future,
        next_local_call,
    })
}

struct MiscImage {
    vclock: u64,
    migrations: u64,
    gc_count: u64,
    allocated_since_gc: u64,
    exit_code: Option<i32>,
    console: Vec<String>,
    host_roots: Vec<Option<GcRef>>,
}

fn dec_misc(bytes: &[u8]) -> Result<MiscImage, CheckpointError> {
    let r = &mut Reader { bytes, pos: 0 };
    let vclock = r.u64()?;
    let migrations = r.u64()?;
    let gc_count = r.u64()?;
    let allocated_since_gc = r.u64()?;
    let exit_code = if r_bool(r)? {
        Some(r.u32()? as i32)
    } else {
        None
    };
    let n_console = r_count(r, 4)?;
    let mut console = Vec::new();
    for _ in 0..n_console {
        console.push(r.str()?);
    }
    let n_roots = r_count(r, 1)?;
    let mut host_roots = Vec::new();
    for _ in 0..n_roots {
        host_roots.push(r_opt_u32(r)?.map(GcRef));
    }
    if r.remaining() != 0 {
        return Err(CheckpointError::Corrupt("trailing bytes in MISC"));
    }
    Ok(MiscImage {
        vclock,
        migrations,
        gc_count,
        allocated_since_gc,
        exit_code,
        console,
        host_roots,
    })
}

// ----------------------------------------------------------------------
// Cross-reference sweep: every id in every decoded section must point at
// something that exists, BEFORE any of it is installed into the VM. A
// hostile image is rejected as a unit; nothing is partially applied.
// ----------------------------------------------------------------------

fn check_ref(r: GcRef, slots: &[Option<Object>]) -> Result<(), CheckpointError> {
    match slots.get(r.0 as usize) {
        Some(Some(_)) => Ok(()),
        _ => Err(CheckpointError::Corrupt("dangling object reference")),
    }
}

fn check_value(v: Value, slots: &[Option<Object>]) -> Result<(), CheckpointError> {
    if let Value::Ref(r) = v {
        check_ref(r, slots)?;
    }
    Ok(())
}

fn check_tid(t: ThreadId, n_threads: usize) -> Result<(), CheckpointError> {
    if (t.0 as usize) < n_threads {
        Ok(())
    } else {
        Err(CheckpointError::Corrupt("thread id out of range"))
    }
}

#[allow(clippy::too_many_arguments)]
fn validate(
    vm: &Vm,
    mirrors: &MirrorSets,
    slots: &[Option<Object>],
    free: &[u32],
    threads: &[VmThread],
    run_queue: &VecDeque<ThreadId>,
    port: &PortImage,
    misc: &MiscImage,
) -> Result<(), CheckpointError> {
    // Free list: every entry points at a hole, no duplicates, and
    // together they cover every hole (so alloc can never hand out a live
    // slot and no hole is leaked forever).
    let mut seen = vec![false; slots.len()];
    for &idx in free {
        let slot = slots
            .get(idx as usize)
            .ok_or(CheckpointError::Corrupt("free-list index out of range"))?;
        if slot.is_some() {
            return Err(CheckpointError::Corrupt("free-list entry is live"));
        }
        if std::mem::replace(&mut seen[idx as usize], true) {
            return Err(CheckpointError::Corrupt("free-list duplicate"));
        }
    }
    let holes = slots.iter().filter(|s| s.is_none()).count();
    if free.len() != holes {
        return Err(CheckpointError::Corrupt("free list does not cover holes"));
    }

    for obj in slots.iter().flatten() {
        if let Some(m) = &obj.monitor {
            if let Some(owner) = m.owner {
                check_tid(owner, threads.len())?;
            }
            for &t in &m.entry_queue {
                check_tid(t, threads.len())?;
            }
        }
        match &obj.body {
            ObjBody::Fields(vs) => {
                for &v in vs.iter() {
                    check_value(v, slots)?;
                }
            }
            ObjBody::ArrRef { data, .. } => {
                for &v in data.iter() {
                    check_value(v, slots)?;
                }
            }
            _ => {}
        }
    }

    for (_, ms) in mirrors {
        for m in ms.iter().flatten() {
            if let InitState::InProgress(tid) = m.init {
                check_tid(tid, threads.len())?;
            }
            for &v in m.statics.iter() {
                check_value(v, slots)?;
            }
            check_ref(m.class_object, slots)?;
        }
    }

    for iso in &vm.isolates {
        for &r in iso.strings.values() {
            check_ref(r, slots)?;
        }
    }

    for t in threads {
        match t.state {
            ThreadState::BlockedOnMonitor(r) => check_ref(r, slots)?,
            ThreadState::BlockedOnJoin(j) => check_tid(j, threads.len())?,
            ThreadState::BlockedOnClassInit { class, isolate }
                if class.0 as usize >= vm.classes.len()
                    || isolate.0 as usize >= vm.isolates.len() =>
            {
                return Err(CheckpointError::Corrupt("class-init wait out of range"));
            }
            _ => {}
        }
        for r in [t.pending_exception, t.uncaught].into_iter().flatten() {
            check_ref(r, slots)?;
        }
        if let Some(v) = t.result {
            check_value(v, slots)?;
        }
        for f in &t.frames {
            for &v in f.locals.iter().chain(f.stack.iter()) {
                check_value(v, slots)?;
            }
            if let Some(r) = f.sync_object {
                check_ref(r, slots)?;
            }
            if let Some(iso) = f.poisoned_return {
                if iso.0 as usize >= vm.isolates.len() {
                    return Err(CheckpointError::Corrupt("poisoned return out of range"));
                }
            }
        }
    }

    for &t in run_queue {
        check_tid(t, threads.len())?;
    }

    for r in misc.host_roots.iter().flatten() {
        check_ref(*r, slots)?;
    }

    for p in &port.pumps {
        check_tid(ThreadId(p.thread), threads.len())?;
        if p.isolate as usize >= vm.isolates.len() {
            return Err(CheckpointError::Corrupt("pump isolate out of range"));
        }
        if !matches!(misc.host_roots.get(p.handler_pin as usize), Some(Some(_))) {
            return Err(CheckpointError::Corrupt("pump handler pin dangles"));
        }
    }
    for f in &port.futures {
        if f.owner as usize >= vm.isolates.len() {
            return Err(CheckpointError::Corrupt("future owner out of range"));
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn empty_vm_round_trips() {
        let vm = Vm::new(VmOptions::isolated());
        let img = capture(&vm).expect("fresh VM is quiescent");
        let restored = restore(&img, VmOptions::isolated(), |_| {}).expect("restore");
        assert_eq!(restored.vclock(), 0);
        assert_eq!(restored.class_count(), 0);
        let again = capture(&restored).expect("re-capture");
        assert_eq!(img, again, "capture must be a pure function of VM state");
    }

    #[test]
    fn bad_magic_rejected() {
        let err = UnitImage::from_bytes(b"NOPE".to_vec()).unwrap_err();
        assert_eq!(err, CheckpointError::BadMagic);
        let err = UnitImage::from_bytes(Vec::new()).unwrap_err();
        assert_eq!(err, CheckpointError::Truncated);
    }

    #[test]
    fn bad_version_rejected() {
        let vm = Vm::new(VmOptions::isolated());
        let mut bytes = capture(&vm).unwrap().into_bytes();
        bytes[4] = 0xFF; // version high byte
        match UnitImage::from_bytes(bytes).unwrap_err() {
            CheckpointError::BadVersion(v) => assert_eq!(v, 0xFF00 | FORMAT_VERSION),
            other => panic!("expected BadVersion, got {other:?}"),
        }
    }

    /// Format 1 carried the `Object.wait` fields that format 2 dropped;
    /// such an image is refused by version, never misread.
    #[test]
    fn format_1_image_is_rejected() {
        let vm = Vm::new(VmOptions::isolated());
        let mut bytes = capture(&vm).unwrap().into_bytes();
        bytes[4..6].copy_from_slice(&1u16.to_be_bytes());
        assert_eq!(
            UnitImage::from_bytes(bytes).unwrap_err(),
            CheckpointError::BadVersion(1)
        );
    }

    /// Thread-state tag 3 was format 1's `Object.wait` state. A
    /// well-sealed image carrying it fails restore as corrupt.
    #[test]
    fn old_wait_state_tag_is_rejected() {
        let vm = Vm::new(VmOptions::isolated());
        let img = capture(&vm).unwrap();
        let mut sections: [Vec<u8>; SECTION_COUNT] =
            parse(img.as_bytes()).unwrap().map(<[u8]>::to_vec);
        let mut threads = Vec::new();
        w_u32(&mut threads, 1);
        w_str(&mut threads, "waiter");
        w_u8(&mut threads, 3);
        w_u32(&mut threads, 0);
        sections[5] = threads;
        let hostile = UnitImage::from_bytes(assemble(sections).into_bytes()).expect("sealed");
        let err = restore(&hostile, VmOptions::isolated(), |_| {}).unwrap_err();
        assert_eq!(err, CheckpointError::Corrupt("thread state tag"));
    }

    #[test]
    fn flipped_bit_fails_checksum() {
        let vm = Vm::new(VmOptions::isolated());
        let mut bytes = capture(&vm).unwrap().into_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let err = UnitImage::from_bytes(bytes).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::ChecksumMismatch(_) | CheckpointError::Corrupt(_)
            ),
            "corruption must be detected, got {err:?}"
        );
    }

    #[test]
    fn every_truncation_is_rejected_without_panic() {
        let vm = Vm::new(VmOptions::isolated());
        let bytes = capture(&vm).unwrap().into_bytes();
        for cut in 0..bytes.len() {
            assert!(
                UnitImage::from_bytes(bytes[..cut].to_vec()).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn options_mismatch_rejected() {
        let vm = Vm::new(VmOptions::isolated());
        let img = capture(&vm).unwrap();
        let err = restore(&img, VmOptions::shared(), |_| {}).unwrap_err();
        assert_eq!(err, CheckpointError::OptionsMismatch("isolation mode"));
        let mut opts = VmOptions::isolated();
        opts.quantum += 1;
        let err = restore(&img, opts, |_| {}).unwrap_err();
        assert_eq!(err, CheckpointError::OptionsMismatch("quantum"));
    }

    #[test]
    fn soft_options_are_free() {
        // Engine and scheduler are derived-state knobs; an image cut
        // under one must restore under another.
        let vm = Vm::new(VmOptions::isolated());
        let img = capture(&vm).unwrap();
        let opts = VmOptions::isolated().with_engine(crate::engine::EngineKind::Raw);
        assert!(restore(&img, opts, |_| {}).is_ok());
    }
}
