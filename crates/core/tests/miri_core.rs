//! The Miri lane's workload: undefined-behavior checks over the
//! pointer- and buffer-heavy corners — the wire codec (strings, bulk
//! arrays, hostile lengths), frame-pool recycling, and trace-ring
//! wraparound. (The fourth corner, `VmRc`,
//! is crate-private and covered by the unit tests in `vmrc.rs`; the CI
//! lane runs `--lib` alongside this file so Miri sees those too.)
//!
//! Everything here also runs under plain `cargo test` — Miri adds the
//! UB checking, not the assertions. Sizes are downsized under
//! `cfg(miri)` (interpretation is ~100x slower); the point is coverage
//! of each code path, not volume.

use ijvm_core::heap::ObjBody;
use ijvm_core::prelude::*;
use ijvm_core::thread::FramePool;
use ijvm_core::trace::{EventKind, TraceEvent, TraceRing};
use ijvm_core::wire::{deserialize_value, serialize_value, WireError};

const SIZE: usize = if cfg!(miri) { 16 } else { 1024 };

#[test]
fn wire_codec_roundtrips_primitives_and_strings() {
    let mut vm = ijvm_jsl::boot(VmOptions::isolated());
    let src = vm.create_isolate("sender");
    let dst = vm.create_isolate("receiver");
    let dst_loader = vm.loader_of(dst).unwrap();

    for v in [
        Value::Null,
        Value::Int(-7),
        Value::Int(i32::MAX),
        Value::Long(1 << 40),
        Value::Float(1.5),
        Value::Double(-2.25),
    ] {
        let mut bytes = Vec::new();
        serialize_value(&vm, v, &mut bytes);
        let back = deserialize_value(&mut vm, &bytes, dst, dst_loader).unwrap();
        assert_eq!(back, v);
    }

    // A heap value: the copy must land in the receiver as a distinct
    // object with equal contents.
    let text: String = "wire ".repeat(if cfg!(miri) { 2 } else { 64 });
    let s = vm.new_string(src, &text).expect("heap has room");
    let mut bytes = Vec::new();
    serialize_value(&vm, Value::Ref(s), &mut bytes);
    let back = deserialize_value(&mut vm, &bytes, dst, dst_loader).unwrap();
    let Value::Ref(copy) = back else {
        panic!("string deserialized as {back:?}");
    };
    assert_ne!(copy, s, "cross-isolate copy, not a shared reference");
    assert_eq!(vm.read_string(copy).as_deref(), Some(text.as_str()));

    // Truncated input must error, never read past the buffer (the UB
    // this lane exists to rule out).
    for cut in 0..bytes.len().min(8) {
        assert!(deserialize_value(&mut vm, &bytes[..cut], dst, dst_loader).is_err() || cut == 0);
    }
}

/// The block reader and writer for primitive arrays: bodies round-trip,
/// and a length claiming more elements than the stream holds fails
/// before anything is allocated (a downsized copy of the `wire_codec`
/// suite's hostile-length test).
#[test]
fn wire_codec_bulk_arrays_and_hostile_lengths() {
    let mut vm = ijvm_jsl::boot(VmOptions::isolated());
    let iso = vm.create_isolate("receiver");
    let loader = vm.loader_of(iso).unwrap();
    for body in [
        ObjBody::ArrInt((0..SIZE as i32).map(|i| i * -7).collect()),
        ObjBody::ArrChar((0..SIZE as u16).collect()),
        ObjBody::ArrFloat((0..SIZE).map(|i| i as f32 / 3.0).collect()),
        ObjBody::ArrDouble((0..SIZE).map(|i| i as f64 * 1e10).collect()),
    ] {
        let arr = vm.alloc_array(iso, body.clone()).unwrap();
        let mut bytes = Vec::new();
        serialize_value(&vm, Value::Ref(arr), &mut bytes);
        let Ok(Value::Ref(copy)) = deserialize_value(&mut vm, &bytes, iso, loader) else {
            panic!("array did not round-trip");
        };
        assert_eq!(
            format!("{:?}", vm.heap().get(copy).body),
            format!("{body:?}")
        );
    }

    let claim = (SIZE as u32 * 1000).to_be_bytes();
    for bytes in [
        [&[8][..], &claim, &[0; 4]].concat(),
        [&[14, 2][..], &claim, &[0; 4]].concat(),
    ] {
        let used = vm.heap().used_bytes();
        assert_eq!(
            deserialize_value(&mut vm, &bytes, iso, loader),
            Err(WireError::Truncated)
        );
        assert_eq!(vm.heap().used_bytes(), used);
    }
}

#[test]
fn frame_pool_recycle_reuses_buffers() {
    let pool_cap = if cfg!(miri) { 16 } else { 128 };
    let mut pool = FramePool::default();
    // take → use as a frame would → recycle → take again: the second
    // take must reuse the pooled storage, and recycling must have
    // cleared it (a pooled buffer never holds stale refs).
    let mut first = pool.take(pool_cap);
    assert!(first.capacity() >= pool_cap);
    for i in 0..pool_cap {
        first.push(Value::Int(i as i32));
    }
    pool.recycle(first);
    assert_eq!(pool.pooled(), 1);
    assert!(pool.retained_bytes() > 0);

    let second = pool.take(pool_cap);
    assert_eq!(pool.pooled(), 0, "the pooled buffer was reused");
    assert!(second.is_empty(), "recycle cleared the buffer");
    assert!(second.capacity() >= pool_cap);
    pool.recycle(second);

    // A take may grow a pooled buffer past the retention bound; the
    // grown buffer is then dropped at recycle, not pooled, so retention
    // stays under the documented cap no matter what frames ran.
    let mut huge = pool.take(SIZE.max(300));
    huge.push(Value::Null);
    pool.recycle(huge);
    assert_eq!(pool.pooled(), 0, "oversized buffers are not pooled");
    assert!(pool.retained_bytes() <= FramePool::max_retained_bytes());
}

#[test]
fn trace_ring_wraps_without_losing_accounting() {
    let cap = if cfg!(miri) { 8 } else { 256 };
    let mut ring = TraceRing::with_capacity(cap);
    let total = (cap * 3 + 1) as u64;
    for i in 0..total {
        ring.push(TraceEvent {
            vclock: i,
            payload: i,
            wall_us: 0,
            kind: EventKind::QuantumEnd,
            unit: 0,
            isolate: 0,
            thread: 0,
        });
    }
    assert_eq!(ring.len(), cap);
    assert_eq!(ring.dropped_events(), total - cap as u64);
    let drained = ring.drain_ordered();
    assert_eq!(drained.len(), cap);
    for (i, e) in drained.iter().enumerate() {
        assert_eq!(
            e.payload,
            total - cap as u64 + i as u64,
            "newest `cap` events, oldest-first"
        );
    }
    assert!(ring.is_empty());
    assert_eq!(ring.capacity(), cap);
}

/// The checkpoint image codec: a fourth buffer-heavy corner. The valid
/// path round-trips (parse → restore → re-capture bit-identical), and
/// hostile inputs — truncations and bit flips, which exercise every
/// header, section-table and checksum branch — are rejected by
/// validation without ever reading past the buffer or allocating from
/// an untrusted count (the UB this lane exists to rule out).
#[test]
fn checkpoint_image_decode_rejects_hostile_bytes_without_ub() {
    let vm = ijvm_jsl::boot(VmOptions::isolated());
    let image = vm.checkpoint().expect("a fresh VM is quiescent");
    let bytes = image.as_bytes().to_vec();

    // Valid path: the public decode, a full restore, and a re-capture
    // that must reproduce the image byte for byte (capture is a pure
    // function of VM state).
    let reparsed = UnitImage::from_bytes(bytes.clone()).expect("valid image parses");
    let restored =
        ijvm_core::checkpoint::restore(&reparsed, VmOptions::isolated(), ijvm_jsl::install_natives)
            .expect("valid image restores");
    assert_eq!(
        restored.checkpoint().expect("restored VM is quiescent"),
        image,
        "restore → capture must be the identity on images"
    );

    // Hostile path, downsized under Miri: sample positions instead of
    // sweeping all ~15k bytes.
    let step = if cfg!(miri) { bytes.len() / 8 + 1 } else { 1 };
    for cut in (0..bytes.len()).step_by(step) {
        assert!(
            UnitImage::from_bytes(bytes[..cut].to_vec()).is_err(),
            "truncation to {cut} bytes must be rejected"
        );
    }
    for pos in (0..bytes.len()).step_by(step) {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x41;
        assert!(
            UnitImage::from_bytes(bad).is_err(),
            "bit flip at {pos} must be rejected"
        );
    }
}
