//! The wire codec's costs: decoded arrays are charged at their real
//! size, hostile lengths are rejected before anything is allocated, and
//! decoding is linear in the number of objects.

// The linearity test is a timing harness: it reads the wall clock.
#![allow(clippy::disallowed_types)]

use ijvm_core::heap::ObjBody;
use ijvm_core::prelude::*;
use ijvm_core::vm::Vm;
use ijvm_core::wire::{deserialize_value, serialize_value, WireError};
use std::time::{Duration, Instant};

/// Bytes held by the objects actually on the heap.
fn recount(vm: &Vm) -> usize {
    vm.heap().iter().map(|(_, o)| o.size_bytes()).sum()
}

fn encode(vm: &mut Vm, iso: IsolateId, body: ObjBody) -> Vec<u8> {
    let arr = vm.alloc_array(iso, body).unwrap();
    let mut bytes = Vec::new();
    serialize_value(vm, Value::Ref(arr), &mut bytes);
    bytes
}

/// Decodes `bytes` into `iso` 1,000 times, dropping every result.
fn decode_1000(vm: &mut Vm, iso: IsolateId, bytes: &[u8]) {
    let loader = vm.loader_of(iso).unwrap();
    for i in 0..1000 {
        if let Err(e) = deserialize_value(vm, bytes, iso, loader) {
            panic!("decode {i} failed: {e}");
        }
    }
}

#[test]
fn decoded_primitive_arrays_keep_heap_accounting_exact() {
    let mut vm = ijvm_jsl::boot(VmOptions::isolated());
    let a = vm.create_isolate("a");
    for body in [
        ObjBody::ArrInt(vec![7; 1000].into()),
        ObjBody::ArrChar(vec![7; 1000].into()),
        ObjBody::ArrByte(vec![7; 1000].into()),
        ObjBody::ArrShort(vec![7; 1000].into()),
        ObjBody::ArrDouble(vec![7.0; 1000].into()),
    ] {
        let bytes = encode(&mut vm, a, body);
        decode_1000(&mut vm, a, &bytes);
        vm.collect_garbage(None);
        assert_eq!(vm.heap().used_bytes(), recount(&vm));
    }
}

#[test]
fn decoded_int_arrays_do_not_exhaust_a_small_heap() {
    let mut options = VmOptions::isolated();
    options.heap_limit_bytes = 1 << 20;
    let mut vm = ijvm_jsl::boot(options);
    let a = vm.create_isolate("a");
    let bytes = encode(&mut vm, a, ObjBody::ArrInt(vec![7; 1000].into()));
    decode_1000(&mut vm, a, &bytes);
    assert_eq!(vm.heap().used_bytes(), recount(&vm));
}

#[test]
fn hostile_lengths_fail_before_allocating() {
    let mut vm = ijvm_jsl::boot(VmOptions::isolated());
    let a = vm.create_isolate("a");
    let loader = vm.loader_of(a).unwrap();
    let huge = 30_000_000u32.to_be_bytes();
    let desc = b"Ljava/lang/Object;";
    let streams: [Vec<u8>; 3] = [
        // ARR_INT, length, four bytes of elements.
        [&[8][..], &huge, &[0; 4]].concat(),
        // ARR_REF, element descriptor, length, one NULL element.
        [&[13, 0, 0, 0, desc.len() as u8][..], desc, &huge, &[0]].concat(),
        // ARR_OTHER (short), length, four bytes of elements.
        [&[14, 1][..], &huge, &[0; 4]].concat(),
    ];
    for bytes in streams {
        let allocated = vm.isolate_stats(a).unwrap().allocated_bytes;
        let used = vm.heap().used_bytes();
        assert_eq!(
            deserialize_value(&mut vm, &bytes, a, loader),
            Err(WireError::Truncated)
        );
        assert_eq!(vm.isolate_stats(a).unwrap().allocated_bytes, allocated);
        assert_eq!(vm.heap().used_bytes(), used);
    }
}

#[test]
fn decode_time_is_linear_in_object_count() {
    let mut vm = ijvm_jsl::boot(VmOptions::isolated());
    let a = vm.create_isolate("a");
    let b = vm.create_isolate("b");
    let loader = vm.loader_of(b).unwrap();
    let mut time = |n: usize| -> Duration {
        let arr = vm.alloc_ref_array(a, "Ljava/lang/Object;", n).unwrap();
        let pin = vm.pin(arr);
        for i in 0..n {
            let s = vm.new_string(a, "ab").expect("heap has room");
            if let ObjBody::ArrRef { data, .. } = &mut vm.heap_mut().get_mut(arr).body {
                data[i] = Value::Ref(s);
            }
        }
        let mut bytes = Vec::new();
        serialize_value(&vm, Value::Ref(arr), &mut bytes);
        vm.unpin(pin);
        (0..3)
            .map(|_| {
                let start = Instant::now();
                deserialize_value(&mut vm, &bytes, b, loader).unwrap();
                let elapsed = start.elapsed();
                vm.collect_garbage(None);
                elapsed
            })
            .min()
            .unwrap()
    };
    let small = time(4 << 10);
    let large = time(16 << 10);
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    assert!(
        ratio < 8.0,
        "4x the strings took {ratio:.1}x as long ({small:?} -> {large:?})"
    );
}
