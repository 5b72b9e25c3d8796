//! Tests for the RMI wire format: random value trees round-trip across
//! isolates, corrupted streams never panic, object-graph cycles survive,
//! and every truncation fails cleanly.

use ijvm_core::heap::ObjBody;
use ijvm_core::prelude::*;
use ijvm_core::vm::Vm;
use ijvm_core::wire::{deserialize_value, serialize_value};
use ijvm_minijava::{compile_to_bytes, CompileEnv};
use proptest::prelude::*;

/// A host-side description of a guest value tree.
#[derive(Debug, Clone)]
enum Tree {
    Null,
    Int(i32),
    Long(i64),
    Double(f64),
    Str(String),
    IntArray(Vec<i32>),
    RefArray(Vec<Tree>),
}

fn arb_tree() -> impl Strategy<Value = Tree> {
    let leaf = prop_oneof![
        Just(Tree::Null),
        any::<i32>().prop_map(Tree::Int),
        any::<i64>().prop_map(Tree::Long),
        // NaN excluded: equality on round-trip is checked bitwise below,
        // but Display-based compare would mangle it.
        (-1e9f64..1e9).prop_map(Tree::Double),
        "[a-zA-Z0-9 ]{0,24}".prop_map(Tree::Str),
        proptest::collection::vec(any::<i32>(), 0..12).prop_map(Tree::IntArray),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        proptest::collection::vec(inner, 0..4).prop_map(Tree::RefArray)
    })
}

fn build(vm: &mut Vm, iso: IsolateId, t: &Tree) -> Value {
    match t {
        Tree::Null => Value::Null,
        Tree::Int(v) => Value::Int(*v),
        Tree::Long(v) => Value::Long(*v),
        Tree::Double(v) => Value::Double(*v),
        Tree::Str(s) => Value::Ref(vm.new_string(iso, s).expect("heap has room")),
        Tree::IntArray(xs) => Value::Ref(
            vm.alloc_array(iso, ObjBody::ArrInt(xs.clone().into_boxed_slice()))
                .unwrap(),
        ),
        Tree::RefArray(children) => {
            let arr = vm
                .alloc_ref_array(iso, "Ljava/lang/Object;", children.len())
                .unwrap();
            // Building a child allocates, and an allocation may collect:
            // the array is pinned until every child is stored in it.
            let pin = vm.pin(arr);
            for (i, c) in children.iter().enumerate() {
                let v = build(vm, iso, c);
                if let ObjBody::ArrRef { data, .. } = &mut vm.heap_mut().get_mut(arr).body {
                    data[i] = v;
                }
            }
            vm.unpin(pin);
            Value::Ref(arr)
        }
    }
}

fn check(vm: &Vm, t: &Tree, v: Value) {
    match (t, v) {
        (Tree::Null, Value::Null) => {}
        (Tree::Int(x), Value::Int(y)) => assert_eq!(*x, y),
        (Tree::Long(x), Value::Long(y)) => assert_eq!(*x, y),
        (Tree::Double(x), Value::Double(y)) => assert_eq!(x.to_bits(), y.to_bits()),
        (Tree::Str(s), Value::Ref(r)) => assert_eq!(vm.read_string(r).as_deref(), Some(s.as_str())),
        (Tree::IntArray(xs), Value::Ref(r)) => match &vm.heap().get(r).body {
            ObjBody::ArrInt(a) => assert_eq!(&a[..], &xs[..]),
            other => panic!("expected int array, got {other:?}"),
        },
        (Tree::RefArray(children), Value::Ref(r)) => {
            let elems: Vec<Value> = match &vm.heap().get(r).body {
                ObjBody::ArrRef { data, .. } => data.to_vec(),
                other => panic!("expected ref array, got {other:?}"),
            };
            assert_eq!(elems.len(), children.len());
            for (c, e) in children.iter().zip(elems) {
                check(vm, c, e);
            }
        }
        (t, v) => panic!("shape mismatch: {t:?} vs {v}"),
    }
}

/// Builds `tree` in one isolate, then checks that the wire round trip
/// and a deep copy into another isolate both reproduce it. The source
/// stays pinned: decoding and copying allocate, and may collect.
fn round_trip(options: VmOptions, tree: &Tree) {
    let mut vm = ijvm_jsl::boot(options);
    let a = vm.create_isolate("a");
    let b = vm.create_isolate("b");
    let v = build(&mut vm, a, tree);
    if let Value::Ref(r) = v {
        vm.pin(r);
    }
    let mut wire = Vec::new();
    serialize_value(&vm, v, &mut wire);
    let loader = vm.loader_of(b).unwrap();
    let back = deserialize_value(&mut vm, &wire, b, loader).expect("round trip");
    check(&vm, tree, back);
    // Deep copy agrees with serialize→deserialize.
    let copied = ijvm_comm::deep_copy_value(&mut vm, v, b).expect("copy");
    check(&vm, tree, copied);
}

/// Every allocation collects first, so a host reference held across an
/// allocation without a pin is freed before it is read again.
fn collect_at_every_allocation() -> VmOptions {
    let mut o = VmOptions::isolated();
    o.gc_threshold_bytes = 0;
    o
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_value_trees_round_trip(tree in arb_tree()) {
        round_trip(VmOptions::isolated(), &tree);
        round_trip(collect_at_every_allocation(), &tree);
    }

    #[test]
    fn corrupted_wire_never_panics(tree in arb_tree(), flips in proptest::collection::vec((0usize..4096, 1u8..=255), 1..4)) {
        let mut vm = ijvm_jsl::boot(VmOptions::isolated());
        let a = vm.create_isolate("a");
        let v = build(&mut vm, a, &tree);
        let mut wire = Vec::new();
        serialize_value(&vm, v, &mut wire);
        if wire.is_empty() {
            return Ok(());
        }
        for (pos, delta) in flips {
            let i = pos % wire.len();
            wire[i] = wire[i].wrapping_add(delta);
        }
        let loader = vm.loader_of(a).unwrap();
        // May succeed (benign flip) or fail cleanly — must not panic.
        let _ = deserialize_value(&mut vm, &wire, a, loader);
    }

    /// Every strict prefix of an encoded tree is rejected.
    #[test]
    fn truncated_streams_error_cleanly(tree in arb_tree()) {
        let mut vm = ijvm_jsl::boot(VmOptions::isolated());
        let a = vm.create_isolate("a");
        let v = build(&mut vm, a, &tree);
        let mut bytes = Vec::new();
        serialize_value(&vm, v, &mut bytes);
        let loader = vm.loader_of(a).unwrap();
        for cut in 0..bytes.len() {
            prop_assert!(deserialize_value(&mut vm, &bytes[..cut], a, loader).is_err());
        }
    }
}

#[test]
fn round_trips_object_graphs() {
    let mut vm = ijvm_jsl::boot(VmOptions::isolated());
    let a = vm.create_isolate("a");
    let b = vm.create_isolate("b");
    let src = r#"
        class Pair { Pair other; int v; }
        class Mk {
            static Pair twins() {
                Pair x = new Pair(); Pair y = new Pair();
                x.v = 1; y.v = 2; x.other = y; y.other = x;
                return x;
            }
        }
    "#;
    // Classes visible to both isolates: install into both loaders.
    for iso in [a, b] {
        let loader = vm.loader_of(iso).unwrap();
        for (name, bytes) in compile_to_bytes(src, &CompileEnv::new()).unwrap() {
            vm.add_class_bytes(loader, &name, bytes);
        }
    }
    let la = vm.loader_of(a).unwrap();
    let mk = vm.load_class(la, "Mk").unwrap();
    let x = vm
        .call_static_as(mk, "twins", "()LPair;", vec![], a)
        .unwrap()
        .unwrap();
    let Value::Ref(x) = x else { panic!() };

    let mut bytes = Vec::new();
    serialize_value(&vm, Value::Ref(x), &mut bytes);
    let lb = vm.loader_of(b).unwrap();
    let back = deserialize_value(&mut vm, &bytes, b, lb).unwrap();
    let Value::Ref(cx) = back else { panic!() };
    assert_ne!(cx, x);
    let cy = vm.get_field(cx, "other").unwrap().as_ref().unwrap();
    assert_eq!(vm.get_field(cx, "v").unwrap().as_int(), 1);
    assert_eq!(vm.get_field(cy, "v").unwrap().as_int(), 2);
    // Cycle preserved through BACKREF.
    assert_eq!(vm.get_field(cy, "other").unwrap().as_ref().unwrap(), cx);
}
