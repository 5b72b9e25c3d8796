//! Deep copy of object graphs between isolates — the parameter-passing
//! mechanism of Incommunicado-style isolate links (MVM). This is exactly
//! the cost I-JVM avoids by migrating the thread instead.

use ijvm_core::heap::ObjBody;
use ijvm_core::ids::IsolateId;
use ijvm_core::value::{GcRef, Value};
use ijvm_core::vm::Vm;
use std::collections::HashMap;

/// Deep-copies `v` into `target` isolate, preserving sharing and cycles
/// within the copied graph. Primitives are returned unchanged. Returns
/// `None` when the heap limit is hit.
///
/// Every copied object is pinned for the duration of the copy: an
/// allocation mid-graph may trigger a collection, and the host-side
/// `seen` map is invisible to the collector.
pub fn deep_copy_value(vm: &mut Vm, v: Value, target: IsolateId) -> Option<Value> {
    let mut seen: HashMap<GcRef, GcRef> = HashMap::new();
    let mut pins: Vec<usize> = Vec::new();
    let result = copy_value(vm, v, target, &mut seen, &mut pins);
    for handle in pins {
        vm.unpin(handle);
    }
    result
}

fn copy_value(
    vm: &mut Vm,
    v: Value,
    target: IsolateId,
    seen: &mut HashMap<GcRef, GcRef>,
    pins: &mut Vec<usize>,
) -> Option<Value> {
    match v {
        Value::Ref(r) => copy_ref(vm, r, target, seen, pins).map(Value::Ref),
        other => Some(other),
    }
}

fn copy_ref(
    vm: &mut Vm,
    r: GcRef,
    target: IsolateId,
    seen: &mut HashMap<GcRef, GcRef>,
    pins: &mut Vec<usize>,
) -> Option<GcRef> {
    if let Some(&copied) = seen.get(&r) {
        return Some(copied);
    }
    // Strings copy by value (cheapest correct behaviour across isolates).
    if let Some(chars) = vm.string_chars(r) {
        let chars = chars.into();
        let copied = vm.new_string_utf16(target, chars)?;
        pins.push(vm.pin(copied));
        seen.insert(r, copied);
        return Some(copied);
    }
    let (class, body_kind) = {
        let obj = vm.heap().get(r);
        (obj.class, discriminate(&obj.body))
    };
    match body_kind {
        BodyKind::Fields(n) => {
            let copied = vm.alloc_object(class, target)?;
            pins.push(vm.pin(copied));
            seen.insert(r, copied);
            for slot in 0..n {
                let field = match &vm.heap().get(r).body {
                    ObjBody::Fields(fields) => fields[slot],
                    _ => unreachable!("shape checked above"),
                };
                let copied_field = copy_value(vm, field, target, seen, pins)?;
                if let ObjBody::Fields(fields) = &mut vm.heap_mut().get_mut(copied).body {
                    fields[slot] = copied_field;
                }
            }
            Some(copied)
        }
        BodyKind::PrimArray => {
            // Clone the payload wholesale.
            let body = vm.heap().get(r).body.clone();
            let copied = vm.alloc_array(target, body)?;
            pins.push(vm.pin(copied));
            seen.insert(r, copied);
            Some(copied)
        }
        BodyKind::RefArray(n) => {
            let ObjBody::ArrRef { elem_desc, .. } = &vm.heap().get(r).body else {
                unreachable!("shape checked above")
            };
            let elem_desc = elem_desc.clone();
            let copied = vm.alloc_ref_array(target, &elem_desc, n)?;
            pins.push(vm.pin(copied));
            seen.insert(r, copied);
            for i in 0..n {
                let elem = match &vm.heap().get(r).body {
                    ObjBody::ArrRef { data, .. } => data[i],
                    _ => unreachable!("shape checked above"),
                };
                let copied_elem = copy_value(vm, elem, target, seen, pins)?;
                if let ObjBody::ArrRef { data, .. } = &mut vm.heap_mut().get_mut(copied).body {
                    data[i] = copied_elem;
                }
            }
            Some(copied)
        }
    }
}

enum BodyKind {
    Fields(usize),
    PrimArray,
    RefArray(usize),
}

fn discriminate(body: &ObjBody) -> BodyKind {
    match body {
        ObjBody::Fields(f) => BodyKind::Fields(f.len()),
        ObjBody::ArrRef { data, .. } => BodyKind::RefArray(data.len()),
        _ => BodyKind::PrimArray,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ijvm_core::vm::VmOptions;
    use ijvm_minijava::{compile_to_bytes, CompileEnv};

    /// A VM with isolates `a` and `b`, each loader holding `src`.
    fn vm_with_classes(options: VmOptions, src: &str) -> (Vm, IsolateId, IsolateId) {
        let mut vm = ijvm_jsl::boot(options);
        let a = vm.create_isolate("a");
        let b = vm.create_isolate("b");
        for iso in [a, b] {
            let loader = vm.loader_of(iso).unwrap();
            for (name, bytes) in compile_to_bytes(src, &CompileEnv::new()).unwrap() {
                vm.add_class_bytes(loader, &name, bytes);
            }
        }
        (vm, a, b)
    }

    #[test]
    fn copies_object_graphs_with_cycles() {
        copy_ring(VmOptions::isolated());
        // Again with a collection at every allocation: collections during
        // the copy charge the pinned copies to Isolate0, so ownership is
        // read only after the copy is rooted in `b` and collected.
        let mut stress = VmOptions::isolated();
        stress.gc_threshold_bytes = 0;
        copy_ring(stress);
    }

    fn copy_ring(options: VmOptions) {
        let src = r#"
            class Node { Node next; int v; }
            class Mk {
                static Node ring(int n) {
                    Node first = new Node();
                    first.v = 0;
                    Node cur = first;
                    for (int i = 1; i < n; i++) {
                        Node nn = new Node();
                        nn.v = i;
                        cur.next = nn;
                        cur = nn;
                    }
                    cur.next = first;
                    return first;
                }
            }
            class Keep { static Object k; static void keep(Object o) { k = o; } }
        "#;
        let collects_per_alloc = options.gc_threshold_bytes == 0;
        let (mut vm, a, b) = vm_with_classes(options, src);
        let loader = vm.loader_of(a).unwrap();
        let mk = vm.load_class(loader, "Mk").unwrap();
        let keep = vm.load_class(vm.loader_of(b).unwrap(), "Keep").unwrap();
        let ring = vm
            .call_static_as(mk, "ring", "(I)LNode;", vec![Value::Int(4)], a)
            .unwrap()
            .unwrap();
        let Value::Ref(head) = ring else {
            panic!("expected ref")
        };
        let copied = copy_test_helper(&mut vm, head, b);
        if !collects_per_alloc {
            // No collection has run yet: the copy is allocated in b.
            assert_eq!(vm.heap().get(copied).owner, b);
        }
        // Root the copy in isolate b and collect: the collector charges
        // each object to the first isolate that reaches it.
        vm.call_static_as(
            keep,
            "keep",
            "(Ljava/lang/Object;)V",
            vec![Value::Ref(copied)],
            b,
        )
        .unwrap();
        vm.collect_garbage(None);
        // The copy is a distinct 4-node ring with the same values.
        assert_ne!(copied, head);
        let mut cur = copied;
        for expect in [0, 1, 2, 3] {
            let v = vm.get_field(cur, "v").unwrap().as_int();
            assert_eq!(v, expect);
            cur = vm.get_field(cur, "next").unwrap().as_ref().unwrap();
        }
        assert_eq!(cur, copied, "cycle preserved");
        // Ownership: the copy is charged to isolate b.
        assert_eq!(vm.heap().get(copied).owner, b);
    }

    fn copy_test_helper(vm: &mut Vm, r: GcRef, target: IsolateId) -> GcRef {
        match deep_copy_value(vm, Value::Ref(r), target).unwrap() {
            Value::Ref(c) => c,
            other => panic!("expected ref, got {other}"),
        }
    }

    #[test]
    fn copies_strings_and_arrays() {
        let (mut vm, a, b) = vm_with_classes(VmOptions::isolated(), "class Empty { }");
        let s = vm.new_string(a, "shared text").expect("heap has room");
        let copied = copy_test_helper(&mut vm, s, b);
        assert_ne!(copied, s);
        assert_eq!(vm.read_string(copied).unwrap(), "shared text");
    }
}
