//! GC-stress oracle: in a stress lane of the lane table (`tests/common`)
//! every checked allocation collects first, so any reference a native,
//! the wire decoder or the interpreter holds without rooting is freed
//! (and its slot reused) at the next allocation. Every program must give
//! the same answer in each stress lane as in its plain twin.
//!
//! The rest of the file covers the schedule itself: strings respect the
//! heap limit, the pacing rule bounds the heap by what the last
//! collection left live, and a VM restored from an image taken
//! mid-churn collects where the original would have.

mod common;

use common::{Gc, Lane};
use ijvm_core::heap::ObjBody;
use ijvm_core::prelude::*;
use ijvm_core::vm::Vm;
use ijvm_core::wire::{deserialize_value, serialize_value, WireError};
use ijvm_minijava::{compile_to_bytes, CompileEnv};

const SOURCE: &str = r#"
    class Bx {
        int v;
        Bx(int v) { this.v = v; }
    }
    class Node {
        String name;
        int[] data;
        Node next;
        Object[] kids;
    }
    class P {
        static int boxes(int n) {
            ArrayList xs = new ArrayList();
            for (int i = 0; i < n; i++) xs.add(new Bx(i));
            int sum = 0;
            for (int i = 0; i < n; i++) {
                Bx b = (Bx) xs.get(i);
                sum = sum * 31 + b.v;
            }
            return sum;
        }
        static int builder(int n) {
            StringBuilder sb = new StringBuilder();
            for (int i = 0; i < n; i++) sb.append("x" + i).append(';');
            String s = sb.toString();
            return s.hashCode() * 31 + s.length();
        }
        static int map(int n) {
            HashMap m = new HashMap();
            for (int i = 0; i < n; i++) m.put("k" + i, new Bx(i * 7));
            int sum = 0;
            for (int i = 0; i < n; i++) {
                Bx b = (Bx) m.get("k" + i);
                sum = sum * 31 + b.v;
            }
            return sum * 31 + m.size();
        }
        static int strings(int n) {
            String acc = "";
            int h = 0;
            for (int i = 0; i < n; i++) {
                String s = "item-".concat("" + i).concat("-end");
                String mid = s.substring(2, s.length() - 1);
                String in = mid.intern();
                if (in.equals(mid)) h = h * 31 + in.hashCode();
                h = h * 31 + s.indexOf('-');
                acc = acc.concat(mid.substring(0, 1));
            }
            return h * 31 + acc.hashCode();
        }
        static Object graph(int n) {
            Node head = null;
            for (int i = 0; i < n; i++) {
                Node x = new Node();
                x.name = "node" + i;
                x.data = new int[i % 5];
                for (int j = 0; j < x.data.length; j++) x.data[j] = i * j;
                x.next = head;
                x.kids = new Object[3];
                x.kids[0] = x.name;
                x.kids[1] = head;
                x.kids[2] = "leaf" + (i % 3);
                head = x;
            }
            return head;
        }
    }
"#;

fn boot(lane: Lane) -> (Vm, ClassId, IsolateId) {
    let mut vm = ijvm_jsl::boot(lane.options(10_000));
    let iso = vm.create_isolate("stress");
    let loader = vm.loader_of(iso).unwrap();
    for (name, bytes) in compile_to_bytes(SOURCE, &CompileEnv::new()).unwrap() {
        vm.add_class_bytes(loader, &name, bytes);
    }
    let class = vm.load_class(loader, "P").unwrap();
    (vm, class, iso)
}

/// The selected stress lanes.
fn stress_lanes() -> Vec<Lane> {
    let mut lanes = Lane::all();
    lanes.retain(|l| l.gc == Gc::Stress);
    lanes
}

/// Runs `P.method(n)` in `lane`; returns the result and the number of
/// collections.
fn run_int(lane: Lane, method: &str, n: i32) -> (String, u64) {
    let (mut vm, class, iso) = boot(lane);
    let r = vm.call_static_as(class, method, "(I)I", vec![Value::Int(n)], iso);
    (format!("{r:?}"), vm.gc_count())
}

/// Every program answers the same in a stress lane, which must collect
/// at least `min_gcs` times, as in its plain twin.
fn agrees(method: &str, n: i32, min_gcs: u64) {
    for lane in stress_lanes() {
        let (expected, _) = run_int(lane.plain(), method, n);
        assert!(expected.starts_with("Ok(Some(Int("), "{method}: {expected}");
        let (stressed, gcs) = run_int(lane, method, n);
        assert_eq!(stressed, expected, "{lane}: P.{method}");
        assert!(
            gcs >= min_gcs,
            "{lane}: P.{method} collected only {gcs} times"
        );
    }
}

/// `ArrayList.add` grows its array while its argument is a fresh object
/// nothing else references: the argument must stay rooted through the
/// native call, or the collection frees it and the grown array reuses
/// its slot.
#[test]
fn fresh_native_arguments_survive_a_collection_inside_the_native() {
    agrees("boxes", 300, 300);
}

#[test]
fn stringbuilder_growth_agrees_under_gc_stress() {
    agrees("builder", 300, 300);
}

#[test]
fn hashmap_growth_agrees_under_gc_stress() {
    agrees("map", 300, 300);
}

#[test]
fn string_natives_agree_under_gc_stress() {
    agrees("strings", 200, 200);
}

/// Encodes the graph `P.graph(n)` builds, decodes it into a second
/// isolate of the same VM and encodes the copy again: the two encodings
/// must match, under the stress schedule (where every object the
/// decoder makes collects first) and the default one alike.
fn wire_round_trip(lane: Lane) -> (Vec<u8>, Vec<u8>, u64) {
    let (mut vm, class, iso) = boot(lane);
    let Some(Value::Ref(root)) = vm
        .call_static_as(
            class,
            "graph",
            "(I)Ljava/lang/Object;",
            vec![Value::Int(40)],
            iso,
        )
        .unwrap()
    else {
        panic!("P.graph returns an object");
    };
    let mut original = Vec::new();
    serialize_value(&vm, Value::Ref(root), &mut original);
    let target = vm.create_isolate("target");
    let loader = vm.loader_of(iso).unwrap();
    let gcs = vm.gc_count();
    let copy = deserialize_value(&mut vm, &original, target, loader).expect("decode");
    let gcs = vm.gc_count() - gcs;
    let mut again = Vec::new();
    serialize_value(&vm, copy, &mut again);
    (original, again, gcs)
}

#[test]
fn wire_decode_of_a_nested_graph_agrees_under_gc_stress() {
    for lane in stress_lanes() {
        let (original, again, _) = wire_round_trip(lane.plain());
        assert_eq!(again, original, "{}", lane.plain());
        let (stressed, again, gcs) = wire_round_trip(lane);
        assert_eq!(stressed, original, "{lane}: graph built under stress");
        assert_eq!(again, original, "{lane}: decoded under stress");
        assert!(gcs >= 100, "{lane}: decode collected only {gcs} times");
    }
}

// ---------------------------------------------------------------------
// Strings and the heap limit
// ---------------------------------------------------------------------

const LIMIT_SOURCE: &str = r#"
    class Link {
        String s;
        Link next;
    }
    class C {
        static int fill(int n) {
            String s = "x";
            while (s.length() < 1024) s = s.concat(s);
            Link head = null;
            for (int i = 0; i < n; i++) {
                Link l = new Link();
                l.next = head;
                head = l;
                l.s = s.concat("y");
            }
            return 0;
        }
    }
"#;

#[test]
fn string_natives_throw_out_of_memory_at_the_heap_limit() {
    const LIMIT: usize = 1 << 20;
    for engine in [EngineKind::Raw, EngineKind::Threaded] {
        let mut o = VmOptions::isolated().with_engine(engine);
        o.heap_limit_bytes = LIMIT;
        let mut vm = ijvm_jsl::boot(o);
        let iso = vm.create_isolate("limit");
        let loader = vm.loader_of(iso).unwrap();
        for (name, bytes) in compile_to_bytes(LIMIT_SOURCE, &CompileEnv::new()).unwrap() {
            vm.add_class_bytes(loader, &name, bytes);
        }
        let class = vm.load_class(loader, "C").unwrap();
        let err = vm
            .call_static_as(class, "fill", "(I)I", vec![Value::Int(5_000)], iso)
            .expect_err("5,000 live 1 KiB strings cannot fit in 1 MiB");
        assert!(
            err.to_string().contains("OutOfMemoryError"),
            "{engine:?}: {err}"
        );
        assert!(
            vm.heap().used_bytes() <= LIMIT,
            "{engine:?}: {} bytes used under a {LIMIT}-byte limit",
            vm.heap().used_bytes()
        );
    }
}

#[test]
fn decoding_a_string_into_a_full_heap_is_out_of_memory() {
    const LIMIT: usize = 1 << 20;
    let mut o = VmOptions::isolated();
    o.heap_limit_bytes = LIMIT;
    let mut vm = ijvm_jsl::boot(o);
    let iso = vm.create_isolate("full");
    let loader = vm.loader_of(iso).unwrap();
    let s = vm
        .new_string(iso, &"z".repeat(4096))
        .expect("empty heap has room");
    let mut bytes = Vec::new();
    serialize_value(&vm, Value::Ref(s), &mut bytes);
    // Fill the heap with pinned 1 KiB arrays until one no longer fits.
    while let Some(r) = vm.alloc_array(iso, ObjBody::ArrByte(vec![0; 1024].into())) {
        vm.pin(r);
    }
    let used = vm.heap().used_bytes();
    assert!(matches!(
        deserialize_value(&mut vm, &bytes, iso, loader),
        Err(WireError::OutOfMemory)
    ));
    assert_eq!(
        vm.heap().used_bytes(),
        used,
        "a failed decode allocates nothing"
    );
    assert!(used <= LIMIT);
}

// ---------------------------------------------------------------------
// Pacing
// ---------------------------------------------------------------------

const CHURN_SOURCE: &str = r#"
    class Churn {
        static int run(int n) {
            String k = "k";
            while (k.length() < 1000) k = k.concat(k);
            k = k.substring(0, 1000);
            Object[] keep = new Object[1500];
            for (int i = 0; i < keep.length; i++) keep[i] = k.concat("" + i);
            int h = 0;
            for (int i = 0; i < n; i++) {
                String g = k.concat("" + i);
                h = h * 31 + g.length();
                if (i % 10 == 0) keep[i % keep.length] = g;
            }
            return h;
        }
    }
"#;

fn churn_vm(options: VmOptions) -> (Vm, ThreadId) {
    let mut vm = ijvm_jsl::boot(options);
    let iso = vm.create_isolate("churn");
    let loader = vm.loader_of(iso).unwrap();
    for (name, bytes) in compile_to_bytes(CHURN_SOURCE, &CompileEnv::new()).unwrap() {
        vm.add_class_bytes(loader, &name, bytes);
    }
    let class = vm.load_class(loader, "Churn").unwrap();
    let index = vm.class(class).find_method("run", "(I)I").unwrap();
    let tid = vm
        .spawn_thread(
            "churn",
            MethodRef { class, index },
            vec![Value::Int(20_000)],
            iso,
        )
        .unwrap();
    (vm, tid)
}

/// What the last collection left live: the per-isolate live bytes it
/// charged, summed.
fn live_after_last_collection(vm: &Vm) -> usize {
    (0u16..)
        .map(IsolateId)
        .map_while(|iso| vm.isolate_stats(iso).ok())
        .map(|s| s.live_bytes as usize)
        .sum()
}

/// A string-churning guest with a ~3 MiB live set allocates ~40 MiB in
/// all. Under the default options the heap never holds more than the
/// live set plus one pacing trigger's worth of garbage — max(2 x live,
/// live + 1 MiB) — plus the one allocation that crossed the trigger.
#[test]
fn default_pacing_bounds_the_heap_by_the_live_set() {
    /// One churned string: its `char[]` and the `String`, with headroom.
    const ONE_ALLOCATION: usize = 4 << 10;
    let (mut vm, tid) = churn_vm(VmOptions::isolated());
    let mut peak = 0;
    loop {
        let outcome = vm.run(Some(20_000));
        let used = vm.heap().used_bytes();
        let live = live_after_last_collection(&vm);
        let bound = (2 * live).max(live + (1 << 20)) + ONE_ALLOCATION;
        assert!(
            used <= bound,
            "{used} bytes used, live {live}, bound {bound}"
        );
        peak = peak.max(used);
        if outcome != RunOutcome::BudgetExhausted {
            break;
        }
    }
    assert!(vm.thread_result(tid).is_some(), "the churn finished");
    let live = live_after_last_collection(&vm);
    assert!(live > 2 << 20, "the live set is {live} bytes");
    assert!(peak < 8 << 20, "peak heap {peak} bytes");
    assert!(vm.gc_count() >= 8, "only {} collections", vm.gc_count());
}

/// A VM captured mid-churn and restored under the other engine collects
/// where the uninterrupted VM does: same result, same number of
/// collections, byte-identical final image.
#[test]
fn a_vm_restored_mid_churn_collects_where_the_original_does() {
    for (engine, other) in [
        (EngineKind::Raw, EngineKind::Threaded),
        (EngineKind::Threaded, EngineKind::Raw),
    ] {
        let options = VmOptions::isolated().with_engine(engine);
        let (mut vm, tid) = churn_vm(options.clone());
        assert_eq!(vm.run(Some(400_000)), RunOutcome::BudgetExhausted);
        let gcs_at_capture = vm.gc_count();
        assert!(gcs_at_capture > 0, "capture after the first collection");
        let image = vm.checkpoint().expect("a host-held VM is quiescent");
        let mut restored = ijvm_core::checkpoint::restore(
            &image,
            options.with_engine(other),
            ijvm_jsl::install_natives,
        )
        .expect("image restores under the other engine");
        let mut finals = Vec::new();
        for vm in [&mut vm, &mut restored] {
            vm.run(None);
            let result = vm.thread_result(tid);
            assert!(vm.gc_count() > gcs_at_capture, "collects after restore");
            finals.push((result, vm.gc_count(), vm.checkpoint().unwrap().into_bytes()));
        }
        assert_eq!(finals[0].0, finals[1].0, "{engine:?}: results");
        assert_eq!(finals[0].1, finals[1].1, "{engine:?}: collections");
        assert!(
            finals[0].2 == finals[1].2,
            "{engine:?}: final images differ"
        );
    }
}
