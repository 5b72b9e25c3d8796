//! Cross-crate integration tests: the paper's semantic claims exercised
//! through the full stack (compiler → class files → framework → VM).

use ijvm::prelude::*;
use ijvm_core::ids::MethodRef;

fn install(
    fw: &mut Framework,
    name: &str,
    pkg: &str,
    src: &str,
    imports: Vec<BundleId>,
) -> BundleId {
    let imported: Vec<(String, Vec<u8>)> = imports
        .iter()
        .flat_map(|id| fw.bundle(*id).unwrap().classes.clone())
        .collect();
    let desc = BundleDescriptor::from_source(name, pkg, src, None, imports, &imported)
        .unwrap_or_else(|e| panic!("bundle {name}: {e}"));
    fw.install_bundle(desc).unwrap()
}

fn call_int(fw: &mut Framework, bundle: BundleId, class: &str, method: &str) -> i32 {
    let loader = fw.bundle(bundle).unwrap().loader;
    let iso = fw.bundle(bundle).unwrap().isolate;
    let cid = fw.vm_mut().load_class(loader, class).unwrap();
    match fw.vm_mut().call_static_as(cid, method, "()I", vec![], iso) {
        Ok(Some(Value::Int(v))) => v,
        other => panic!("{class}.{method} -> {other:?}"),
    }
}

// ------------------------------------------------------------------
// String identity across bundles (paper §3.5)
// ------------------------------------------------------------------

/// "In I-JVM, each bundle has its map of strings, therefore the `==`
/// operator does not work for strings allocated by different bundles.
/// Programmers should use the equals function instead."
#[test]
fn string_interning_is_per_bundle() {
    for (mode, expect_same) in [(IsolationMode::Shared, 1), (IsolationMode::Isolated, 0)] {
        let mut fw = Framework::new(match mode {
            IsolationMode::Shared => VmOptions::shared(),
            IsolationMode::Isolated => VmOptions::isolated(),
        });
        let a = install(
            &mut fw,
            "bundle-a",
            "ba",
            r#"
            class Probe {
                static String token() { return "the-literal"; }
                static int sameAsMine(String s) {
                    if (s == "the-literal") return 1;
                    return 0;
                }
                static int equalsMine(String s) {
                    if (s.equals("the-literal")) return 1;
                    return 0;
                }
            }
            "#,
            vec![],
        );
        let b = install(
            &mut fw,
            "bundle-b",
            "bb",
            r#"
            class Check {
                static int identity() { return Probe.sameAsMine("the-literal"); }
                static int equality() { return Probe.equalsMine("the-literal"); }
            }
            "#,
            vec![a],
        );
        let identity = call_int(&mut fw, b, "bb/Check", "identity");
        let equality = call_int(&mut fw, b, "bb/Check", "equality");
        assert_eq!(
            identity, expect_same,
            "{mode:?}: identity of literals across bundles"
        );
        assert_eq!(equality, 1, "{mode:?}: equals() must hold in every mode");
    }
}

// ------------------------------------------------------------------
// Statics are per-isolate, but calls see the callee's copy (paper §3.1)
// ------------------------------------------------------------------

#[test]
fn inter_bundle_calls_operate_on_the_callees_statics() {
    let mut fw = Framework::new(VmOptions::isolated());
    let provider = install(
        &mut fw,
        "provider",
        "pv",
        r#"
        class Counter {
            static int hits = 0;
            static int bump() { hits = hits + 1; return hits; }
            static int peek() { return hits; }
        }
        "#,
        vec![],
    );
    let consumer = install(
        &mut fw,
        "consumer",
        "cs",
        r#"
        class Use {
            static int callBump() { return Counter.bump(); }
            static int readDirect() { return Counter.hits; }
        }
        "#,
        vec![provider],
    );

    // Calling bump() migrates into the provider: its copy advances.
    assert_eq!(call_int(&mut fw, consumer, "cs/Use", "callBump"), 1);
    assert_eq!(call_int(&mut fw, consumer, "cs/Use", "callBump"), 2);
    assert_eq!(call_int(&mut fw, provider, "pv/Counter", "peek"), 2);
    // Direct getstatic from the consumer reads the CONSUMER's copy (0).
    assert_eq!(call_int(&mut fw, consumer, "cs/Use", "readDirect"), 0);
}

// ------------------------------------------------------------------
// Termination unwinds through migrated stacks (paper §3.3)
// ------------------------------------------------------------------

#[test]
fn termination_unwinds_nested_cross_bundle_stacks() {
    let mut fw = Framework::new(VmOptions::isolated());
    let inner = install(
        &mut fw,
        "inner",
        "in",
        r#"
        class Dead {
            static int spinForever() {
                int x = 0;
                while (true) { x = x + 1; }
            }
        }
        "#,
        vec![],
    );
    let outer = install(
        &mut fw,
        "outer",
        "ou",
        r#"
        class Caller {
            static int protectedCall() {
                try {
                    return Dead.spinForever();
                } catch (StoppedIsolateException e) {
                    return 4242;
                }
            }
        }
        "#,
        vec![inner],
    );

    let loader = fw.bundle(outer).unwrap().loader;
    let iso = fw.bundle(outer).unwrap().isolate;
    let cid = fw.vm_mut().load_class(loader, "ou/Caller").unwrap();
    let index = fw
        .vm()
        .class(cid)
        .find_method("protectedCall", "()I")
        .unwrap();
    let tid = fw
        .vm_mut()
        .spawn_thread("caller", MethodRef { class: cid, index }, vec![], iso)
        .unwrap();
    let _ = fw.run(Some(3_000_000));
    assert!(
        !fw.vm().thread(tid).unwrap().is_terminated(),
        "spinning inside the callee"
    );
    // The thread is currently charged to the inner bundle.
    assert_eq!(
        fw.vm().thread(tid).unwrap().current_isolate,
        fw.bundle(inner).unwrap().isolate
    );

    let inner_iso = fw.bundle(inner).unwrap().isolate;
    fw.vm_mut().terminate_isolate(inner_iso).unwrap();
    let _ = fw.run(Some(3_000_000));
    assert_eq!(fw.vm().thread_result(tid), Some(Value::Int(4242)));
}

// ------------------------------------------------------------------
// GC accounting: first referencer is charged (paper §3.2)
// ------------------------------------------------------------------

#[test]
fn gc_charges_objects_to_the_first_referencing_isolate() {
    let mut fw = Framework::new(VmOptions::isolated());
    let maker = install(
        &mut fw,
        "maker",
        "mk",
        r#"
        class Factory {
            static Object make() { return new int[25000]; }
        }
        "#,
        vec![],
    );
    let keeper = install(
        &mut fw,
        "keeper",
        "kp",
        r#"
        class Keep {
            static Object held;
            static int take() {
                held = Factory.make();
                return 1;
            }
        }
        "#,
        vec![maker],
    );
    assert_eq!(call_int(&mut fw, keeper, "kp/Keep", "take"), 1);
    fw.vm_mut().collect_garbage(None);
    let maker_live = fw
        .vm()
        .isolate_stats(fw.bundle(maker).unwrap().isolate)
        .unwrap()
        .live_bytes;
    let keeper_live = fw
        .vm()
        .isolate_stats(fw.bundle(keeper).unwrap().isolate)
        .unwrap()
        .live_bytes;
    // The 100 KB array is held only by the keeper's static: charged there.
    assert!(keeper_live >= 100_000, "keeper live {keeper_live}");
    assert!(maker_live < 100_000, "maker live {maker_live}");
}

// ------------------------------------------------------------------
// Services survive the provider's objects being shared (paper §3.4)
// ------------------------------------------------------------------

#[test]
fn service_objects_remain_usable_until_unregistered() {
    let mut fw = Framework::new(VmOptions::isolated());
    let provider = install(
        &mut fw,
        "dict",
        "dc",
        r#"
        class Dict {
            HashMap map;
            Dict() {
                map = new HashMap();
                map.put("paper", "I-JVM");
                map.put("venue", "DSN 2009");
            }
            String lookup(String k) { return (String) map.get(k); }
        }
        class Activator {
            static void start(BundleContext ctx) {
                ctx.registerService("dict", new Dict());
            }
        }
        "#,
        vec![],
    );
    // Re-install with the activator wired (install() strips it).
    let desc = BundleDescriptor::from_source(
        "dict2",
        "dc2",
        r#"
        class Dict {
            HashMap map;
            Dict() {
                map = new HashMap();
                map.put("paper", "I-JVM");
            }
            String lookup(String k) { return (String) map.get(k); }
        }
        class Activator {
            static void start(BundleContext ctx) {
                ctx.registerService("dict", new Dict());
            }
        }
        "#,
        Some("Activator"),
        vec![],
        &[],
    )
    .unwrap();
    let dict2 = fw.install_bundle(desc).unwrap();
    fw.start_bundle(dict2).unwrap();
    let service = fw.get_service("dict").expect("registered");

    // Call the service from another bundle's isolate, through the shared
    // reference (host-driven, as the registry hands out references).
    let consumer_iso = fw.bundle(provider).unwrap().isolate;
    let key = fw
        .vm_mut()
        .new_string(consumer_iso, "paper")
        .expect("heap has room");
    let class = fw.vm().heap().get(service).class;
    let index = fw
        .vm()
        .class(class)
        .find_method("lookup", "(Ljava/lang/String;)Ljava/lang/String;")
        .unwrap();
    let tid = fw
        .vm_mut()
        .spawn_thread(
            "lookup",
            MethodRef { class, index },
            vec![Value::Ref(service), Value::Ref(key)],
            consumer_iso,
        )
        .unwrap();
    let _ = fw.run(Some(5_000_000));
    let result = fw.vm().thread_result(tid).expect("lookup completed");
    let Value::Ref(s) = result else {
        panic!("lookup returned {result}")
    };
    assert_eq!(fw.vm().read_string(s).as_deref(), Some("I-JVM"));
}

// ------------------------------------------------------------------
// The whole evaluation stack stays consistent across modes
// ------------------------------------------------------------------

#[test]
fn workload_results_do_not_depend_on_isolation() {
    for w in ijvm::workloads::spec::all().into_iter().take(3) {
        let a = ijvm::workloads::run_workload(&w, IsolationMode::Shared).result;
        let b = ijvm::workloads::run_workload(&w, IsolationMode::Isolated).result;
        assert_eq!(a, b, "{}", w.name);
        assert_eq!(a, w.expected, "{}", w.name);
    }
}

#[test]
fn comm_models_agree_on_results() {
    let reports = ijvm::comm::table1(40);
    let expected: i64 = (0..40).map(|i| i as i64 + 1).sum();
    for r in reports {
        assert_eq!(r.checksum, expected, "{}", r.model.name());
    }
}

#[test]
fn admin_can_run_in_vm_privileged_operations() {
    // Isolate0 may terminate bundles from inside the VM (org/osgi/Admin);
    // ordinary bundles get SecurityException.
    let mut fw = Framework::new(VmOptions::isolated());
    let victim = install(
        &mut fw,
        "victim",
        "vi",
        "class V { static int ok() { return 5; } }",
        vec![],
    );
    let rogue = install(
        &mut fw,
        "rogue",
        "ro",
        r#"
        class Try {
            static int killOther(int target) {
                try {
                    Admin.terminateBundle(target);
                    return 1;
                } catch (SecurityException e) {
                    return -1;
                }
            }
        }
        "#,
        vec![],
    );
    let loader = fw.bundle(rogue).unwrap().loader;
    let iso = fw.bundle(rogue).unwrap().isolate;
    let cid = fw.vm_mut().load_class(loader, "ro/Try").unwrap();
    let out = fw
        .vm_mut()
        .call_static_as(
            cid,
            "killOther",
            "(I)I",
            vec![Value::Int(victim.0 as i32)],
            iso,
        )
        .unwrap();
    assert_eq!(
        out,
        Some(Value::Int(-1)),
        "non-privileged isolates are refused"
    );
    assert_eq!(
        call_int(&mut fw, victim, "vi/V", "ok"),
        5,
        "victim untouched"
    );
}
