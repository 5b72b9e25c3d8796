//! Framework behaviour around events, service lifecycle and profiles.

use ijvm_core::prelude::*;
use ijvm_osgi::{profiles, BundleDescriptor, Framework};

#[test]
fn stopped_bundle_events_reach_listeners() {
    // Paper §3.4 rule 3: the runtime sends a StoppedBundleEvent to all
    // bundles when a bundle is killed, so they can release references.
    let mut fw = Framework::new(VmOptions::isolated());

    let watcher = fw
        .install_bundle(
            BundleDescriptor::from_source(
                "watcher",
                "wa",
                r#"
                class Watch implements BundleListener {
                    static int stoppedBundle = -1;
                    public void bundleStopped(int id) {
                        stoppedBundle = id;
                    }
                }
                class Activator {
                    static void start(BundleContext ctx) {
                        ctx.addBundleListener(new Watch());
                    }
                }
                "#,
                Some("Activator"),
                vec![],
                &[],
            )
            .unwrap(),
        )
        .unwrap();
    fw.start_bundle(watcher).unwrap();

    let doomed = fw
        .install_bundle(
            BundleDescriptor::from_source(
                "doomed",
                "do",
                r#"
                class Activator {
                    static void start(BundleContext ctx) { ctx.log("up"); }
                }
                "#,
                Some("Activator"),
                vec![],
                &[],
            )
            .unwrap(),
        )
        .unwrap();
    fw.start_bundle(doomed).unwrap();
    fw.kill_bundle(doomed).unwrap();

    // The watcher's static records which bundle stopped.
    let loader = fw.bundle(watcher).unwrap().loader;
    let iso = fw.bundle(watcher).unwrap().isolate;
    let class = fw.vm_mut().load_class(loader, "wa/Watch").unwrap();
    let slot = fw
        .vm()
        .class(class)
        .find_static_slot("stoppedBundle")
        .unwrap();
    let mi = iso.0 as usize;
    let seen = fw.vm().class(class).mirrors[mi]
        .as_ref()
        .expect("watcher mirror initialized by its activator")
        .statics[slot as usize];
    assert_eq!(seen, Value::Int(doomed.0 as i32));
}

#[test]
fn services_can_be_replaced() {
    let mut fw = Framework::new(VmOptions::isolated());
    let bundle = fw
        .install_bundle(
            BundleDescriptor::from_source(
                "versions",
                "ve",
                r#"
                class V1 { int version() { return 1; } }
                class V2 { int version() { return 2; } }
                class Activator {
                    static void start(BundleContext ctx) {
                        ctx.registerService("svc", new V1());
                        ctx.registerService("svc", new V2());
                    }
                }
                "#,
                Some("Activator"),
                vec![],
                &[],
            )
            .unwrap(),
        )
        .unwrap();
    fw.start_bundle(bundle).unwrap();
    let svc = fw.get_service("svc").unwrap();
    let class_name = fw
        .vm()
        .class(fw.vm().heap().get(svc).class)
        .name
        .to_string();
    assert_eq!(class_name, "ve/V2", "re-registration replaces the entry");
    assert_eq!(fw.service_names(), vec!["svc".to_owned()]);
}

#[test]
fn killing_one_bundle_leaves_profiles_running() {
    let (mut fw, ids) = profiles::felix_base(VmOptions::isolated()).unwrap();
    fw.kill_bundle(ids[1]).unwrap(); // shell
    assert!(fw.get_service("shell").is_none());
    assert!(fw.get_service("admin").is_some());
    assert!(fw.get_service("repository").is_some());
}

#[test]
fn memory_overhead_is_isolated_mode_only() {
    // The Figure 3 signal at test scale: metadata grows with isolation on.
    let (mut fw_shared, _) = profiles::felix_base(VmOptions::shared()).unwrap();
    let (mut fw_iso, _) = profiles::felix_base(VmOptions::isolated()).unwrap();
    fw_shared.vm_mut().collect_garbage(None);
    fw_iso.vm_mut().collect_garbage(None);
    let shared_total = fw_shared.vm().heap_used() + fw_shared.vm().metadata_bytes();
    let iso_total = fw_iso.vm().heap_used() + fw_iso.vm().metadata_bytes();
    assert!(
        iso_total > shared_total,
        "isolation costs memory: {iso_total} vs {shared_total}"
    );
    let overhead = iso_total as f64 / shared_total as f64 - 1.0;
    assert!(
        overhead < 0.20,
        "overhead {:.1}% within the paper's bound",
        overhead * 100.0
    );
}

#[test]
fn kill_and_reinstall_reuses_thread_slots() {
    // Each cycle runs an activator and a bundle-stopped event on fresh
    // threads (paper §3.4 rules 1 and 3). Both give their slots back once
    // finished, so the thread table stops growing after the first cycle.
    let mut fw = Framework::new(VmOptions::isolated());
    let watcher = fw
        .install_bundle(
            BundleDescriptor::from_source(
                "watcher",
                "wa",
                r#"
                class Watch implements BundleListener {
                    static int stopped = 0;
                    public void bundleStopped(int id) { stopped = stopped + 1; }
                }
                class Activator {
                    static void start(BundleContext ctx) {
                        ctx.addBundleListener(new Watch());
                    }
                }
                "#,
                Some("Activator"),
                vec![],
                &[],
            )
            .unwrap(),
        )
        .unwrap();
    fw.start_bundle(watcher).unwrap();

    const CYCLES: usize = 20;
    let mut slots = Vec::new();
    for _ in 0..CYCLES {
        let doomed = fw
            .install_bundle(
                BundleDescriptor::from_source(
                    "doomed",
                    "do",
                    r#"
                    class Plain { int version() { return 1; } }
                    class Activator {
                        static void start(BundleContext ctx) {
                            ctx.registerService("plain", new Plain());
                        }
                    }
                    "#,
                    Some("Activator"),
                    vec![],
                    &[],
                )
                .unwrap(),
            )
            .unwrap();
        assert_eq!(fw.start_bundle(doomed).unwrap(), RunOutcome::Idle);
        fw.kill_bundle(doomed).unwrap();
        fw.vm_mut().collect_garbage(None);
        slots.push(fw.vm().thread_count());
    }
    assert!(
        slots.iter().all(|&n| n == slots[0]),
        "thread slots per cycle: {slots:?}"
    );
    let created: u64 = fw
        .vm()
        .metrics()
        .isolates
        .iter()
        .map(|s| s.stats.threads_created)
        .sum();
    // The watcher's activator, then one activator and one event per cycle.
    assert_eq!(created, 1 + 2 * CYCLES as u64, "threads created");
}
