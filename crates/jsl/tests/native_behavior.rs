//! Behavioural tests of the system-library natives through compiled code.

use ijvm_core::prelude::*;
use ijvm_core::vm::Vm;
use ijvm_minijava::{compile_to_bytes, CompileEnv};

fn run(source: &str, class: &str, method: &str, args: Vec<Value>) -> (Vm, Option<Value>) {
    run_on(VmOptions::isolated(), source, class, method, args)
}

fn run_on(
    options: VmOptions,
    source: &str,
    class: &str,
    method: &str,
    args: Vec<Value>,
) -> (Vm, Option<Value>) {
    let mut vm = ijvm_jsl::boot(options);
    // The first isolate is the privileged Isolate0 (the runtime's); the
    // code under test runs as an ordinary bundle isolate.
    let _isolate0 = vm.create_isolate("runtime");
    let iso = vm.create_isolate("jsl-test");
    let loader = vm.loader_of(iso).unwrap();
    for (name, bytes) in compile_to_bytes(source, &CompileEnv::new()).unwrap() {
        vm.add_class_bytes(loader, &name, bytes);
    }
    let cid = vm.load_class(loader, class).unwrap();
    let desc = format!("({})I", "I".repeat(args.len()));
    let out = vm.call_static(cid, method, &desc, args).unwrap();
    (vm, out)
}

#[test]
fn arraycopy_all_primitive_kinds() {
    let src = r#"
        class Copy {
            static int f(int n) {
                int[] a = new int[8];
                for (int i = 0; i < 8; i++) a[i] = i * 10;
                int[] b = new int[8];
                System.arraycopy(a, 2, b, 0, 4);
                long[] la = new long[4];
                la[0] = 5L;
                la[3] = 9L;
                long[] lb = new long[4];
                System.arraycopy(la, 0, lb, 0, 4);
                char[] ca = new char[3];
                ca[0] = 'x';
                char[] cbuf = new char[3];
                System.arraycopy(ca, 0, cbuf, 0, 3);
                return b[0] + b[3] + (int) lb[3] + cbuf[0];
            }
        }
    "#;
    // b[0]=20, b[3]=50, lb[3]=9, cbuf[0]='x'=120
    let (_, out) = run(src, "Copy", "f", vec![Value::Int(0)]);
    assert_eq!(out, Some(Value::Int(20 + 50 + 9 + 120)));
}

#[test]
fn arraycopy_out_of_range_throws() {
    let src = r#"
        class Copy {
            static int f(int n) {
                int[] a = new int[4];
                int[] b = new int[4];
                try {
                    System.arraycopy(a, 2, b, 0, 4);
                    return -1;
                } catch (ArrayIndexOutOfBoundsException e) {
                    return 1;
                }
            }
        }
    "#;
    let (_, out) = run(src, "Copy", "f", vec![Value::Int(0)]);
    assert_eq!(out, Some(Value::Int(1)));
}

#[test]
fn arraycopy_rejects_negative_and_overflowing_ranges() {
    // Case n selects the bad argument; each must throw, never reach the
    // host as a slice panic.
    let src = r#"
        class Copy {
            static int f(int n) {
                int[] a = new int[4];
                int[] b = new int[4];
                try {
                    if (n == 0) System.arraycopy(a, -1, b, 0, 1);
                    if (n == 1) System.arraycopy(a, 0, b, -1, 1);
                    if (n == 2) System.arraycopy(a, 0, b, 0, -1);
                    if (n == 3) System.arraycopy(a, 1, b, 0, 2147483647);
                    if (n == 4) System.arraycopy(a, 0, b, 2147483647, 1);
                    if (n == 5) System.arraycopy(a, -2147483647 - 1, b, 0, 1);
                    return -1;
                } catch (ArrayIndexOutOfBoundsException e) {
                    return b[0] + 1;
                }
            }
        }
    "#;
    for engine in [EngineKind::Raw, EngineKind::Threaded] {
        for case in 0..6 {
            let options = VmOptions::isolated().with_engine(engine);
            let (_, out) = run_on(options, src, "Copy", "f", vec![Value::Int(case)]);
            assert_eq!(out, Some(Value::Int(1)), "{engine:?}, case {case}");
        }
    }
}

#[test]
fn hashmap_grows_past_initial_capacity() {
    let src = r#"
        class Grow {
            static int f(int n) {
                HashMap m = new HashMap();
                for (int i = 0; i < n; i++) {
                    m.put("key-" + i, "val-" + i);
                }
                int hits = 0;
                for (int i = 0; i < n; i++) {
                    String v = (String) m.get("key-" + i);
                    if (v != null && v.equals("val-" + i)) hits++;
                }
                return m.size() * 1000 + hits;
            }
        }
    "#;
    let (_, out) = run(src, "Grow", "f", vec![Value::Int(100)]);
    assert_eq!(out, Some(Value::Int(100 * 1000 + 100)));
}

#[test]
fn hashmap_remove_keeps_probe_chains_valid() {
    let src = r#"
        class Rm {
            static int f(int n) {
                HashMap m = new HashMap();
                for (int i = 0; i < 20; i++) m.put("k" + i, "v" + i);
                for (int i = 0; i < 20; i += 2) m.remove("k" + i);
                int alive = 0;
                for (int i = 0; i < 20; i++) {
                    if (m.containsKey("k" + i)) alive++;
                }
                return m.size() * 100 + alive;
            }
        }
    "#;
    let (_, out) = run(src, "Rm", "f", vec![Value::Int(0)]);
    assert_eq!(out, Some(Value::Int(10 * 100 + 10)));
}

#[test]
fn stringbuilder_grows_without_losing_prefix() {
    let src = r#"
        class Sb {
            static int f(int n) {
                StringBuilder sb = new StringBuilder();
                for (int i = 0; i < n; i++) sb.append('x');
                sb.append(123).append(true).append(4.5);
                String s = sb.toString();
                int xs = 0;
                for (int i = 0; i < s.length(); i++) {
                    if (s.charAt(i) == 'x') xs++;
                }
                return xs * 1000 + s.length();
            }
        }
    "#;
    // 200 x's + "123" + "true" + "4.5" = 200*1000 + 210
    let (_, out) = run(src, "Sb", "f", vec![Value::Int(200)]);
    assert_eq!(out, Some(Value::Int(200 * 1000 + 210)));
}

#[test]
fn arraylist_remove_shifts_elements() {
    let src = r#"
        class Al {
            static int f(int n) {
                ArrayList xs = new ArrayList();
                for (int i = 0; i < 5; i++) xs.add("e" + i);
                xs.remove(1);
                xs.remove(0);
                String first = (String) xs.get(0);
                if (!first.equals("e2")) return -1;
                return xs.size();
            }
        }
    "#;
    let (_, out) = run(src, "Al", "f", vec![Value::Int(0)]);
    assert_eq!(out, Some(Value::Int(3)));
}

#[test]
fn thread_is_alive_and_join_semantics() {
    let src = r#"
        class Sleeper implements Runnable {
            public void run() { Thread.sleep(5); }
        }
        class Th {
            static int f(int n) {
                Thread t = new Thread(new Sleeper());
                int before = 0;
                if (!t.isAlive()) before = 1; // not started yet
                t.start();
                int during = 0;
                if (t.isAlive()) during = 2;
                t.join();
                int after = 0;
                if (!t.isAlive()) after = 4;
                return before + during + after;
            }
        }
    "#;
    let (_, out) = run(src, "Th", "f", vec![Value::Int(0)]);
    assert_eq!(out, Some(Value::Int(7)));
}

#[test]
fn exit_denied_to_ordinary_bundles_in_isolated_mode() {
    let src = r#"
        class Ex {
            static int f(int n) {
                try {
                    System.exit(3);
                    return -1;
                } catch (SecurityException e) {
                    return 1;
                }
            }
        }
    "#;
    let (vm, out) = run(src, "Ex", "f", vec![Value::Int(0)]);
    assert_eq!(out, Some(Value::Int(1)));
    assert_eq!(vm.exit_code(), None, "exit must not have happened");
}

#[test]
fn math_random_is_deterministic_per_vm() {
    let src = r#"
        class Rng {
            static int f(int n) {
                int acc = 0;
                for (int i = 0; i < n; i++) {
                    double r = Math.random();
                    if (r >= 0.0 && r < 1.0) acc++;
                }
                return acc;
            }
        }
    "#;
    let (_, out1) = run(src, "Rng", "f", vec![Value::Int(50)]);
    let (_, out2) = run(src, "Rng", "f", vec![Value::Int(50)]);
    assert_eq!(out1, Some(Value::Int(50)), "all samples in [0,1)");
    assert_eq!(out1, out2, "same seed, same VM construction, same stream");
}

#[test]
fn current_time_reflects_virtual_clock() {
    let src = r#"
        class Clock {
            static int f(int n) {
                long t0 = System.nanoTime();
                int s = 0;
                for (int i = 0; i < n; i++) s += i;
                long t1 = System.nanoTime();
                if (t1 > t0) return 1;
                return 0;
            }
        }
    "#;
    let (_, out) = run(src, "Clock", "f", vec![Value::Int(10_000)]);
    assert_eq!(out, Some(Value::Int(1)));
}
