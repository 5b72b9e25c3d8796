//! Criterion bench for **Figure 1**: each micro-benchmark under both VM
//! configurations; the ratio between the paired entries is the figure's
//! y-axis. A second group compares the raw and threaded execution
//! engines on identical bytecode (the dispatch ablation).

use criterion::{criterion_group, criterion_main, Criterion};
use ijvm_bench::engine::{run_arith_field, run_deep_call};
use ijvm_bench::micro::{run_once, run_once_with, Micro};
use ijvm_core::engine::EngineKind;
use ijvm_core::vm::{IsolationMode, VmOptions};

fn bench_micros(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1_micro");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let iterations = 50_000;
    for micro in Micro::ALL {
        for (label, mode) in [
            ("baseline", IsolationMode::Shared),
            ("ijvm", IsolationMode::Isolated),
        ] {
            group.bench_function(format!("{}/{label}", micro.name()), |b| {
                b.iter(|| std::hint::black_box(run_once(micro, mode, iterations)))
            });
        }
    }
    group.finish();
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1_engine");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let iterations = 50_000;
    for (label, engine) in [("raw", EngineKind::Raw), ("threaded", EngineKind::Threaded)] {
        group.bench_function(format!("arith+field loop/{label}"), |b| {
            b.iter(|| std::hint::black_box(run_arith_field(engine, iterations)))
        });
        // The call micros lead the engine group: the call fast path
        // (frame pool + fused invokes) is what the A/B comparison is
        // judged on, so they need first-class visibility here.
        for micro in [
            Micro::IntraIsolateCall,
            Micro::InterIsolateCall,
            Micro::Allocation,
            Micro::StaticAccess,
        ] {
            group.bench_function(format!("{}/{label}", micro.name()), |b| {
                b.iter(|| {
                    std::hint::black_box(run_once_with(
                        micro,
                        VmOptions::isolated().with_engine(engine),
                        iterations,
                    ))
                })
            });
        }
        group.bench_function(format!("deep call chain/{label}"), |b| {
            b.iter(|| std::hint::black_box(run_deep_call(engine, iterations)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_micros, bench_engines);
criterion_main!(benches);
