//! The metric tables: every end-to-end and per-layer metric by name, with
//! its unit, direction, how samples become one value, and — for layer
//! metrics — the layer it measures. `BENCHMARK.json` repeats the names,
//! units, directions and bounds; a test keeps the two in step.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `base` the value `new` is worse (negative when it
    /// is better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        if base == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (new - base) / base.abs(),
            Better::Higher => (base - new) / base.abs(),
        }
    }
}

/// A metric a user of the system would see; reported by the untraced run
/// on every workload.
#[derive(Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The bounds are three times the widest run-to-run spread (quartile
/// distance over median, ten seeds) seen on the reference box, where
/// memory-heavy workloads wander by 4-5 % between identical runs.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.08,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// How a layer metric's recordings become the one reported value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Median of the samples recorded over the traced repetitions (one
    /// per call for times, one per repetition for counts and gauges).
    Median,
    /// A counter's total for one cold start: the traced set-up plus the
    /// median of its per-repetition increments.
    ColdStart,
    /// Computed by the harness from the run as a whole.
    Derived,
}

/// A metric of one layer, measured from outside; reported by the traced
/// run on every workload (0 where the workload does not use the layer).
#[derive(Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The repo module(s) the metric measures.
    pub layer: &'static str,
    pub agg: Agg,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    agg: Agg,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        agg,
    }
}

use Agg::{ColdStart, Derived, Median};
use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 55] = [
    layer("compile_ms", "ms", Lower, "minijava+classfile", Median),
    layer(
        "classes_emitted",
        "count",
        Lower,
        "minijava+classfile",
        ColdStart,
    ),
    layer(
        "class_bytes",
        "bytes",
        Lower,
        "minijava+classfile",
        ColdStart,
    ),
    layer("boot_ms", "ms", Lower, "jsl", Median),
    layer("load_class_ms", "ms", Lower, "core::vm", Median),
    layer("vms_booted", "count", Lower, "jsl", ColdStart),
    layer("classes_loaded", "count", Lower, "core::vm", ColdStart),
    layer("guest_insns", "count", Lower, "core::engine", Median),
    layer("ns_per_insn", "ns", Lower, "core::engine", Median),
    layer("gc_epochs", "count", Lower, "core::gc", Median),
    layer("gc_ms", "ms", Lower, "core::gc", Median),
    layer("gc_ns_per_live_object", "ns", Lower, "core::gc", Median),
    layer("heap_used_bytes", "bytes", Lower, "core::heap", Median),
    layer("heap_live_objects", "count", Lower, "core::heap", Median),
    layer("isolate_switches", "count", Lower, "core::isolate", Median),
    layer(
        "cpu_attribution_ratio",
        "ratio",
        Higher,
        "core::accounting",
        Median,
    ),
    layer("kill_ms", "ms", Lower, "osgi+core::terminate", Median),
    layer("install_ms", "ms", Lower, "osgi", Median),
    layer("start_ms", "ms", Lower, "osgi", Median),
    layer("reinstall_ms", "ms", Lower, "osgi", Median),
    layer("slices_per_unit", "count", Lower, "core::sched", Median),
    layer("steals", "count", Lower, "core::sched", Median),
    layer("migrations", "count", Lower, "core::sched", Median),
    layer("unit_parks", "count", Lower, "core::sched", Median),
    layer("unit_unparks", "count", Lower, "core::sched", Median),
    layer(
        "ns_per_msg",
        "ns",
        Lower,
        "core::port+core::mailbox",
        Median,
    ),
    layer("calls_sent", "count", Lower, "core::port", Median),
    layer("posts_sent", "count", Lower, "core::port", Median),
    layer("replies_delivered", "count", Lower, "core::port", Median),
    layer("quota_parks", "count", Lower, "core::port", Median),
    layer("quota_unparks", "count", Lower, "core::port", Median),
    layer(
        "mailbox_high_water",
        "count",
        Lower,
        "core::mailbox",
        Median,
    ),
    layer("call_p50_ticks", "ticks", Lower, "core::port", Median),
    layer("call_p99_ticks", "ticks", Lower, "core::port", Median),
    layer(
        "wire_encode_ns_per_byte",
        "ns/B",
        Lower,
        "core::wire",
        Median,
    ),
    layer(
        "wire_decode_ns_per_byte",
        "ns/B",
        Lower,
        "core::wire",
        Median,
    ),
    layer("wire_bytes_per_msg", "bytes", Lower, "core::wire", Median),
    layer("capture_ms", "ms", Lower, "core::checkpoint", Median),
    layer("image_bytes", "bytes", Lower, "core::checkpoint", Median),
    layer("validate_ms", "ms", Lower, "core::checkpoint", Median),
    layer("restore_ms", "ms", Lower, "core::checkpoint", Median),
    layer("fork_per_unit_ms", "ms", Lower, "core::checkpoint", Median),
    layer("cold_boot_ms", "ms", Lower, "jsl+core::vm", Median),
    layer("req_p50_us", "us", Lower, "whole stack", Derived),
    layer("req_p99_us", "us", Lower, "whole stack", Derived),
    layer("req_p999_us", "us", Lower, "whole stack", Derived),
    layer("ops_per_s", "1/s", Higher, "whole stack", Derived),
    layer("run_q1_s", "s", Lower, "whole stack", Derived),
    layer("run_q3_s", "s", Lower, "whole stack", Derived),
    layer("run_hi_s", "s", Lower, "whole stack", Derived),
    layer("run_hi_pct", "%", Lower, "whole stack", Derived),
    layer("reps", "count", Higher, "whole stack", Derived),
    layer("failed_share", "ratio", Lower, "whole stack", Derived),
    layer("traced_run_s", "s", Lower, "benchmark", Derived),
    layer("trace_overhead_ratio", "ratio", Lower, "benchmark", Derived),
];

/// The setup-scoped counters: what [`Agg::ColdStart`] metrics read.
pub fn cold_start_counters() -> impl Iterator<Item = &'static str> {
    PER_LAYER
        .iter()
        .filter(|m| m.agg == Agg::ColdStart)
        .map(|m| m.name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16 && !unit.is_empty());
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Lower.worsening(10.0, 9.0) < 0.0);
        assert_eq!(Lower.worsening(0.0, 5.0), 0.0);
    }

    /// `BENCHMARK.json` at the repo root is the declaration an outside
    /// driver reads; it must say what these tables say.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let rows = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: expected an array, got {other:?}"),
        };
        let field = |row: &Json, key: &str| row.get(key).and_then(Json::as_str).map(str::to_owned);

        let declared: Vec<_> = rows("end_to_end")
            .iter()
            .map(|r| {
                (
                    field(r, "name").unwrap(),
                    field(r, "unit").unwrap(),
                    field(r, "better").unwrap(),
                    r.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let expected: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    m.better.as_str().to_owned(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(declared, expected);

        let declared: Vec<_> = rows("per_layer")
            .iter()
            .map(|r| {
                (
                    field(r, "name").unwrap(),
                    field(r, "unit").unwrap(),
                    field(r, "better").unwrap(),
                )
            })
            .collect();
        let expected: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    m.better.as_str().to_owned(),
                )
            })
            .collect();
        assert_eq!(declared, expected);

        let declared: Vec<_> = rows("workloads")
            .iter()
            .map(|r| (field(r, "name").unwrap(), field(r, "why").unwrap()))
            .collect();
        let expected: Vec<_> = crate::workloads::ALL
            .iter()
            .map(|w| (w.name.to_owned(), w.why.to_owned()))
            .collect();
        assert_eq!(declared, expected);
        assert!(expected
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
    }
}
