//! Flight-recorder overhead: the same micro measured trace-off vs
//! trace-on ([`TraceConfig::Full`]), everything else identical.
//!
//! Two rows, chosen to bracket the recorder's cost profile:
//!
//! * **arith+field loop** — the trace-off side exercises only the
//!   cached `trace_enabled` branch on the quantum/charge paths (the
//!   hot dispatch loop itself carries no per-instruction check); the
//!   trace-on side additionally bumps the profiling counters on every
//!   method entry and backward branch. This is the "tracing off must
//!   be free" witness: the engine rows gated against the committed
//!   floors are measured trace-off, so any trace-off regression already
//!   trips those floors.
//! * **cross-unit call micro** — the same workload the `cross_unit`
//!   ceiling is gated on, re-run with the recorder on. Every call
//!   crosses the hub (CallSend/CallDeliver/ReplySend/ReplyDeliver
//!   events plus latency histogram plus CPU-charge events at the copy
//!   sites), so this is the recorder's worst published case; the gated
//!   contract is `trace-on ≤ TRACE_CALL_MAX_RATIO × trace-off`.
//!
//! The ratios (not wall times) are what `bench_gate` reads, so
//! runner-speed variance cancels: both sides of each ratio run on the
//! same box, back to back, alternating rounds.

use crate::engine::{run_spin_class_with, ARITH_FIELD_SRC};
use ijvm_comm::models::measure_cross_unit_with;
use ijvm_core::trace::TraceConfig;
use ijvm_core::vm::VmOptions;

/// The gated ceiling: with the flight recorder on, the cross-unit call
/// micro may cost at most this many times its trace-off run.
pub const TRACE_CALL_MAX_RATIO: f64 = 1.5;

/// One measurement of flight-recorder overhead: best-of-runs wall times
/// for both micros, trace-off and trace-on.
#[derive(Debug, Clone)]
pub struct TraceOverheadReport {
    /// Iterations of the arithmetic/field loop.
    pub iterations: i32,
    /// Calls in the cross-unit batch.
    pub calls: u32,
    /// Best arith+field wall time with tracing off.
    pub arith_off_ns: f64,
    /// Best arith+field wall time with tracing on.
    pub arith_on_ns: f64,
    /// Best cross-unit ns/call with tracing off.
    pub call_off_ns: f64,
    /// Best cross-unit ns/call with tracing on.
    pub call_on_ns: f64,
}

impl TraceOverheadReport {
    /// `trace-on / trace-off` on the arithmetic loop (1.0 = free).
    pub fn arith_ratio(&self) -> f64 {
        self.arith_on_ns / self.arith_off_ns.max(f64::MIN_POSITIVE)
    }

    /// `trace-on / trace-off` on the cross-unit call micro — the gated
    /// ratio.
    pub fn call_ratio(&self) -> f64 {
        self.call_on_ns / self.call_off_ns.max(f64::MIN_POSITIVE)
    }
}

/// Options for one side of the comparison: the default (threaded)
/// engine, isolated mode, recorder toggled.
fn side_options(traced: bool) -> VmOptions {
    let options = VmOptions::isolated();
    if traced {
        options.with_trace(TraceConfig::Full)
    } else {
        options
    }
}

/// Measures both micros trace-off and trace-on, alternating `runs`
/// rounds and keeping the fastest of each side (minimum is robust
/// against scheduler and frequency noise).
pub fn measure_trace_overhead(iterations: i32, calls: u32, runs: u32) -> TraceOverheadReport {
    let mut best = [f64::MAX; 4];
    for _ in 0..runs.max(1) {
        for (i, traced) in [false, true].into_iter().enumerate() {
            let (d, _) = run_spin_class_with(
                ARITH_FIELD_SRC,
                "ArithField",
                side_options(traced),
                iterations,
            );
            best[i] = best[i].min(d.as_nanos() as f64);
            let call = measure_cross_unit_with(calls, side_options(traced));
            best[2 + i] = best[2 + i].min(call.ns_per_call());
        }
    }
    TraceOverheadReport {
        iterations,
        calls,
        arith_off_ns: best[0],
        arith_on_ns: best[1],
        call_off_ns: best[2],
        call_on_ns: best[3],
    }
}

/// Pretty-prints the report.
pub fn print_trace_overhead(report: &TraceOverheadReport) {
    println!(
        "\n== Flight-recorder overhead: trace-off vs trace-on ({} iterations / {} calls) ==",
        report.iterations, report.calls
    );
    println!(
        "{:<22} {:>14} {:>14} {:>8}",
        "micro", "trace-off", "trace-on", "ratio"
    );
    println!(
        "{:<22} {:>14} {:>14} {:>7.3}x",
        "arith+field loop",
        format!("{:.0} ns", report.arith_off_ns),
        format!("{:.0} ns", report.arith_on_ns),
        report.arith_ratio(),
    );
    println!(
        "{:<22} {:>14} {:>14} {:>7.3}x (gated ceiling {:.1}x)",
        "cross-unit call",
        format!("{:.0} ns/call", report.call_off_ns),
        format!("{:.0} ns/call", report.call_on_ns),
        report.call_ratio(),
        TRACE_CALL_MAX_RATIO,
    );
}

/// Serializes the report as the `"trace"` section of
/// `BENCH_engine.json` (hand-rolled, like the rest — no serde offline).
/// The keys are flat and `trace_`-prefixed so `bench_gate`'s
/// whole-document key lookup finds them without a structural parser;
/// none of these lines carries both `"name"` and `"threaded_speedup"`,
/// so they stay out of the per-row floor gate.
pub fn trace_to_json(report: &TraceOverheadReport) -> String {
    let mut out = String::from("  \"trace\": {\n");
    out.push_str(&format!(
        "    \"trace_iterations\": {},\n",
        report.iterations
    ));
    out.push_str(&format!("    \"trace_calls\": {},\n", report.calls));
    out.push_str(&format!(
        "    \"trace_arith_off_ns\": {:.1},\n",
        report.arith_off_ns
    ));
    out.push_str(&format!(
        "    \"trace_arith_on_ns\": {:.1},\n",
        report.arith_on_ns
    ));
    out.push_str(&format!(
        "    \"trace_arith_ratio\": {:.4},\n",
        report.arith_ratio()
    ));
    out.push_str(&format!(
        "    \"trace_call_off_ns\": {:.1},\n",
        report.call_off_ns
    ));
    out.push_str(&format!(
        "    \"trace_call_on_ns\": {:.1},\n",
        report.call_on_ns
    ));
    out.push_str(&format!(
        "    \"trace_call_ratio\": {:.4},\n",
        report.call_ratio()
    ));
    out.push_str(&format!(
        "    \"trace_call_max_ratio\": {TRACE_CALL_MAX_RATIO}\n"
    ));
    out.push_str("  }");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gated ratio is on-over-off, and the JSON section carries the
    /// ceiling constant next to the measurement.
    #[test]
    fn ratios_and_json_shape() {
        let report = TraceOverheadReport {
            iterations: 1000,
            calls: 100,
            arith_off_ns: 1000.0,
            arith_on_ns: 1100.0,
            call_off_ns: 2000.0,
            call_on_ns: 2500.0,
        };
        assert!((report.arith_ratio() - 1.1).abs() < 1e-9);
        assert!((report.call_ratio() - 1.25).abs() < 1e-9);
        let json = trace_to_json(&report);
        assert!(json.contains("\"trace_call_ratio\": 1.2500"));
        assert!(json.contains("\"trace_call_max_ratio\": 1.5"));
        // Must never be picked up by bench_gate's per-row floor parser.
        for line in json.lines() {
            assert!(!(line.contains("\"name\"") && line.contains("\"threaded_speedup\"")));
        }
    }

    /// A tiny end-to-end measurement: both sides run, ratios are finite
    /// and positive (no perf assertion — that's the CI gate's job on
    /// release builds).
    #[test]
    fn measures_smoke() {
        let report = measure_trace_overhead(2_000, 40, 1);
        assert!(report.arith_ratio().is_finite() && report.arith_ratio() > 0.0);
        assert!(report.call_ratio().is_finite() && report.call_ratio() > 0.0);
    }
}
