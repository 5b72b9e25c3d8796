//! The bench-regression gate: compares a fresh `engine_bench` run against
//! the committed `BENCH_engine.json` floors and fails (exit 1) when any
//! baseline row's `threaded_speedup` ratio (threaded vs raw) regressed
//! beyond the tolerance. Usage:
//!
//! ```text
//! bench_gate <baseline.json> <fresh.json> [tolerance]
//! ```
//!
//! Every baseline row must hold its floor in the fresh run. `tolerance`
//! is the allowed relative slack below a baseline ratio and defaults to
//! [`ijvm_bench::GATE_TOLERANCE`] (−10%) — one constant shared with the
//! CI workflow and the docs so they cannot drift. Rows present only in
//! the fresh file (newly added benchmarks) are reported but never gate;
//! rows missing from the fresh file fail, so a benchmark cannot silently
//! disappear. The parser is hand-rolled against the one-row-per-line
//! format `engine_bench` writes — the workspace builds offline, without
//! serde.

use std::process::ExitCode;

/// One parsed benchmark row.
#[derive(Debug, Clone)]
struct Row {
    name: String,
    threaded_speedup: f64,
}

/// Extracts the string value of `"key": "..."` from a JSON row line.
fn str_field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": \"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_owned())
}

/// Extracts the numeric value of `"key": ...` from a JSON row line. The
/// search tag includes the opening quote, so `"speedup"` cannot match
/// inside `"threaded_speedup"` (no quote precedes the `speedup` suffix
/// there) — asserted by `speedup_key_is_boundary_checked`.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn parse_rows(json: &str) -> Vec<Row> {
    json.lines()
        .filter(|l| l.contains("\"name\"") && l.contains("\"threaded_speedup\""))
        .filter_map(|l| {
            Some(Row {
                name: str_field(l, "name")?,
                threaded_speedup: num_field(l, "threaded_speedup")?,
            })
        })
        .collect()
}

fn load_json(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("could not read {path}: {e}"))
}

/// Extracts the numeric value of the first `"key": ...` anywhere in the
/// document (used for the flat `"parallel"` section keys).
fn doc_num(json: &str, key: &str) -> Option<f64> {
    json.lines().find_map(|l| num_field(l, key))
}

/// Gates one row's `threaded_speedup`. Returns `true` on failure.
fn gate_row(name: &str, baseline: f64, fresh: f64, tolerance: f64) -> bool {
    let floor = baseline * (1.0 - tolerance);
    if fresh >= floor {
        println!(
            "  ok   {name:<22} threaded_speedup  {fresh:.4}x (floor {floor:.4}x, baseline {baseline:.4}x)"
        );
        false
    } else {
        println!(
            "  FAIL {name:<22} threaded_speedup  {fresh:.4}x below floor {floor:.4}x (baseline {baseline:.4}x)"
        );
        true
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (Some(baseline_path), Some(fresh_path)) = (args.next(), args.next()) else {
        eprintln!("usage: bench_gate <baseline.json> <fresh.json> [tolerance]");
        return ExitCode::FAILURE;
    };
    let tolerance: f64 = args
        .next()
        .map(|t| t.parse().expect("tolerance must be a number"))
        .unwrap_or(ijvm_bench::GATE_TOLERANCE);

    let baseline_json = load_json(&baseline_path);
    let fresh_json = load_json(&fresh_path);
    let baseline = parse_rows(&baseline_json);
    let fresh = parse_rows(&fresh_json);
    assert!(
        !baseline.is_empty(),
        "{baseline_path} contains no benchmark rows"
    );
    assert!(!fresh.is_empty(), "{fresh_path} contains no benchmark rows");

    println!(
        "bench gate: {fresh_path} vs floors in {baseline_path} (tolerance −{:.0}%)",
        tolerance * 100.0
    );
    let mut failures = 0u32;
    // Offending rows, re-listed at the end with the fresh and baseline
    // ratios so a CI log tail alone attributes the regression.
    let mut offenders: Vec<String> = Vec::new();
    for b in &baseline {
        match fresh.iter().find(|f| f.name == b.name) {
            Some(f) => {
                if gate_row(&b.name, b.threaded_speedup, f.threaded_speedup, tolerance) {
                    failures += 1;
                    offenders.push(format!(
                        "{}: fresh threaded_speedup {:.4}x | baseline {:.4}x",
                        b.name, f.threaded_speedup, b.threaded_speedup
                    ));
                }
            }
            None => {
                println!("  FAIL {:<22} missing from {fresh_path}", b.name);
                failures += 1;
                offenders.push(format!("{}: missing from the fresh run", b.name));
            }
        }
    }
    for f in &fresh {
        if !baseline.iter().any(|b| b.name == f.name) {
            println!(
                "  new  {:<22} {:.4}x (not gated; add to the baseline)",
                f.name, f.threaded_speedup
            );
        }
    }

    // Parallel-scheduler scalability gate: the committed floor applies
    // only where scaling is physically possible (>= 4 host cores —
    // single-core containers measure ~1.0x by definition).
    if let Some(floor) = doc_num(&baseline_json, "scaling_floor_4w") {
        let cpus = doc_num(&fresh_json, "host_cpus").unwrap_or(1.0);
        match doc_num(&fresh_json, "scaling_1_to_4") {
            Some(scaling) if cpus >= 4.0 => {
                if scaling >= floor {
                    println!(
                        "  ok   parallel scaling 1→4 workers: {scaling:.4}x (floor {floor:.2}x, {cpus} cpus)"
                    );
                } else {
                    println!(
                        "  FAIL parallel scaling 1→4 workers: {scaling:.4}x below floor {floor:.2}x ({cpus} cpus)"
                    );
                    failures += 1;
                    offenders.push(format!(
                        "parallel scaling 1→4 workers: fresh {scaling:.4}x, floor {floor:.2}x"
                    ));
                }
            }
            Some(scaling) => {
                println!(
                    "  skip parallel scaling 1→4 workers: {scaling:.4}x measured on {cpus} cpu(s); floor {floor:.2}x gated on >=4-core runners only"
                );
            }
            None => {
                println!("  FAIL parallel scaling section missing from {fresh_path}");
                failures += 1;
                offenders.push("parallel scaling: missing from the fresh run".to_owned());
            }
        }
    }

    // Cross-unit call-cost gate: the inter-unit service layer must stay
    // within the committed ceiling of an intra-VM cross-isolate call
    // (same box, same run, one worker — a pure mechanism ratio). This is
    // a *ceiling*, so the tolerance is applied upward.
    if let Some(max_ratio) = doc_num(&baseline_json, "cross_unit_max_ratio") {
        let ceiling = max_ratio * (1.0 + tolerance);
        match doc_num(&fresh_json, "cross_unit_ratio") {
            Some(ratio) if ratio <= ceiling => {
                println!(
                    "  ok   cross-unit call cost: {ratio:.4}x inter-isolate (ceiling {ceiling:.2}x)"
                );
            }
            Some(ratio) => {
                println!(
                    "  FAIL cross-unit call cost: {ratio:.4}x inter-isolate above ceiling {ceiling:.2}x"
                );
                failures += 1;
                offenders.push(format!(
                    "cross-unit call cost: fresh {ratio:.4}x, ceiling {ceiling:.2}x"
                ));
            }
            None => {
                println!("  FAIL cross-unit section missing from {fresh_path}");
                failures += 1;
                offenders.push("cross-unit call cost: missing from the fresh run".to_owned());
            }
        }
    }

    // Flight-recorder overhead gate: turning tracing on may slow the
    // cross-unit call micro (the recorder's worst published case — every
    // call emits hub events plus latency and CPU-charge records) by at
    // most the committed ceiling relative to the trace-off run. Another
    // ceiling, so the tolerance is applied upward. The trace-off side
    // needs no extra gate: the per-row floors above are measured with
    // tracing off, so trace-off overhead regressions already trip them.
    if let Some(max_ratio) = doc_num(&baseline_json, "trace_call_max_ratio") {
        let ceiling = max_ratio * (1.0 + tolerance);
        match doc_num(&fresh_json, "trace_call_ratio") {
            Some(ratio) if ratio <= ceiling => {
                println!(
                    "  ok   trace-on call overhead: {ratio:.4}x trace-off (ceiling {ceiling:.2}x)"
                );
            }
            Some(ratio) => {
                println!(
                    "  FAIL trace-on call overhead: {ratio:.4}x trace-off above ceiling {ceiling:.2}x"
                );
                failures += 1;
                offenders.push(format!(
                    "trace-on call overhead: fresh {ratio:.4}x, ceiling {ceiling:.2}x"
                ));
            }
            None => {
                println!("  FAIL trace section missing from {fresh_path}");
                failures += 1;
                offenders.push("trace-on call overhead: missing from the fresh run".to_owned());
            }
        }
    }

    // Saturation-latency gate: the p99 cross-unit round-trip under the
    // quota-bounded saturation workload, in *deterministic vclock
    // ticks*. Unlike the wall-clock sections this number cannot drift
    // with runner speed — the deterministic scheduler replays the same
    // delivery/coalescing schedule on every box — so a fresh p99 above
    // the ceiling means the flow-control or batching behavior itself
    // changed, not that CI was slow. Still a ceiling, so the shared
    // tolerance is applied upward.
    if let Some(max_ticks) = doc_num(&baseline_json, "sat_p99_max_ticks") {
        let ceiling = max_ticks * (1.0 + tolerance);
        match doc_num(&fresh_json, "sat_p99_ticks") {
            Some(p99) if p99 <= ceiling => {
                println!(
                    "  ok   saturation p99 round-trip: {p99:.0} ticks (ceiling {ceiling:.0} ticks)"
                );
            }
            Some(p99) => {
                println!(
                    "  FAIL saturation p99 round-trip: {p99:.0} ticks above ceiling {ceiling:.0} ticks"
                );
                failures += 1;
                offenders.push(format!(
                    "saturation p99 round-trip: fresh {p99:.0} ticks, ceiling {ceiling:.0} ticks"
                ));
            }
            None => {
                println!("  FAIL saturation section missing from {fresh_path}");
                failures += 1;
                offenders.push("saturation p99 round-trip: missing from the fresh run".to_owned());
            }
        }
    }

    // Hub-scaling flat-ratio gate: the unit-count sweep (8 → 1000+
    // units at identical per-shard pressure) must keep cross-unit wall
    // ns/call flat — the worst row over the best stays under the
    // committed ceiling. A hub whose per-message cost walked a global
    // registry or swept every mailbox would scale with unit count and
    // trip this at the 1000-unit row. Wall-clock based, so the shared
    // upward tolerance applies on top of the already-generous ceiling.
    if let Some(max_ratio) = doc_num(&baseline_json, "sat_scaling_max_ratio") {
        let ceiling = max_ratio * (1.0 + tolerance);
        match doc_num(&fresh_json, "sat_scaling_ratio") {
            Some(ratio) if ratio <= ceiling => {
                println!("  ok   hub scaling flat ratio: {ratio:.2}x (ceiling {ceiling:.2}x)");
            }
            Some(ratio) => {
                println!("  FAIL hub scaling flat ratio: {ratio:.2}x above ceiling {ceiling:.2}x");
                failures += 1;
                offenders.push(format!(
                    "hub scaling flat ratio: fresh {ratio:.2}x, ceiling {ceiling:.2}x"
                ));
            }
            None => {
                println!("  FAIL hub scaling sweep missing from {fresh_path}");
                failures += 1;
                offenders.push("hub scaling flat ratio: missing from the fresh run".to_owned());
            }
        }
    }

    // Checkpoint elasticity gate: restoring a warmed image must beat
    // the cold boot (class load + `<clinit>` + warmup) it replaces by
    // the committed floor. A floor, so the shared tolerance is applied
    // downward, like the engine speedups: both sides of the ratio run
    // back to back on the same box, cancelling runner-speed variance.
    if let Some(floor) = doc_num(&baseline_json, "restore_min_speedup") {
        let gated_floor = floor * (1.0 - tolerance);
        match doc_num(&fresh_json, "restore_speedup") {
            Some(speedup) if speedup >= gated_floor => {
                println!(
                    "  ok   checkpoint restore vs cold boot: {speedup:.2}x (floor {gated_floor:.2}x)"
                );
            }
            Some(speedup) => {
                println!(
                    "  FAIL checkpoint restore vs cold boot: {speedup:.2}x below floor {gated_floor:.2}x"
                );
                failures += 1;
                offenders.push(format!(
                    "checkpoint restore vs cold boot: fresh {speedup:.2}x, floor {gated_floor:.2}x"
                ));
            }
            None => {
                println!("  FAIL checkpoint section missing from {fresh_path}");
                failures += 1;
                offenders.push("checkpoint restore speedup: missing from the fresh run".to_owned());
            }
        }
    }

    if failures > 0 {
        eprintln!("bench gate: {failures} metric(s) regressed; offending rows:");
        for o in &offenders {
            eprintln!("  - {o}");
        }
        ExitCode::FAILURE
    } else {
        println!("bench gate: all metrics at or above their floors");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "rows": [
    {"name": "intra-isolate call", "raw_ns": 10, "threaded_ns": 7, "threaded_speedup": 1.4286, "guest_insns": 42},
    {"name": "static access", "raw_ns": 10, "threaded_ns": 5, "speedup": 1.6667, "threaded_speedup": 2.0000, "guest_insns": 42}
  ]
}"#;

    /// Rows parse whatever other keys they carry; only
    /// `threaded_speedup` is read.
    #[test]
    fn parses_rows() {
        let rows = parse_rows(SAMPLE);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "intra-isolate call");
        assert!((rows[0].threaded_speedup - 1.4286).abs() < 1e-9);
        assert_eq!(rows[1].name, "static access");
        assert!((rows[1].threaded_speedup - 2.0).abs() < 1e-9);
    }

    /// The flat `"parallel"` section keys parse from anywhere in the
    /// document, and row keys never shadow them.
    #[test]
    fn parallel_section_keys_parse() {
        let doc = r#"{
  "rows": [
    {"name": "x", "threaded_speedup": 1.5, "guest_insns": 2}
  ],
  "parallel": {
    "host_cpus": 4,
    "rows": [
      {"workers": 1, "wall_ns": 100, "scaling_vs_1w": 1.0000},
      {"workers": 4, "wall_ns": 40, "scaling_vs_1w": 2.5000}
    ],
    "scaling_1_to_4": 2.5000,
    "scaling_floor_4w": 1.5
  }
}"#;
        assert_eq!(doc_num(doc, "host_cpus"), Some(4.0));
        assert_eq!(doc_num(doc, "scaling_1_to_4"), Some(2.5));
        assert_eq!(doc_num(doc, "scaling_floor_4w"), Some(1.5));
        assert_eq!(doc_num(doc, "absent_key"), None);
    }

    /// `"cross_unit_ratio"` must not match inside
    /// `"cross_unit_max_ratio"` and vice versa (the quote-anchored tag
    /// keeps them apart regardless of field order).
    #[test]
    fn cross_unit_keys_parse_independently() {
        let doc = r#"{
  "cross_unit": {
    "calls": 4000,
    "intra_vm_ns_per_call": 130.0,
    "cross_unit_ns_per_call": 1290.0,
    "cross_unit_max_ratio": 10.0,
    "cross_unit_ratio": 9.9231
  }
}"#;
        assert!((doc_num(doc, "cross_unit_ratio").unwrap() - 9.9231).abs() < 1e-9);
        assert!((doc_num(doc, "cross_unit_max_ratio").unwrap() - 10.0).abs() < 1e-9);
    }

    /// Same independence for the `"trace"` section keys: the
    /// quote-anchored tag keeps `"trace_call_ratio"` from matching
    /// inside `"trace_call_max_ratio"` regardless of field order.
    #[test]
    fn trace_keys_parse_independently() {
        let doc = r#"{
  "trace": {
    "trace_iterations": 200000,
    "trace_call_max_ratio": 1.5,
    "trace_call_ratio": 1.2345,
    "trace_arith_ratio": 1.0123
  }
}"#;
        assert!((doc_num(doc, "trace_call_ratio").unwrap() - 1.2345).abs() < 1e-9);
        assert!((doc_num(doc, "trace_call_max_ratio").unwrap() - 1.5).abs() < 1e-9);
        assert!((doc_num(doc, "trace_arith_ratio").unwrap() - 1.0123).abs() < 1e-9);
    }

    /// Same independence for the `"saturation"` section keys:
    /// `"sat_p99_ticks"` must not match inside `"sat_p99_max_ticks"`
    /// regardless of field order.
    #[test]
    fn saturation_keys_parse_independently() {
        let doc = r#"{
  "saturation": {
    "sat_units": 200,
    "sat_p99_max_ticks": 4096,
    "sat_p99_ticks": 2048,
    "sat_p50_ticks": 2048
  }
}"#;
        assert!((doc_num(doc, "sat_p99_ticks").unwrap() - 2048.0).abs() < 1e-9);
        assert!((doc_num(doc, "sat_p99_max_ticks").unwrap() - 4096.0).abs() < 1e-9);
        assert!((doc_num(doc, "sat_p50_ticks").unwrap() - 2048.0).abs() < 1e-9);
    }

    /// The scaling-sweep keys follow the same discipline:
    /// `"sat_scaling_ratio"` must not match inside
    /// `"sat_scaling_max_ratio"`, and the `sweep_`-prefixed per-row
    /// keys inside the `sat_scaling` array can never shadow a scalar.
    #[test]
    fn scaling_sweep_keys_parse_independently() {
        let doc = r#"{
  "saturation": {
    "sat_scaling": [
      { "sweep_units": 8, "sweep_ns_per_msg": 750.0 },
      { "sweep_units": 1000, "sweep_ns_per_msg": 800.0 }
    ],
    "sat_scaling_max_ratio": 3.00,
    "sat_scaling_ratio": 1.067
  }
}"#;
        assert!((doc_num(doc, "sat_scaling_ratio").unwrap() - 1.067).abs() < 1e-9);
        assert!((doc_num(doc, "sat_scaling_max_ratio").unwrap() - 3.0).abs() < 1e-9);
    }

    /// `"speedup"` must not match the tail of `"threaded_speedup"`, even
    /// if a writer reorders the fields.
    #[test]
    fn speedup_key_is_boundary_checked() {
        let line = r#"{"name": "x", "threaded_speedup": 2.0, "speedup": 1.5}"#;
        assert!((num_field(line, "speedup").unwrap() - 1.5).abs() < 1e-9);
        assert!((num_field(line, "threaded_speedup").unwrap() - 2.0).abs() < 1e-9);
    }
}
