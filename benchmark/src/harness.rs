//! Runs one workload in this process: set-up (several times, for a
//! steady `setup_s`), timed repetitions of the fixed work, and — on a
//! traced run — a second, traced phase whose spans and counters give the
//! per-layer metrics and the tracing overhead.

use crate::json::Json;
use crate::metrics::{self, Agg, END_TO_END, PER_LAYER};
use crate::spans::{self, Recorder};
use crate::stats::{self, Pct};
use crate::workloads::{Size, Spec, Workload};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Instances per untraced run; `setup_s` is the median of their set-ups.
const SETUPS: usize = 3;
/// Fewest timed repetitions of one instance, however slow.
const MIN_REPS: usize = 5;
/// Share of a traced run's time spent on its untraced baseline phase.
const BASELINE_SHARE: f64 = 0.3;

/// One measured phase: a recorder, set-up times and repetition times.
struct Phase {
    rec: Recorder,
    setup_s: Vec<f64>,
    walls_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// How much each cold-start counter grew over the (last) set-up.
    setup_sums: BTreeMap<&'static str, f64>,
    /// Per repetition, how much each cold-start counter grew.
    rep_sums: BTreeMap<&'static str, Vec<f64>>,
}

impl Phase {
    fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool, setups: usize) -> Phase {
        let mut phase = Phase {
            rec: Recorder::new(traced),
            setup_s: Vec::new(),
            walls_s: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            setup_sums: BTreeMap::new(),
            rep_sums: BTreeMap::new(),
        };
        // Several instances, each set up afresh and given an equal share
        // of the time: `setup_s` gets its samples, and `run_s` pools the
        // repetitions of them all.
        let mut workload: Option<Box<dyn Workload>> = None;
        for _ in 0..setups {
            // Free the previous instance first, so peak memory is one
            // workload's, not two.
            drop(workload.take());
            phase.rec.next_trace();
            let before = cold_start_counts(&phase.rec);
            let span = phase.rec.begin("setup");
            let mut fresh = (spec.setup)(seed, Size::Full, &mut phase.rec);
            phase.setup_sums = growth(&phase.rec, before).collect();
            // One untimed warm-up repetition ends the set-up: caches
            // fill and lazy class loading finishes before timing. Its
            // outputs are checked; its samples are not kept.
            let warm_span = phase.rec.begin("warm-up repetition");
            let warm = fresh.repetition(&mut Recorder::new(false));
            phase.rec.end(warm_span);
            phase.setup_s.push(phase.rec.end(span).as_secs_f64());
            phase.count(&warm);
            phase.repeat(fresh.as_mut(), seconds, seconds / setups as f64);
            workload = Some(fresh);
        }
        phase
    }

    /// Timed repetitions of one instance: the count the workload plans
    /// for a run of `run_seconds`, else until `budget_seconds` are up.
    fn repeat(&mut self, workload: &mut dyn Workload, run_seconds: f64, budget_seconds: f64) {
        let planned = workload.planned_repetitions(run_seconds);
        let budget = Duration::from_secs_f64(budget_seconds);
        let start = Instant::now();
        let mut done = 0;
        loop {
            let more = match planned {
                Some(n) => done < n,
                None => done < MIN_REPS || start.elapsed() < budget,
            };
            if !more {
                break;
            }
            let before = cold_start_counts(&self.rec);
            let rep = workload.repetition(&mut self.rec);
            for (name, grew) in growth(&self.rec, before) {
                self.rep_sums.entry(name).or_default().push(grew);
            }
            let insns = workload.guest_insns() as f64;
            self.rec.sample("guest_insns", insns);
            self.rec
                .sample("ns_per_insn", rep.wall.as_nanos() as f64 / insns.max(1.0));
            self.walls_s.push(rep.wall.as_secs_f64());
            self.count(&rep);
            done += 1;
        }
    }

    fn count(&mut self, rep: &crate::workloads::Rep) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        let room = 8usize.saturating_sub(self.errors.len());
        self.errors.extend(rep.errors.iter().take(room).cloned());
    }

    fn run_s(&self) -> f64 {
        stats::median_of(&self.walls_s)
    }
}

/// The current totals of the cold-start counters, in table order.
fn cold_start_counts(rec: &Recorder) -> Vec<f64> {
    metrics::cold_start_counters()
        .map(|name| rec.sum(name))
        .collect()
}

/// How much each cold-start counter grew since `before` was taken.
fn growth(rec: &Recorder, before: Vec<f64>) -> impl Iterator<Item = (&'static str, f64)> + '_ {
    metrics::cold_start_counters()
        .zip(before)
        .map(|(name, was)| (name, rec.sum(name) - was))
}

/// What one run of one workload reports.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// The metrics the run is asked for, by name: every end-to-end
    /// metric (untraced) or every per-layer metric (traced).
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Informative values of an untraced run that are not end-to-end
    /// metrics (quartiles, sample count, request latency, ...).
    pub extra: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line result an outside driver reads.
    pub fn result_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metric_object(&self.metrics)),
        ])
    }

    pub fn extra_json(&self) -> Json {
        metric_object(&self.extra)
    }
}

fn metric_object(rows: &[(&'static str, f64, &'static str)]) -> Json {
    Json::obj(rows.iter().map(|(name, value, unit)| {
        (
            *name,
            Json::obj([
                ("value", Json::Num(*value)),
                ("unit", Json::Str((*unit).to_owned())),
            ]),
        )
    }))
}

/// Values derived from a phase's repetition times and request samples.
fn derived(phase: &Phase) -> BTreeMap<&'static str, f64> {
    let walls = stats::sorted(&phase.walls_s);
    let run_s = stats::median(&walls);
    let (q1, q3) = stats::quartiles(&walls);
    let mut out = BTreeMap::new();
    out.insert("run_q1_s", q1);
    out.insert("run_q3_s", q3);
    if let Some(p) = stats::highest_percentile(walls.len()) {
        out.insert("run_hi_s", stats::percentile(&walls, p));
        out.insert("run_hi_pct", p.0 as f64 / 100.0);
    }
    out.insert("reps", walls.len() as f64);
    let ops_per_rep = phase.attempted as f64 / (walls.len() + phase.setup_s.len()) as f64;
    if run_s > 0.0 {
        out.insert("ops_per_s", ops_per_rep / run_s);
    }
    out.insert(
        "failed_share",
        phase.failed as f64 / (phase.attempted as f64).max(1.0),
    );
    let requests = stats::sorted(phase.rec.samples("req_us"));
    if !requests.is_empty() {
        out.insert("req_p50_us", stats::percentile(&requests, Pct::P50));
        out.insert("req_p99_us", stats::percentile(&requests, Pct::P99));
        out.insert("req_p999_us", stats::percentile(&requests, Pct::P999));
    }
    out
}

/// `VmHWM` of this process in MiB: the most memory it ever held.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The untraced run: end-to-end metrics.
pub fn run_untraced(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let phase = Phase::run(spec, seed, seconds, false, SETUPS);
    let end_to_end = |name: &str| match name {
        "run_s" => phase.run_s(),
        "setup_s" => stats::median_of(&phase.setup_s),
        "peak_rss_mb" => peak_rss_mb(),
        other => unreachable!("end-to-end metric {other} has no measurement"),
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| (m.name, end_to_end(m.name), m.unit))
        .collect();
    let values = derived(&phase);
    let extra = PER_LAYER
        .iter()
        .filter_map(|m| values.get(m.name).map(|v| (m.name, *v, m.unit)))
        .collect();
    Outcome {
        attempted: phase.attempted,
        failed: phase.failed,
        errors: phase.errors,
        metrics,
        extra,
    }
}

/// The traced run: an untraced baseline phase, then a traced phase whose
/// spans and counters give every per-layer metric. Writes the spans to
/// `<out_dir>/trace-<workload>.json`.
pub fn run_traced(spec: &Spec, seed: u64, seconds: f64, out_dir: &Path) -> Result<Outcome, String> {
    let baseline = Phase::run(spec, seed, seconds * BASELINE_SHARE, false, 1);
    let traced = Phase::run(spec, seed, seconds * (1.0 - BASELINE_SHARE), true, 1);

    let mut values = derived(&traced);
    values.insert("traced_run_s", traced.run_s());
    // Compare like with like: where a repetition's cost depends on how
    // many came before, only the first k of each phase are comparable.
    let k = baseline.walls_s.len().min(traced.walls_s.len());
    let first_k = |phase: &Phase| stats::median_of(&phase.walls_s[..k]);
    if first_k(&baseline) > 0.0 {
        values.insert(
            "trace_overhead_ratio",
            first_k(&traced) / first_k(&baseline),
        );
    }
    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|m| {
            let value = match m.agg {
                // No samples: the workload does not use the layer.
                Agg::Median => stats::median_of(traced.rec.samples(m.name)),
                Agg::ColdStart => {
                    let per_rep = traced.rep_sums.get(m.name).map_or(&[][..], Vec::as_slice);
                    traced.setup_sums.get(m.name).copied().unwrap_or(0.0)
                        + stats::median_of(per_rep)
                }
                Agg::Derived => values.get(m.name).copied().unwrap_or(0.0),
            };
            (m.name, value, m.unit)
        })
        .collect();

    let file = out_dir.join(format!("trace-{}.json", spec.name));
    std::fs::create_dir_all(out_dir)
        .and_then(|()| {
            let doc = spans::trace_json(spec.name, &traced.rec, metric_object(&metrics));
            std::fs::write(&file, doc.to_string() + "\n")
        })
        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;

    let mut errors = baseline.errors;
    errors.extend(traced.errors);
    Ok(Outcome {
        attempted: baseline.attempted + traced.attempted,
        failed: baseline.failed + traced.failed,
        errors,
        metrics,
        extra: Vec::new(),
    })
}
