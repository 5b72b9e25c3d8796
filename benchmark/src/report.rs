//! The commands over whole sets of runs: `all` runs every workload in
//! its own child process (a clean `VmHWM`, no warmth carried from one
//! workload to the next) and writes `result.json`; `compare` applies
//! each end-to-end metric's bound per (metric, workload) row of two
//! result files; `selfcheck` runs two sets back to back and compares
//! them.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats;
use crate::workloads;
use crate::Options;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Runs one workload once in a child process and returns its result
/// line and, for an untraced run, its `extra` line.
fn run_child(opts: &Options, workload: &str, traced: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    // `output` waits for the child to end; its stderr passes through.
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&opts.out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = stdout
        .lines()
        .next_back()
        .ok_or_else(|| format!("{workload} printed nothing ({})", output.status))
        .and_then(|line| Json::parse(line).map_err(|e| format!("{workload} result line: {e}")))?;
    let extra = stdout
        .lines()
        .find_map(|l| l.strip_prefix("extra "))
        .map_or(Ok(Json::Null), Json::parse)
        .map_err(|e| format!("{workload} extra line: {e}"))?;
    for line in stdout
        .lines()
        .filter(|l| l.trim_start().starts_with("WRONG:"))
    {
        println!("{workload}{line}");
    }
    Ok((result, extra))
}

/// Values of one metric over the runs of a set, with its unit.
#[derive(Debug, Default, Clone, PartialEq)]
struct Series {
    unit: String,
    values: Vec<f64>,
}

impl Series {
    fn to_json(&self) -> Json {
        Json::obj([
            ("unit", Json::Str(self.unit.clone())),
            ("values", Json::nums(&self.values)),
        ])
    }

    fn from_json(v: &Json) -> Series {
        Series {
            unit: v
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned(),
            values: v.get("values").map(Json::as_nums).unwrap_or_default(),
        }
    }
}

type Table = BTreeMap<String, Series>;

/// Appends every `{name: {value, unit}}` of a child's metric object.
fn absorb(table: &mut Table, metrics: Option<&Json>) {
    for (name, m) in metrics.and_then(Json::as_obj).into_iter().flatten() {
        let series = table.entry(name.clone()).or_default();
        series.unit = m
            .get("unit")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_owned();
        series.values.extend(m.get("value").and_then(Json::as_f64));
    }
}

fn table_json(table: &Table) -> Json {
    Json::obj(table.iter().map(|(k, v)| (k.clone(), v.to_json())))
}

/// One workload's part of a result file.
#[derive(Debug, Default)]
struct WorkloadResult {
    attempted: f64,
    failed: f64,
    end_to_end: Table,
    informative: Table,
    per_layer: Table,
}

impl WorkloadResult {
    fn count(&mut self, result: &Json) {
        self.attempted += result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        self.failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if result.get("correct").and_then(Json::as_bool) != Some(true) {
            // A child that reports wrong output but no failed operation
            // (or no result at all) still counts as a failure.
            self.failed = self.failed.max(1.0);
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("attempted", Json::Num(self.attempted)),
            ("failed", Json::Num(self.failed)),
            ("end_to_end", table_json(&self.end_to_end)),
            ("informative", table_json(&self.informative)),
            ("per_layer", table_json(&self.per_layer)),
        ])
    }
}

/// Runs the whole set: every workload `opts.runs` times untraced and,
/// with `--trace`, once traced. Returns the result document and whether
/// every output was correct.
fn run_set(opts: &Options, label: &str) -> Result<(Json, bool), String> {
    let mut results = BTreeMap::new();
    let mut all_correct = true;
    for spec in &workloads::ALL {
        let mut w = WorkloadResult::default();
        for run in 0..opts.runs {
            eprintln!("{label}{} run {}/{} ...", spec.name, run + 1, opts.runs);
            let (result, extra) = run_child(opts, spec.name, false)?;
            w.count(&result);
            absorb(&mut w.end_to_end, result.get("metrics"));
            absorb(&mut w.informative, Some(&extra));
        }
        if opts.trace {
            eprintln!("{label}{} traced run ...", spec.name);
            let (result, _) = run_child(opts, spec.name, true)?;
            w.count(&result);
            absorb(&mut w.per_layer, result.get("metrics"));
        }
        all_correct &= w.failed == 0.0;
        print_workload(spec.name, &w);
        results.insert(spec.name, w.to_json());
    }
    let doc = Json::obj([
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("runs", Json::Num(opts.runs as f64)),
        ("workers", Json::Num(workloads::workers() as f64)),
        ("workloads", Json::obj(results)),
    ]);
    Ok((doc, all_correct))
}

fn print_workload(name: &str, w: &WorkloadResult) {
    println!(
        "== {name}: attempted {} succeeded {} failed {} (failed_share {})",
        w.attempted,
        w.attempted - w.failed,
        w.failed,
        w.failed / w.attempted.max(1.0),
    );
    let order = |table: &Table| -> Vec<(&'static str, Series)> {
        let known = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name));
        known
            .filter_map(|n| table.get(n).map(|s| (n, s.clone())))
            .collect()
    };
    for (title, table) in [
        ("end-to-end", &w.end_to_end),
        ("informative", &w.informative),
        ("per-layer (traced run)", &w.per_layer),
    ] {
        if table.is_empty() {
            continue;
        }
        println!("  {title}:");
        for (metric, series) in order(table) {
            let sorted = stats::sorted(&series.values);
            print!(
                "    {metric:<26} {:>16.6} {:<6}",
                stats::median(&sorted),
                series.unit
            );
            if sorted.len() > 1 {
                let (q1, q3) = stats::quartiles(&sorted);
                print!(" (q1 {q1:.6}, q3 {q3:.6}, n {})", sorted.len());
            }
            println!();
        }
    }
}

fn write_doc(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_string() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `all`: the one command that prints every metric of every workload
/// and writes `<out>/result.json`. `Ok(false)` if any output was wrong.
pub fn all(opts: &Options) -> Result<bool, String> {
    let (doc, correct) = run_set(opts, "")?;
    let path = opts.out.join("result.json");
    write_doc(&path, &doc)?;
    println!("wrote {}", path.display());
    if !correct {
        println!("WRONG OUTPUT: at least one operation failed its oracle");
    }
    Ok(correct)
}

/// The verdict on one (metric, workload) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The second median is worse than the first by more than the bound.
    Worse,
    /// Either side's run-to-run spread is wider than the bound, so the
    /// medians cannot show a difference that small.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one row from the two sides' values of one metric.
pub fn judge(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let (a, b) = (stats::sorted(a), stats::sorted(b));
    if stats::spread(&a) > bound || stats::spread(&b) > bound {
        Verdict::Unresolved
    } else if better.worsening(stats::median(&a), stats::median(&b)) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn side(sorted: &[f64]) -> String {
    let (q1, q3) = stats::quartiles(sorted);
    format!("{:.6} [{q1:.6}, {q3:.6}]", stats::median(sorted))
}

/// Compares two result documents row by row; returns every verdict.
fn compare(a: &Json, b: &Json) -> Vec<Verdict> {
    let mut verdicts = Vec::new();
    if a.get("workers") != b.get("workers") {
        println!("note: the two sets ran with different `workers`; their times do not compare");
    }
    println!(
        "{:<18} {:<12} {:<10} {:>9}  {:<38} {:<38}",
        "workload", "metric", "verdict", "change", "a: median [q1, q3]", "b: median [q1, q3]"
    );
    for spec in &workloads::ALL {
        let part = |doc: &Json| doc.get("workloads").and_then(|w| w.get(spec.name)).cloned();
        let (Some(wa), Some(wb)) = (part(a), part(b)) else {
            continue;
        };
        for m in &END_TO_END {
            let values = |w: &Json| {
                w.get("end_to_end")
                    .and_then(|t| t.get(m.name))
                    .map(Series::from_json)
            };
            let (Some(sa), Some(sb)) = (values(&wa), values(&wb)) else {
                continue;
            };
            let verdict = judge(m.better, m.bound, &sa.values, &sb.values);
            let (va, vb) = (stats::sorted(&sa.values), stats::sorted(&sb.values));
            println!(
                "{:<18} {:<12} {:<10} {:>+8.2}%  {:<38} {:<38}",
                spec.name,
                m.name,
                verdict.as_str(),
                m.better.worsening(stats::median(&va), stats::median(&vb)) * 100.0,
                side(&va),
                side(&vb),
            );
            verdicts.push(verdict);
        }
        // failed_share has no tolerance: any rise is a regression.
        let share = |w: &Json| {
            let n = |k: &str| w.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            n("failed") / n("attempted").max(1.0)
        };
        let (fa, fb) = (share(&wa), share(&wb));
        let verdict = if fb > fa { Verdict::Worse } else { Verdict::Ok };
        println!(
            "{:<18} {:<12} {:<10} {fa} -> {fb}",
            spec.name,
            "failed_share",
            verdict.as_str()
        );
        verdicts.push(verdict);
    }
    verdicts
}

fn summarize(verdicts: &[Verdict]) -> (usize, usize, usize) {
    let count = |v: Verdict| verdicts.iter().filter(|x| **x == v).count();
    let counts = (
        count(Verdict::Ok),
        count(Verdict::Worse),
        count(Verdict::Unresolved),
    );
    println!(
        "{} ok, {} worse, {} unresolved",
        counts.0, counts.1, counts.2
    );
    counts
}

fn read_doc(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `compare a.json b.json`: `Ok(false)` if any row is `worse`.
pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let verdicts = compare(&read_doc(a)?, &read_doc(b)?);
    if verdicts.is_empty() {
        return Err("the two files share no (metric, workload) row".to_owned());
    }
    let (_, worse, _) = summarize(&verdicts);
    Ok(worse == 0)
}

/// `selfcheck`: two full sets of the same code, back to back, compared.
/// Passes only if every row is `ok` and every output was correct.
pub fn selfcheck(opts: &Options) -> Result<bool, String> {
    let mut docs = Vec::new();
    let mut correct = true;
    for set in ["a", "b"] {
        let (doc, ok) = run_set(opts, &format!("set {set}: "))?;
        let path: PathBuf = opts.out.join(format!("selfcheck-{set}.json"));
        write_doc(&path, &doc)?;
        correct &= ok;
        docs.push(doc);
    }
    let (_, worse, unresolved) = summarize(&compare(&docs[0], &docs[1]));
    Ok(correct && worse == 0 && unresolved == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_bound_direction_and_spread() {
        let lower = Better::Lower;
        let steady = [1.00, 1.01, 1.00, 0.99, 1.00];
        assert_eq!(
            judge(lower, 0.05, &steady, &[1.03, 1.04, 1.03, 1.02, 1.03]),
            Verdict::Ok
        );
        assert_eq!(
            judge(lower, 0.05, &steady, &[1.08, 1.09, 1.08, 1.07, 1.08]),
            Verdict::Worse
        );
        assert_eq!(
            judge(lower, 0.05, &steady, &[0.5, 0.5, 0.5]),
            Verdict::Ok,
            "better is not worse"
        );
        assert_eq!(
            judge(lower, 0.05, &steady, &[0.8, 1.0, 1.2, 1.4, 1.6]),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Better::Higher, 0.05, &[100.0], &[90.0]),
            Verdict::Worse
        );
        assert_eq!(judge(Better::Higher, 0.05, &[100.0], &[110.0]), Verdict::Ok);
    }

    fn doc(run_s: &[f64], failed: f64) -> Json {
        let table = Json::obj([(
            "run_s",
            Series {
                unit: "s".to_owned(),
                values: run_s.to_vec(),
            }
            .to_json(),
        )]);
        let workload = Json::obj([
            ("attempted", Json::Num(100.0)),
            ("failed", Json::Num(failed)),
            ("end_to_end", table),
        ]);
        Json::obj([
            ("workers", Json::Num(2.0)),
            ("workloads", Json::obj([("compute", workload)])),
        ])
    }

    #[test]
    fn compare_walks_rows_and_any_new_failure_is_worse() {
        let base = doc(&[1.0, 1.0, 1.0], 0.0);
        assert_eq!(
            compare(&base, &doc(&[1.01, 1.0, 1.0], 0.0)),
            vec![Verdict::Ok, Verdict::Ok]
        );
        assert_eq!(
            compare(&base, &doc(&[1.2, 1.2, 1.2], 0.0)),
            vec![Verdict::Worse, Verdict::Ok]
        );
        assert_eq!(
            compare(&base, &doc(&[1.0, 1.0, 1.0], 1.0)),
            vec![Verdict::Ok, Verdict::Worse]
        );
        // Round trip through text, as `compare` reads files.
        let reread = Json::parse(&base.to_string()).unwrap();
        assert_eq!(compare(&reread, &base), vec![Verdict::Ok, Verdict::Ok]);
    }

    #[test]
    fn absorb_collects_values_per_metric() {
        let mut table = Table::new();
        let metrics = Json::parse(r#"{"run_s": {"value": 1.5, "unit": "s"}}"#).unwrap();
        absorb(&mut table, Some(&metrics));
        absorb(&mut table, Some(&metrics));
        absorb(&mut table, None);
        assert_eq!(
            table["run_s"],
            Series {
                unit: "s".to_owned(),
                values: vec![1.5, 1.5]
            }
        );
        assert_eq!(Series::from_json(&table["run_s"].to_json()), table["run_s"]);
    }
}
