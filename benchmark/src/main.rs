//! The repo benchmark. One workload per process:
//!
//! ```text
//! ijvm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints the workload's metrics as text and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `all`, `compare` and `selfcheck` run every
//! workload in child processes and compare result files; see
//! `benchmark/README.md`.

// The repo's clippy.toml bans wall clocks, which replay-deterministic VM
// code must not read; a timing harness exists to read them.
#![allow(clippy::disallowed_types)]

mod guest;
mod harness;
mod json;
mod metrics;
mod report;
mod rng;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  ijvm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
  ijvm-benchmark all [--seed <n>] [--seconds <s>] [--runs <n>] [--trace] [--out <dir>]
  ijvm-benchmark compare <a.json> <b.json>
  ijvm-benchmark selfcheck [--seed <n>] [--seconds <s>] [--runs <n>] [--out <dir>]
  ijvm-benchmark list";

/// Options shared by the subcommands, with the documented defaults.
#[derive(Debug)]
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub runs: usize,
    pub trace: bool,
    pub out: PathBuf,
    /// Positional arguments (the subcommand and its operands).
    pub positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: 1,
        seconds: 10.0,
        runs: 1,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => opts.workload = Some(value("a workload name")?),
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_owned())?;
            }
            "--seconds" => {
                opts.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds needs a number in (0, 600]")?;
            }
            "--runs" => {
                opts.runs = value("a number")?
                    .parse()
                    .ok()
                    .filter(|n| (1..=100).contains(n))
                    .ok_or("--runs needs a whole number from 1 to 100")?;
            }
            "--out" => opts.out = PathBuf::from(value("a directory")?),
            "--trace" => {
                // `--trace 0|1` (driver form) or a bare `--trace` flag.
                opts.trace = match it.clone().next().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => opts.positional.push(arg.clone()),
        }
    }
    Ok(opts)
}

/// Runs the one workload `--workload` names, in this process.
fn run_one(opts: &Options, name: &str) -> Result<bool, String> {
    let spec = workloads::find(name).ok_or_else(|| {
        let known: Vec<_> = workloads::ALL.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    let outcome = if opts.trace {
        harness::run_traced(spec, opts.seed, opts.seconds, &opts.out)?
    } else {
        harness::run_untraced(spec, opts.seed, opts.seconds)
    };
    println!(
        "workload {} seed {} seconds {} trace {} workers {}",
        spec.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        workloads::workers(),
    );
    for (name, value, unit) in outcome.metrics.iter().chain(&outcome.extra) {
        println!("  {name:<26} {value:>16.6} {unit}");
    }
    println!(
        "  attempted {} succeeded {} failed {}",
        outcome.attempted,
        outcome.attempted - outcome.failed,
        outcome.failed
    );
    for error in &outcome.errors {
        println!("  WRONG: {error}");
    }
    if !opts.trace {
        println!("extra {}", outcome.extra_json());
    }
    println!("{}", outcome.result_json());
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let positional: Vec<&str> = opts.positional.iter().map(String::as_str).collect();
    let result = match (opts.workload.as_deref(), positional.as_slice()) {
        (Some(name), []) => run_one(&opts, name),
        (None, ["all"]) => report::all(&opts),
        (None, ["compare", a, b]) => report::compare_files(a.as_ref(), b.as_ref()),
        (None, ["selfcheck"]) => report::selfcheck(&opts),
        (None, ["list"]) => {
            println!("workloads:");
            for w in &workloads::ALL {
                println!("  {:<26} {}", w.name, w.why);
            }
            println!("end-to-end metrics (untraced run, every workload):");
            for m in &metrics::END_TO_END {
                let (better, bound) = (m.better.as_str(), m.bound * 100.0);
                println!(
                    "  {:<26} {:<6} {better} is better, may worsen {bound}%",
                    m.name, m.unit
                );
            }
            println!("per-layer metrics (traced run; 0 where the layer is unused):");
            for m in &metrics::PER_LAYER {
                let better = m.better.as_str();
                println!(
                    "  {:<26} {:<6} {better} is better, measures {}",
                    m.name, m.unit, m.layer
                );
            }
            Ok(true)
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
