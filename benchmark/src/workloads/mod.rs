//! The six workloads. Each module holds the guest source it runs (under
//! `guest/`), the host-side mirror that predicts every guest result in
//! wrapping `i32` arithmetic from the same seed, and the repetition that
//! times the calls into the layers from outside.

pub mod alloc_churn;
pub mod cluster_bulk;
pub mod cluster_rpc;
pub mod compute;
pub mod elastic_fork;
pub mod gateway_requests;

use crate::guest;
use crate::spans::Recorder;
use ijvm_core::prelude::*;
use std::time::Duration;

/// How much work a workload does: the measured size, or a tiny one for
/// the tests that check guest against mirror.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// What one timed repetition did.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall time of the repetition's fixed work.
    pub wall: Duration,
    /// Operations attempted (kernel calls, requests, messages, ...).
    pub attempted: u64,
    /// Operations whose result differed from the oracle, that raised, or
    /// whose unit did not finish.
    pub failed: u64,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
}

impl Rep {
    /// Counts one operation, failed with `error` if it is `Some`.
    pub fn op(&mut self, error: Option<String>) {
        self.ops(1, error);
    }

    /// Counts `n` operations that stand or fall together (a client's
    /// message fold): all failed if `error` is `Some`.
    pub fn ops(&mut self, n: u64, error: Option<String>) {
        self.attempted += n;
        if let Some(e) = error {
            self.failed += n;
            if self.errors.len() < 4 {
                self.errors.push(e);
            }
        }
    }

    /// Counts one operation that must produce `expected`.
    pub fn check(&mut self, what: &str, got: Result<i32, String>, expected: i32) {
        self.op(mismatch(what, got, expected));
    }
}

/// `Some(description)` unless `got` is `Ok(expected)`.
pub fn mismatch(what: &str, got: Result<i32, String>, expected: i32) -> Option<String> {
    match got {
        Ok(v) if v == expected => None,
        Ok(v) => Some(format!("{what}: got {v}, oracle says {expected}")),
        Err(e) => Some(format!("{what}: {e}")),
    }
}

/// A set-up workload: every call is one repetition of its fixed work.
pub trait Workload {
    fn repetition(&mut self, rec: &mut Recorder) -> Rep;

    /// Guest instructions of the last repetition (`Vm::vclock` deltas) —
    /// what must repeat exactly for a seed where scheduling is
    /// deterministic.
    fn guest_insns(&self) -> u64;

    /// How many repetitions a run of `seconds` makes, for a workload
    /// whose cost per repetition depends on how many came before and so
    /// must run a fixed count; `None` runs repetitions until time is up.
    fn planned_repetitions(&self, _seconds: f64) -> Option<usize> {
        None
    }
}

/// A workload's name, the reason it exists, and its set-up.
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Whether `guest_insns` must repeat exactly for a seed (single-VM
    /// and `Deterministic` workloads).
    #[cfg_attr(not(test), allow(dead_code))]
    pub deterministic: bool,
    pub setup: fn(seed: u64, size: Size, rec: &mut Recorder) -> Box<dyn Workload>,
}

/// Every workload, in reporting order. Names and reasons are fixed:
/// `BENCHMARK.json` repeats them and later changes cite them.
pub const ALL: [Spec; 6] = [
    Spec {
        name: "compute",
        why: "engine only: three allocation-free loop/call/array kernels in one isolate; a JIT must show here, a hub or heap change must not",
        deterministic: true,
        setup: compute::setup,
    },
    Spec {
        name: "alloc_churn",
        why: "heap and GC: eight isolates keep live sets while churning mixed-size garbage that fragments the slab; the engine is the minor term",
        deterministic: true,
        setup: alloc_churn::setup,
    },
    Spec {
        name: "gateway_requests",
        why: "the paper's scenario: host requests through four inter-bundle calls on a 16-bundle framework, with bundle kill and reinstall under way",
        deterministic: true,
        setup: gateway_requests::setup,
    },
    Spec {
        name: "cluster_rpc",
        why: "hub routing: 32 units exchange int messages, blocking and pipelined, under a mailbox quota that parks senders; wire bytes negligible",
        deterministic: false,
        setup: cluster_rpc::setup,
    },
    Spec {
        name: "cluster_bulk",
        why: "wire codec: four units echo strings and int arrays of 64 B to 16 KiB through the same hub; copying dominates, routing is minor",
        deterministic: true,
        setup: cluster_bulk::setup,
    },
    Spec {
        name: "elastic_fork",
        why: "checkpoint and restore: capture a warmed 1 MiB unit, validate the image, fork 16 clones and call each, beside one cold boot",
        deterministic: true,
        setup: elastic_fork::setup,
    },
];

/// The workload named `name`.
pub fn find(name: &str) -> Option<&'static Spec> {
    ALL.iter().find(|s| s.name == name)
}

/// Worker threads of the one `Parallel` workload: `min(2, nproc)`.
/// Results compare only at equal `workers`.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// A single VM's always-on counters when a repetition starts.
#[derive(Debug, Clone, Copy)]
pub struct VmMarks {
    clock: u64,
    epochs: u64,
    switches: u64,
}

impl VmMarks {
    pub fn of(vm: &Vm) -> VmMarks {
        VmMarks {
            clock: vm.vclock(),
            epochs: vm.gc_count(),
            switches: vm.migrations(),
        }
    }

    /// Samples what the repetition since these marks did to the engine,
    /// heap and isolate layers of `vm`; returns `(guest instructions,
    /// collections)`.
    pub fn sample_since(self, rec: &mut Recorder, vm: &mut Vm) -> (u64, u64) {
        let gc_epochs = vm.gc_count() - self.epochs;
        rec.sample("gc_epochs", gc_epochs as f64);
        rec.sample("isolate_switches", (vm.migrations() - self.switches) as f64);
        rec.sample("heap_used_bytes", vm.heap_used() as f64);
        rec.sample("heap_live_objects", vm.heap_objects() as f64);
        // Share of the executed instructions that exact accounting
        // charged to some isolate (useful / attempted): 1.0 when
        // attribution loses nothing and invents nothing.
        vm.flush_pending_cpu();
        let charged: u64 = vm
            .metrics()
            .isolates
            .iter()
            .map(|i| i.stats.cpu_exact)
            .sum();
        rec.sample(
            "cpu_attribution_ratio",
            charged as f64 / (vm.vclock() as f64).max(1.0),
        );
        (vm.vclock() - self.clock, gc_epochs)
    }
}

/// A VM ready to submit as a cluster unit: one isolate, the workload's
/// classes, and the entry thread spawned but not yet run.
pub struct Unit {
    pub vm: Vm,
    pub thread: ThreadId,
}

impl Unit {
    pub fn boot(
        rec: &mut Recorder,
        options: &VmOptions,
        classes: &guest::Classes,
        entry: &str,
        method: &str,
        descriptor: &str,
        args: &[i32],
    ) -> Unit {
        let mut vm = guest::boot(rec, options.clone());
        let (iso, loader) = guest::new_isolate(&mut vm, "unit", classes);
        let class = guest::load_class(rec, &mut vm, loader, entry);
        let thread = guest::spawn(&mut vm, class, method, descriptor, args, iso);
        Unit { vm, thread }
    }
}

/// What a client unit's entry thread returned, if the unit finished.
pub fn unit_result(
    outcome: &ClusterOutcome,
    handle: &UnitHandle,
    thread: ThreadId,
) -> Result<i32, String> {
    let unit = outcome.unit(handle);
    match unit.report.outcome {
        RunOutcome::Idle => guest::thread_int(&unit.vm, thread),
        other => Err(format!("unit did not finish: {other:?}")),
    }
}

/// Records the scheduler's, the hub's and the engine's samples of one
/// finished cluster run of `messages` messages, and returns the guest
/// instructions its units executed in it. `inherited_insns` is what the
/// units' clocks already read when they were submitted (restored clones
/// carry their template's clock).
pub fn cluster_samples(
    rec: &mut Recorder,
    outcome: &ClusterOutcome,
    wall: Duration,
    messages: u64,
    inherited_insns: u64,
) -> u64 {
    let units = outcome.units.len().max(1) as f64;
    let insns = outcome.units.iter().map(|u| u.vm.vclock()).sum::<u64>() - inherited_insns;
    let slices: u64 = outcome.units.iter().map(|u| u.report.slices).sum();
    rec.sample(
        "ns_per_msg",
        wall.as_nanos() as f64 / (messages as f64).max(1.0),
    );
    rec.sample("slices_per_unit", slices as f64 / units);
    rec.sample("steals", outcome.steals as f64);
    rec.sample("migrations", outcome.migrations as f64);
    rec.sample(
        "gc_epochs",
        outcome.units.iter().map(|u| u.vm.gc_count()).sum::<u64>() as f64,
    );
    // The flight recorder's counters: filled on the traced run only.
    if let Some(m) = &outcome.metrics {
        rec.sample("unit_parks", m.unit_parks as f64);
        rec.sample("unit_unparks", m.unit_unparks as f64);
        rec.sample("calls_sent", m.totals.calls_sent as f64);
        rec.sample("posts_sent", m.totals.posts_sent as f64);
        rec.sample("replies_delivered", m.totals.replies_delivered as f64);
        rec.sample("quota_parks", m.totals.quota_parks as f64);
        rec.sample("quota_unparks", m.totals.quota_unparks as f64);
        rec.sample("mailbox_high_water", m.totals.mailbox_high_water as f64);
        rec.sample("call_p50_ticks", m.totals.call_latency.quantile(0.5) as f64);
        rec.sample(
            "call_p99_ticks",
            m.totals.call_latency.quantile(0.99) as f64,
        );
    }
    insns
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sets `spec` up at the tiny size and runs `reps` repetitions,
    /// returning each one's guest instruction count.
    fn tiny_run(spec: &Spec, seed: u64, reps: usize) -> Vec<u64> {
        let mut rec = Recorder::new(false);
        let mut workload = (spec.setup)(seed, Size::Tiny, &mut rec);
        (0..reps)
            .map(|_| {
                let rep = workload.repetition(&mut rec);
                assert!(
                    rep.attempted > 0,
                    "{}: a repetition attempts something",
                    spec.name
                );
                assert_eq!(
                    rep.failed, 0,
                    "{}: guest and mirror disagree: {:?}",
                    spec.name, rep.errors
                );
                workload.guest_insns()
            })
            .collect()
    }

    #[test]
    fn every_guest_compiles_and_matches_its_mirror() {
        for spec in &ALL {
            for seed in [1, 2] {
                let insns = tiny_run(spec, seed, 3);
                assert!(insns.iter().all(|n| *n > 0), "{}: the guest ran", spec.name);
            }
        }
    }

    #[test]
    fn same_seed_repeats_guest_instructions_exactly() {
        for spec in ALL.iter().filter(|s| s.deterministic) {
            assert_eq!(tiny_run(spec, 7, 3), tiny_run(spec, 7, 3), "{}", spec.name);
        }
    }

    #[test]
    fn specs_are_named_once_and_found_by_name() {
        for spec in &ALL {
            assert_eq!(find(spec.name).map(|s| s.name), Some(spec.name));
        }
        assert!(find("nope").is_none());
        assert!((1..=2).contains(&workers()));
    }
}
