//! `elastic_fork` — set-up cold-boots one warmed service unit (a heavy
//! `<clinit>` fills a 1 MiB table). Each repetition captures it, takes
//! the bytes through `UnitImage::from_bytes`, forks the image into 16
//! clones with `submit_image_n`, and has a pre-booted client call every
//! `lookup#k`; one cold boot runs beside it as the layer's other use, so
//! work moved between boot and restore shows. Checkpoint, restore and
//! class re-definition dominate.

use super::{cluster_samples, mismatch, unit_result, Rep, Size, Unit, Workload};
use crate::guest;
use crate::rng::SplitMix;
use crate::spans::Recorder;
use ijvm_core::checkpoint;
use ijvm_core::prelude::*;

const SOURCE: &str = include_str!("../../guest/elastic_fork.mj");

/// Entries of the guest's table (fixed in the guest source): 1 MiB.
const TABLE: usize = 262_144;

#[derive(Debug, Clone, Copy)]
struct Dims {
    forks: i32,
    calls: i32,
}

impl Dims {
    fn of(size: Size) -> Dims {
        match size {
            Size::Full => Dims {
                forks: 16,
                calls: 1_000,
            },
            Size::Tiny => Dims { forks: 2, calls: 5 },
        }
    }
}

/// The table `Table.<clinit>` fills from `seed`.
pub fn mirror_table(seed: i32) -> Vec<i32> {
    let mut s = seed;
    (0..TABLE)
        .map(|_| {
            s = s.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            (s as u32 >> 8) as i32
        })
        .collect()
}

/// What `Client.drive` returns: every clone answers from the same table.
pub fn mirror_drive(table: &[i32], dims_forks: i32, calls: i32, seed: i32) -> i32 {
    let (mut acc, mut x) = (0i32, seed);
    for _ in 0..dims_forks * calls {
        let r = table[(x & (TABLE as i32 - 1)) as usize].wrapping_add(x);
        acc = acc.wrapping_mul(31).wrapping_add(r);
        x = x
            .wrapping_mul(1_103_515_245)
            .wrapping_add(12_345)
            .wrapping_add(r & 255);
    }
    acc
}

pub struct ElasticFork {
    classes: guest::Classes,
    options: VmOptions,
    table_seed: i32,
    table: Vec<i32>,
    template: Vm,
    dims: Dims,
    inputs: SplitMix,
    last_insns: u64,
}

/// Boots the service unit from class bytes and runs it to idle: class
/// loading, `<clinit>`, service export.
fn cold_boot(
    rec: &mut Recorder,
    options: &VmOptions,
    classes: &guest::Classes,
    seed: i32,
) -> Result<Vm, String> {
    let mut unit = Unit::boot(rec, options, classes, "Boot", "start", "(I)I", &[seed]);
    let span = rec.begin("Vm::run");
    let outcome = unit.vm.run(None);
    rec.end(span);
    if outcome != RunOutcome::Idle {
        return Err(format!("cold boot ended {outcome:?}"));
    }
    // Boot.start returns Table.t[0]: s >>> 8 after one generator step.
    let first = (seed.wrapping_mul(1_103_515_245).wrapping_add(12_345) as u32 >> 8) as i32;
    match mismatch(
        "Boot.start",
        guest::thread_int(&unit.vm, unit.thread),
        first,
    ) {
        None => Ok(unit.vm),
        Some(e) => Err(e),
    }
}

pub fn setup(seed: u64, size: Size, rec: &mut Recorder) -> Box<dyn Workload> {
    let mut inputs = SplitMix::for_workload(seed, "elastic_fork");
    let table_seed = inputs.next_i32();
    let classes = guest::compile(rec, SOURCE);
    let options = guest::vm_options(rec);
    let template = cold_boot(rec, &options, &classes, table_seed)
        .unwrap_or_else(|e| panic!("elastic_fork template: {e}"));
    Box::new(ElasticFork {
        classes,
        options,
        table_seed,
        table: mirror_table(table_seed),
        template,
        dims: Dims::of(size),
        inputs,
        last_insns: 0,
    })
}

impl Workload for ElasticFork {
    fn repetition(&mut self, rec: &mut Recorder) -> Rep {
        let dims = self.dims;
        let client_seed = self.inputs.next_i32();
        rec.next_trace();
        let prep = rec.begin("prepare units");
        let args = [dims.forks, dims.calls, client_seed];
        let client = Unit::boot(
            rec,
            &self.options,
            &self.classes,
            "Client",
            "drive",
            "(III)I",
            &args,
        );
        rec.end(prep);

        let mut rep = Rep::default();
        let rep_span = rec.begin("repetition");

        let span = rec.begin("Vm::checkpoint");
        let captured = self.template.checkpoint();
        rec.end_ms(span, "capture_ms");
        // Round-trip the bytes, as if the image had been stored.
        let bytes = captured.map(UnitImage::into_bytes);
        let span = rec.begin("UnitImage::from_bytes");
        let image = bytes
            .map_err(|e| format!("capture: {e}"))
            .and_then(|b| UnitImage::from_bytes(b).map_err(|e| format!("validate: {e}")));
        rec.end_ms(span, "validate_ms");

        let mut cluster = Cluster::builder()
            .vm_options(self.options.clone())
            .scheduler(SchedulerKind::Deterministic)
            .build();
        let forked = image.and_then(|image| {
            rec.sample("image_bytes", image.len() as f64);
            let span = rec.begin("Cluster::submit_image_n");
            let forked =
                cluster.submit_image_n(&image, dims.forks as usize, ijvm_jsl::install_natives);
            let took = rec.end(span);
            rec.sample(
                "fork_per_unit_ms",
                took.as_secs_f64() * 1e3 / f64::from(dims.forks),
            );
            forked.map(|_| image).map_err(|e| format!("fork: {e}"))
        });
        rep.op(forked.as_ref().err().cloned());

        let handle = cluster.submit(client.vm);
        let span = rec.begin("Cluster::run");
        let outcome = cluster.run();
        let run_wall = rec.end(span);

        // The layer's other use, beside the forks: one cold boot.
        let span = rec.begin("cold boot");
        let cold = cold_boot(rec, &self.options, &self.classes, self.table_seed);
        rec.end_ms(span, "cold_boot_ms");
        rep.op(cold.err());
        rep.wall = rec.end(rep_span);

        let got = unit_result(&outcome, &handle, client.thread);
        let calls = (dims.forks * dims.calls) as u64;
        let expected = mirror_drive(&self.table, dims.forks, dims.calls, client_seed);
        rep.ops(calls, mismatch("clone replies fold", got, expected));
        let inherited = self.template.vclock() * dims.forks as u64;
        self.last_insns = cluster_samples(rec, &outcome, run_wall, calls, inherited);

        // Outside the repetition: one stand-alone restore of the image,
        // the per-unit cost `submit_image_n` pays 16 times.
        if let Ok(image) = forked {
            let span = rec.begin("checkpoint::restore");
            let restored =
                checkpoint::restore(&image, self.options.clone(), ijvm_jsl::install_natives);
            rec.end_ms(span, "restore_ms");
            rep.op(restored.err().map(|e| format!("restore: {e}")));
        }
        rep
    }

    fn guest_insns(&self) -> u64 {
        self.last_insns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_and_fold_follow_their_seeds() {
        let (a, b) = (mirror_table(5), mirror_table(6));
        assert_eq!(a.len(), TABLE);
        assert_eq!(a, mirror_table(5));
        assert_ne!(a, b);
        assert!(a.iter().all(|v| (0..1 << 24).contains(v)));
        assert_ne!(mirror_drive(&a, 2, 3, 1), mirror_drive(&a, 2, 3, 2));
        assert_ne!(mirror_drive(&a, 2, 3, 1), mirror_drive(&b, 2, 3, 1));
    }
}
