//! `alloc_churn` — one VM, eight isolates, each keeping a live set while
//! churning short-lived arrays of mixed sizes in an alternate-free
//! pattern. Heap, collector and per-isolate memory attribution dominate;
//! the engine is the minor term.

use super::{Rep, Size, VmMarks, Workload};
use crate::guest;
use crate::rng::{Lcg, SplitMix};
use crate::spans::Recorder;
use ijvm_core::prelude::*;

const SOURCE: &str = include_str!("../../guest/alloc_churn.mj");

const ISOLATES: usize = 8;

/// Bytes allocated between collections the VM starts on its own: low
/// enough that every repetition triggers several, besides the one the
/// host invokes at its end.
const GC_THRESHOLD_BYTES: usize = 2 << 20;

#[derive(Debug, Clone, Copy)]
struct Dims {
    live: i32,
    ring: i32,
    allocs: i32,
}

impl Dims {
    fn of(size: Size) -> Dims {
        match size {
            // A live set of about 2.5 MiB: it stays near the caches, which
            // keeps run-to-run noise from memory contention down.
            Size::Full => Dims {
                live: 500,
                ring: 256,
                allocs: 8_000,
            },
            Size::Tiny => Dims {
                live: 16,
                ring: 8,
                allocs: 200,
            },
        }
    }
}

/// One isolate's guest state, mirrored: the generator, the first element
/// of every live node's array, and the survivors' ring.
#[derive(Debug, Clone, PartialEq)]
pub struct Mirror {
    rng: Lcg,
    live_first: Vec<i32>,
    ring: Vec<Option<(i32, i32)>>,
}

impl Mirror {
    fn new(seed: i32, dims: Dims) -> Mirror {
        let mut rng = Lcg(seed);
        let live_first = (0..dims.live)
            .map(|_| {
                let _len = rng.next();
                rng.next()
            })
            .collect();
        Mirror {
            rng,
            live_first,
            ring: vec![None; dims.ring as usize],
        }
    }

    fn round(&mut self, n: i32, salt: i32) -> i32 {
        let mut acc = salt;
        for i in 0..n {
            let r = self.rng.next();
            let len = 1i32 << (2 + (r & 7));
            let first = r + i;
            if i & 1 == 0 {
                let slot = (r >> 3) as usize % self.ring.len();
                self.ring[slot] = Some((first, i));
            } else {
                acc = acc
                    .wrapping_mul(31)
                    .wrapping_add(first)
                    .wrapping_add(i)
                    .wrapping_add(len);
            }
            if i & 63 == 0 {
                let k = (r >> 3) as usize % self.live_first.len();
                acc = acc.wrapping_add(self.live_first[k]);
                self.live_first[k] = r ^ i;
            }
        }
        for (first, id) in self.ring.iter().flatten() {
            acc = acc.wrapping_mul(31).wrapping_add(*first).wrapping_add(*id);
        }
        // `"k" + j` for j in 0..8 is two characters long.
        acc.wrapping_add(self.live_first[(salt & 7) as usize])
            .wrapping_add(2)
    }
}

pub struct AllocChurn {
    vm: Vm,
    tenants: Vec<(IsolateId, ClassId, Mirror)>,
    dims: Dims,
    salts: SplitMix,
    last_insns: u64,
}

pub fn setup(seed: u64, size: Size, rec: &mut Recorder) -> Box<dyn Workload> {
    let dims = Dims::of(size);
    let mut inputs = SplitMix::for_workload(seed, "alloc_churn");

    let classes = guest::compile(rec, SOURCE);
    let mut options = guest::vm_options(rec);
    options.gc_threshold_bytes = GC_THRESHOLD_BYTES;
    let mut vm = guest::boot(rec, options);

    let init = rec.begin("guest.init");
    let tenants = (0..ISOLATES)
        .map(|t| {
            let (iso, loader) = guest::new_isolate(&mut vm, &format!("tenant{t}"), &classes);
            let class = guest::load_class(rec, &mut vm, loader, "Churn");
            let seed = inputs.next_i32();
            let args = [seed, dims.live, dims.ring];
            guest::call_int(&mut vm, class, "init", "(III)I", &args, iso)
                .unwrap_or_else(|e| panic!("alloc_churn init failed: {e}"));
            (iso, class, Mirror::new(seed, dims))
        })
        .collect();
    rec.end(init);

    Box::new(AllocChurn {
        vm,
        tenants,
        dims,
        salts: inputs,
        last_insns: 0,
    })
}

impl Workload for AllocChurn {
    fn repetition(&mut self, rec: &mut Recorder) -> Rep {
        let salt = self.salts.next_i32();
        let (vm, allocs) = (&mut self.vm, self.dims.allocs);
        let marks = VmMarks::of(vm);

        rec.next_trace();
        let rep_span = rec.begin("repetition");
        let mut results = Vec::with_capacity(ISOLATES);
        for (iso, class, _) in &self.tenants {
            let span = rec.begin("vm.call_static_as");
            results.push(guest::call_int(
                vm,
                *class,
                "round",
                "(II)I",
                &[allocs, salt],
                *iso,
            ));
            rec.end(span);
        }
        // Every repetition ends with a full collection, so its wall time
        // holds the collector's work on this live set and this garbage.
        let span = rec.begin("vm.collect_garbage");
        vm.collect_garbage(None);
        let gc = rec.end_ms(span, "gc_ms");
        let per_object = gc.as_nanos() as f64 / (vm.heap_objects() as f64).max(1.0);
        rec.sample("gc_ns_per_live_object", per_object);
        let wall = rec.end(rep_span);

        let mut rep = Rep {
            wall,
            ..Rep::default()
        };
        for (t, ((iso, _, mirror), got)) in self.tenants.iter_mut().zip(results).enumerate() {
            rep.check(
                &format!("tenant{t} Churn.round"),
                got,
                mirror.round(allocs, salt),
            );
            // Memory attribution: the collector recomputes each
            // isolate's live bytes; a tenant with a live set has some.
            let live = vm.isolate_stats(*iso).map_or(0, |s| s.live_bytes);
            rep.op((live == 0).then(|| format!("tenant{t} is charged no live bytes")));
        }

        self.last_insns = marks.sample_since(rec, vm).0;
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
    fn mirror_state_follows_the_seed_and_carries_over_rounds() {
        let dims = Dims::of(Size::Tiny);
        let (mut a, mut b, c) = (
            Mirror::new(7, dims),
            Mirror::new(7, dims),
            Mirror::new(8, dims),
        );
        assert_eq!(a, b);
        assert_ne!(a.live_first, c.live_first);
        let first = a.round(dims.allocs, 3);
        assert_eq!(first, b.round(dims.allocs, 3));
        // The ring and the generator carry over: the same call again
        // folds different survivors.
        assert_ne!(first, a.round(dims.allocs, 3));
        assert!(a.ring.iter().any(Option::is_some));
    }
}
