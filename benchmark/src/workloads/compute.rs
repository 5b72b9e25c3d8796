//! `compute` — one VM, one isolate, the threaded engine, three kernels
//! with seed-derived inputs and zero steady-state allocation. The engine
//! does nearly all the work; hub, heap and checkpoint none.

use super::{Rep, Size, VmMarks, Workload};
use crate::guest;
use crate::rng::{Lcg, SplitMix};
use crate::spans::Recorder;
use ijvm_core::prelude::*;

const SOURCE: &str = include_str!("../../guest/compute.mj");

/// Dictionary slots of the compress kernel (a power of two).
const DICT: usize = 16_384;

#[derive(Debug, Clone, Copy)]
struct Dims {
    compress_n: i32,
    tree_depth: i32,
    tree_rounds: i32,
    spheres: i32,
    width: i32,
}

impl Dims {
    fn of(size: Size) -> Dims {
        match size {
            // About 12 M guest instructions per repetition, split
            // roughly evenly over the three kernels.
            Size::Full => Dims {
                compress_n: 100_000,
                tree_depth: 11,
                tree_rounds: 100,
                spheres: 12,
                width: 56,
            },
            Size::Tiny => Dims {
                compress_n: 600,
                tree_depth: 5,
                tree_rounds: 3,
                spheres: 3,
                width: 6,
            },
        }
    }
}

/// The host-side oracle: the guest's arrays and kernels in wrapping
/// `i32` arithmetic.
#[derive(Debug)]
pub struct Mirror {
    data: Vec<i32>,
    kind: Vec<i32>,
    leaf: Vec<i32>,
    inner: usize,
    spheres: Vec<[i32; 4]>,
}

impl Mirror {
    fn new(dims: Dims, seeds: [i32; 3]) -> Mirror {
        let mut rng = Lcg(seeds[0]);
        let mut prev = 0i32;
        let data = (0..dims.compress_n)
            .map(|_| {
                let r = rng.next();
                if r & 3 != 0 {
                    prev = (prev.wrapping_mul(5).wrapping_add(r >> 2)) & 63;
                }
                prev
            })
            .collect();

        let mut rng = Lcg(seeds[1]);
        let nodes = (1usize << dims.tree_depth) - 1;
        let (mut kind, mut leaf) = (Vec::with_capacity(nodes), Vec::with_capacity(nodes));
        for _ in 0..nodes {
            kind.push(rng.next() & 3);
            leaf.push(rng.next());
        }

        let mut rng = Lcg(seeds[2]);
        let spheres = (0..dims.spheres)
            .map(|_| {
                let cx = (rng.next() & 1023) - 512;
                let cy = (rng.next() & 1023) - 512;
                let cz = rng.next() & 1023;
                let r = 64 + (rng.next() & 255);
                [cx, cy, cz, r * r]
            })
            .collect();

        Mirror {
            data,
            kind,
            leaf,
            inner: (1usize << (dims.tree_depth - 1)) - 1,
            spheres,
        }
    }

    fn compress(&self, salt: i32) -> i32 {
        let mut keys = vec![-1i32; DICT];
        let mut codes = vec![0i32; DICT];
        let mut next = 64i32;
        let mut prefix = self.data[0].wrapping_add(salt) & 63;
        let (mut out, mut outsum) = (0i32, 0i32);
        for &sym in &self.data[1..] {
            let key = prefix * 64 + sym;
            let mut h = (key.wrapping_mul(0x9E37_79B1_u32 as i32) as u32 >> 18) as usize;
            let mut found = false;
            while keys[h] != -1 {
                if keys[h] == key {
                    found = true;
                    break;
                }
                h = (h + 1) & (DICT - 1);
            }
            if found {
                prefix = codes[h];
            } else {
                if next < 12_000 {
                    keys[h] = key;
                    codes[h] = next;
                    next += 1;
                }
                out += 1;
                outsum = outsum.wrapping_add(prefix);
                prefix = sym;
            }
        }
        out.wrapping_mul(7)
            .wrapping_add(outsum & 65_535)
            .wrapping_add(next)
    }

    fn eval(&self, node: usize, salt: i32) -> i32 {
        if node >= self.inner {
            return self.leaf[node] ^ salt;
        }
        let a = self.eval(2 * node + 1, salt);
        let b = self.eval(2 * node + 2, salt);
        match self.kind[node] {
            0 => a.wrapping_add(b),
            1 => a.wrapping_sub(b),
            2 => a.wrapping_mul(b).wrapping_add(1),
            _ => (a ^ b).wrapping_add(a >> 3),
        }
    }

    fn tree(&self, rounds: i32, salt: i32) -> i32 {
        (0..rounds).fold(0i32, |acc, r| {
            acc.wrapping_mul(31)
                .wrapping_add(self.eval(0, salt.wrapping_add(r)))
        })
    }

    fn trace(&self, width: i32, salt: i32) -> i32 {
        let dot = |a: [i32; 3], b: [i32; 3]| {
            a[0].wrapping_mul(b[0])
                .wrapping_add(a[1].wrapping_mul(b[1]))
                .wrapping_add(a[2].wrapping_mul(b[2]))
        };
        let mut acc = 0i32;
        for y in 0..width {
            for x in 0..width {
                let ox = (x - width / 2) * 8 + (salt & 7);
                let oy = (y - width / 2) * 8;
                let d = [x.wrapping_add(salt) & 63, y & 63, 64];
                let (mut best, mut shade) = (1i32 << 30, 0i32);
                for (s, sphere) in self.spheres.iter().enumerate() {
                    let p = [ox - sphere[0], oy - sphere[1], -1024 - sphere[2]];
                    let a = dot(d, d);
                    let b = dot(p, d).wrapping_mul(2);
                    let c = dot(p, p).wrapping_sub(sphere[3]);
                    let disc = (b >> 8)
                        .wrapping_mul(b >> 8)
                        .wrapping_sub((a >> 4).wrapping_mul(c >> 10));
                    if disc >= 0 && (disc & 1_048_575) < best {
                        best = disc & 1_048_575;
                        shade = 32 + (s as i32 * 73) % 200;
                    }
                }
                acc = acc.wrapping_mul(31).wrapping_add(shade).wrapping_add(best);
            }
        }
        acc
    }
}

pub struct Compute {
    vm: Vm,
    iso: IsolateId,
    compress: ClassId,
    tree: ClassId,
    trace: ClassId,
    dims: Dims,
    mirror: Mirror,
    salts: SplitMix,
    last_insns: u64,
}

pub fn setup(seed: u64, size: Size, rec: &mut Recorder) -> Box<dyn Workload> {
    let dims = Dims::of(size);
    let mut inputs = SplitMix::for_workload(seed, "compute");
    let seeds = [inputs.next_i32(), inputs.next_i32(), inputs.next_i32()];

    let classes = guest::compile(rec, SOURCE);
    let mut vm = guest::boot(rec, guest::vm_options(rec));
    let (iso, loader) = guest::new_isolate(&mut vm, "compute", &classes);
    let compress = guest::load_class(rec, &mut vm, loader, "Compress");
    let tree = guest::load_class(rec, &mut vm, loader, "Tree");
    let trace = guest::load_class(rec, &mut vm, loader, "Trace");

    let init = rec.begin("guest.init");
    for (class, seed, n) in [
        (compress, seeds[0], dims.compress_n),
        (tree, seeds[1], dims.tree_depth),
        (trace, seeds[2], dims.spheres),
    ] {
        guest::call_int(&mut vm, class, "init", "(II)I", &[seed, n], iso)
            .unwrap_or_else(|e| panic!("compute init failed: {e}"));
    }
    rec.end(init);

    Box::new(Compute {
        vm,
        iso,
        compress,
        tree,
        trace,
        dims,
        mirror: Mirror::new(dims, seeds),
        salts: inputs,
        last_insns: 0,
    })
}

impl Workload for Compute {
    fn repetition(&mut self, rec: &mut Recorder) -> Rep {
        let salt = self.salts.next_i32();
        let (vm, iso, dims) = (&mut self.vm, self.iso, self.dims);
        let marks = VmMarks::of(vm);

        rec.next_trace();
        let rep_span = rec.begin("repetition");
        let span = rec.begin("vm.call_static_as");
        let compress = guest::call_int(vm, self.compress, "run", "(I)I", &[salt], iso);
        rec.end(span);
        let span = rec.begin("vm.call_static_as");
        let tree = guest::call_int(
            vm,
            self.tree,
            "run",
            "(II)I",
            &[dims.tree_rounds, salt],
            iso,
        );
        rec.end(span);
        let span = rec.begin("vm.call_static_as");
        let trace = guest::call_int(vm, self.trace, "run", "(II)I", &[dims.width, salt], iso);
        rec.end(span);
        let wall = rec.end(rep_span);

        let mut rep = Rep {
            wall,
            ..Rep::default()
        };
        rep.check("Compress.run", compress, self.mirror.compress(salt));
        rep.check("Tree.run", tree, self.mirror.tree(dims.tree_rounds, salt));
        rep.check("Trace.run", trace, self.mirror.trace(dims.width, salt));

        let (insns, gc_epochs) = marks.sample_since(rec, vm);
        self.last_insns = insns;
        // The workload's premise: steady state allocates nothing.
        rep.op((gc_epochs != 0)
            .then(|| format!("{gc_epochs} collections in an allocation-free repetition")));
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
    fn mirror_inputs_follow_the_seed() {
        let dims = Dims::of(Size::Tiny);
        let a = Mirror::new(dims, [1, 2, 3]);
        let b = Mirror::new(dims, [1, 2, 3]);
        let c = Mirror::new(dims, [4, 5, 6]);
        assert_eq!(
            (&a.data, &a.leaf, &a.spheres),
            (&b.data, &b.leaf, &b.spheres)
        );
        assert_ne!(a.data, c.data);
        assert_ne!(a.leaf, c.leaf);
        assert_ne!(a.spheres, c.spheres);
        assert_ne!(a.compress(1), a.compress(2));
    }
}
