//! Input generation. The host draws every workload's inputs from
//! `--seed` with [`SplitMix`]; guests receive only the drawn ints and
//! expand them with the 31-bit LCG that [`Lcg`] mirrors step for step.

/// SplitMix64: the host-side generator (seed → guest inputs).
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `workload` under `seed`: workloads draw from
    /// unrelated streams, so adding one never shifts another's inputs.
    pub fn for_workload(seed: u64, workload: &str) -> SplitMix {
        // FNV-1a of the name, folded into the seed.
        let tag = workload.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        SplitMix(seed ^ tag)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A non-negative `i32` (guests take it as an LCG seed or a salt).
    pub fn next_i32(&mut self) -> i32 {
        (self.next_u64() >> 33) as i32
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % u64::from(n)) as u32
    }
}

/// The guests' generator, `s = s * 1103515245 + 12345; (s >>> 16) & 32767`
/// in wrapping `int` arithmetic, mirrored on the host for the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lcg(pub i32);

impl Lcg {
    pub fn next(&mut self) -> i32 {
        self.0 = self.0.wrapping_mul(1_103_515_245).wrapping_add(12_345);
        ((self.0 as u32 >> 16) & 32_767) as i32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let draw = |seed, name| {
            let mut r = SplitMix::for_workload(seed, name);
            (0..8).map(|_| r.next_i32()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, "compute"), draw(1, "compute"));
        assert_ne!(draw(1, "compute"), draw(2, "compute"));
        assert_ne!(draw(1, "compute"), draw(1, "alloc_churn"));
        assert!(draw(7, "x").iter().all(|v| *v >= 0));
        let mut r = SplitMix::for_workload(3, "y");
        assert!((0..100).all(|_| r.below(14) < 14));
    }

    #[test]
    fn lcg_matches_the_c_library_constants() {
        let mut l = Lcg(1);
        // 1 * 1103515245 + 12345 = 1103527590; >> 16 = 16838.
        assert_eq!(l.next(), 16_838);
        assert_eq!(l.0, 1_103_527_590);
        let mut w = Lcg(i32::MAX);
        let _ = w.next(); // wraps instead of panicking
    }
}
