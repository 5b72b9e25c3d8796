//! `cluster_bulk` — the hub of `cluster_rpc` used differently: 4 units
//! under `Deterministic`, `Object` payloads (strings and `int[]` of
//! 64 B to 16 KiB) echoed back transformed. Wire encode/decode and the
//! sender-pays copy dominate; routing is the minor term, so a routing
//! gain that costs copying — or the reverse — shows as opposite moves on
//! the two cluster workloads.

use super::{cluster_samples, mismatch, unit_result, Rep, Size, Unit, Workload};
use crate::guest;
use crate::rng::{Lcg, SplitMix};
use crate::spans::Recorder;
use ijvm_core::prelude::*;
use ijvm_core::wire;

const SOURCE: &str = include_str!("../../guest/cluster_bulk.mj");

const CLIENTS: usize = 2;

#[derive(Debug, Clone, Copy)]
struct Dims {
    /// Size steps: step `j` is a payload of `64 << j` bytes.
    steps: i32,
    rounds: i32,
}

impl Dims {
    fn of(size: Size) -> Dims {
        match size {
            Size::Full => Dims {
                steps: 9,
                rounds: 150,
            },
            Size::Tiny => Dims {
                steps: 3,
                rounds: 2,
            },
        }
    }
}

/// One client's payloads, mirrored: what `Client.init` builds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mirror {
    arrays: Vec<Vec<i32>>,
    texts: Vec<Vec<u8>>,
}

impl Mirror {
    fn new(seed: i32, steps: i32) -> Mirror {
        let mut rng = Lcg(seed);
        let mut order: Vec<usize> = (0..steps as usize).collect();
        for i in (1..order.len()).rev() {
            let j = rng.next() as usize % (i + 1);
            order.swap(i, j);
        }
        let (mut arrays, mut texts) = (Vec::new(), Vec::new());
        for step in order {
            arrays.push(
                (0..16usize << step)
                    .map(|_| rng.next().wrapping_mul(32_768).wrapping_add(rng.next()))
                    .collect(),
            );
            let base: Vec<u8> = (0..64).map(|_| 97 + (rng.next() % 26) as u8).collect();
            texts.push(base.repeat(1 << step));
        }
        Mirror { arrays, texts }
    }

    /// What `Client.drive` returns, given the servers' transformations.
    fn drive(&self, rounds: i32, salt: i32) -> i32 {
        let mut acc = salt;
        for _ in 0..rounds {
            for (a, t) in self.arrays.iter().zip(&self.texts) {
                // Reply [n, a0, a1, ...] has n + 1 elements.
                let n = a.len() + 1;
                let reply = |i: usize| if i == 0 { a.len() as i32 } else { a[i - 1] };
                acc = acc
                    .wrapping_mul(31)
                    .wrapping_add(reply(0))
                    .wrapping_add(reply(1))
                    .wrapping_add(reply(n / 2))
                    .wrapping_add(reply(n - 1));
                // Reply drops the first character and appends '|'.
                let m = t.len();
                let reply = |i: usize| i32::from(t[i + 1]);
                acc = acc
                    .wrapping_mul(31)
                    .wrapping_add(m as i32)
                    .wrapping_add(reply(0))
                    .wrapping_add(reply(m / 2))
                    .wrapping_add(reply(m - 2));
            }
        }
        acc
    }
}

/// A VM outside the cluster holding client 0's payloads, on which the
/// host times `wire::serialize_value` / `deserialize_value` directly.
struct WireProbe {
    vm: Vm,
    iso: IsolateId,
    payloads: Vec<Value>,
}

impl WireProbe {
    fn new(
        rec: &mut Recorder,
        options: &VmOptions,
        classes: &guest::Classes,
        seed: i32,
        steps: i32,
    ) -> WireProbe {
        let mut vm = guest::boot(rec, options.clone());
        let (iso, loader) = guest::new_isolate(&mut vm, "wire-probe", classes);
        let class = guest::load_class(rec, &mut vm, loader, "Client");
        guest::call_int(&mut vm, class, "init", "(II)I", &[seed, steps], iso)
            .unwrap_or_else(|e| panic!("cluster_bulk probe init failed: {e}"));
        let mut payloads = Vec::new();
        for kind in 0..2 {
            for i in 0..steps {
                let args = vec![Value::Int(kind), Value::Int(i)];
                match vm.call_static_as(class, "payload", "(II)Ljava/lang/Object;", args, iso) {
                    // Reachable from the guest's statics, so it stays live.
                    Ok(Some(v @ Value::Ref(_))) => payloads.push(v),
                    other => panic!("cluster_bulk probe payload: {other:?}"),
                }
            }
        }
        WireProbe { vm, iso, payloads }
    }

    /// Encodes and decodes every payload once, sampling ns per byte and
    /// bytes per message.
    fn sample(&mut self, rec: &mut Recorder) {
        let loader = self
            .vm
            .loader_of(self.iso)
            .expect("probe isolate has a loader");
        let (mut bytes, mut encode_ns, mut decode_ns) = (0usize, 0u128, 0u128);
        let mut buf = Vec::new();
        for payload in &self.payloads {
            buf.clear();
            let span = rec.begin("wire::serialize_value");
            wire::serialize_value(&self.vm, *payload, &mut buf);
            encode_ns += rec.end(span).as_nanos();
            let span = rec.begin("wire::deserialize_value");
            let decoded = wire::deserialize_value(&mut self.vm, &buf, self.iso, loader);
            decode_ns += rec.end(span).as_nanos();
            assert!(decoded.is_ok(), "the codec reads back what it wrote");
            bytes += buf.len();
        }
        rec.sample("wire_encode_ns_per_byte", encode_ns as f64 / bytes as f64);
        rec.sample("wire_decode_ns_per_byte", decode_ns as f64 / bytes as f64);
        rec.sample(
            "wire_bytes_per_msg",
            bytes as f64 / self.payloads.len() as f64,
        );
    }
}

pub struct ClusterBulk {
    classes: guest::Classes,
    options: VmOptions,
    dims: Dims,
    seeds: [i32; CLIENTS],
    mirrors: Vec<Mirror>,
    probe: WireProbe,
    salts: SplitMix,
    last_insns: u64,
}

pub fn setup(seed: u64, size: Size, rec: &mut Recorder) -> Box<dyn Workload> {
    let dims = Dims::of(size);
    let mut inputs = SplitMix::for_workload(seed, "cluster_bulk");
    let seeds = [inputs.next_i32(), inputs.next_i32()];
    let classes = guest::compile(rec, SOURCE);
    let options = guest::vm_options(rec);
    let probe = WireProbe::new(rec, &options, &classes, seeds[0], dims.steps);
    Box::new(ClusterBulk {
        mirrors: seeds.iter().map(|s| Mirror::new(*s, dims.steps)).collect(),
        classes,
        options,
        dims,
        seeds,
        probe,
        salts: inputs,
        last_insns: 0,
    })
}

impl Workload for ClusterBulk {
    fn repetition(&mut self, rec: &mut Recorder) -> Rep {
        let dims = self.dims;
        let salt = self.salts.next_i32();
        rec.next_trace();
        // Untimed: fresh units, and each client builds its payloads
        // before it joins the cluster.
        let prep = rec.begin("prepare units");
        let mut cluster = Cluster::builder()
            .vm_options(self.options.clone())
            .scheduler(SchedulerKind::Deterministic)
            .build();
        for which in 0..2 {
            let unit = Unit::boot(
                rec,
                &self.options,
                &self.classes,
                "Boot",
                "start",
                "(I)I",
                &[which],
            );
            cluster.submit(unit.vm);
        }
        let clients: Vec<_> = self
            .seeds
            .iter()
            .map(|seed| {
                let mut vm = guest::boot(rec, self.options.clone());
                let (iso, loader) = guest::new_isolate(&mut vm, "unit", &self.classes);
                let class = guest::load_class(rec, &mut vm, loader, "Client");
                guest::call_int(&mut vm, class, "init", "(II)I", &[*seed, dims.steps], iso)
                    .unwrap_or_else(|e| panic!("cluster_bulk client init failed: {e}"));
                let thread =
                    guest::spawn(&mut vm, class, "drive", "(II)I", &[dims.rounds, salt], iso);
                (cluster.submit(vm), thread)
            })
            .collect();
        rec.end(prep);

        let span = rec.begin("Cluster::run");
        let outcome = cluster.run();
        let wall = rec.end(span);

        let mut rep = Rep {
            wall,
            ..Rep::default()
        };
        let per_client = (dims.rounds * dims.steps * 2) as u64;
        for (c, ((handle, thread), mirror)) in clients.iter().zip(&self.mirrors).enumerate() {
            let got = unit_result(&outcome, handle, *thread);
            let expected = mirror.drive(dims.rounds, salt);
            rep.ops(
                per_client,
                mismatch(&format!("client {c} fold"), got, expected),
            );
        }
        self.last_insns = cluster_samples(rec, &outcome, wall, rep.attempted, 0);
        self.probe.sample(rec);
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
    fn payload_total_is_fixed_and_order_follows_the_seed() {
        let total = |m: &Mirror| -> usize {
            m.arrays.iter().map(|a| a.len() * 4).sum::<usize>()
                + m.texts.iter().map(Vec::len).sum::<usize>()
        };
        let (a, b, c) = (Mirror::new(11, 9), Mirror::new(11, 9), Mirror::new(12, 9));
        assert_eq!(a, b);
        assert_ne!(a, c);
        // 64 B .. 16 KiB of each kind, whatever the order.
        assert_eq!(total(&a), 2 * (64 << 9) - 2 * 64);
        assert_eq!(total(&a), total(&c));
        let orders: Vec<Vec<usize>> = (1..20)
            .map(|s| Mirror::new(s, 9).texts.iter().map(Vec::len).collect())
            .collect();
        assert!(
            orders.iter().any(|o| o != &orders[0]),
            "the order is drawn from the seed"
        );
        assert_ne!(a.drive(2, 1), a.drive(2, 2));
    }
}
