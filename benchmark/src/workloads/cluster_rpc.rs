//! `cluster_rpc` — 32 units (24 clients, 8 echo shards) under
//! `Parallel(workers)`, int payloads, half the clients blocking in
//! `Service.call`, half keeping 16-deep `Service.post` windows, with a
//! mailbox quota low enough that senders park. Hub routing, mailbox
//! rings, park/unpark and the scheduler dominate; wire bytes are
//! negligible.

use super::{cluster_samples, mismatch, unit_result, workers, Rep, Size, Unit, Workload};
use crate::guest;
use crate::rng::SplitMix;
use crate::spans::Recorder;
use ijvm_core::prelude::*;

const SOURCE: &str = include_str!("../../guest/cluster_rpc.mj");

const SHARDS: usize = 8;
const CLIENTS: usize = 24;
/// Futures a windowed client keeps in flight (fixed in the guest source).
const WINDOW: i32 = 16;
/// Admitted-but-unserved requests per mailbox: a shard's windowed
/// clients alone can have 16 or 32 outstanding, so senders park.
const QUOTA_MESSAGES: u32 = 12;
const QUOTA_BYTES: u64 = 1 << 20;

/// Messages each client sends per repetition.
fn messages_per_client(size: Size) -> i32 {
    match size {
        Size::Full => 2_048,
        Size::Tiny => 32,
    }
}

/// Whether client `c` pipelines (`windowed`) or blocks per call. Every
/// shard serves both kinds: its three clients are `c`, `c + 8`, `c + 16`.
fn is_windowed(c: usize) -> bool {
    (c / SHARDS + c) % 2 == 1
}

fn echo(shard: i32, x: i32) -> i32 {
    x.wrapping_mul(31).wrapping_add(shard * 7 + 1)
}

fn lcg_step(x: i32) -> i32 {
    x.wrapping_mul(1_103_515_245).wrapping_add(12_345)
}

/// What `Client.blocking` returns.
pub fn mirror_blocking(shard: i32, n: i32, seed: i32) -> i32 {
    let (mut acc, mut x) = (0i32, seed);
    for _ in 0..n {
        let r = echo(shard, x);
        acc = acc.wrapping_mul(31).wrapping_add(r);
        x = lcg_step(x).wrapping_add(r & 255);
    }
    acc
}

/// What `Client.windowed` returns.
pub fn mirror_windowed(shard: i32, windows: i32, seed: i32) -> i32 {
    let (mut acc, mut x) = (0i32, seed);
    for _ in 0..windows {
        let base = x;
        for i in 0..WINDOW {
            let r = echo(shard, base.wrapping_add(i));
            acc = acc.wrapping_mul(31).wrapping_add(r);
            x = x.wrapping_add(r & 255);
        }
        x = lcg_step(x);
    }
    acc
}

pub struct ClusterRpc {
    classes: guest::Classes,
    options: VmOptions,
    per_client: i32,
    inputs: SplitMix,
    last_insns: u64,
}

pub fn setup(seed: u64, size: Size, rec: &mut Recorder) -> Box<dyn Workload> {
    Box::new(ClusterRpc {
        classes: guest::compile(rec, SOURCE),
        options: guest::vm_options(rec),
        per_client: messages_per_client(size),
        inputs: SplitMix::for_workload(seed, "cluster_rpc"),
        last_insns: 0,
    })
}

impl Workload for ClusterRpc {
    fn repetition(&mut self, rec: &mut Recorder) -> Rep {
        rec.next_trace();
        // Untimed: a cluster run consumes its units, so every repetition
        // boots fresh ones.
        let prep = rec.begin("prepare units");
        let mut cluster = Cluster::builder()
            .vm_options(self.options.clone())
            .scheduler(SchedulerKind::Parallel(workers()))
            .mailbox_quota(QUOTA_MESSAGES, QUOTA_BYTES)
            .build();
        for shard in 0..SHARDS {
            let unit = Unit::boot(
                rec,
                &self.options,
                &self.classes,
                "Boot",
                "start",
                "(I)I",
                &[shard as i32],
            );
            cluster.submit(unit.vm);
        }
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let shard = (c % SHARDS) as i32;
                let seed = self.inputs.next_i32();
                let (method, count, expected) = if is_windowed(c) {
                    let windows = self.per_client / WINDOW;
                    ("windowed", windows, mirror_windowed(shard, windows, seed))
                } else {
                    (
                        "blocking",
                        self.per_client,
                        mirror_blocking(shard, self.per_client, seed),
                    )
                };
                let unit = Unit::boot(
                    rec,
                    &self.options,
                    &self.classes,
                    "Client",
                    method,
                    "(III)I",
                    &[shard, count, seed],
                );
                (cluster.submit(unit.vm), unit.thread, expected)
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
        for (c, (handle, thread, expected)) in clients.iter().enumerate() {
            let got = unit_result(&outcome, handle, *thread);
            rep.ops(
                self.per_client as u64,
                mismatch(&format!("client {c} fold"), got, *expected),
            );
        }
        self.last_insns = cluster_samples(rec, &outcome, wall, rep.attempted, 0);
        // An int on the wire: the bytes the hub moves per message here.
        let mut buf = Vec::new();
        ijvm_core::wire::serialize_value(&outcome.units[0].vm, Value::Int(1), &mut buf);
        rec.sample("wire_bytes_per_msg", buf.len() as f64);
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
    fn every_shard_serves_both_kinds_of_client() {
        for shard in 0..SHARDS {
            let kinds: Vec<bool> = (0..CLIENTS)
                .filter(|c| c % SHARDS == shard)
                .map(is_windowed)
                .collect();
            assert_eq!(kinds.len(), 3);
            assert!(kinds.contains(&true) && kinds.contains(&false));
        }
        assert_eq!(
            (0..CLIENTS).filter(|c| is_windowed(*c)).count(),
            CLIENTS / 2
        );
    }

    #[test]
    fn mirrors_follow_seed_and_shard() {
        assert_eq!(mirror_blocking(1, 9, 5), mirror_blocking(1, 9, 5));
        assert_ne!(mirror_blocking(1, 9, 5), mirror_blocking(1, 9, 6));
        assert_ne!(mirror_blocking(1, 9, 5), mirror_blocking(2, 9, 5));
        assert_ne!(mirror_windowed(1, 2, 5), mirror_windowed(1, 2, 6));
        assert_eq!(mirror_blocking(0, 0, 5), 0);
    }
}
