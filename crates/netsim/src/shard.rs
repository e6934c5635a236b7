//! Sharded simulation runner: scale-out across OS threads without giving
//! up byte-identical determinism.
//!
//! ## Partitioning rule
//!
//! A workload is split into `G` independent **flow groups** (no links,
//! packets, or RNG streams cross a group boundary — each group is its own
//! [`crate::Simulator`]). Group `g` runs on shard `g % N`; each shard
//! executes its groups in ascending group order on one `std::thread`.
//!
//! ## Why byte-equality holds
//!
//! Each group's seed is derived from `(root_seed, g)` with
//! [`crate::SimRng::fork_frozen`] — a pure function of the root seed and
//! the group id, never of the shard count or thread interleaving. A group
//! therefore produces the same event sequence, telemetry, and trace no
//! matter which shard (or how many shards) ran it. The merge step then
//! folds per-group results in ascending **group** order — not completion
//! order — so the merged registry and the combined digest are identical
//! for 1, 2, 4, … shards and identical to a serial loop over the groups.
//!
//! Threads only change *wall-clock* time, which is exactly the quantity
//! `benchmark/` measures (wall-clock never enters this crate; the
//! determinism lint bans it here).

use std::collections::BTreeMap;
use std::sync::mpsc;

use crate::linkstats::LinkStatsBlock;
use crate::rng::SimRng;
use mmt_telemetry::{MetricRegistry, SeriesRow, TraceRecord};

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64-bit hasher (dependency-free, platform-stable),
/// used to fold traces and telemetry into comparable digests.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(FNV_OFFSET)
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest a slice of flow-correlated trace records. Field order is fixed,
/// so equal digests mean byte-identical traces (modulo 64-bit collisions).
pub fn digest_trace(records: &[TraceRecord]) -> u64 {
    let mut h = Fnv64::new();
    for r in records {
        h.write_u64(r.ts_ns);
        h.write(r.kind.as_bytes());
        h.write_u64(r.node.map_or(u64::MAX, |v| v));
        h.write_u64(r.link.map_or(u64::MAX, |v| v));
        h.write_u64(r.packet_id);
        h.write_u64(r.flow);
        h.write_u64(r.seq.map_or(u64::MAX, |v| v));
        h.write_u64(r.config.map_or(u64::MAX, |v| v));
        h.write_u64(r.len_bytes);
    }
    h.finish()
}

/// Digest a slice of trace records *keyed by flow*, skipping the node
/// index. Flow-state refactors that re-house flows in different node
/// objects (one fleet node vs. one node per sensor) keep every
/// wire-observable field — timestamps, links, packet ids, flows, seqs,
/// lengths — but renumber nodes; this digest is the invariant they are
/// held to. Where node identity matters, use [`digest_trace`].
pub fn digest_trace_flow(records: &[TraceRecord]) -> u64 {
    let mut h = Fnv64::new();
    for r in records {
        h.write_u64(r.ts_ns);
        h.write(r.kind.as_bytes());
        h.write_u64(r.link.map_or(u64::MAX, |v| v));
        h.write_u64(r.packet_id);
        h.write_u64(r.flow);
        h.write_u64(r.seq.map_or(u64::MAX, |v| v));
        h.write_u64(r.config.map_or(u64::MAX, |v| v));
        h.write_u64(r.len_bytes);
    }
    h.finish()
}

/// Digest a rendered string (e.g. a Prometheus exposition of a registry).
pub fn digest_str(s: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write(s.as_bytes());
    h.finish()
}

/// What one flow group produced: its telemetry, its trace digest, and the
/// deterministic work counters the load report is built from.
#[derive(Debug)]
pub struct GroupResult {
    /// Merged into the run's registry in ascending group order.
    pub registry: MetricRegistry,
    /// Packed per-link metric cells (from
    /// [`crate::Simulator::export_metrics_split`]); folded numerically
    /// across groups and materialized into the merged registry once,
    /// after the last group. Leave empty (the default) when the group's
    /// registry already carries its link rows eagerly.
    pub links: LinkStatsBlock,
    /// Digest of the group's trace (see [`digest_trace`]).
    pub trace_digest: u64,
    /// Simulator events the group processed.
    pub events: u64,
    /// Packets the group delivered.
    pub packets: u64,
    /// Sampled time-series rows (empty unless sampling is enabled).
    /// Concatenated in ascending group order at merge, so the merged
    /// JSONL is byte-identical across shard/worker counts — the
    /// streaming analogue of `MetricRegistry::absorb`.
    pub series: Vec<SeriesRow>,
}

/// Deterministic per-shard load summary (virtual work, not wall time —
/// wall time belongs to `benchmark/`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardLoad {
    /// Groups the shard executed.
    pub groups: u64,
    /// Events processed across those groups.
    pub events: u64,
    /// Packets delivered across those groups.
    pub packets: u64,
}

/// The merged outcome of a sharded run. Byte-identical across shard
/// counts for a fixed `(root_seed, groups, workload)`.
#[derive(Debug)]
pub struct ShardReport {
    /// All group registries absorbed in ascending group order.
    pub registry: MetricRegistry,
    /// Per-group trace digests folded in ascending group order.
    pub trace_digest: u64,
    /// Total events processed.
    pub events: u64,
    /// Total packets delivered.
    pub packets: u64,
    /// Deterministic load per shard (indexed by shard id).
    pub shard_loads: Vec<ShardLoad>,
    /// Per-group series rows concatenated in ascending group order.
    pub series: Vec<SeriesRow>,
}

impl ShardReport {
    /// Each shard's share of total events, in `[0, 1]` (the utilization
    /// proxy E14 reports; 1/N everywhere means perfect balance).
    pub fn shard_utilization(&self) -> Vec<f64> {
        let total = self.events.max(1) as f64;
        self.shard_loads
            .iter()
            // mmt-lint: allow(F1, "report-side load share; never enters the sim or its digests")
            .map(|l| l.events as f64 / total)
            .collect()
    }
}

/// Partitions independent flow groups across worker threads. See the
/// module docs for the determinism argument.
///
/// **Logical shards vs worker threads.** The shard count defines the
/// *partition* (group `g` belongs to shard `g % N`, and the load report
/// has N entries); the number of OS threads actually spawned is clamped
/// to the host's available parallelism, because running 4 threads on 1
/// core only adds scheduler thrash. Outputs never depend on the worker
/// count — only wall-clock time does — so the clamp is invisible to the
/// determinism contract.
#[derive(Debug, Clone, Copy)]
pub struct ShardedSim {
    root_seed: u64,
    shards: usize,
    workers: Option<usize>,
}

impl ShardedSim {
    /// A runner partitioned into `shards` logical shards (clamped to at
    /// least 1), executed on up to that many worker threads.
    pub fn new(root_seed: u64, shards: usize) -> ShardedSim {
        ShardedSim {
            root_seed,
            shards: shards.max(1),
            workers: None,
        }
    }

    /// Force the worker-thread count (tests use this to exercise the
    /// threaded path regardless of host core count).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> ShardedSim {
        self.workers = Some(workers.max(1));
        self
    }

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// OS threads the run will use: `min(shards, available cores)` unless
    /// overridden by [`ShardedSim::with_workers`].
    pub fn worker_count(&self) -> usize {
        match self.workers {
            Some(w) => w.min(self.shards),
            None => {
                let hw = std::thread::available_parallelism().map_or(1, std::num::NonZero::get); // mmt-lint: allow(D2, "capacity probe only; group→shard mapping keeps results identical at any worker count")
                self.shards.min(hw.max(1))
            }
        }
    }

    /// The seed group `g` runs with — a pure function of `(root_seed, g)`,
    /// independent of the shard count, which is what makes sharded and
    /// serial runs byte-identical.
    pub fn group_seed(&self, group: usize) -> u64 {
        SimRng::new(self.root_seed)
            .fork_frozen(group as u64 ^ 0x5CA1_AB1E_0000_0000)
            .next_u64()
    }

    /// Run `groups` flow groups through `run_group(group, group_seed)`,
    /// merging results in ascending group order. With one worker the
    /// groups run on the calling thread (the serial reference); with
    /// more, worker `w` owns groups `g ≡ w (mod workers)` on its own
    /// thread. Accounting always attributes group `g` to logical shard
    /// `g % shards`, so load reports are identical at any worker count.
    // mmt-lint: cold
    pub fn run<F>(&self, groups: usize, run_group: F) -> ShardReport
    where
        F: Fn(usize, u64) -> GroupResult + Send + Sync,
    {
        let workers = self.worker_count();
        let mut merge = MergeAcc::new(self.shards);
        if workers == 1 {
            for g in 0..groups {
                // Fold immediately: exactly one group's telemetry is
                // ever alive alongside the accumulator, which is what
                // keeps fleet-scale peak RSS flat in the group count.
                merge.offer(g, g % self.shards, run_group(g, self.group_seed(g)));
            }
        } else {
            let (tx, rx) = mpsc::channel::<(usize, GroupResult)>();
            let this = *self;
            // mmt-lint: allow(D2, "deliberate parallelism: groups are seed-isolated and merged in ascending order, so the result is byte-identical to the serial run")
            std::thread::scope(|scope| {
                for worker in 0..workers {
                    let tx = tx.clone();
                    let run_group = &run_group;
                    scope.spawn(move || {
                        let mut g = worker;
                        while g < groups {
                            let result = run_group(g, this.group_seed(g));
                            // The receiver outlives the scope; a send can
                            // only fail if it was dropped early, in which
                            // case losing the result is the right outcome.
                            let _ = tx.send((g, result));
                            g += workers;
                        }
                    });
                }
            });
            drop(tx);
            // Results arrive in completion order; the accumulator holds
            // out-of-order arrivals and folds each contiguous prefix in
            // ascending group order, so the merge is byte-identical to
            // the serial loop while freeing group telemetry early.
            for (g, result) in rx {
                merge.offer(g, g % self.shards, result);
            }
        }
        merge.finish()
    }
}

/// Merge accumulator: folds [`GroupResult`]s in ascending group order
/// regardless of arrival order, releasing each group's telemetry as soon
/// as it is absorbed. Out-of-order arrivals wait in `pending`; the fold
/// itself is identical to the old collect-then-merge loop, so digests
/// and registries are byte-identical — only peak memory changes.
struct MergeAcc {
    registry: MetricRegistry,
    links: LinkStatsBlock,
    digest: Fnv64,
    events: u64,
    packets: u64,
    shard_loads: Vec<ShardLoad>,
    series: Vec<SeriesRow>,
    /// Next group id the fold is waiting for.
    next: usize,
    /// Groups that finished ahead of `next`, keyed by group id.
    pending: BTreeMap<usize, (usize, GroupResult)>,
}

impl MergeAcc {
    // mmt-lint: cold
    fn new(shards: usize) -> MergeAcc {
        MergeAcc {
            registry: MetricRegistry::new(),
            links: LinkStatsBlock::new(),
            digest: Fnv64::new(),
            events: 0,
            packets: 0,
            shard_loads: vec![ShardLoad::default(); shards],
            series: Vec::new(),
            next: 0,
            pending: BTreeMap::new(),
        }
    }

    /// Hand over group `g`'s result; folds it now if it is next in
    /// ascending order, otherwise parks it until the gap closes.
    // mmt-lint: cold
    fn offer(&mut self, g: usize, shard: usize, result: GroupResult) {
        if g == self.next {
            self.fold(g, shard, result);
            self.next += 1;
            while let Some((shard, result)) = self.pending.remove(&self.next) {
                let g = self.next;
                self.fold(g, shard, result);
                self.next += 1;
            }
        } else {
            self.pending.insert(g, (shard, result));
        }
    }

    // mmt-lint: cold
    fn fold(&mut self, g: usize, shard: usize, mut result: GroupResult) {
        self.registry.absorb(&result.registry);
        self.links.merge_from(&result.links);
        self.digest.write_u64(g as u64);
        self.digest.write_u64(result.trace_digest);
        self.events += result.events;
        self.packets += result.packets;
        self.series.append(&mut result.series);
        if let Some(load) = self.shard_loads.get_mut(shard) {
            load.groups += 1;
            load.events += result.events;
            load.packets += result.packets;
        }
    }

    /// Fold any still-pending groups (ascending) and materialize the
    /// packed link cells into the merged registry.
    // mmt-lint: cold
    fn finish(mut self) -> ShardReport {
        let pending = std::mem::take(&mut self.pending);
        for (g, (shard, result)) in pending {
            self.fold(g, shard, result);
        }
        self.links.materialize(&mut self.registry);
        ShardReport {
            registry: self.registry,
            trace_digest: self.digest.finish(),
            events: self.events,
            packets: self.packets,
            shard_loads: self.shard_loads,
            series: self.series,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::node::Sink;
    use crate::packet::Packet;
    use crate::sim::Simulator;
    use crate::time::{Bandwidth, Time};

    /// A tiny but non-trivial group: one seeded burst into a sink over a
    /// lossy-free gigabit link, sized by the group's own RNG stream.
    fn run_group(group: usize, group_seed: u64) -> GroupResult {
        let mut sim = Simulator::new(group_seed);
        sim.enable_trace();
        let src = sim.add_node("src", Box::new(Sink));
        let dst = sim.add_node("dst", Box::new(Sink));
        sim.add_oneway(
            src,
            1,
            dst,
            0,
            LinkSpec::new(Bandwidth::gbps(1), Time::from_micros(10)),
        );
        let n = 3 + (SimRng::new(group_seed).next_bounded(5) as usize);
        for i in 0..n {
            let mut pkt = Packet::with_flow(vec![0u8; 200 + group], group as u64);
            pkt.meta.seq = Some(i as u64);
            sim.inject(Time::from_micros(i as u64), src, 5, pkt);
        }
        sim.run();
        let mut registry = MetricRegistry::new();
        sim.export_metrics(&mut registry);
        GroupResult {
            registry,
            links: LinkStatsBlock::new(),
            trace_digest: digest_trace(&sim.trace_records()),
            events: 0,
            packets: 0,
            series: Vec::new(),
        }
    }

    #[test]
    fn group_seed_ignores_shard_count() {
        for g in 0..16 {
            assert_eq!(
                ShardedSim::new(42, 1).group_seed(g),
                ShardedSim::new(42, 4).group_seed(g)
            );
        }
        assert_ne!(
            ShardedSim::new(42, 1).group_seed(0),
            ShardedSim::new(42, 1).group_seed(1)
        );
    }

    #[test]
    fn sharded_matches_serial_exactly() {
        let serial = ShardedSim::new(7, 1).run(9, run_group);
        for shards in [2, 3, 4, 8] {
            // Force real threads even on single-core CI hosts, where the
            // default clamp would fall back to the calling thread.
            let sharded = ShardedSim::new(7, shards)
                .with_workers(shards)
                .run(9, run_group);
            assert_eq!(
                mmt_telemetry::prometheus::render(&serial.registry),
                mmt_telemetry::prometheus::render(&sharded.registry),
                "{shards}-shard registry must render byte-identically"
            );
            assert_eq!(serial.trace_digest, sharded.trace_digest);
        }
    }

    #[test]
    fn worker_clamp_never_exceeds_shards() {
        assert_eq!(ShardedSim::new(1, 4).with_workers(16).worker_count(), 4);
        assert_eq!(ShardedSim::new(1, 1).worker_count(), 1);
        assert!(ShardedSim::new(1, 8).worker_count() >= 1);
    }

    #[test]
    fn loads_cover_all_groups() {
        let report = ShardedSim::new(1, 4).run(10, |g, seed| GroupResult {
            registry: MetricRegistry::new(),
            links: LinkStatsBlock::new(),
            trace_digest: seed,
            events: 10 + g as u64,
            packets: 1,
            series: Vec::new(),
        });
        assert_eq!(report.shard_loads.len(), 4);
        assert_eq!(report.shard_loads.iter().map(|l| l.groups).sum::<u64>(), 10);
        // Groups 0..10 over 4 shards: 3, 3, 2, 2.
        assert_eq!(report.shard_loads[0].groups, 3);
        assert_eq!(report.shard_loads[3].groups, 2);
        assert_eq!(report.packets, 10);
        assert_eq!(
            report.events,
            (0..10u64).map(|g| 10 + g).sum::<u64>(),
            "event totals fold across shards"
        );
        let util = report.shard_utilization();
        assert_eq!(util.len(), 4);
        assert!((util.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn series_merge_ignores_worker_layout() {
        let run = |workers| {
            let report = ShardedSim::new(5, 4)
                .with_workers(workers)
                .run(8, |g, _seed| {
                    let g_s = g.to_string();
                    GroupResult {
                        registry: MetricRegistry::new(),
                        links: LinkStatsBlock::new(),
                        trace_digest: 0,
                        events: 0,
                        packets: 0,
                        series: vec![SeriesRow::counter(
                            0,
                            "x",
                            &[("group", g_s.as_str())],
                            g as u64,
                        )],
                    }
                });
            mmt_telemetry::series::to_jsonl(&report.series)
        };
        let s1 = run(1);
        for w in [2, 4, 8] {
            assert_eq!(s1, run(w), "{w}-worker series must merge byte-identically");
        }
        let first = s1.lines().next().unwrap_or("");
        assert!(first.contains("\"group\":\"0\""), "ascending group order");
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let s = ShardedSim::new(3, 0);
        assert_eq!(s.shards(), 1);
        let report = s.run(2, run_group);
        assert_eq!(report.shard_loads.len(), 1);
    }

    #[test]
    fn fnv_digest_is_stable() {
        // Canonical FNV-1a 64 test vector: the empty input hashes to the
        // offset basis, and "a" to 0xaf63dc4c8601ec8c.
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest_str("a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.write_u64(7);
        assert_ne!(h.finish(), digest_str("a"));
    }
}
