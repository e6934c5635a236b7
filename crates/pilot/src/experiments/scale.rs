//! **E14** — many-flow scale-out: the fleet topology under 1/2/4 shards.
//!
//! Demonstrates the two halves of the scale story at once: the sharded
//! runner produces *byte-identical* telemetry and trace digests at every
//! shard count (the determinism column), while spreading the event-loop
//! work across threads (the balance column). Wall-clock time is
//! measured by `benchmark/` (`fleet-clean`), which owns the clock; this
//! experiment reports only deterministic quantities.

use crate::manyflow::{self, ManyFlowConfig};

/// One E14 row: the fleet under a given shard count.
#[derive(Debug, Clone)]
pub struct E14Row {
    /// Worker shards used.
    pub shards: usize,
    /// Sensors in the fleet.
    pub sensors: usize,
    /// DTN groups.
    pub dtns: usize,
    /// Packets delivered fleet-wide.
    pub delivered: u64,
    /// Simulator events processed fleet-wide.
    pub events: u64,
    /// Merged trace digest (equal across rows ⇔ deterministic).
    pub digest: u64,
    /// Largest shard's share of events minus the ideal `1/N` share —
    /// 0.0 is perfect balance.
    pub imbalance: f64,
}

/// Run the fleet at each shard count in `shard_counts`.
pub fn scale_rows(sensors: usize, seed: u64, shard_counts: &[usize]) -> Vec<E14Row> {
    shard_counts
        .iter()
        .map(|&shards| {
            let mut cfg = ManyFlowConfig::fleet(sensors, shards, seed);
            cfg.trace = sensors <= 1024;
            let report = manyflow::run(&cfg);
            let ideal = 1.0 / shards as f64;
            let worst = report
                .shard
                .shard_utilization()
                .into_iter()
                .fold(0.0f64, f64::max);
            E14Row {
                shards,
                sensors,
                dtns: cfg.dtns,
                delivered: report.shard.packets,
                events: report.shard.events,
                digest: report.shard.trace_digest,
                imbalance: (worst - ideal).max(0.0),
            }
        })
        .collect()
}

/// The quick (CI) variant: 256 sensors.
pub fn quick(seed: u64) -> Vec<E14Row> {
    scale_rows(256, seed, &[1, 2, 4])
}

/// The full variant: 10 000 sensors, as in the paper-scale fleet.
pub fn full(seed: u64) -> Vec<E14Row> {
    scale_rows(10_000, seed, &[1, 2, 4])
}

/// The high-K ladder: one row per fleet size in `sensors`, all at a fixed
/// shard count. The struct-of-arrays flow core plus virtual payload tails
/// make K = 1 000 000 feasible in one process; memory figures belong to
/// `mmt-sim fleet` (this experiment reports only deterministic quantities).
pub fn ladder(sensors: &[usize], shards: usize, seed: u64) -> Vec<E14Row> {
    sensors
        .iter()
        .flat_map(|&k| scale_rows(k, seed, &[shards]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_identical_across_shard_counts() {
        let rows = quick(9);
        assert_eq!(rows.len(), 3);
        assert!(rows.windows(2).all(|w| w[0].digest == w[1].digest));
        assert!(rows.windows(2).all(|w| w[0].delivered == w[1].delivered));
        assert!(rows.windows(2).all(|w| w[0].events == w[1].events));
        assert_eq!(rows[0].delivered, 256 * 8);
    }

    #[test]
    fn ladder_rows_scale_delivery_with_k() {
        let rows = ladder(&[64, 256], 2, 5);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].delivered, 64 * 8);
        assert_eq!(rows[1].delivered, 256 * 8);
        assert!(rows[1].events > rows[0].events);
    }

    #[test]
    fn sharding_spreads_load() {
        let rows = quick(2);
        let four = rows.iter().find(|r| r.shards == 4);
        match four {
            Some(r) => assert!(
                r.imbalance < 0.25,
                "16 groups over 4 shards should balance within 25% ({})",
                r.imbalance
            ),
            None => unreachable!("quick() always includes a 4-shard row"),
        }
    }
}
