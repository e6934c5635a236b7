//! Columnar per-link metric export — the flow-table idea applied to the
//! telemetry plane.
//!
//! The eager export path materializes one labeled registry row per
//! nonzero per-link series: an `Arc`'d label set (three heap `String`s)
//! plus a B-tree entry per metric, per link. At fleet scale that
//! dominates the footprint — every group's registry sits fully
//! materialized until the merge folds them, ~1 kB per link against
//! ~40 B of actual protocol state per flow.
//!
//! [`LinkStatsBlock`] is the diet: each simulator exports its per-link
//! counters and gauges into a dense packed table (one row of plain
//! words per link, node names interned once per block). Blocks merge
//! numerically — counters add, gauges overwrite, exactly the
//! [`MetricRegistry::absorb`] semantics for the same rows — and the
//! merged block is materialized into real registry rows *once*, after
//! the last group has been folded. Rendered output is byte-identical
//! to the eager path; only the intermediate representation changes.
//!
//! A block keeps no index. Every fleet group exports the same
//! `(link, src, dst)` identities in the same order, so a merge folds
//! row by row; only blocks with different layouts pay for a keyed
//! merge, through an index built for that merge alone.

use std::collections::BTreeMap;

use mmt_telemetry::{LabelSet, MetricRegistry, MetricValue};

/// Per-link counters, in export order (values are written sparsely:
/// zero cells produce no row, matching the eager exporter).
pub const LINK_COUNTERS: [&str; 13] = [
    "mmt_link_offered_packets_total",
    "mmt_link_offered_bytes_total",
    "mmt_link_tx_packets_total",
    "mmt_link_tx_bytes_total",
    "mmt_link_delivered_packets_total",
    "mmt_link_mtu_drops_total",
    "mmt_link_queue_drops_total",
    "mmt_link_corruption_losses_total",
    "mmt_link_queue_shed_aged_total",
    "mmt_link_flap_drops_total",
    "mmt_link_control_drops_total",
    "mmt_link_dup_injected_total",
    "mmt_link_reordered_total",
];

/// Per-link gauges, in export order. Gauges follow last-writer-wins on
/// merge (only nonzero writers count), matching `absorb`.
pub const LINK_GAUGES: [&str; 4] = [
    "mmt_link_utilization",
    "mmt_link_throughput_bps",
    "mmt_link_queue_occupancy_bytes",
    "mmt_link_queue_occupancy_packets",
];

/// One packed link row: identity plus every exported cell as a plain
/// word. Gauges store `f64` bits. 152 B/link, no per-row heap.
#[derive(Debug, Clone)]
struct PackedLinkRow {
    /// Group-local link index (the `link` label value).
    link: u32,
    /// Interned source node name.
    src: u32,
    /// Interned destination node name.
    dst: u32,
    /// Counter cells, parallel to [`LINK_COUNTERS`].
    counters: [u64; LINK_COUNTERS.len()],
    /// Gauge cells (`f64::to_bits`), parallel to [`LINK_GAUGES`].
    gauges: [u64; LINK_GAUGES.len()],
}

/// A dense table of per-link metric cells; see the module docs. No two
/// rows share an identity.
#[derive(Debug, Clone, Default)]
pub struct LinkStatsBlock {
    /// Interned node names (label values), deduplicated.
    names: Vec<String>,
    rows: Vec<PackedLinkRow>,
    /// Above every row's link index: a push at or above it is a new
    /// identity without a search.
    link_bound: u32,
}

impl LinkStatsBlock {
    /// An empty block.
    pub fn new() -> LinkStatsBlock {
        LinkStatsBlock::default()
    }

    /// Links recorded in this block.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the block records no links at all.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn intern(&mut self, name: &str) -> u32 {
        match self.names.iter().position(|n| n == name) {
            Some(at) => at as u32,
            None => {
                self.names.push(name.to_string());
                (self.names.len() - 1) as u32
            }
        }
    }

    fn name(&self, id: u32) -> &str {
        self.names
            .get(id as usize)
            .map(String::as_str)
            .unwrap_or("")
    }

    fn append(&mut self, row: PackedLinkRow) {
        self.link_bound = self.link_bound.max(row.link.saturating_add(1));
        self.rows.push(row);
    }

    /// Record one link's export snapshot. A link index above every row's
    /// is a new identity (an export pushes its links in ascending
    /// order); any other push folds into an earlier row of the same
    /// identity like a merge, so the block stays equivalent to two
    /// absorbed registries.
    pub fn push(
        &mut self,
        link: u32,
        src: &str,
        dst: &str,
        counters: [u64; LINK_COUNTERS.len()],
        gauges: [f64; LINK_GAUGES.len()],
    ) {
        let src = self.intern(src);
        let dst = self.intern(dst);
        let mut bits = [0u64; LINK_GAUGES.len()];
        for (cell, value) in bits.iter_mut().zip(gauges) {
            *cell = value.to_bits();
        }
        let earlier = if link < self.link_bound {
            (self.rows.iter_mut()).find(|r| (r.link, r.src, r.dst) == (link, src, dst))
        } else {
            None
        };
        match earlier {
            Some(row) => fold_row(row, &counters, &bits),
            None => self.append(PackedLinkRow {
                link,
                src,
                dst,
                counters,
                gauges: bits,
            }),
        }
    }

    /// Fold another block into this one: counters add; gauges are
    /// overwritten by nonzero incoming cells (a zero gauge was never
    /// exported by the eager path, so it must not clobber). Blocks that
    /// list the same identities in the same order fold row by row;
    /// others merge by identity.
    pub fn merge_from(&mut self, other: &LinkStatsBlock) {
        // `other`'s name ids, as this block interns them.
        let names: Vec<u32> = other.names.iter().map(|n| self.intern(n)).collect();
        let identity = |row: &PackedLinkRow| {
            let name = |id: u32| names.get(id as usize).copied().unwrap_or(u32::MAX);
            (row.link, name(row.src), name(row.dst))
        };
        let adopt = |row: &PackedLinkRow| {
            let (link, src, dst) = identity(row);
            PackedLinkRow {
                link,
                src,
                dst,
                ..row.clone()
            }
        };
        if self.rows.is_empty() {
            self.rows = other.rows.iter().map(adopt).collect();
            self.link_bound = other.link_bound;
            return;
        }
        let aligned = self.rows.len() == other.rows.len()
            && (self.rows.iter().zip(&other.rows))
                .all(|(mine, row)| (mine.link, mine.src, mine.dst) == identity(row));
        if aligned {
            for (mine, row) in self.rows.iter_mut().zip(&other.rows) {
                fold_row(mine, &row.counters, &row.gauges);
            }
            return;
        }
        let mut index: BTreeMap<(u32, u32, u32), usize> = (self.rows.iter().enumerate())
            .map(|(at, r)| ((r.link, r.src, r.dst), at))
            .collect();
        for row in &other.rows {
            match index.get(&identity(row)) {
                Some(&at) => fold_row(&mut self.rows[at], &row.counters, &row.gauges),
                None => {
                    index.insert(identity(row), self.rows.len());
                    self.append(adopt(row));
                }
            }
        }
    }

    /// Materialize real registry rows — byte-identical to the eager
    /// per-link exporter run over the same (merged) stats: zero cells
    /// are omitted, everything else lands under the `link`/`src`/`dst`
    /// label set the eager path used. Rows are sorted by label set once,
    /// and each metric's series is then built in one bulk insert.
    // mmt-lint: cold
    pub fn materialize(&self, reg: &mut MetricRegistry) {
        if !reg.is_enabled() {
            return;
        }
        let mut rows: Vec<(LabelSet, &PackedLinkRow)> = (self.rows.iter())
            .map(|row| {
                let link_s = row.link.to_string();
                let labels = LabelSet::new(&[
                    ("link", link_s.as_str()),
                    ("src", self.name(row.src)),
                    ("dst", self.name(row.dst)),
                ]);
                (labels, row)
            })
            .collect();
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        for (cell, name) in LINK_COUNTERS.iter().enumerate() {
            let series = rows.iter().filter_map(|(labels, row)| {
                let value = row.counters[cell];
                (value != 0).then(|| (labels.clone(), MetricValue::Counter(value)))
            });
            reg.extend(name, series);
        }
        for (cell, name) in LINK_GAUGES.iter().enumerate() {
            let series = rows.iter().filter_map(|(labels, row)| {
                let value = f64::from_bits(row.gauges[cell]);
                // mmt-lint: allow(F1, "exact zero test on export-time gauge cells; mirrors the eager exporter's sparseness rule")
                (value != 0.0).then(|| (labels.clone(), MetricValue::Gauge(value)))
            });
            reg.extend(name, series);
        }
    }
}

fn fold_row(
    row: &mut PackedLinkRow,
    counters: &[u64; LINK_COUNTERS.len()],
    gauge_bits: &[u64; LINK_GAUGES.len()],
) {
    for (mine, incoming) in row.counters.iter_mut().zip(counters) {
        *mine += incoming;
    }
    for (mine, incoming) in row.gauges.iter_mut().zip(gauge_bits) {
        // mmt-lint: allow(F1, "exact zero test replicating registry absorb: only a row that was actually exported overwrites")
        if f64::from_bits(*incoming) != 0.0 {
            *mine = *incoming;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use mmt_telemetry::prometheus;

    fn eager(reg: &mut MetricRegistry, link: u32, src: &str, dst: &str, tx: u64, util: f64) {
        let link_s = link.to_string();
        let labels = LabelSet::new(&[("link", link_s.as_str()), ("src", src), ("dst", dst)]);
        if tx != 0 {
            reg.counter_add_set("mmt_link_tx_packets_total", &labels, tx);
        }
        if util != 0.0 {
            reg.gauge_set_set("mmt_link_utilization", &labels, util);
        }
    }

    fn block_row(_link: u32, tx: u64, util: f64) -> ([u64; 13], [f64; 4]) {
        let mut counters = [0u64; 13];
        counters[2] = tx;
        let mut gauges = [0.0f64; 4];
        gauges[0] = util;
        (counters, gauges)
    }

    /// One exported row: identity and cells.
    type Row = (u32, &'static str, &'static str, [u64; 13], [f64; 4]);

    /// The eager per-row exporter: one registry write per nonzero cell.
    fn eager_row(reg: &mut MetricRegistry, (link, src, dst, counters, gauges): &Row) {
        let link_s = link.to_string();
        let labels = LabelSet::new(&[("link", link_s.as_str()), ("src", src), ("dst", dst)]);
        for (name, &value) in LINK_COUNTERS.iter().zip(counters) {
            if value != 0 {
                reg.counter_add_set(name, &labels, value);
            }
        }
        for (name, &value) in LINK_GAUGES.iter().zip(gauges) {
            if value != 0.0 {
                reg.gauge_set_set(name, &labels, value);
            }
        }
    }

    /// A random group export over `base`: the same identities in the
    /// same order, a permutation of them (now and then with one pushed
    /// twice), or a partial overlap with identities of its own. About
    /// half of all cells are zero.
    fn random_group(rng: &mut SimRng, base: &[(u32, &'static str, &'static str)]) -> Vec<Row> {
        let mut ids = base.to_vec();
        match rng.next_bounded(3) {
            0 => {}
            1 => {
                for i in (1..ids.len()).rev() {
                    ids.swap(i, rng.next_bounded(i as u64 + 1) as usize);
                }
                if !ids.is_empty() && rng.chance(0.3) {
                    ids.push(ids[rng.next_bounded(ids.len() as u64) as usize]);
                }
            }
            _ => {
                ids.retain(|_| rng.chance(0.6));
                for k in 0..rng.next_bounded(4) {
                    ids.push((100 + k as u32, "sensor", "standby"));
                }
            }
        }
        let cell = |rng: &mut SimRng| {
            if rng.chance(0.5) {
                0
            } else {
                1 + rng.next_bounded(1000)
            }
        };
        ids.into_iter()
            .map(|(link, src, dst)| {
                let counters = std::array::from_fn(|_| cell(rng));
                let gauges = std::array::from_fn(|_| cell(rng) as f64 / 8.0);
                (link, src, dst, counters, gauges)
            })
            .collect()
    }

    #[test]
    fn materialized_rows_match_the_eager_exporter() {
        let names = ["sensor", "dtn", "standby"];
        let mut rng = SimRng::new(0x11CE);
        for trial in 0..200 {
            let base: Vec<_> = (0..rng.next_bounded(12) as u32)
                .map(|link| {
                    let src = names[rng.next_bounded(2) as usize];
                    (link, src, names[1 + rng.next_bounded(2) as usize])
                })
                .collect();
            let groups: Vec<Vec<Row>> = (0..1 + rng.next_bounded(4))
                .map(|_| random_group(&mut rng, &base))
                .collect();
            // Reference: every group's rows written eagerly, in order.
            let mut eager_reg = MetricRegistry::new();
            let mut merged = LinkStatsBlock::new();
            for rows in &groups {
                let mut block = LinkStatsBlock::new();
                for row in rows {
                    eager_row(&mut eager_reg, row);
                    let (link, src, dst, counters, gauges) = *row;
                    block.push(link, src, dst, counters, gauges);
                }
                merged.merge_from(&block);
            }
            let mut packed_reg = MetricRegistry::new();
            merged.materialize(&mut packed_reg);
            assert_eq!(
                prometheus::render(&eager_reg),
                prometheus::render(&packed_reg),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn a_zero_gauge_keeps_an_earlier_nonzero_one() {
        let row = |util: f64| -> Row { (0, "sensor", "dtn", [0; 13], [util, 0.0, 0.0, 0.0]) };
        for layout in [[row(0.5), row(0.0)], [row(0.0), row(0.5)]] {
            let mut eager_reg = MetricRegistry::new();
            let mut merged = LinkStatsBlock::new();
            for r in &layout {
                eager_row(&mut eager_reg, r);
                let mut block = LinkStatsBlock::new();
                let (link, src, dst, counters, gauges) = *r;
                block.push(link, src, dst, counters, gauges);
                merged.merge_from(&block);
            }
            let mut packed_reg = MetricRegistry::new();
            merged.materialize(&mut packed_reg);
            let labels = [("link", "0"), ("src", "sensor"), ("dst", "dtn")];
            assert_eq!(packed_reg.gauge("mmt_link_utilization", &labels), Some(0.5));
            assert_eq!(
                prometheus::render(&eager_reg),
                prometheus::render(&packed_reg)
            );
        }
    }

    #[test]
    fn merge_matches_registry_absorb() {
        // Two groups exporting the same link identity: counters must
        // sum, the later nonzero gauge must win — exactly absorb.
        let mut a_reg = MetricRegistry::new();
        eager(&mut a_reg, 3, "sensor", "dtn", 5, 0.1);
        let mut b_reg = MetricRegistry::new();
        eager(&mut b_reg, 3, "sensor", "dtn", 9, 0.0); // gauge not exported
        let mut merged_reg = MetricRegistry::new();
        merged_reg.absorb(&a_reg);
        merged_reg.absorb(&b_reg);

        let mut a = LinkStatsBlock::new();
        let (c, g) = block_row(3, 5, 0.1);
        a.push(3, "sensor", "dtn", c, g);
        let mut b = LinkStatsBlock::new();
        let (c, g) = block_row(3, 9, 0.0);
        b.push(3, "sensor", "dtn", c, g);
        let mut merged = LinkStatsBlock::new();
        merged.merge_from(&a);
        merged.merge_from(&b);
        assert_eq!(merged.len(), 1);
        let mut packed_reg = MetricRegistry::new();
        merged.materialize(&mut packed_reg);
        assert_eq!(
            prometheus::render(&merged_reg),
            prometheus::render(&packed_reg)
        );
    }

    #[test]
    fn distinct_identities_stay_distinct() {
        let mut merged = LinkStatsBlock::new();
        let (c, g) = block_row(0, 1, 0.0);
        merged.push(0, "sensor", "dtn", c, g);
        let (c, g) = block_row(0, 1, 0.0);
        merged.push(0, "sensor", "standby", c, g);
        let (c, g) = block_row(1, 1, 0.0);
        merged.push(1, "sensor", "dtn", c, g);
        assert_eq!(merged.len(), 3);
        assert!(!merged.is_empty());
    }
}
