//! The sequential match-action pipeline with its register file.

use crate::action::{execute, Disposition, Intrinsics};
use crate::parser::ParsedPacket;
use crate::resources::ResourceUsage;
use crate::table::Table;

/// A packet-processing pipeline: tables executed in order, sharing a
/// register file. Each table's matched (or default) actions run before the
/// next table is consulted — the straight-line control flow that maps onto
/// a Tofino stage sequence.
#[derive(Debug)]
pub struct Pipeline {
    tables: Vec<Table>,
    registers: Vec<u64>,
    /// Fixed per-packet processing latency (pipeline traversal time).
    pub latency_ns: u64,
}

impl Pipeline {
    /// Run the pipeline on one packet, producing its disposition.
    pub fn process(&mut self, pkt: &mut ParsedPacket, intr: Intrinsics) -> Disposition {
        let mut disp = Disposition::default();
        for table in &mut self.tables {
            // Clone the matched action list: actions may mutate the packet,
            // which invalidates a borrow into the table.
            for action in table.lookup(pkt) {
                execute(action, pkt, intr, &mut self.registers, &mut disp);
                if disp.dropped {
                    return disp;
                }
            }
        }
        disp
    }

    /// Read a register (telemetry counters, sequence counters).
    pub fn register(&self, idx: usize) -> u64 {
        self.registers[idx]
    }

    /// Set a register (control-plane write).
    pub fn set_register(&mut self, idx: usize, value: u64) {
        self.registers[idx] = value;
    }

    /// The tables, for inspection.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Mutable table access by name (control-plane entry updates when the
    /// caller knows the program's table names, not its stage order).
    pub fn table_mut_by_name(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.iter_mut().find(|t| t.name == name)
    }

    /// Per-stage (table) lookup statistics, in execution order:
    /// `(table name, hits, misses)`.
    pub fn stage_stats(&self) -> Vec<(&str, u64, u64)> {
        self.tables
            .iter()
            .map(|t| (t.name.as_str(), t.hits, t.misses))
            .collect()
    }

    /// Export per-table hit/miss counters into a metric registry, labeled
    /// by owning `element` and `table` name.
    pub fn export_metrics(&self, element: &str, reg: &mut mmt_telemetry::MetricRegistry) {
        reg.describe(
            "mmt_table_hits_total",
            "Match-action table lookups that hit an entry.",
        );
        reg.describe(
            "mmt_table_misses_total",
            "Match-action table lookups that fell to the default action.",
        );
        for (name, hits, misses) in self.stage_stats() {
            let labels = [("element", element), ("table", name)];
            reg.counter_add("mmt_table_hits_total", &labels, hits);
            reg.counter_add("mmt_table_misses_total", &labels, misses);
        }
    }

    /// Resource usage of this pipeline (for budget checks, experiment E8).
    pub fn resource_usage(&self) -> ResourceUsage {
        ResourceUsage {
            tables: self.tables.len(),
            entries: self.tables.iter().map(Table::len).sum(),
            key_fields: self.tables.iter().map(|t| t.key_fields.len()).sum(),
            registers: self.registers.len(),
        }
    }
}

/// Builder for [`Pipeline`].
#[derive(Debug, Default)]
pub struct PipelineBuilder {
    tables: Vec<Table>,
    registers: usize,
    latency_ns: u64,
}

impl PipelineBuilder {
    /// Start an empty pipeline.
    pub fn new() -> PipelineBuilder {
        PipelineBuilder::default()
    }

    /// Append a table (executes after those already added).
    #[must_use]
    pub fn table(mut self, table: Table) -> PipelineBuilder {
        self.tables.push(table);
        self
    }

    /// Allocate `n` registers (all start at zero).
    #[must_use]
    pub fn registers(mut self, n: usize) -> PipelineBuilder {
        self.registers = n;
        self
    }

    /// Set the fixed per-packet processing latency.
    #[must_use]
    pub fn latency_ns(mut self, ns: u64) -> PipelineBuilder {
        self.latency_ns = ns;
        self
    }

    /// Finish.
    pub fn build(self) -> Pipeline {
        Pipeline {
            tables: self.tables,
            registers: vec![0; self.registers],
            latency_ns: self.latency_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, ModeUpgrade};
    use crate::parser::build_eth_mmt_frame;
    use crate::table::{FieldValue, MatchField, TableEntry};
    use mmt_wire::mmt::{ExperimentId, MmtRepr};
    use mmt_wire::EthernetAddress;

    fn pkt(experiment: u32) -> ParsedPacket {
        let frame = build_eth_mmt_frame(
            EthernetAddress([2, 0, 0, 0, 0, 1]),
            EthernetAddress([2, 0, 0, 0, 0, 2]),
            &MmtRepr::data(ExperimentId::new(experiment, 0)),
            b"x",
        );
        ParsedPacket::parse(frame, 0)
    }

    fn intr() -> Intrinsics {
        Intrinsics {
            now_ns: 100,
            created_at_ns: 0,
        }
    }

    #[test]
    fn tables_execute_in_order() {
        // Table 1 upgrades (stamps a sequence), table 2 forwards.
        let mut upgrade = Table::new("upgrade", vec![MatchField::IsMmt]);
        upgrade.insert(TableEntry {
            key: vec![FieldValue::Exact(1)],
            priority: 0,
            actions: vec![Action::Upgrade(ModeUpgrade {
                sequence_from_register: Some(0),
                ..ModeUpgrade::none()
            })],
        });
        let forward = Table::new("route", vec![MatchField::IsMmt])
            .with_default(vec![Action::Forward { port: 1 }]);
        let mut pl = PipelineBuilder::new()
            .table(upgrade)
            .table(forward)
            .registers(1)
            .latency_ns(400)
            .build();
        let mut p = pkt(2);
        let d = pl.process(&mut p, intr());
        assert_eq!(d.egress, Some(1));
        assert_eq!(p.mmt_repr().unwrap().sequence(), Some(0));
        assert_eq!(pl.register(0), 1);
        assert_eq!(pl.latency_ns, 400);
        // Second packet gets the next sequence number.
        let mut p2 = pkt(2);
        pl.process(&mut p2, intr());
        assert_eq!(p2.mmt_repr().unwrap().sequence(), Some(1));
    }

    #[test]
    fn drop_short_circuits_later_tables() {
        let mut acl = Table::new("acl", vec![MatchField::MmtExperiment]);
        acl.insert(TableEntry {
            key: vec![FieldValue::Exact(9)],
            priority: 0,
            actions: vec![Action::Drop],
        });
        let count = Table::new("count", vec![MatchField::IsMmt]).with_default(vec![
            Action::Count { register: 0 },
            Action::Forward { port: 0 },
        ]);
        let mut pl = PipelineBuilder::new()
            .table(acl)
            .table(count)
            .registers(1)
            .build();
        let mut blocked = pkt(9);
        let d = pl.process(&mut blocked, intr());
        assert!(d.dropped);
        assert_eq!(pl.register(0), 0, "count table must not run after drop");
        let mut allowed = pkt(1);
        let d = pl.process(&mut allowed, intr());
        assert_eq!(d.egress, Some(0));
        assert_eq!(pl.register(0), 1);
    }

    #[test]
    fn control_plane_register_and_entry_updates() {
        let t = Table::new("t", vec![MatchField::IsMmt]);
        let mut pl = PipelineBuilder::new().table(t).registers(2).build();
        pl.set_register(1, 42);
        assert_eq!(pl.register(1), 42);
        pl.table_mut_by_name("t").unwrap().insert(TableEntry {
            key: vec![FieldValue::Any],
            priority: 0,
            actions: vec![Action::Forward { port: 5 }],
        });
        let mut p = pkt(1);
        assert_eq!(pl.process(&mut p, intr()).egress, Some(5));
    }

    #[test]
    fn resource_usage_reflects_structure() {
        let mut t1 = Table::new("a", vec![MatchField::IsMmt, MatchField::MmtExperiment]);
        t1.insert(TableEntry {
            key: vec![FieldValue::Any, FieldValue::Exact(1)],
            priority: 0,
            actions: vec![],
        });
        let t2 = Table::new("b", vec![MatchField::IngressPort]);
        let pl = PipelineBuilder::new()
            .table(t1)
            .table(t2)
            .registers(3)
            .build();
        let u = pl.resource_usage();
        assert_eq!(u.tables, 2);
        assert_eq!(u.entries, 1);
        assert_eq!(u.key_fields, 3);
        assert_eq!(u.registers, 3);
        assert_eq!(pl.tables().len(), 2);
    }
}
