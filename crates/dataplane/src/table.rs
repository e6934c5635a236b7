//! Match tables: the P4 `table` abstraction over MMT-relevant header
//! fields.

use crate::action::Action;
use crate::parser::{PacketLayers, ParsedPacket};

/// Header fields a table can match on. The set is intentionally small —
/// exactly what the paper's programs need — mirroring how a P4 program
/// declares its keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchField {
    /// The port the frame arrived on.
    IngressPort,
    /// The frame's EtherType.
    EtherType,
    /// Whether the frame carries MMT at all (1) or not (0).
    IsMmt,
    /// The MMT config id (data vs control profile).
    MmtConfigId,
    /// The raw 24-bit MMT configuration data (feature bits / control type).
    MmtConfigData,
    /// The 24-bit experiment number.
    MmtExperiment,
    /// The 8-bit instrument slice.
    MmtSlice,
    /// The MMT aged flag (0/1), if the AGE extension is present (else 0).
    MmtAged,
    /// Outer IPv4 destination address (0 when not IP).
    Ipv4Dst,
}

/// Extract a field's value from a parsed packet.
pub fn extract(field: MatchField, pkt: &ParsedPacket) -> u64 {
    match field {
        MatchField::IngressPort => pkt.ingress_port as u64,
        MatchField::EtherType => mmt_wire::ethernet::Frame::new_checked(&pkt.bytes[..])
            .map(|f| u64::from(f.ethertype().as_u16()))
            .unwrap_or(0),
        MatchField::IsMmt => u64::from(pkt.layers.mmt_offset().is_some()),
        MatchField::MmtConfigId => pkt.mmt().map(|h| u64::from(h.config_id())).unwrap_or(0),
        MatchField::MmtConfigData => pkt.mmt().map(|h| u64::from(h.config_data())).unwrap_or(0),
        MatchField::MmtExperiment => pkt
            .mmt()
            .map(|h| u64::from(h.experiment().experiment()))
            .unwrap_or(0),
        MatchField::MmtSlice => pkt
            .mmt()
            .map(|h| u64::from(h.experiment().slice()))
            .unwrap_or(0),
        MatchField::MmtAged => pkt
            .mmt()
            .and_then(|h| h.age())
            .map(|a| u64::from(a.aged))
            .unwrap_or(0),
        MatchField::Ipv4Dst => match pkt.layers {
            PacketLayers::EthernetIpv4Mmt { ip_offset, .. } => {
                mmt_wire::ipv4::Packet::new_checked_split(&pkt.bytes[ip_offset..], pkt.tail.len())
                    .map(|ip| u64::from(ip.dst_addr().to_u32()))
                    .unwrap_or(0)
            }
            _ => 0,
        },
    }
}

/// How a field is matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchKind {
    /// Value must equal the key exactly.
    Exact,
    /// `(value & mask) == (key & mask)`.
    Ternary,
    /// Longest-prefix match on the top `prefix_len` bits of a 32-bit value.
    Lpm,
}

/// One field's match criterion in a table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldValue {
    /// Match exactly this value.
    Exact(u64),
    /// Ternary: value and mask.
    Ternary {
        /// The value to compare (after masking).
        value: u64,
        /// Bits that participate in the comparison.
        mask: u64,
    },
    /// Prefix match on a 32-bit value.
    Prefix {
        /// The prefix value (high bits significant).
        value: u32,
        /// Prefix length in bits (0–32).
        len: u8,
    },
    /// Wildcard: always matches.
    Any,
}

impl FieldValue {
    /// Does `observed` satisfy this criterion?
    pub fn matches(&self, observed: u64) -> bool {
        match *self {
            FieldValue::Exact(v) => observed == v,
            FieldValue::Ternary { value, mask } => observed & mask == value & mask,
            FieldValue::Prefix { value, len } => {
                let len = len.min(32);
                if len == 0 {
                    return true;
                }
                let mask = (!0u32) << (32 - u32::from(len));
                (observed as u32) & mask == value & mask
            }
            FieldValue::Any => true,
        }
    }

    /// The specificity used for priority ordering (longer prefixes win).
    fn specificity(&self) -> u32 {
        match *self {
            FieldValue::Exact(_) => 64,
            FieldValue::Ternary { mask, .. } => mask.count_ones(),
            FieldValue::Prefix { len, .. } => u32::from(len),
            FieldValue::Any => 0,
        }
    }
}

/// A key: one criterion per declared field, in table-key order.
pub type Key = Vec<FieldValue>;

/// One table entry: criteria plus the actions to run on match.
#[derive(Debug, Clone)]
pub struct TableEntry {
    /// Per-field criteria (must have the table's key arity).
    pub key: Key,
    /// Explicit priority; higher wins. Ties break by specificity, then
    /// insertion order (earlier wins).
    pub priority: i32,
    /// Actions executed on match, in order.
    pub actions: Vec<Action>,
}

/// A match-action table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Name, for diagnostics and resource reports.
    pub name: String,
    /// The fields this table matches on, in key order.
    pub key_fields: Vec<MatchField>,
    entries: Vec<TableEntry>,
    /// Actions to run when nothing matches (P4 default action).
    pub default_actions: Vec<Action>,
    /// Hit counter.
    pub hits: u64,
    /// Miss counter.
    pub misses: u64,
    /// The packet's key-field values during a lookup; kept so a lookup
    /// allocates nothing.
    observed: Vec<u64>,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: &str, key_fields: Vec<MatchField>) -> Table {
        Table {
            name: name.to_string(),
            key_fields,
            entries: Vec::new(),
            default_actions: Vec::new(),
            hits: 0,
            misses: 0,
            observed: Vec::new(),
        }
    }

    /// Set the default (miss) actions.
    #[must_use]
    pub fn with_default(mut self, actions: Vec<Action>) -> Table {
        self.default_actions = actions;
        self
    }

    /// Insert an entry.
    ///
    /// # Panics
    /// Panics if the entry's key arity differs from the table's.
    pub fn insert(&mut self, entry: TableEntry) {
        assert_eq!(
            entry.key.len(),
            self.key_fields.len(),
            "key arity mismatch in table {}",
            self.name
        );
        self.entries.push(entry);
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Mutable access to the installed entries — the control-plane
    /// modify-entry path (P4Runtime `MODIFY`): rewrite action parameters
    /// in place so in-flight traffic picks up the new mode.
    pub fn entries_mut(&mut self) -> &mut [TableEntry] {
        &mut self.entries
    }

    /// Look up the packet; returns the matching actions (entry or default)
    /// and records hit/miss counters.
    pub fn lookup(&mut self, pkt: &ParsedPacket) -> &[Action] {
        let mut observed = std::mem::take(&mut self.observed);
        observed.clear();
        observed.extend(self.key_fields.iter().map(|&f| extract(f, pkt)));
        let mut best: Option<(i32, u32, usize)> = None;
        for (idx, entry) in self.entries.iter().enumerate() {
            let matches = entry
                .key
                .iter()
                .zip(&observed)
                .all(|(criterion, &obs)| criterion.matches(obs));
            if !matches {
                continue;
            }
            let spec: u32 = entry.key.iter().map(FieldValue::specificity).sum();
            let candidate = (entry.priority, spec, usize::MAX - idx);
            if best.is_none_or(|b| candidate > (b.0, b.1, b.2)) {
                best = Some(candidate);
            }
        }
        self.observed = observed;
        match best {
            Some((_, _, inv_idx)) => {
                self.hits += 1;
                &self.entries[usize::MAX - inv_idx].actions
            }
            None => {
                self.misses += 1;
                &self.default_actions
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::build_eth_mmt_frame;
    use mmt_wire::mmt::{ExperimentId, MmtRepr};
    use mmt_wire::EthernetAddress;

    fn mmt_pkt(experiment: u32, slice: u8, port: usize) -> ParsedPacket {
        let frame = build_eth_mmt_frame(
            EthernetAddress([2, 0, 0, 0, 0, 1]),
            EthernetAddress([2, 0, 0, 0, 0, 2]),
            &MmtRepr::data(ExperimentId::new(experiment, slice)),
            b"x",
        );
        ParsedPacket::parse(frame, port)
    }

    #[test]
    fn field_extraction() {
        let p = mmt_pkt(7, 3, 5);
        assert_eq!(extract(MatchField::IngressPort, &p), 5);
        assert_eq!(extract(MatchField::EtherType, &p), 0x88B5);
        assert_eq!(extract(MatchField::IsMmt, &p), 1);
        assert_eq!(extract(MatchField::MmtConfigId, &p), 0);
        assert_eq!(extract(MatchField::MmtExperiment, &p), 7);
        assert_eq!(extract(MatchField::MmtSlice, &p), 3);
        assert_eq!(extract(MatchField::MmtAged, &p), 0);
        assert_eq!(extract(MatchField::Ipv4Dst, &p), 0);
    }

    #[test]
    fn field_value_semantics() {
        assert!(FieldValue::Exact(5).matches(5));
        assert!(!FieldValue::Exact(5).matches(6));
        assert!(FieldValue::Any.matches(u64::MAX));
        let t = FieldValue::Ternary {
            value: 0b1010,
            mask: 0b1110,
        };
        assert!(t.matches(0b1011)); // low bit ignored
        assert!(!t.matches(0b0011));
        let p = FieldValue::Prefix {
            value: 0x0A000000,
            len: 8,
        }; // 10.0.0.0/8
        assert!(p.matches(u64::from(0x0A010203u32)));
        assert!(!p.matches(u64::from(0x0B010203u32)));
        assert!(FieldValue::Prefix { value: 0, len: 0 }.matches(12345));
    }

    #[test]
    fn lookup_prefers_priority_then_specificity() {
        let mut table =
            Table::new("t", vec![MatchField::MmtExperiment]).with_default(vec![Action::Drop]);
        table.insert(TableEntry {
            key: vec![FieldValue::Any],
            priority: 0,
            actions: vec![Action::Forward { port: 1 }],
        });
        table.insert(TableEntry {
            key: vec![FieldValue::Exact(7)],
            priority: 0,
            actions: vec![Action::Forward { port: 2 }],
        });
        // Exact beats Any at equal priority.
        let p = mmt_pkt(7, 0, 0);
        assert_eq!(table.lookup(&p), &[Action::Forward { port: 2 }]);
        // Non-matching experiment falls to the Any entry.
        let p = mmt_pkt(8, 0, 0);
        assert_eq!(table.lookup(&p), &[Action::Forward { port: 1 }]);
        // Higher priority overrides specificity.
        table.insert(TableEntry {
            key: vec![FieldValue::Any],
            priority: 10,
            actions: vec![Action::Forward { port: 9 }],
        });
        let p = mmt_pkt(7, 0, 0);
        assert_eq!(table.lookup(&p), &[Action::Forward { port: 9 }]);
        assert_eq!(table.hits, 3);
        assert_eq!(table.misses, 0);
    }

    #[test]
    fn default_action_on_miss() {
        let mut table =
            Table::new("t", vec![MatchField::MmtExperiment]).with_default(vec![Action::Drop]);
        table.insert(TableEntry {
            key: vec![FieldValue::Exact(1)],
            priority: 0,
            actions: vec![Action::Forward { port: 1 }],
        });
        let p = mmt_pkt(2, 0, 0);
        assert_eq!(table.lookup(&p), &[Action::Drop]);
        assert_eq!(table.misses, 1);
        assert_eq!(table.len(), 1);
        assert!(!table.is_empty());
    }

    #[test]
    fn insertion_order_breaks_full_ties() {
        let mut table = Table::new("t", vec![MatchField::MmtExperiment]);
        table.insert(TableEntry {
            key: vec![FieldValue::Exact(1)],
            priority: 0,
            actions: vec![Action::Forward { port: 1 }],
        });
        table.insert(TableEntry {
            key: vec![FieldValue::Exact(1)],
            priority: 0,
            actions: vec![Action::Forward { port: 2 }],
        });
        let p = mmt_pkt(1, 0, 0);
        assert_eq!(table.lookup(&p), &[Action::Forward { port: 1 }]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut table = Table::new("t", vec![MatchField::MmtExperiment, MatchField::MmtSlice]);
        table.insert(TableEntry {
            key: vec![FieldValue::Any],
            priority: 0,
            actions: vec![],
        });
    }
}
