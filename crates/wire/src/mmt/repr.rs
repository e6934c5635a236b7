//! Owned representation of an MMT header — the type mode-transition
//! elements manipulate when they re-emit a header with a different feature
//! set.

use super::ext::{AgeExt, ExtLayout, RetransmitExt, TimelinessExt};
use super::features::Features;
use super::header::{slot, CoreHeader, CORE_HEADER_LEN};
use super::{ExperimentId, CONFIG_CONTROL_V0, CONFIG_DATA_V0};
use crate::error::{check_emit_len, check_len};
use crate::field::{read_u32, read_u64, write_u32, write_u64};
use crate::{Error, Ipv4Address, Result};

/// Owned, structured form of an MMT header.
///
/// Invariant: a configuration-value field is `Some` *iff* the corresponding
/// feature bit is set — enforced by construction (the `with_*` builders set
/// both) and validated by [`MmtRepr::parse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmtRepr {
    /// The configuration id ([`CONFIG_DATA_V0`] for data packets).
    pub config_id: u8,
    /// Active features (the mode, together with `config_id`).
    pub features: Features,
    /// Experiment and slice.
    pub experiment: ExperimentId,
    sequence: Option<u64>,
    retransmit: Option<RetransmitExt>,
    timeliness: Option<TimelinessExt>,
    age: Option<AgeExt>,
    pacing_mbps: Option<u32>,
    backpressure_window: Option<u32>,
    priority_class: Option<u8>,
    /// For control messages (`config_id == CONFIG_CONTROL_V0`) the
    /// config-data field carries the message type instead of feature bits.
    control_type_raw: Option<u8>,
}

impl MmtRepr {
    /// A mode-0 data header: pure experiment identification (§5.3).
    pub fn data(experiment: ExperimentId) -> MmtRepr {
        MmtRepr {
            config_id: CONFIG_DATA_V0,
            features: Features::EMPTY,
            experiment,
            sequence: None,
            retransmit: None,
            timeliness: None,
            age: None,
            pacing_mbps: None,
            backpressure_window: None,
            priority_class: None,
            control_type_raw: None,
        }
    }

    /// A control-message header (the control body follows as payload).
    pub fn control(experiment: ExperimentId, control_type: u8) -> MmtRepr {
        let mut r = MmtRepr::data(experiment);
        r.config_id = CONFIG_CONTROL_V0;
        // For control messages the config-data field carries the message
        // type rather than feature bits.
        r.features = Features::from_bits_truncate(0);
        r.control_type_raw = Some(control_type);
        r
    }

    // Control messages reuse the config-data field for their type; this is
    // modelled as a separate optional to keep `features` meaningful for data
    // packets only.
    #[doc(hidden)]
    pub fn control_type(&self) -> Option<u8> {
        self.control_type_raw
    }

    /// Activate `SEQUENCE` with the given sequence number.
    #[must_use]
    pub fn with_sequence(mut self, seq: u64) -> MmtRepr {
        self.features |= Features::SEQUENCE;
        self.sequence = Some(seq);
        self
    }

    /// Activate `RETRANSMIT` pointing at the given buffer.
    #[must_use]
    pub fn with_retransmit(mut self, source: Ipv4Address, port: u16) -> MmtRepr {
        self.features |= Features::RETRANSMIT;
        self.retransmit = Some(RetransmitExt { source, port });
        self
    }

    /// Activate `TIMELINESS` with a deadline and notification address.
    #[must_use]
    pub fn with_timeliness(mut self, deadline_ns: u64, notify: Ipv4Address) -> MmtRepr {
        self.features |= Features::TIMELINESS;
        self.timeliness = Some(TimelinessExt {
            deadline_ns,
            notify,
        });
        self
    }

    /// Activate `AGE` with an initial age and aged flag.
    #[must_use]
    pub fn with_age(mut self, age_ns: u64, aged: bool) -> MmtRepr {
        self.features |= Features::AGE;
        self.age = Some(AgeExt { age_ns, aged });
        self
    }

    /// Activate `PACING` with a rate in Mbit/s.
    #[must_use]
    pub fn with_pacing(mut self, mbps: u32) -> MmtRepr {
        self.features |= Features::PACING;
        self.pacing_mbps = Some(mbps);
        self
    }

    /// Activate `BACKPRESSURE` with a granted window.
    #[must_use]
    pub fn with_backpressure(mut self, window: u32) -> MmtRepr {
        self.features |= Features::BACKPRESSURE;
        self.backpressure_window = Some(window);
        self
    }

    /// Activate `PRIORITY` with a class.
    #[must_use]
    pub fn with_priority(mut self, class: u8) -> MmtRepr {
        self.features |= Features::PRIORITY;
        self.priority_class = Some(class);
        self
    }

    /// Set flag-only features (`DUPLICATED`, `ENCRYPTED`, `ACK_NAK`).
    ///
    /// # Panics
    /// Debug-panics if a slot-carrying feature is passed; those must go
    /// through their typed `with_*` builder so the value is provided.
    #[must_use]
    pub fn with_flags(mut self, flags: Features) -> MmtRepr {
        debug_assert_eq!(
            ExtLayout::of(flags).total,
            0,
            "use the typed with_* builder for slot-carrying features"
        );
        self.features |= flags;
        self
    }

    /// Deactivate features, dropping their configuration values. This is
    /// what a WAN→DAQ-style *downgrade* transition does.
    #[must_use]
    pub fn without(mut self, features: Features) -> MmtRepr {
        self.features = self.features - features;
        if !self.features.contains(Features::SEQUENCE) {
            self.sequence = None;
        }
        if !self.features.contains(Features::RETRANSMIT) {
            self.retransmit = None;
        }
        if !self.features.contains(Features::TIMELINESS) {
            self.timeliness = None;
        }
        if !self.features.contains(Features::AGE) {
            self.age = None;
        }
        if !self.features.contains(Features::PACING) {
            self.pacing_mbps = None;
        }
        if !self.features.contains(Features::BACKPRESSURE) {
            self.backpressure_window = None;
        }
        if !self.features.contains(Features::PRIORITY) {
            self.priority_class = None;
        }
        self
    }

    /// Sequence number, if active.
    pub fn sequence(&self) -> Option<u64> {
        self.sequence
    }

    /// Retransmission source, if active.
    pub fn retransmit(&self) -> Option<RetransmitExt> {
        self.retransmit
    }

    /// Timeliness configuration, if active.
    pub fn timeliness(&self) -> Option<TimelinessExt> {
        self.timeliness
    }

    /// Age state, if active.
    pub fn age(&self) -> Option<AgeExt> {
        self.age
    }

    /// Pacing rate, if active.
    pub fn pacing_mbps(&self) -> Option<u32> {
        self.pacing_mbps
    }

    /// Backpressure window, if active.
    pub fn backpressure_window(&self) -> Option<u32> {
        self.backpressure_window
    }

    /// Priority class, if active.
    pub fn priority_class(&self) -> Option<u8> {
        self.priority_class
    }

    /// Total header length this representation emits.
    pub fn header_len(&self) -> usize {
        CORE_HEADER_LEN + ExtLayout::of(self.features).total
    }

    /// Parse a header (and its extensions) from the front of `buf`.
    pub fn parse(buf: &[u8]) -> Result<MmtRepr> {
        Self::parse_len(buf).map(|(repr, _)| repr)
    }

    /// The one decoder: the header and the length it occupies, in a single
    /// pass over one layout. Checks run in a fixed order that callers can
    /// rely on: core length, extension length (both `Truncated`), reserved
    /// feature bits (`Malformed`), configuration id (`UnknownVersion`).
    fn parse_len(buf: &[u8]) -> Result<(MmtRepr, usize)> {
        check_len(buf, CORE_HEADER_LEN)?;
        let hdr = CoreHeader::new_unchecked(buf);
        match hdr.config_id() {
            CONFIG_DATA_V0 => {
                // The lenient set sizes the header, as it does for a
                // forwarding element; end hosts then validate strictly.
                let layout = hdr.layout();
                let len = CORE_HEADER_LEN + layout.total;
                check_len(buf, len)?;
                let features = Features::from_bits(hdr.config_data())?;
                let ext = &buf[CORE_HEADER_LEN..len];
                let repr = MmtRepr {
                    config_id: CONFIG_DATA_V0,
                    features,
                    experiment: hdr.experiment(),
                    sequence: layout.sequence.map(|o| read_u64(ext, o)),
                    retransmit: layout.retransmit.map(|o| slot::read_retransmit(ext, o)),
                    timeliness: layout.timeliness.map(|o| slot::read_timeliness(ext, o)),
                    age: layout.age.map(|o| slot::read_age(ext, o)),
                    pacing_mbps: layout.pacing.map(|o| read_u32(ext, o)),
                    backpressure_window: layout.backpressure.map(|o| read_u32(ext, o)),
                    priority_class: layout.priority.map(|o| slot::read_priority(ext, o)),
                    control_type_raw: None,
                };
                Ok((repr, len))
            }
            CONFIG_CONTROL_V0 => {
                let control_type = (hdr.config_data() & 0xff) as u8;
                let repr = MmtRepr::control(hdr.experiment(), control_type);
                Ok((repr, CORE_HEADER_LEN))
            }
            other => Err(Error::UnknownVersion(other)),
        }
    }

    /// Emit the header into the front of `buf`.
    pub fn emit(&self, buf: &mut [u8]) -> Result<()> {
        self.encode_into(buf).map(|_| ())
    }

    /// Zero-copy emit: write the header into the front of a
    /// caller-owned buffer (typically a `PacketArena` frame) and return
    /// the offset where the payload region begins. The bytes at
    /// `buf[returned..]` are left untouched, so a payload already in
    /// place survives and nothing is allocated.
    ///
    /// Returns [`Error::BufferTooSmall`] (never panics) when `buf`
    /// cannot hold the header.
    pub fn encode_into(&self, buf: &mut [u8]) -> Result<usize> {
        let layout = ExtLayout::of(self.features);
        let len = CORE_HEADER_LEN + layout.total;
        check_emit_len(buf, len)?;
        let (core, ext) = buf[..len].split_at_mut(CORE_HEADER_LEN);
        let config_data = match self.config_id {
            CONFIG_CONTROL_V0 => u32::from(self.control_type_raw.unwrap_or(0)),
            _ => self.features.bits(),
        };
        let mut hdr = CoreHeader::new_unchecked(core);
        hdr.set_config_id(self.config_id);
        hdr.set_config_data(config_data);
        hdr.set_experiment(self.experiment);
        // A slot whose value is missing, and every reserved byte, is zero.
        ext.fill(0);
        // A view reads extension slots only under the data configuration
        // id, so only a data header has them written.
        if self.config_id != CONFIG_DATA_V0 {
            return Ok(len);
        }
        if let (Some(o), Some(seq)) = (layout.sequence, self.sequence) {
            write_u64(ext, o, seq);
        }
        if let (Some(o), Some(r)) = (layout.retransmit, self.retransmit) {
            slot::write_retransmit(ext, o, r);
        }
        if let (Some(o), Some(t)) = (layout.timeliness, self.timeliness) {
            slot::write_timeliness(ext, o, t);
        }
        if let (Some(o), Some(a)) = (layout.age, self.age) {
            slot::write_age(ext, o, a);
        }
        if let (Some(o), Some(p)) = (layout.pacing, self.pacing_mbps) {
            write_u32(ext, o, p);
        }
        if let (Some(o), Some(w)) = (layout.backpressure, self.backpressure_window) {
            write_u32(ext, o, w);
        }
        if let (Some(o), Some(c)) = (layout.priority, self.priority_class) {
            slot::write_priority(ext, o, c);
        }
        Ok(len)
    }

    /// Zero-copy parse: read the header from the front of `buf` and
    /// return it together with the borrowed payload slice. No
    /// allocation; malformed or truncated input returns `Err` exactly
    /// like [`MmtRepr::parse`].
    pub fn decode_from(buf: &[u8]) -> Result<(MmtRepr, &[u8])> {
        let (repr, len) = Self::parse_len(buf)?;
        Ok((repr, &buf[len..]))
    }

    /// Emit header + payload into a fresh buffer.
    // mmt-lint: cold
    pub fn emit_with_payload(&self, payload: &[u8]) -> Vec<u8> {
        let hlen = self.header_len();
        let mut buf = vec![0u8; hlen + payload.len()];
        self.emit(&mut buf).expect("sized above"); // mmt-lint: allow(P1, "buffer sized with header_len one line above")
        buf[hlen..].copy_from_slice(payload);
        buf
    }

    // -- private --
    #[doc(hidden)]
    pub fn is_control(&self) -> bool {
        self.config_id == CONFIG_CONTROL_V0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_extensions() {
        let repr = MmtRepr::data(ExperimentId::new(5, 2))
            .with_sequence(0xDEAD)
            .with_retransmit(Ipv4Address::new(192, 168, 1, 1), 9000)
            .with_timeliness(123_456_789, Ipv4Address::new(192, 168, 1, 2))
            .with_age(777, true)
            .with_pacing(100_000)
            .with_backpressure(64)
            .with_priority(3)
            .with_flags(Features::ACK_NAK | Features::ENCRYPTED);
        let mut buf = vec![0u8; repr.header_len()];
        repr.emit(&mut buf).unwrap();
        let parsed = MmtRepr::parse(&buf).unwrap();
        assert_eq!(parsed, repr);
    }

    #[test]
    fn mode0_is_just_core_header() {
        let repr = MmtRepr::data(ExperimentId::new(1, 0));
        assert_eq!(repr.header_len(), CORE_HEADER_LEN);
        let buf = repr.emit_with_payload(b"payload");
        assert_eq!(buf.len(), CORE_HEADER_LEN + 7);
        let parsed = MmtRepr::parse(&buf).unwrap();
        assert_eq!(parsed.features, Features::EMPTY);
    }

    #[test]
    fn without_drops_values() {
        let repr = MmtRepr::data(ExperimentId::new(1, 0))
            .with_sequence(1)
            .with_age(10, false);
        let down = repr.without(Features::AGE);
        assert_eq!(down.age(), None);
        assert_eq!(down.sequence(), Some(1));
        assert_eq!(down.header_len(), CORE_HEADER_LEN + 8);
    }

    #[test]
    fn strict_parse_rejects_reserved_bits() {
        let repr = MmtRepr::data(ExperimentId::new(1, 0));
        let mut buf = vec![0u8; repr.header_len()];
        repr.emit(&mut buf).unwrap();
        // Config data occupies bytes 1..4 big-endian; reserved bit 10 sits
        // in the middle byte (bits 8..16) at mask 0x04.
        buf[2] |= 0x04;
        assert!(matches!(MmtRepr::parse(&buf), Err(Error::Malformed(_))));
    }

    #[test]
    fn unknown_config_id_rejected() {
        let repr = MmtRepr::data(ExperimentId::new(1, 0));
        let mut buf = vec![0u8; repr.header_len()];
        repr.emit(&mut buf).unwrap();
        buf[0] = 0x7F;
        assert_eq!(MmtRepr::parse(&buf), Err(Error::UnknownVersion(0x7F)));
    }

    #[test]
    fn control_roundtrip() {
        let repr = MmtRepr::control(ExperimentId::new(2, 0), 3);
        assert!(repr.is_control());
        let mut buf = vec![0u8; repr.header_len()];
        repr.emit(&mut buf).unwrap();
        let parsed = MmtRepr::parse(&buf).unwrap();
        assert!(parsed.is_control());
        assert_eq!(parsed.control_type(), Some(3));
        assert_eq!(parsed.experiment, ExperimentId::new(2, 0));
    }

    #[test]
    fn emit_buffer_too_small() {
        let repr = MmtRepr::data(ExperimentId::new(1, 0)).with_sequence(0);
        let mut buf = vec![0u8; repr.header_len() - 1];
        assert!(matches!(
            repr.emit(&mut buf),
            Err(Error::BufferTooSmall { .. })
        ));
    }

    #[test]
    fn mode_upgrade_preserves_payload_semantics() {
        // What a DAQ→WAN border element does: parse, add features, re-emit.
        let payload = b"trigger-record";
        let sensor = MmtRepr::data(ExperimentId::new(2, 0));
        let pkt = sensor.emit_with_payload(payload);
        let parsed = MmtRepr::parse(&pkt).unwrap();
        let upgraded = parsed
            .with_sequence(1)
            .with_retransmit(Ipv4Address::new(10, 0, 0, 5), 47_000)
            .with_age(0, false)
            .with_flags(Features::ACK_NAK);
        let out = upgraded.emit_with_payload(&pkt[parsed.header_len()..]);
        let reparsed = MmtRepr::parse(&out).unwrap();
        assert_eq!(reparsed.experiment, ExperimentId::new(2, 0));
        assert_eq!(&out[reparsed.header_len()..], payload);
        assert!(out.len() > pkt.len());
    }
}
