//! MMT control messages.
//!
//! Control messages are MMT packets whose config id is
//! [`super::CONFIG_CONTROL_V0`]; the config-data field carries the message
//! type and the payload carries the typed body. Three messages realize the
//! paper's control signalling:
//!
//! * **NAK** — sent by a receiver to the retransmission source named in the
//!   data header, listing lost sequence ranges (§5.4: "DTN 2 then uses this
//!   information to detect loss, and to prepare a NAK to restore the missing
//!   packets").
//! * **Deadline exceeded** — sent to the timeliness notify address when a
//!   packet's deadline passes (§5.3: "providing an IP address to which
//!   'deadline exceeded' messages are sent, to alert the source").
//! * **Backpressure** — relayed upstream toward the sender when an element
//!   observes downstream congestion or loss (§5.1).
//! * **Mode change** — pushed by the control plane to a border element when
//!   the mode controller shifts a flow's shape mid-transfer (§4: "the
//!   infrastructure adapts the transport modality to the conditions"); it
//!   names the new feature bitmap and, for failover, the new retransmission
//!   source so NAKs re-home to a live buffer.

use super::{ExperimentId, Features, MmtRepr};
use crate::error::{check_emit_len, check_len};
use crate::field::{read_u16, read_u32, read_u64, write_u16, write_u32, write_u64};
use crate::{Error, Ipv4Address, Result};

/// Control message types (carried in the low byte of config data).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ControlType {
    /// Negative acknowledgement requesting retransmission of lost ranges.
    Nak = 1,
    /// A packet missed its delivery deadline.
    DeadlineExceeded = 2,
    /// Downstream congestion/loss backpressure signal.
    Backpressure = 3,
    /// Control-plane order to shift a flow's mode mid-transfer.
    ModeChange = 4,
}

impl ControlType {
    /// Parse a raw control type.
    pub fn from_u8(v: u8) -> Result<ControlType> {
        match v {
            1 => Ok(ControlType::Nak),
            2 => Ok(ControlType::DeadlineExceeded),
            3 => Ok(ControlType::Backpressure),
            4 => Ok(ControlType::ModeChange),
            // mmt-lint: allow(W1, "decode boundary over a raw byte: the other 251 values are all equally malformed")
            _ => Err(Error::Malformed("unknown control message type")),
        }
    }
}

/// An inclusive range of lost sequence numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NakRange {
    /// First missing sequence number.
    pub first: u64,
    /// Last missing sequence number (inclusive).
    pub last: u64,
}

impl NakRange {
    /// Number of sequence numbers covered, saturating: the full-width
    /// range `0..=u64::MAX` covers one more than a `u64` can say.
    pub fn len(&self) -> u64 {
        self.last.saturating_sub(self.first).saturating_add(1)
    }

    /// Always false: a range covers at least one sequence number.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// NAK body: who is asking, and which ranges are missing.
///
/// Wire layout: requester IPv4 (4) + requester port (2) + range count (2) +
/// count × (first u64 + last u64).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NakRepr {
    /// Address the retransmissions should be sent to.
    pub requester: Ipv4Address,
    /// Port on the requester.
    pub requester_port: u16,
    /// Missing sequence ranges (each inclusive).
    pub ranges: Vec<NakRange>,
}

impl NakRepr {
    const FIXED: usize = 8;

    /// Body length in bytes.
    pub fn body_len(&self) -> usize {
        Self::FIXED + self.ranges.len() * 16
    }

    /// Total number of sequence numbers requested.
    pub fn requested_count(&self) -> u64 {
        self.ranges.iter().fold(0, |n, r| n.saturating_add(r.len()))
    }

    /// Parse a NAK body.
    pub fn parse(buf: &[u8]) -> Result<NakRepr> {
        check_len(buf, Self::FIXED)?;
        let requester = Ipv4Address::from_bytes(&buf[0..4]);
        let requester_port = read_u16(buf, 4);
        let count = read_u16(buf, 6) as usize;
        check_len(buf, Self::FIXED + count * 16)?;
        let mut ranges = Vec::with_capacity(count);
        for i in 0..count {
            let off = Self::FIXED + i * 16;
            let first = read_u64(buf, off);
            let last = read_u64(buf, off + 8);
            if last < first {
                return Err(Error::Malformed("NAK range with last < first"));
            }
            ranges.push(NakRange { first, last });
        }
        Ok(NakRepr {
            requester,
            requester_port,
            ranges,
        })
    }

    /// Emit the body into `buf`.
    pub fn emit(&self, buf: &mut [u8]) -> Result<()> {
        check_emit_len(buf, self.body_len())?;
        if self.ranges.len() > usize::from(u16::MAX) {
            return Err(Error::ValueOutOfRange("too many NAK ranges"));
        }
        buf[0..4].copy_from_slice(self.requester.as_bytes());
        write_u16(buf, 4, self.requester_port);
        write_u16(buf, 6, self.ranges.len() as u16);
        for (i, r) in self.ranges.iter().enumerate() {
            let off = Self::FIXED + i * 16;
            write_u64(buf, off, r.first);
            write_u64(buf, off + 8, r.last);
        }
        Ok(())
    }
}

/// Deadline-exceeded body: which packet, by how much, observed where.
///
/// Wire layout: sequence u64 + deadline_ns u64 + observed_age_ns u64 +
/// reporter IPv4 (4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineExceededRepr {
    /// Sequence number of the late packet (0 if the stream is unsequenced).
    pub sequence: u64,
    /// The deadline that was missed.
    pub deadline_ns: u64,
    /// The age observed when the miss was detected.
    pub observed_age_ns: u64,
    /// The network element that detected the miss.
    pub reporter: Ipv4Address,
}

impl DeadlineExceededRepr {
    /// Body length in bytes.
    pub const BODY_LEN: usize = 28;

    /// Parse a deadline-exceeded body.
    pub fn parse(buf: &[u8]) -> Result<DeadlineExceededRepr> {
        check_len(buf, Self::BODY_LEN)?;
        Ok(DeadlineExceededRepr {
            sequence: read_u64(buf, 0),
            deadline_ns: read_u64(buf, 8),
            observed_age_ns: read_u64(buf, 16),
            reporter: Ipv4Address::from_bytes(&buf[24..28]),
        })
    }

    /// Emit the body into `buf`.
    pub fn emit(&self, buf: &mut [u8]) -> Result<()> {
        check_emit_len(buf, Self::BODY_LEN)?;
        write_u64(buf, 0, self.sequence);
        write_u64(buf, 8, self.deadline_ns);
        write_u64(buf, 16, self.observed_age_ns);
        buf[24..28].copy_from_slice(self.reporter.as_bytes());
        Ok(())
    }
}

/// Backpressure body: severity and the granted window.
///
/// Wire layout: level u8 + 3 reserved + window u32 + origin IPv4 (4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackpressureRepr {
    /// Severity: 0 = cleared, higher = more urgent.
    pub level: u8,
    /// Messages-in-flight window the sender should respect.
    pub window: u32,
    /// Element that originated the signal.
    pub origin: Ipv4Address,
}

impl BackpressureRepr {
    /// Body length in bytes.
    pub const BODY_LEN: usize = 12;

    /// Parse a backpressure body.
    pub fn parse(buf: &[u8]) -> Result<BackpressureRepr> {
        check_len(buf, Self::BODY_LEN)?;
        Ok(BackpressureRepr {
            level: buf[0],
            window: read_u32(buf, 4),
            origin: Ipv4Address::from_bytes(&buf[8..12]),
        })
    }

    /// Emit the body into `buf`.
    pub fn emit(&self, buf: &mut [u8]) -> Result<()> {
        check_emit_len(buf, Self::BODY_LEN)?;
        buf[0] = self.level;
        buf[1] = 0;
        buf[2] = 0;
        buf[3] = 0;
        write_u32(buf, 4, self.window);
        buf[8..12].copy_from_slice(self.origin.as_bytes());
        Ok(())
    }
}

/// Mode-change body: the shape the flow should take from now on.
///
/// Wire layout mirrors the core header's config word: a u32 whose top byte
/// is the new config id and whose low 24 bits are the new feature bitmap,
/// followed by the new retransmission source IPv4 (4) + port (2), 2 reserved
/// bytes (zeroed on emit, ignored on parse), and the backpressure window u32
/// (0 = leave the window alone). Unknown feature bits are truncated on
/// parse, so a bit-flipped-but-parsable packet is stable under emit/parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeChangeRepr {
    /// Config id the rewritten data packets should carry.
    pub config_id: u8,
    /// The new feature bitmap (known bits only).
    pub features: Features,
    /// Where NAKs should be sent after the change.
    pub retransmit_source: Ipv4Address,
    /// Port on the retransmission source.
    pub retransmit_port: u16,
    /// Messages-in-flight window to engage when `features` includes
    /// `BACKPRESSURE`; 0 means "unchanged".
    pub window: u32,
}

impl ModeChangeRepr {
    /// Body length in bytes.
    pub const BODY_LEN: usize = 16;

    /// Parse a mode-change body.
    pub fn parse(buf: &[u8]) -> Result<ModeChangeRepr> {
        check_len(buf, Self::BODY_LEN)?;
        let word = read_u32(buf, 0);
        Ok(ModeChangeRepr {
            config_id: (word >> 24) as u8,
            features: Features::from_bits_truncate(word & 0x00FF_FFFF),
            retransmit_source: Ipv4Address::from_bytes(&buf[4..8]),
            retransmit_port: read_u16(buf, 8),
            window: read_u32(buf, 12),
        })
    }

    /// Emit the body into `buf`.
    pub fn emit(&self, buf: &mut [u8]) -> Result<()> {
        check_emit_len(buf, Self::BODY_LEN)?;
        let word = (u32::from(self.config_id) << 24) | (self.features.bits() & 0x00FF_FFFF);
        write_u32(buf, 0, word);
        buf[4..8].copy_from_slice(self.retransmit_source.as_bytes());
        write_u16(buf, 8, self.retransmit_port);
        buf[10] = 0;
        buf[11] = 0;
        write_u32(buf, 12, self.window);
        Ok(())
    }
}

/// A parsed control message (header + typed body).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlRepr {
    /// Retransmission request.
    Nak(NakRepr),
    /// Deadline-miss notification.
    DeadlineExceeded(DeadlineExceededRepr),
    /// Backpressure signal.
    Backpressure(BackpressureRepr),
    /// Mode-change order from the control plane.
    ModeChange(ModeChangeRepr),
}

impl ControlRepr {
    /// The control type tag for this message.
    pub fn control_type(&self) -> ControlType {
        match self {
            ControlRepr::Nak(_) => ControlType::Nak,
            ControlRepr::DeadlineExceeded(_) => ControlType::DeadlineExceeded,
            ControlRepr::Backpressure(_) => ControlType::Backpressure,
            ControlRepr::ModeChange(_) => ControlType::ModeChange,
        }
    }

    /// Body length in bytes.
    pub fn body_len(&self) -> usize {
        match self {
            ControlRepr::Nak(n) => n.body_len(),
            ControlRepr::DeadlineExceeded(_) => DeadlineExceededRepr::BODY_LEN,
            ControlRepr::Backpressure(_) => BackpressureRepr::BODY_LEN,
            ControlRepr::ModeChange(_) => ModeChangeRepr::BODY_LEN,
        }
    }

    /// Parse a full control packet (MMT header + body).
    pub fn parse_packet(buf: &[u8]) -> Result<(ExperimentId, ControlRepr)> {
        let hdr = MmtRepr::parse(buf)?;
        let Some(raw_type) = hdr.control_type() else {
            return Err(Error::Malformed("not a control packet"));
        };
        let body = &buf[hdr.header_len()..];
        let repr = match ControlType::from_u8(raw_type)? {
            ControlType::Nak => ControlRepr::Nak(NakRepr::parse(body)?),
            ControlType::DeadlineExceeded => {
                ControlRepr::DeadlineExceeded(DeadlineExceededRepr::parse(body)?)
            }
            ControlType::Backpressure => ControlRepr::Backpressure(BackpressureRepr::parse(body)?),
            ControlType::ModeChange => ControlRepr::ModeChange(ModeChangeRepr::parse(body)?),
        };
        Ok((hdr.experiment, repr))
    }

    /// Length of the full control packet (MMT header + body).
    pub fn packet_len(&self) -> usize {
        // A control header carries no extensions.
        super::CORE_HEADER_LEN + self.body_len()
    }

    /// Emit a full control packet (MMT header + body) for `experiment`
    /// into the first [`ControlRepr::packet_len`] bytes of `buf`.
    pub fn emit_packet_into(&self, experiment: ExperimentId, buf: &mut [u8]) -> Result<()> {
        let hdr = MmtRepr::control(experiment, self.control_type() as u8);
        hdr.emit(buf)?;
        let body = &mut buf[hdr.header_len()..];
        match self {
            ControlRepr::Nak(n) => n.emit(body),
            ControlRepr::DeadlineExceeded(d) => d.emit(body),
            ControlRepr::Backpressure(b) => b.emit(body),
            ControlRepr::ModeChange(m) => m.emit(body),
        }
    }

    /// Emit a full control packet (MMT header + body) for `experiment`.
    pub fn emit_packet(&self, experiment: ExperimentId) -> Vec<u8> {
        let mut buf = vec![0u8; self.packet_len()];
        // mmt-lint: allow(P1, "buffer sized with packet_len above")
        self.emit_packet_into(experiment, &mut buf)
            .expect("sized above");
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nak_roundtrip() {
        let nak = NakRepr {
            requester: Ipv4Address::new(10, 0, 0, 8),
            requester_port: 47_000,
            ranges: vec![
                NakRange { first: 5, last: 5 },
                NakRange { first: 9, last: 20 },
            ],
        };
        assert_eq!(nak.requested_count(), 1 + 12);
        let exp = ExperimentId::new(2, 0);
        let pkt = ControlRepr::Nak(nak.clone()).emit_packet(exp);
        let (got_exp, parsed) = ControlRepr::parse_packet(&pkt).unwrap();
        assert_eq!(got_exp, exp);
        assert_eq!(parsed, ControlRepr::Nak(nak));
    }

    #[test]
    fn nak_rejects_inverted_range() {
        let nak = NakRepr {
            requester: Ipv4Address::UNSPECIFIED,
            requester_port: 0,
            ranges: vec![NakRange { first: 10, last: 2 }],
        };
        let pkt = ControlRepr::Nak(nak).emit_packet(ExperimentId::new(1, 0));
        assert!(matches!(
            ControlRepr::parse_packet(&pkt),
            Err(Error::Malformed(_))
        ));
    }

    #[test]
    fn deadline_exceeded_roundtrip() {
        let d = DeadlineExceededRepr {
            sequence: 42,
            deadline_ns: 1_000_000,
            observed_age_ns: 1_400_000,
            reporter: Ipv4Address::new(10, 1, 0, 1),
        };
        let pkt = ControlRepr::DeadlineExceeded(d).emit_packet(ExperimentId::new(3, 1));
        let (exp, parsed) = ControlRepr::parse_packet(&pkt).unwrap();
        assert_eq!(exp, ExperimentId::new(3, 1));
        assert_eq!(parsed, ControlRepr::DeadlineExceeded(d));
    }

    #[test]
    fn backpressure_roundtrip() {
        let b = BackpressureRepr {
            level: 2,
            window: 16,
            origin: Ipv4Address::new(10, 2, 0, 1),
        };
        let pkt = ControlRepr::Backpressure(b).emit_packet(ExperimentId::new(1, 0));
        let (_, parsed) = ControlRepr::parse_packet(&pkt).unwrap();
        assert_eq!(parsed, ControlRepr::Backpressure(b));
    }

    #[test]
    fn mode_change_roundtrip() {
        let m = ModeChangeRepr {
            config_id: 0,
            features: Features::SEQUENCE
                | Features::RETRANSMIT
                | Features::ACK_NAK
                | Features::DUPLICATED,
            retransmit_source: Ipv4Address::new(10, 0, 0, 6),
            retransmit_port: 47_001,
            window: 32,
        };
        let pkt = ControlRepr::ModeChange(m).emit_packet(ExperimentId::new(2, 0));
        let (exp, parsed) = ControlRepr::parse_packet(&pkt).unwrap();
        assert_eq!(exp, ExperimentId::new(2, 0));
        assert_eq!(parsed, ControlRepr::ModeChange(m));
    }

    #[test]
    fn mode_change_truncated_body_rejected() {
        let m = ModeChangeRepr {
            config_id: 0,
            features: Features::SEQUENCE,
            retransmit_source: Ipv4Address::UNSPECIFIED,
            retransmit_port: 0,
            window: 0,
        };
        let pkt = ControlRepr::ModeChange(m).emit_packet(ExperimentId::new(1, 0));
        for cut in 0..pkt.len() {
            assert!(ControlRepr::parse_packet(&pkt[..cut]).is_err());
        }
    }

    #[test]
    fn mode_change_masks_unknown_feature_bits() {
        // Forge a body whose feature word has bits beyond ALL_KNOWN set; the
        // parser truncates them, so re-emitting yields a stable packet.
        let m = ModeChangeRepr {
            config_id: 3,
            features: Features::SEQUENCE,
            retransmit_source: Ipv4Address::new(10, 0, 0, 6),
            retransmit_port: 9,
            window: 0,
        };
        let mut pkt = ControlRepr::ModeChange(m).emit_packet(ExperimentId::new(1, 0));
        let body_at = pkt.len() - ModeChangeRepr::BODY_LEN;
        pkt[body_at + 2] |= 0x80; // an unknown bit inside the 24-bit bitmap
        let (exp, parsed) = ControlRepr::parse_packet(&pkt).unwrap();
        assert_eq!(parsed, ControlRepr::ModeChange(m));
        let again = parsed.emit_packet(exp);
        assert_eq!(ControlRepr::parse_packet(&again).unwrap().1, parsed);
    }

    #[test]
    fn truncated_body_rejected() {
        let b = BackpressureRepr {
            level: 1,
            window: 1,
            origin: Ipv4Address::UNSPECIFIED,
        };
        let pkt = ControlRepr::Backpressure(b).emit_packet(ExperimentId::new(1, 0));
        assert!(ControlRepr::parse_packet(&pkt[..pkt.len() - 1]).is_err());
    }

    #[test]
    fn data_packet_is_not_control() {
        let data = MmtRepr::data(ExperimentId::new(1, 0)).emit_with_payload(b"x");
        assert!(matches!(
            ControlRepr::parse_packet(&data),
            Err(Error::Malformed(_))
        ));
    }

    #[test]
    fn unknown_control_type_rejected() {
        let hdr = MmtRepr::control(ExperimentId::new(1, 0), 200);
        let mut buf = vec![0u8; hdr.header_len() + 4];
        hdr.emit(&mut buf).unwrap();
        assert!(matches!(
            ControlRepr::parse_packet(&buf),
            Err(Error::Malformed(_))
        ));
    }

    #[test]
    fn nak_range_len() {
        assert_eq!(NakRange { first: 3, last: 3 }.len(), 1);
        assert_eq!(NakRange { first: 0, last: 9 }.len(), 10);
        assert!(!NakRange { first: 0, last: 0 }.is_empty());
        // Widths a socket can deliver: neither panics nor wraps to zero.
        let full = NakRange {
            first: 0,
            last: u64::MAX,
        };
        assert_eq!(full.len(), u64::MAX);
        let nak = NakRepr {
            requester: Ipv4Address::UNSPECIFIED,
            requester_port: 0,
            ranges: vec![full, full],
        };
        assert_eq!(nak.requested_count(), u64::MAX);
    }
}
