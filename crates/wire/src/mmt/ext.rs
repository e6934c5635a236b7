//! Extension-field layout.
//!
//! "After the core header, there is a variable number of fixed-size,
//! optional fields (in a fixed order) that depend on the activated features
//! (configuration bits)" (§5.2). The order is feature-bit order; each
//! feature that carries configuration values has a fixed-size slot:
//!
//! | feature        | size | contents                                        |
//! |----------------|------|-------------------------------------------------|
//! | `SEQUENCE`     | 8    | u64 sequence number                             |
//! | `RETRANSMIT`   | 6    | IPv4 retransmission source + u16 port           |
//! | `TIMELINESS`   | 12   | u64 delivery deadline (ns) + IPv4 notify addr   |
//! | `AGE`          | 8    | u56 accumulated age (ns) + u8 flags (bit0=aged) |
//! | `PACING`       | 4    | u32 pacing rate (Mbit/s)                        |
//! | `BACKPRESSURE` | 4    | u32 granted window (messages in flight)         |
//! | `PRIORITY`     | 4    | u8 class + 3 reserved bytes                     |
//!
//! `DUPLICATED`, `ENCRYPTED` and `ACK_NAK` are pure flags with no slot.

use super::features::Features;
use crate::Ipv4Address;

// Slot sizes, each named once; the table in the module doc says what
// each slot holds.
const SEQUENCE_LEN: usize = 8;
const RETRANSMIT_LEN: usize = 6;
const TIMELINESS_LEN: usize = 12;
const AGE_LEN: usize = 8;
const PACING_LEN: usize = 4;
const BACKPRESSURE_LEN: usize = 4;
const PRIORITY_LEN: usize = 4;

/// Byte offsets (relative to the end of the core header) of each present
/// extension, computed from a feature set.
///
/// The layout is a pure function of the seven size-carrying feature bits,
/// as cheap to derive as a P4 parser's constant-time lookup: a header
/// operation derives it once, and no structure stores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExtLayout {
    /// Offset of the sequence-number slot, if present.
    pub sequence: Option<usize>,
    /// Offset of the retransmission-source slot, if present.
    pub retransmit: Option<usize>,
    /// Offset of the timeliness slot, if present.
    pub timeliness: Option<usize>,
    /// Offset of the age slot, if present.
    pub age: Option<usize>,
    /// Offset of the pacing slot, if present.
    pub pacing: Option<usize>,
    /// Offset of the backpressure slot, if present.
    pub backpressure: Option<usize>,
    /// Offset of the priority slot, if present.
    pub priority: Option<usize>,
    /// Total bytes of extensions.
    pub total: usize,
}

/// One step of the prefix sum: the slot of `bit` sits at `off` if the
/// feature is active, and the next slot starts `len` bytes further on.
#[inline]
const fn slot(features: Features, bit: Features, off: usize, len: usize) -> (Option<usize>, usize) {
    if features.contains(bit) {
        (Some(off), off + len)
    } else {
        (None, off)
    }
}

impl ExtLayout {
    /// Compute the layout implied by `features`: a prefix sum over the
    /// slot sizes in feature-bit order, with no loop and no table.
    #[inline]
    pub const fn of(features: Features) -> ExtLayout {
        let (sequence, off) = slot(features, Features::SEQUENCE, 0, SEQUENCE_LEN);
        let (retransmit, off) = slot(features, Features::RETRANSMIT, off, RETRANSMIT_LEN);
        let (timeliness, off) = slot(features, Features::TIMELINESS, off, TIMELINESS_LEN);
        let (age, off) = slot(features, Features::AGE, off, AGE_LEN);
        let (pacing, off) = slot(features, Features::PACING, off, PACING_LEN);
        let (backpressure, off) = slot(features, Features::BACKPRESSURE, off, BACKPRESSURE_LEN);
        let (priority, total) = slot(features, Features::PRIORITY, off, PRIORITY_LEN);
        ExtLayout {
            sequence,
            retransmit,
            timeliness,
            age,
            pacing,
            backpressure,
            priority,
            total,
        }
    }
}

// The layout of any feature set is a compile-time constant; this stops
// compiling if `of` ever goes back to walking a runtime table.
const _: ExtLayout = ExtLayout::of(Features::ALL_KNOWN);

/// The retransmission-source extension: where to send a NAK to recover lost
/// packets. "If the mode supports retransmission then there is a field that
/// specifies the IP address where to send request for retransmission"
/// (§5.2). This is what makes recovery *hop-by-hop*: the address names the
/// nearest upstream buffer (e.g. DTN 1), not the original source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RetransmitExt {
    /// IPv4 address of the retransmission buffer.
    pub source: Ipv4Address,
    /// UDP/MMT port on that buffer.
    pub port: u16,
}

/// The timeliness extension: "a field that specifies the delivery deadline
/// and where (IP address) to send a notification if that deadline is
/// exceeded" (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimelinessExt {
    /// Absolute delivery deadline, in nanoseconds of experiment time.
    pub deadline_ns: u64,
    /// Where to send the deadline-exceeded notification.
    pub notify: Ipv4Address,
}

/// The age extension: accumulated in-network age plus the "aged" flag.
/// "An element updates an 'age' field, and it additionally updates an
/// 'aged' flag if a maximum age threshold was exceeded by the time the
/// packet reached that network element" (§5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AgeExt {
    /// Accumulated age in nanoseconds (56-bit wire field: ≈2.3 years).
    pub age_ns: u64,
    /// Set once the packet exceeded the maximum-age threshold.
    pub aged: bool,
}

impl AgeExt {
    /// Maximum value the 56-bit wire field can carry.
    pub const MAX_AGE_NS: u64 = (1 << 56) - 1;

    /// Add `delta_ns` to the age, saturating at the wire maximum.
    #[must_use]
    pub fn aged_by(&self, delta_ns: u64) -> AgeExt {
        AgeExt {
            age_ns: self.age_ns.saturating_add(delta_ns).min(Self::MAX_AGE_NS),
            aged: self.aged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_layout_is_zero() {
        let l = ExtLayout::of(Features::EMPTY);
        assert_eq!(l.total, 0);
        assert_eq!(l.sequence, None);
        assert_eq!(l.age, None);
    }

    #[test]
    fn single_feature_offsets() {
        let l = ExtLayout::of(Features::AGE);
        assert_eq!(l.age, Some(0));
        assert_eq!(l.total, 8);
    }

    #[test]
    fn fixed_order_is_bit_order() {
        // Age (bit 3) always comes after retransmit (bit 1) regardless of
        // how the set was assembled.
        let l = ExtLayout::of(Features::AGE | Features::RETRANSMIT);
        assert_eq!(l.retransmit, Some(0));
        assert_eq!(l.age, Some(6));
        assert_eq!(l.total, 14);
    }

    #[test]
    fn full_wan_mode_layout() {
        let mode = Features::SEQUENCE
            | Features::RETRANSMIT
            | Features::TIMELINESS
            | Features::AGE
            | Features::ACK_NAK;
        let l = ExtLayout::of(mode);
        assert_eq!(l.sequence, Some(0));
        assert_eq!(l.retransmit, Some(8));
        assert_eq!(l.timeliness, Some(14));
        assert_eq!(l.age, Some(26));
        assert_eq!(l.total, 34);
        // Flag-only ACK_NAK adds no bytes.
        let without = ExtLayout::of(mode - Features::ACK_NAK);
        assert_eq!(without.total, l.total);
    }

    #[test]
    fn all_features_layout() {
        let l = ExtLayout::of(Features::ALL_KNOWN);
        assert_eq!(l.total, 8 + 6 + 12 + 8 + 4 + 4 + 4);
        assert_eq!(l.priority, Some(42));
    }

    #[test]
    fn age_saturates() {
        let a = AgeExt {
            age_ns: AgeExt::MAX_AGE_NS - 1,
            aged: false,
        };
        assert_eq!(a.aged_by(100).age_ns, AgeExt::MAX_AGE_NS);
        let b = AgeExt::default().aged_by(250);
        assert_eq!(b.age_ns, 250);
        assert!(!b.aged);
    }
}
