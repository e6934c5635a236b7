//! The zero-copy MMT header view.

use super::ext::{AgeExt, ExtLayout, RetransmitExt, TimelinessExt};
use super::features::Features;
use super::ExperimentId;
use crate::error::check_len;
use crate::field::{read_u24, read_u32, read_u64, write_u24, write_u32, write_u64};
use crate::Result;

/// Length of the fixed core header: config id (1) + config data (3) +
/// experiment id (4).
pub const CORE_HEADER_LEN: usize = 8;

mod field {
    use crate::field::Field;
    pub const CONFIG_ID: usize = 0;
    pub const CONFIG_DATA: Field = 1..4;
    pub const EXPERIMENT: Field = 4..8;
    pub const EXT: usize = 8;
}

/// A read/write view of an MMT packet (core header + extensions + payload).
///
/// The view supports the in-place header updates that on-path programmable
/// elements perform: updating age, setting the aged flag, writing sequence
/// numbers into an already-present slot, rewriting the retransmission
/// source. *Adding* a feature changes the header length and therefore
/// requires re-emitting via [`super::MmtRepr`] — exactly the operation a
/// mode-transition element performs.
#[derive(Debug, Clone)]
pub struct CoreHeader<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> CoreHeader<T> {
    /// Wrap a buffer without validation.
    pub fn new_unchecked(buffer: T) -> CoreHeader<T> {
        CoreHeader { buffer }
    }

    /// Wrap a buffer, validating that the core header and all extensions
    /// declared by its feature bits are present.
    pub fn new_checked(buffer: T) -> Result<CoreHeader<T>> {
        let hdr = CoreHeader { buffer };
        hdr.check()?;
        Ok(hdr)
    }

    fn check(&self) -> Result<()> {
        let buf = self.buffer.as_ref();
        check_len(buf, CORE_HEADER_LEN)?;
        check_len(buf, self.header_len())
    }

    /// The configuration id.
    pub fn config_id(&self) -> u8 {
        self.buffer.as_ref()[field::CONFIG_ID]
    }

    /// The raw 24-bit configuration data.
    pub fn config_data(&self) -> u32 {
        read_u24(self.buffer.as_ref(), field::CONFIG_DATA.start)
    }

    /// The feature set (lenient: unknown bits ignored, as a forwarding
    /// element must tolerate newer deployments).
    ///
    /// Control packets repurpose the config-data field for the message
    /// type, so they report an empty feature set — their header is just the
    /// fixed core header.
    pub fn features(&self) -> Features {
        if self.config_id() == super::CONFIG_DATA_V0 {
            Features::from_bits_truncate(self.config_data())
        } else {
            Features::EMPTY
        }
    }

    /// The experiment id.
    pub fn experiment(&self) -> ExperimentId {
        ExperimentId::from_raw(read_u32(self.buffer.as_ref(), field::EXPERIMENT.start))
    }

    /// The extension layout implied by the feature bits.
    #[inline]
    pub fn layout(&self) -> ExtLayout {
        ExtLayout::of(self.features())
    }

    /// Total header length (core + extensions).
    pub fn header_len(&self) -> usize {
        CORE_HEADER_LEN + self.layout().total
    }

    /// The payload following the header.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[self.header_len()..]
    }

    /// Read one extension: derive the layout, `pick` the slot, and decode
    /// it at its offset in the buffer.
    #[inline]
    fn ext<V>(
        &self,
        pick: impl FnOnce(&ExtLayout) -> Option<usize>,
        read: impl FnOnce(&[u8], usize) -> V,
    ) -> Option<V> {
        let off = field::EXT + pick(&self.layout())?;
        Some(read(self.buffer.as_ref(), off))
    }

    /// Sequence number, if the `SEQUENCE` feature is active.
    pub fn sequence(&self) -> Option<u64> {
        self.ext(|l| l.sequence, read_u64)
    }

    /// Retransmission source, if the `RETRANSMIT` feature is active.
    pub fn retransmit(&self) -> Option<RetransmitExt> {
        self.ext(|l| l.retransmit, slot::read_retransmit)
    }

    /// Timeliness configuration, if the `TIMELINESS` feature is active.
    pub fn timeliness(&self) -> Option<TimelinessExt> {
        self.ext(|l| l.timeliness, slot::read_timeliness)
    }

    /// Age state, if the `AGE` feature is active.
    pub fn age(&self) -> Option<AgeExt> {
        self.ext(|l| l.age, slot::read_age)
    }

    /// Pacing rate in Mbit/s, if the `PACING` feature is active.
    pub fn pacing_mbps(&self) -> Option<u32> {
        self.ext(|l| l.pacing, read_u32)
    }

    /// Granted backpressure window, if the `BACKPRESSURE` feature is active.
    pub fn backpressure_window(&self) -> Option<u32> {
        self.ext(|l| l.backpressure, read_u32)
    }

    /// Priority class, if the `PRIORITY` feature is active.
    pub fn priority_class(&self) -> Option<u8> {
        self.ext(|l| l.priority, slot::read_priority)
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> CoreHeader<T> {
    /// Set the configuration id.
    pub fn set_config_id(&mut self, v: u8) {
        self.buffer.as_mut()[field::CONFIG_ID] = v;
    }

    /// Set the raw configuration data. **Note**: changing feature bits in
    /// place does not move extension bytes; use [`super::MmtRepr`] to change
    /// modes. This accessor exists for flag-only bits (e.g. `DUPLICATED`).
    pub fn set_config_data(&mut self, v: u32) {
        write_u24(self.buffer.as_mut(), field::CONFIG_DATA.start, v);
    }

    /// Set a flag-only feature bit in place (panics in debug builds if the
    /// bit carries an extension slot, which would desynchronize the layout).
    pub fn set_flag(&mut self, flag: Features) {
        debug_assert_eq!(
            ExtLayout::of(flag).total,
            0,
            "in-place set_flag only valid for flag-only features"
        );
        let bits = self.config_data() | flag.bits();
        self.set_config_data(bits);
    }

    /// Set the experiment id.
    pub fn set_experiment(&mut self, id: ExperimentId) {
        write_u32(self.buffer.as_mut(), field::EXPERIMENT.start, id.raw());
    }

    /// Write one extension: derive the layout, `pick` the slot, and encode
    /// `value` at its offset in the buffer. `false` if the slot is absent.
    #[inline]
    fn set_ext<V>(
        &mut self,
        pick: impl FnOnce(&ExtLayout) -> Option<usize>,
        write: impl FnOnce(&mut [u8], usize, V),
        value: V,
    ) -> bool {
        let Some(off) = pick(&self.layout()) else {
            return false;
        };
        write(self.buffer.as_mut(), field::EXT + off, value);
        true
    }

    /// Write the sequence number. Returns `false` if the slot is absent.
    pub fn set_sequence(&mut self, seq: u64) -> bool {
        self.set_ext(|l| l.sequence, write_u64, seq)
    }

    /// Write the retransmission source. Returns `false` if absent.
    pub fn set_retransmit(&mut self, ext: RetransmitExt) -> bool {
        self.set_ext(|l| l.retransmit, slot::write_retransmit, ext)
    }

    /// Write the timeliness configuration. Returns `false` if absent.
    pub fn set_timeliness(&mut self, ext: TimelinessExt) -> bool {
        self.set_ext(|l| l.timeliness, slot::write_timeliness, ext)
    }

    /// Write the age state. Returns `false` if absent.
    pub fn set_age(&mut self, ext: AgeExt) -> bool {
        self.set_ext(|l| l.age, slot::write_age, ext)
    }

    /// The in-place age update a network element performs (§5.4): add
    /// `delta_ns` to the age and set the aged flag if the new age exceeds
    /// `max_age_ns`. Returns the updated state, or `None` if the feature is
    /// inactive.
    pub fn update_age(&mut self, delta_ns: u64, max_age_ns: u64) -> Option<AgeExt> {
        let off = field::EXT + self.layout().age?;
        let buf = self.buffer.as_mut();
        let mut next = slot::read_age(buf, off).aged_by(delta_ns);
        if next.age_ns > max_age_ns {
            next.aged = true;
        }
        slot::write_age(buf, off, next);
        Some(next)
    }

    /// Write the pacing rate. Returns `false` if absent.
    pub fn set_pacing_mbps(&mut self, rate: u32) -> bool {
        self.set_ext(|l| l.pacing, write_u32, rate)
    }

    /// Write the backpressure window. Returns `false` if absent.
    pub fn set_backpressure_window(&mut self, window: u32) -> bool {
        self.set_ext(|l| l.backpressure, write_u32, window)
    }

    /// Write the priority class. Returns `false` if absent.
    pub fn set_priority_class(&mut self, class: u8) -> bool {
        self.set_ext(|l| l.priority, slot::write_priority, class)
    }

    /// Mutable payload access.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let off = self.header_len();
        &mut self.buffer.as_mut()[off..]
    }
}

/// The byte format of each structured extension slot at a known offset,
/// written down once for the view above and for [`super::MmtRepr`]'s
/// single-pass codec. Plain-integer slots use [`crate::field`] directly.
pub(super) mod slot {
    use super::{AgeExt, RetransmitExt, TimelinessExt};
    use crate::field::{read_u16, read_u56, read_u64, write_u16, write_u56, write_u64};
    use crate::Ipv4Address;

    #[inline]
    pub fn read_retransmit(buf: &[u8], o: usize) -> RetransmitExt {
        RetransmitExt {
            source: Ipv4Address::from_bytes(&buf[o..o + 4]),
            port: read_u16(buf, o + 4),
        }
    }

    #[inline]
    pub fn write_retransmit(buf: &mut [u8], o: usize, ext: RetransmitExt) {
        buf[o..o + 4].copy_from_slice(ext.source.as_bytes());
        write_u16(buf, o + 4, ext.port);
    }

    #[inline]
    pub fn read_timeliness(buf: &[u8], o: usize) -> TimelinessExt {
        TimelinessExt {
            deadline_ns: read_u64(buf, o),
            notify: Ipv4Address::from_bytes(&buf[o + 8..o + 12]),
        }
    }

    #[inline]
    pub fn write_timeliness(buf: &mut [u8], o: usize, ext: TimelinessExt) {
        write_u64(buf, o, ext.deadline_ns);
        buf[o + 8..o + 12].copy_from_slice(ext.notify.as_bytes());
    }

    #[inline]
    pub fn read_age(buf: &[u8], o: usize) -> AgeExt {
        AgeExt {
            age_ns: read_u56(buf, o),
            aged: buf[o + 7] & 0x01 != 0,
        }
    }

    /// Saturates the age at the 56-bit maximum and keeps the flag byte's
    /// other bits.
    #[inline]
    pub fn write_age(buf: &mut [u8], o: usize, ext: AgeExt) {
        write_u56(buf, o, ext.age_ns.min(AgeExt::MAX_AGE_NS));
        buf[o + 7] = (buf[o + 7] & !0x01) | u8::from(ext.aged);
    }

    #[inline]
    pub fn read_priority(buf: &[u8], o: usize) -> u8 {
        buf[o]
    }

    /// Zeroes the three reserved bytes after the class.
    #[inline]
    pub fn write_priority(buf: &mut [u8], o: usize, class: u8) {
        buf[o..o + 4].copy_from_slice(&[class, 0, 0, 0]);
    }
}

#[cfg(test)]
mod tests {
    use super::super::{MmtRepr, CONFIG_DATA_V0};
    use super::*;
    use crate::Ipv4Address;

    fn wan_packet() -> Vec<u8> {
        let repr = MmtRepr::data(ExperimentId::new(2, 1))
            .with_sequence(7)
            .with_retransmit(Ipv4Address::new(10, 0, 0, 5), 47_000)
            .with_timeliness(1_000_000, Ipv4Address::new(10, 0, 0, 9))
            .with_age(500, false)
            .with_flags(Features::ACK_NAK);
        let mut buf = vec![0u8; repr.header_len() + 4];
        repr.emit(&mut buf).unwrap();
        buf[repr.header_len()..].copy_from_slice(&[9, 9, 9, 9]);
        buf
    }

    #[test]
    fn view_reads_all_fields() {
        let buf = wan_packet();
        let hdr = CoreHeader::new_checked(&buf[..]).unwrap();
        assert_eq!(hdr.config_id(), CONFIG_DATA_V0);
        assert_eq!(hdr.experiment(), ExperimentId::new(2, 1));
        assert_eq!(hdr.sequence(), Some(7));
        assert_eq!(
            hdr.retransmit(),
            Some(RetransmitExt {
                source: Ipv4Address::new(10, 0, 0, 5),
                port: 47_000
            })
        );
        assert_eq!(
            hdr.timeliness(),
            Some(TimelinessExt {
                deadline_ns: 1_000_000,
                notify: Ipv4Address::new(10, 0, 0, 9)
            })
        );
        assert_eq!(
            hdr.age(),
            Some(AgeExt {
                age_ns: 500,
                aged: false
            })
        );
        assert_eq!(hdr.payload(), &[9, 9, 9, 9]);
        assert!(hdr.features().contains(Features::ACK_NAK));
        assert_eq!(hdr.pacing_mbps(), None);
    }

    #[test]
    fn truncated_extension_rejected() {
        let buf = wan_packet();
        let hdr_len = CoreHeader::new_checked(&buf[..]).unwrap().header_len();
        // Cut inside the extension area.
        assert!(CoreHeader::new_checked(&buf[..hdr_len - 2]).is_err());
        // Core-only truncation also rejected.
        assert!(CoreHeader::new_checked(&buf[..4]).is_err());
    }

    #[test]
    fn in_place_age_update() {
        let mut buf = wan_packet();
        let mut hdr = CoreHeader::new_checked(&mut buf[..]).unwrap();
        let updated = hdr.update_age(1_000, 10_000).unwrap();
        assert_eq!(updated.age_ns, 1_500);
        assert!(!updated.aged);
        // Exceed the threshold: aged flag latches.
        let updated = hdr.update_age(20_000, 10_000).unwrap();
        assert!(updated.aged);
        assert!(hdr.age().unwrap().aged);
        // Aged flag stays set even when later elements see slack.
        let updated = hdr.update_age(1, u64::MAX).unwrap();
        assert!(updated.aged);
    }

    #[test]
    fn setters_fail_for_absent_slots() {
        let repr = MmtRepr::data(ExperimentId::new(1, 0));
        let mut buf = vec![0u8; repr.header_len()];
        repr.emit(&mut buf).unwrap();
        let mut hdr = CoreHeader::new_checked(&mut buf[..]).unwrap();
        assert!(!hdr.set_sequence(1));
        assert!(!hdr.set_age(AgeExt::default()));
        assert!(!hdr.set_pacing_mbps(100));
        assert!(!hdr.set_backpressure_window(10));
        assert!(!hdr.set_priority_class(1));
        assert!(!hdr.set_retransmit(RetransmitExt {
            source: Ipv4Address::UNSPECIFIED,
            port: 0
        }));
        assert!(!hdr.set_timeliness(TimelinessExt {
            deadline_ns: 0,
            notify: Ipv4Address::UNSPECIFIED
        }));
        assert_eq!(hdr.sequence(), None);
    }

    #[test]
    fn flag_only_feature_set_in_place() {
        let mut buf = wan_packet();
        let before_len = CoreHeader::new_checked(&buf[..]).unwrap().header_len();
        let mut hdr = CoreHeader::new_unchecked(&mut buf[..]);
        hdr.set_flag(Features::DUPLICATED);
        assert!(hdr.features().contains(Features::DUPLICATED));
        assert_eq!(hdr.header_len(), before_len);
        // Payload is unchanged.
        assert_eq!(hdr.payload(), &[9, 9, 9, 9]);
    }

    #[test]
    fn payload_mut_writes_through() {
        let mut buf = wan_packet();
        let mut hdr = CoreHeader::new_checked(&mut buf[..]).unwrap();
        hdr.payload_mut()[0] = 0x42;
        assert_eq!(hdr.payload()[0], 0x42);
    }

    #[test]
    fn sequence_rewrite_in_place() {
        let mut buf = wan_packet();
        let mut hdr = CoreHeader::new_checked(&mut buf[..]).unwrap();
        assert!(hdr.set_sequence(u64::MAX));
        assert_eq!(hdr.sequence(), Some(u64::MAX));
    }
}
