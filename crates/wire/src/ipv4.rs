//! IPv4 packets.
//!
//! MMT runs over IPv4 on WAN segments (paper §5.2 considered and rejected
//! IPv6 hop-by-hop options because they are unreliably supported in hardware
//! and cannot be updated in flight; MMT instead rides above IP with its own
//! updatable header). Options are not supported — DAQ/ESnet paths do not use
//! them — and a packet with IHL > 5 parses with its options skipped.

use crate::checksum;
use crate::error::{check_emit_len, check_len};
use crate::field::{read_u16, write_u16};
use crate::{Error, Ipv4Address, Result};

/// Minimum (and, without options, actual) IPv4 header length.
pub const HEADER_LEN: usize = 20;

/// IP protocol numbers used by this system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// UDP (17).
    Udp,
    /// TCP (6) — used by the baseline transport models.
    Tcp,
    /// MMT directly over IP. We use 0xFD (253), reserved for experimentation
    /// by RFC 3692.
    Mmt,
    /// Anything else.
    Unknown(u8),
}

impl Protocol {
    /// Raw protocol number.
    pub fn as_u8(&self) -> u8 {
        match self {
            Protocol::Udp => 17,
            Protocol::Tcp => 6,
            Protocol::Mmt => 253,
            Protocol::Unknown(v) => *v,
        }
    }

    /// Parse a raw protocol number.
    pub fn from_u8(v: u8) -> Protocol {
        match v {
            17 => Protocol::Udp,
            6 => Protocol::Tcp,
            253 => Protocol::Mmt,
            other => Protocol::Unknown(other),
        }
    }
}

mod field {
    use crate::field::Field;
    pub const VER_IHL: usize = 0;
    pub const DSCP_ECN: usize = 1;
    pub const LENGTH: Field = 2..4;
    pub const IDENT: Field = 4..6;
    pub const FLAGS_FRAG: Field = 6..8;
    pub const TTL: usize = 8;
    pub const PROTOCOL: usize = 9;
    pub const CHECKSUM: Field = 10..12;
    pub const SRC: Field = 12..16;
    pub const DST: Field = 16..20;
}

/// A read/write view of an IPv4 packet.
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wrap a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Packet<T> {
        Packet { buffer }
    }

    /// Wrap a buffer, validating version, header length and total length.
    pub fn new_checked(buffer: T) -> Result<Packet<T>> {
        Packet::new_checked_split(buffer, 0)
    }

    /// [`Packet::new_checked`] for a packet whose last `absent` bytes are
    /// held outside `buffer` (a payload carried by reference): the whole
    /// header must be in the buffer, and the total length may run up to
    /// `absent` bytes past its end. [`Packet::payload`] of such a view
    /// would read past the buffer; header accessors are all it is for.
    pub fn new_checked_split(buffer: T, absent: usize) -> Result<Packet<T>> {
        let packet = Packet { buffer };
        packet.check(absent)?;
        Ok(packet)
    }

    fn check(&self, absent: usize) -> Result<()> {
        let buf = self.buffer.as_ref();
        check_len(buf, HEADER_LEN)?;
        if self.version() != 4 {
            return Err(Error::UnknownVersion(self.version()));
        }
        let ihl = self.header_len();
        if ihl < HEADER_LEN {
            return Err(Error::Malformed("IHL below minimum"));
        }
        check_len(buf, ihl)?;
        let total = self.total_len() as usize;
        if total < ihl {
            return Err(Error::Malformed("total length below header length"));
        }
        check_len(buf, total.saturating_sub(absent))?;
        Ok(())
    }

    /// IP version (must be 4).
    pub fn version(&self) -> u8 {
        self.buffer.as_ref()[field::VER_IHL] >> 4
    }

    /// Header length in bytes (IHL × 4).
    pub fn header_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[field::VER_IHL] & 0x0f) * 4
    }

    /// DSCP (top 6 bits of the traffic-class byte).
    pub fn dscp(&self) -> u8 {
        self.buffer.as_ref()[field::DSCP_ECN] >> 2
    }

    /// Total packet length (header + payload).
    pub fn total_len(&self) -> u16 {
        read_u16(self.buffer.as_ref(), field::LENGTH.start)
    }

    /// Identification field.
    pub fn ident(&self) -> u16 {
        read_u16(self.buffer.as_ref(), field::IDENT.start)
    }

    /// Time-to-live.
    pub fn ttl(&self) -> u8 {
        self.buffer.as_ref()[field::TTL]
    }

    /// Payload protocol.
    pub fn protocol(&self) -> Protocol {
        Protocol::from_u8(self.buffer.as_ref()[field::PROTOCOL])
    }

    /// Source address.
    pub fn src_addr(&self) -> Ipv4Address {
        Ipv4Address::from_bytes(&self.buffer.as_ref()[field::SRC])
    }

    /// Destination address.
    pub fn dst_addr(&self) -> Ipv4Address {
        Ipv4Address::from_bytes(&self.buffer.as_ref()[field::DST])
    }

    /// Verify the header checksum.
    pub fn verify_checksum(&self) -> bool {
        let ihl = self.header_len();
        checksum::checksum(&self.buffer.as_ref()[..ihl]) == 0
    }

    /// The packet payload (after any options, bounded by total length).
    pub fn payload(&self) -> &[u8] {
        let ihl = self.header_len();
        let total = self.total_len() as usize;
        &self.buffer.as_ref()[ihl..total]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    /// Set version and IHL for an option-less header.
    pub fn set_ver_ihl_basic(&mut self) {
        self.buffer.as_mut()[field::VER_IHL] = 0x45;
    }

    /// Set the DSCP code point.
    pub fn set_dscp(&mut self, dscp: u8) {
        let b = &mut self.buffer.as_mut()[field::DSCP_ECN];
        *b = (dscp << 2) | (*b & 0x03);
    }

    /// Set the total length field.
    pub fn set_total_len(&mut self, len: u16) {
        write_u16(self.buffer.as_mut(), field::LENGTH.start, len);
    }

    /// Set the identification field.
    pub fn set_ident(&mut self, v: u16) {
        write_u16(self.buffer.as_mut(), field::IDENT.start, v);
    }

    /// Set flags to "don't fragment" and clear the fragment offset — DAQ
    /// paths are MTU-engineered so fragmentation never happens (§2.1).
    pub fn set_no_fragment(&mut self) {
        write_u16(self.buffer.as_mut(), field::FLAGS_FRAG.start, 0x4000);
    }

    /// Set the TTL.
    pub fn set_ttl(&mut self, ttl: u8) {
        self.buffer.as_mut()[field::TTL] = ttl;
    }

    /// Decrement the TTL, returning the new value (saturating at zero).
    pub fn decrement_ttl(&mut self) -> u8 {
        let b = &mut self.buffer.as_mut()[field::TTL];
        *b = b.saturating_sub(1);
        let new = *b;
        self.fill_checksum();
        new
    }

    /// Set the payload protocol.
    pub fn set_protocol(&mut self, p: Protocol) {
        self.buffer.as_mut()[field::PROTOCOL] = p.as_u8();
    }

    /// Set the source address.
    pub fn set_src_addr(&mut self, a: Ipv4Address) {
        self.buffer.as_mut()[field::SRC].copy_from_slice(a.as_bytes());
    }

    /// Set the destination address.
    pub fn set_dst_addr(&mut self, a: Ipv4Address) {
        self.buffer.as_mut()[field::DST].copy_from_slice(a.as_bytes());
    }

    /// Recompute and store the header checksum.
    pub fn fill_checksum(&mut self) {
        write_u16(self.buffer.as_mut(), field::CHECKSUM.start, 0);
        let ihl = self.header_len();
        let csum = checksum::checksum(&self.buffer.as_ref()[..ihl]);
        write_u16(self.buffer.as_mut(), field::CHECKSUM.start, csum);
    }

    /// Mutable payload access.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let ihl = self.header_len();
        let total = self.total_len() as usize;
        &mut self.buffer.as_mut()[ihl..total]
    }
}

/// Owned representation of an (option-less) IPv4 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Repr {
    /// Source address.
    pub src: Ipv4Address,
    /// Destination address.
    pub dst: Ipv4Address,
    /// Payload protocol.
    pub protocol: Protocol,
    /// Payload length in bytes (excluding the IPv4 header).
    pub payload_len: usize,
    /// Time-to-live.
    pub ttl: u8,
    /// DSCP code point (used for alert prioritization, Req 3).
    pub dscp: u8,
}

impl Ipv4Repr {
    /// Parse a packet into an owned representation, verifying the checksum.
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Result<Ipv4Repr> {
        packet.check(0)?;
        if !packet.verify_checksum() {
            return Err(Error::BadChecksum);
        }
        Ok(Ipv4Repr {
            src: packet.src_addr(),
            dst: packet.dst_addr(),
            protocol: packet.protocol(),
            payload_len: packet.total_len() as usize - packet.header_len(),
            ttl: packet.ttl(),
            dscp: packet.dscp(),
        })
    }

    /// Bytes of header this representation emits.
    pub const fn header_len(&self) -> usize {
        HEADER_LEN
    }

    /// Total packet length (header + payload).
    pub fn total_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    /// Emit this header into the front of `buf` and fill the checksum.
    pub fn emit(&self, buf: &mut [u8]) -> Result<()> {
        check_emit_len(buf, HEADER_LEN)?;
        let total = self.total_len();
        if total > usize::from(u16::MAX) {
            return Err(Error::ValueOutOfRange("IPv4 total length"));
        }
        let mut p = Packet::new_unchecked(buf);
        p.set_ver_ihl_basic();
        p.set_dscp(self.dscp);
        p.set_total_len(total as u16);
        p.set_ident(0);
        p.set_no_fragment();
        p.set_ttl(self.ttl);
        p.set_protocol(self.protocol);
        p.set_src_addr(self.src);
        p.set_dst_addr(self.dst);
        p.fill_checksum();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Ipv4Repr, Vec<u8>) {
        let repr = Ipv4Repr {
            src: Ipv4Address::new(10, 0, 0, 1),
            dst: Ipv4Address::new(10, 0, 0, 2),
            protocol: Protocol::Mmt,
            payload_len: 4,
            ttl: 64,
            dscp: 46,
        };
        let mut buf = vec![0u8; repr.total_len()];
        repr.emit(&mut buf).unwrap();
        buf[HEADER_LEN..].copy_from_slice(&[1, 2, 3, 4]);
        (repr, buf)
    }

    #[test]
    fn roundtrip() {
        let (repr, buf) = sample();
        let packet = Packet::new_checked(&buf[..]).unwrap();
        assert!(packet.verify_checksum());
        let parsed = Ipv4Repr::parse(&packet).unwrap();
        assert_eq!(parsed, repr);
        assert_eq!(packet.payload(), &[1, 2, 3, 4]);
    }

    #[test]
    fn bad_version_rejected() {
        let (_, mut buf) = sample();
        buf[0] = 0x65; // version 6
        assert!(matches!(
            Packet::new_checked(&buf[..]),
            Err(Error::UnknownVersion(6))
        ));
    }

    #[test]
    fn corrupted_checksum_detected() {
        let (_, mut buf) = sample();
        buf[12] ^= 0xff; // flip src byte
        let packet = Packet::new_checked(&buf[..]).unwrap();
        assert!(!packet.verify_checksum());
        assert_eq!(Ipv4Repr::parse(&packet), Err(Error::BadChecksum));
    }

    #[test]
    fn ttl_decrement_updates_checksum() {
        let (_, mut buf) = sample();
        let mut packet = Packet::new_checked(&mut buf[..]).unwrap();
        let new = packet.decrement_ttl();
        assert_eq!(new, 63);
        assert!(packet.verify_checksum());
        // Saturation at zero.
        packet.set_ttl(0);
        packet.fill_checksum();
        assert_eq!(packet.decrement_ttl(), 0);
    }

    #[test]
    fn truncated_payload_rejected() {
        let (_, buf) = sample();
        // Claimed total length exceeds the buffer we pass in.
        assert!(matches!(
            Packet::new_checked(&buf[..HEADER_LEN + 2]),
            Err(Error::Truncated { .. })
        ));
    }

    #[test]
    fn total_length_below_header_rejected() {
        let (_, mut buf) = sample();
        buf[2] = 0;
        buf[3] = 10; // total length 10 < 20
        assert!(matches!(
            Packet::new_checked(&buf[..]),
            Err(Error::Malformed(_))
        ));
    }

    #[test]
    fn oversized_payload_rejected_on_emit() {
        let repr = Ipv4Repr {
            src: Ipv4Address::UNSPECIFIED,
            dst: Ipv4Address::BROADCAST,
            protocol: Protocol::Udp,
            payload_len: 70_000,
            ttl: 1,
            dscp: 0,
        };
        let mut buf = vec![0u8; HEADER_LEN];
        assert_eq!(
            repr.emit(&mut buf),
            Err(Error::ValueOutOfRange("IPv4 total length"))
        );
    }

    #[test]
    fn protocol_mapping() {
        assert_eq!(Protocol::from_u8(17), Protocol::Udp);
        assert_eq!(Protocol::from_u8(6), Protocol::Tcp);
        assert_eq!(Protocol::from_u8(253), Protocol::Mmt);
        assert_eq!(Protocol::from_u8(99), Protocol::Unknown(99));
        assert_eq!(Protocol::Unknown(99).as_u8(), 99);
    }

    #[test]
    fn dscp_set_and_get() {
        let (_, mut buf) = sample();
        let mut packet = Packet::new_checked(&mut buf[..]).unwrap();
        assert_eq!(packet.dscp(), 46);
        packet.set_dscp(0);
        assert_eq!(packet.dscp(), 0);
    }
}
