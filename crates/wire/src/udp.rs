//! UDP datagrams.
//!
//! UDP is one of today's DAQ transports (DUNE carries DAQ data over UDP,
//! paper §4) and serves as a baseline in the evaluation. MMT can also be
//! tunnelled over UDP to traverse networks that drop unknown IP protocols.

use crate::checksum;
use crate::error::{check_emit_len, check_len};
use crate::field::{read_u16, write_u16};
use crate::{Error, Ipv4Address, Result};

/// UDP header length.
pub const HEADER_LEN: usize = 8;

/// The well-known (locally chosen) UDP port for MMT-over-UDP tunnelling.
pub const MMT_TUNNEL_PORT: u16 = 47_000;

mod field {
    use crate::field::Field;
    pub const SRC_PORT: Field = 0..2;
    pub const DST_PORT: Field = 2..4;
    pub const LENGTH: Field = 4..6;
    pub const CHECKSUM: Field = 6..8;
    pub const PAYLOAD: usize = 8;
}

/// A read/write view of a UDP datagram.
#[derive(Debug, Clone)]
pub struct Datagram<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Datagram<T> {
    /// Wrap a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Datagram<T> {
        Datagram { buffer }
    }

    /// Wrap a buffer, validating header and length fields.
    pub fn new_checked(buffer: T) -> Result<Datagram<T>> {
        Datagram::new_checked_split(buffer, 0)
    }

    /// [`Datagram::new_checked`] for a datagram whose last `absent` bytes
    /// are held outside `buffer` (a payload carried by reference): the
    /// header must be in the buffer, and the length field may run up to
    /// `absent` bytes past its end. [`Datagram::payload`] of such a view
    /// would read past the buffer; header accessors are all it is for.
    pub fn new_checked_split(buffer: T, absent: usize) -> Result<Datagram<T>> {
        let dgram = Datagram { buffer };
        dgram.check(absent)?;
        Ok(dgram)
    }

    fn check(&self, absent: usize) -> Result<()> {
        let buf = self.buffer.as_ref();
        check_len(buf, HEADER_LEN)?;
        let len = self.len() as usize;
        if len < HEADER_LEN {
            return Err(Error::Malformed("UDP length below header length"));
        }
        check_len(buf, len.saturating_sub(absent))?;
        Ok(())
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        read_u16(self.buffer.as_ref(), field::SRC_PORT.start)
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        read_u16(self.buffer.as_ref(), field::DST_PORT.start)
    }

    /// Length field (header + payload).
    pub fn len(&self) -> u16 {
        read_u16(self.buffer.as_ref(), field::LENGTH.start)
    }

    /// Whether the datagram has zero payload bytes.
    pub fn is_empty(&self) -> bool {
        self.len() as usize == HEADER_LEN
    }

    /// Checksum field (0 = not computed).
    pub fn checksum_field(&self) -> u16 {
        read_u16(self.buffer.as_ref(), field::CHECKSUM.start)
    }

    /// The datagram payload.
    pub fn payload(&self) -> &[u8] {
        let len = self.len() as usize;
        &self.buffer.as_ref()[field::PAYLOAD..len]
    }

    /// Verify the checksum given the IPv4 pseudo-header addresses. A zero
    /// checksum field means "not computed" and verifies trivially (legal for
    /// UDP over IPv4).
    pub fn verify_checksum(&self, src: &Ipv4Address, dst: &Ipv4Address) -> bool {
        if self.checksum_field() == 0 {
            return true;
        }
        let len = self.len();
        let acc = checksum::pseudo_header(src, dst, crate::ipv4::Protocol::Udp.as_u8(), len);
        checksum::finish(checksum::sum(acc, &self.buffer.as_ref()[..len as usize])) == 0
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Datagram<T> {
    /// Set the source port.
    pub fn set_src_port(&mut self, v: u16) {
        write_u16(self.buffer.as_mut(), field::SRC_PORT.start, v);
    }

    /// Set the destination port.
    pub fn set_dst_port(&mut self, v: u16) {
        write_u16(self.buffer.as_mut(), field::DST_PORT.start, v);
    }

    /// Set the length field.
    pub fn set_len(&mut self, v: u16) {
        write_u16(self.buffer.as_mut(), field::LENGTH.start, v);
    }

    /// Mutable payload access.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let len = self.len() as usize;
        &mut self.buffer.as_mut()[field::PAYLOAD..len]
    }

    /// Compute and store the checksum using the IPv4 pseudo-header.
    pub fn fill_checksum(&mut self, src: &Ipv4Address, dst: &Ipv4Address) {
        write_u16(self.buffer.as_mut(), field::CHECKSUM.start, 0);
        let len = self.len();
        let acc = checksum::pseudo_header(src, dst, crate::ipv4::Protocol::Udp.as_u8(), len);
        let mut csum = checksum::finish(checksum::sum(acc, &self.buffer.as_ref()[..len as usize]));
        // A computed checksum of zero is transmitted as all-ones (RFC 768).
        if csum == 0 {
            csum = 0xffff;
        }
        write_u16(self.buffer.as_mut(), field::CHECKSUM.start, csum);
    }
}

/// Owned representation of a UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpRepr {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload length in bytes.
    pub payload_len: usize,
}

impl UdpRepr {
    /// Parse a datagram into an owned representation.
    pub fn parse<T: AsRef<[u8]>>(dgram: &Datagram<T>) -> Result<UdpRepr> {
        dgram.check(0)?;
        Ok(UdpRepr {
            src_port: dgram.src_port(),
            dst_port: dgram.dst_port(),
            payload_len: dgram.len() as usize - HEADER_LEN,
        })
    }

    /// Bytes of header emitted (always [`HEADER_LEN`]).
    pub const fn header_len(&self) -> usize {
        HEADER_LEN
    }

    /// Total datagram length.
    pub fn total_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    /// Emit the header into the front of `buf` (checksum left at zero; call
    /// [`Datagram::fill_checksum`] after writing the payload).
    pub fn emit(&self, buf: &mut [u8]) -> Result<()> {
        check_emit_len(buf, HEADER_LEN)?;
        let total = self.total_len();
        if total > usize::from(u16::MAX) {
            return Err(Error::ValueOutOfRange("UDP length"));
        }
        let mut d = Datagram::new_unchecked(buf);
        d.set_src_port(self.src_port);
        d.set_dst_port(self.dst_port);
        d.set_len(total as u16);
        write_u16(d.buffer, field::CHECKSUM.start, 0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let repr = UdpRepr {
            src_port: 50_000,
            dst_port: MMT_TUNNEL_PORT,
            payload_len: 5,
        };
        let mut buf = vec![0u8; repr.total_len()];
        repr.emit(&mut buf).unwrap();
        buf[HEADER_LEN..].copy_from_slice(b"hello");
        buf
    }

    #[test]
    fn roundtrip() {
        let buf = sample();
        let d = Datagram::new_checked(&buf[..]).unwrap();
        assert_eq!(d.src_port(), 50_000);
        assert_eq!(d.dst_port(), MMT_TUNNEL_PORT);
        assert_eq!(d.payload(), b"hello");
        assert!(!d.is_empty());
        let repr = UdpRepr::parse(&d).unwrap();
        assert_eq!(repr.payload_len, 5);
    }

    #[test]
    fn checksum_roundtrip_and_corruption() {
        let mut buf = sample();
        let src = Ipv4Address::new(10, 0, 0, 1);
        let dst = Ipv4Address::new(10, 0, 0, 2);
        {
            let mut d = Datagram::new_checked(&mut buf[..]).unwrap();
            d.fill_checksum(&src, &dst);
        }
        let d = Datagram::new_checked(&buf[..]).unwrap();
        assert!(d.verify_checksum(&src, &dst));
        // Corrupt one payload byte: checksum must fail.
        let mut bad = buf.clone();
        bad[HEADER_LEN] ^= 0x01;
        let d = Datagram::new_checked(&bad[..]).unwrap();
        assert!(!d.verify_checksum(&src, &dst));
        // Wrong pseudo-header also fails.
        let d = Datagram::new_checked(&buf[..]).unwrap();
        assert!(!d.verify_checksum(&src, &Ipv4Address::new(10, 0, 0, 3)));
    }

    #[test]
    fn zero_checksum_verifies_trivially() {
        let buf = sample();
        let d = Datagram::new_checked(&buf[..]).unwrap();
        assert_eq!(d.checksum_field(), 0);
        assert!(d.verify_checksum(&Ipv4Address::new(1, 2, 3, 4), &Ipv4Address::new(5, 6, 7, 8)));
    }

    #[test]
    fn bad_length_field_rejected() {
        let mut buf = sample();
        buf[4] = 0;
        buf[5] = 4; // length 4 < 8
        assert!(matches!(
            Datagram::new_checked(&buf[..]),
            Err(Error::Malformed(_))
        ));
        let mut buf2 = sample();
        buf2[4] = 0xff;
        buf2[5] = 0xff; // length exceeds buffer
        assert!(matches!(
            Datagram::new_checked(&buf2[..]),
            Err(Error::Truncated { .. })
        ));
    }

    #[test]
    fn payload_mut_respects_length() {
        let mut buf = sample();
        buf.push(0xEE); // trailing byte beyond UDP length
        let mut d = Datagram::new_checked(&mut buf[..]).unwrap();
        assert_eq!(d.payload_mut().len(), 5);
        assert_eq!(d.payload().len(), 5);
    }
}
