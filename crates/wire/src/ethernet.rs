//! Ethernet II frames.
//!
//! DAQ networks are commodity Ethernet (paper §2), and the MMT protocol must
//! run *directly* over layer 2 inside the DAQ network (Req 1). Jumbo frames
//! are the norm for DAQ elephant flows (§2.1): every hop's MTU is configured
//! so that no fragmentation occurs, so this type accepts payloads up to the
//! 9000-byte jumbo MTU (and beyond — the limit is policy, not format).

use crate::error::{check_emit_len, check_len};
use crate::field::{read_u16, write_u16};
use crate::{Error, EthernetAddress, Result};

/// EtherType values used by this system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// MMT carried directly over Ethernet (Req 1). We use the IEEE
    /// "local experimental" EtherType 0x88B5.
    Mmt,
    /// Anything else.
    Unknown(u16),
}

impl EtherType {
    /// The raw 16-bit EtherType.
    pub fn as_u16(&self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Mmt => 0x88B5,
            EtherType::Unknown(v) => *v,
        }
    }

    /// Parse a raw EtherType.
    pub fn from_u16(v: u16) -> EtherType {
        match v {
            0x0800 => EtherType::Ipv4,
            0x88B5 => EtherType::Mmt,
            other => EtherType::Unknown(other),
        }
    }
}

/// Length of the Ethernet II header: dst(6) + src(6) + ethertype(2).
pub const HEADER_LEN: usize = 14;

/// Standard Ethernet payload MTU.
pub const MTU_STANDARD: usize = 1500;

/// Jumbo-frame payload MTU used throughout DAQ networks (§2.1).
pub const MTU_JUMBO: usize = 9000;

mod field {
    use crate::field::Field;
    pub const DESTINATION: Field = 0..6;
    pub const SOURCE: Field = 6..12;
    pub const ETHERTYPE: Field = 12..14;
    pub const PAYLOAD: usize = 14;
}

/// A read/write view of an Ethernet II frame.
#[derive(Debug, Clone)]
pub struct Frame<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Frame<T> {
    /// Wrap a buffer without validating its length.
    pub fn new_unchecked(buffer: T) -> Frame<T> {
        Frame { buffer }
    }

    /// Wrap a buffer, ensuring it is long enough for the header.
    pub fn new_checked(buffer: T) -> Result<Frame<T>> {
        check_len(buffer.as_ref(), HEADER_LEN)?;
        Ok(Frame { buffer })
    }

    /// Destination MAC address.
    pub fn destination(&self) -> EthernetAddress {
        EthernetAddress::from_bytes(&self.buffer.as_ref()[field::DESTINATION])
    }

    /// Source MAC address.
    pub fn source(&self) -> EthernetAddress {
        EthernetAddress::from_bytes(&self.buffer.as_ref()[field::SOURCE])
    }

    /// EtherType.
    pub fn ethertype(&self) -> EtherType {
        EtherType::from_u16(read_u16(self.buffer.as_ref(), field::ETHERTYPE.start))
    }

    /// The frame payload.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[field::PAYLOAD..]
    }

    /// Total frame length (header + payload).
    pub fn total_len(&self) -> usize {
        self.buffer.as_ref().len()
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Frame<T> {
    /// Set the destination MAC address.
    pub fn set_destination(&mut self, addr: EthernetAddress) {
        self.buffer.as_mut()[field::DESTINATION].copy_from_slice(addr.as_bytes());
    }

    /// Set the source MAC address.
    pub fn set_source(&mut self, addr: EthernetAddress) {
        self.buffer.as_mut()[field::SOURCE].copy_from_slice(addr.as_bytes());
    }

    /// Set the EtherType.
    pub fn set_ethertype(&mut self, value: EtherType) {
        write_u16(self.buffer.as_mut(), field::ETHERTYPE.start, value.as_u16());
    }

    /// Mutable access to the payload.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.buffer.as_mut()[field::PAYLOAD..]
    }
}

/// Owned representation of an Ethernet II header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthernetRepr {
    /// Destination MAC.
    pub dst: EthernetAddress,
    /// Source MAC.
    pub src: EthernetAddress,
    /// EtherType of the payload.
    pub ethertype: EtherType,
}

impl EthernetRepr {
    /// Parse a frame header into an owned representation.
    pub fn parse<T: AsRef<[u8]>>(frame: &Frame<T>) -> Result<EthernetRepr> {
        check_len(frame.buffer.as_ref(), HEADER_LEN)?;
        Ok(EthernetRepr {
            dst: frame.destination(),
            src: frame.source(),
            ethertype: frame.ethertype(),
        })
    }

    /// The header length this representation emits (always [`HEADER_LEN`]).
    pub const fn header_len(&self) -> usize {
        HEADER_LEN
    }

    /// Emit this header into the front of `buf`.
    pub fn emit(&self, buf: &mut [u8]) -> Result<()> {
        check_emit_len(buf, HEADER_LEN)?;
        let mut frame = Frame::new_unchecked(buf);
        frame.set_destination(self.dst);
        frame.set_source(self.src);
        frame.set_ethertype(self.ethertype);
        Ok(())
    }
}

/// Build a complete frame: header followed by `payload`.
pub fn build_frame(repr: &EthernetRepr, payload: &[u8]) -> Vec<u8> {
    let mut buf = vec![0u8; HEADER_LEN + payload.len()];
    repr.emit(&mut buf).expect("sized above"); // mmt-lint: allow(P1, "buffer sized with HEADER_LEN one line above")
    buf[HEADER_LEN..].copy_from_slice(payload);
    buf
}

/// Validate that a frame's payload fits within the given MTU.
pub fn check_mtu(frame_len: usize, mtu: usize) -> Result<()> {
    if frame_len > HEADER_LEN + mtu {
        Err(Error::ValueOutOfRange("frame exceeds MTU"))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame() -> Vec<u8> {
        let repr = EthernetRepr {
            dst: EthernetAddress([0x02, 0, 0, 0, 0, 2]),
            src: EthernetAddress([0x02, 0, 0, 0, 0, 1]),
            ethertype: EtherType::Mmt,
        };
        build_frame(&repr, &[0xAA, 0xBB, 0xCC])
    }

    #[test]
    fn parse_emitted_frame() {
        let buf = sample_frame();
        let frame = Frame::new_checked(&buf[..]).unwrap();
        assert_eq!(frame.destination(), EthernetAddress([0x02, 0, 0, 0, 0, 2]));
        assert_eq!(frame.source(), EthernetAddress([0x02, 0, 0, 0, 0, 1]));
        assert_eq!(frame.ethertype(), EtherType::Mmt);
        assert_eq!(frame.payload(), &[0xAA, 0xBB, 0xCC]);
        assert_eq!(frame.total_len(), HEADER_LEN + 3);
    }

    #[test]
    fn repr_roundtrip() {
        let buf = sample_frame();
        let frame = Frame::new_checked(&buf[..]).unwrap();
        let repr = EthernetRepr::parse(&frame).unwrap();
        let mut out = vec![0u8; HEADER_LEN];
        repr.emit(&mut out).unwrap();
        assert_eq!(&buf[..HEADER_LEN], &out[..]);
    }

    #[test]
    fn short_buffer_rejected() {
        assert!(matches!(
            Frame::new_checked(&[0u8; 13][..]),
            Err(Error::Truncated {
                needed: 14,
                got: 13
            })
        ));
    }

    #[test]
    fn ethertype_mapping() {
        assert_eq!(EtherType::from_u16(0x0800), EtherType::Ipv4);
        assert_eq!(EtherType::from_u16(0x88B5), EtherType::Mmt);
        assert_eq!(EtherType::from_u16(0x1234), EtherType::Unknown(0x1234));
        assert_eq!(EtherType::Unknown(0x1234).as_u16(), 0x1234);
    }

    #[test]
    fn payload_mutation() {
        let mut buf = sample_frame();
        let mut frame = Frame::new_checked(&mut buf[..]).unwrap();
        frame.payload_mut()[0] = 0x55;
        assert_eq!(frame.payload()[0], 0x55);
    }

    #[test]
    fn mtu_checks() {
        assert!(check_mtu(HEADER_LEN + MTU_JUMBO, MTU_JUMBO).is_ok());
        assert!(check_mtu(HEADER_LEN + MTU_JUMBO + 1, MTU_JUMBO).is_err());
        assert!(check_mtu(HEADER_LEN + MTU_STANDARD, MTU_STANDARD).is_ok());
    }

    #[test]
    fn emit_into_short_buffer_fails() {
        let repr = EthernetRepr {
            dst: EthernetAddress::BROADCAST,
            src: EthernetAddress([2, 0, 0, 0, 0, 1]),
            ethertype: EtherType::Ipv4,
        };
        let mut small = [0u8; 10];
        assert!(matches!(
            repr.emit(&mut small),
            Err(Error::BufferTooSmall { .. })
        ));
    }
}
