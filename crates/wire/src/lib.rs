//! # `mmt-wire` — wire formats for the multi-modal DAQ transport
//!
//! This crate provides zero-copy, typed views over byte buffers for every
//! protocol that appears on the wire in the Shape-shifting Elephants system
//! (HotNets '24):
//!
//! * [`ethernet`] — Ethernet II frames (including jumbo frames), the layer-2
//!   substrate DAQ networks use (Req 1 of the paper).
//! * [`ipv4`] / [`udp`] — the IP substrate used on WAN segments.
//! * [`mmt`] — the multi-modal transport protocol itself: the 8-byte core
//!   header (configuration id, 24 bits of configuration data, 32-bit
//!   experiment id, §5.2 of the paper), the fixed-order optional extension
//!   fields gated on feature bits, and the control messages (NAK,
//!   deadline-exceeded, backpressure).
//! * [`daq`] — DAQ payload formats: a shared top-level DAQ header with
//!   detector-specific sub-headers (DUNE-style and Mu2e-style), satisfying
//!   the paper's Req 9 reusability requirement.
//!
//! ## Design
//!
//! The API follows smoltcp's idioms: each protocol has a `Packet<T:
//! AsRef<[u8]>>`-style view with typed field accessors, a `check_len`
//! validation step, and a paired owned representation (`Repr`) with
//! `parse`/`emit`. Views never allocate; owned representations allocate only
//! for variable-size payload handling.
//!
//! ```
//! use mmt_wire::mmt::{CoreHeader, Features, MmtRepr, ExperimentId};
//!
//! // Build a header for DUNE (experiment 2, slice 0) in a WAN mode with
//! // sequencing and age tracking enabled.
//! let repr = MmtRepr::data(ExperimentId::new(2, 0))
//!     .with_sequence(42)
//!     .with_age(1_500, false);
//! let mut buf = vec![0u8; repr.header_len()];
//! repr.emit(&mut buf).unwrap();
//!
//! let view = CoreHeader::new_checked(&buf[..]).unwrap();
//! assert!(view.features().contains(Features::SEQUENCE));
//! let parsed = MmtRepr::parse(&buf).unwrap();
//! assert_eq!(parsed.sequence(), Some(42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod daq;
pub mod error;
pub mod ethernet;
pub mod field;
pub mod ipv4;
pub mod mmt;
pub mod udp;

pub use error::{Error, Result};

/// A 48-bit Ethernet MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct EthernetAddress(pub [u8; 6]);

impl EthernetAddress {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: EthernetAddress = EthernetAddress([0xff; 6]);

    /// Construct from a byte slice.
    ///
    /// # Panics
    /// Panics if `bytes` is not exactly 6 bytes long.
    pub fn from_bytes(bytes: &[u8]) -> EthernetAddress {
        let mut addr = [0u8; 6];
        addr.copy_from_slice(bytes);
        EthernetAddress(addr)
    }

    /// The raw bytes of the address.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Whether this is a unicast (not broadcast/multicast) address.
    pub fn is_unicast(&self) -> bool {
        self.0[0] & 0x01 == 0
    }

    /// Whether this is the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }
}

impl core::fmt::Display for EthernetAddress {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let b = &self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// An IPv4 address.
///
/// A local newtype (rather than `std::net::Ipv4Addr`) so that wire types stay
/// `no_std`-portable and support in-place header arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Ipv4Address(pub [u8; 4]);

impl Ipv4Address {
    /// The unspecified address `0.0.0.0`.
    pub const UNSPECIFIED: Ipv4Address = Ipv4Address([0; 4]);
    /// The limited broadcast address `255.255.255.255`.
    pub const BROADCAST: Ipv4Address = Ipv4Address([255; 4]);

    /// Construct from four octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Ipv4Address {
        Ipv4Address([a, b, c, d])
    }

    /// Construct from a byte slice.
    ///
    /// # Panics
    /// Panics if `bytes` is not exactly 4 bytes long.
    pub fn from_bytes(bytes: &[u8]) -> Ipv4Address {
        let mut addr = [0u8; 4];
        addr.copy_from_slice(bytes);
        Ipv4Address(addr)
    }

    /// The raw bytes of the address.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// The address as a big-endian `u32`.
    pub fn to_u32(&self) -> u32 {
        u32::from_be_bytes(self.0)
    }

    /// Whether this is the unspecified address.
    pub fn is_unspecified(&self) -> bool {
        *self == Self::UNSPECIFIED
    }
}

impl core::fmt::Display for Ipv4Address {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let b = &self.0;
        write!(f, "{}.{}.{}.{}", b[0], b[1], b[2], b[3])
    }
}

impl From<[u8; 4]> for Ipv4Address {
    fn from(v: [u8; 4]) -> Self {
        Ipv4Address(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ethernet_address_display_and_flags() {
        let a = EthernetAddress([0x02, 0, 0, 0, 0, 0x01]);
        assert_eq!(a.to_string(), "02:00:00:00:00:01");
        assert!(a.is_unicast());
        assert!(!a.is_broadcast());
        assert!(EthernetAddress::BROADCAST.is_broadcast());
        assert!(!EthernetAddress::BROADCAST.is_unicast());
    }

    #[test]
    fn ethernet_address_from_bytes_roundtrip() {
        let bytes = [1, 2, 3, 4, 5, 6];
        let a = EthernetAddress::from_bytes(&bytes);
        assert_eq!(a.as_bytes(), &bytes);
    }

    #[test]
    fn ipv4_address_u32_roundtrip() {
        let a = Ipv4Address::new(10, 0, 1, 200);
        assert_eq!(a.to_string(), "10.0.1.200");
        assert!(!a.is_unspecified());
        assert!(Ipv4Address::UNSPECIFIED.is_unspecified());
    }

    #[test]
    fn ipv4_address_ordering_matches_numeric() {
        let lo = Ipv4Address::new(10, 0, 0, 1);
        let hi = Ipv4Address::new(10, 0, 0, 2);
        assert!(lo < hi);
        assert!(lo.to_u32() < hi.to_u32());
    }
}
