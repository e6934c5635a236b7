//! The fixed parse graph: Ethernet → (IPv4 →) MMT.
//!
//! MMT appears either directly above Ethernet (EtherType 0x88B5, inside
//! DAQ networks — Req 1) or above IPv4 (protocol 253, on WAN segments).
//! The parser locates the MMT header without copying, and looks only at a
//! packet's head: the payload may ride behind it as a shared tail
//! ([`mmt_netsim::Tail`]) that no element reads or moves. Actions that
//! grow or shrink the header resize that region of the head in place.

use mmt_netsim::{Packet, PacketMeta, Tail};
use mmt_wire::ethernet::{self, EtherType, Frame};
use mmt_wire::ipv4::{self, Packet as Ipv4Packet, Protocol};
use mmt_wire::mmt::{ControlRepr, CoreHeader, ExtLayout, Features, MmtRepr};
use std::borrow::Cow;

/// Which encapsulation layers were found in a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketLayers {
    /// Ethernet, then something we don't parse (not MMT traffic).
    EthernetOnly,
    /// Ethernet → MMT (DAQ network framing).
    EthernetMmt {
        /// Byte offset of the MMT header.
        mmt_offset: usize,
    },
    /// Ethernet → IPv4, payload is not MMT.
    EthernetIpv4,
    /// Ethernet → IPv4 → MMT (WAN framing).
    EthernetIpv4Mmt {
        /// Byte offset of the IPv4 header.
        ip_offset: usize,
        /// Byte offset of the MMT header.
        mmt_offset: usize,
    },
    /// Ethernet → IPv4 → UDP tunnel → MMT (networks that drop unknown IP
    /// protocols; the tunnel rides [`mmt_wire::udp::MMT_TUNNEL_PORT`]).
    EthernetIpv4UdpMmt {
        /// Byte offset of the IPv4 header.
        ip_offset: usize,
        /// Byte offset of the UDP header.
        udp_offset: usize,
        /// Byte offset of the MMT header.
        mmt_offset: usize,
    },
    /// The frame failed to parse (truncated or malformed).
    Malformed,
}

impl PacketLayers {
    /// The MMT header offset, if the frame carries MMT.
    pub fn mmt_offset(&self) -> Option<usize> {
        match *self {
            PacketLayers::EthernetMmt { mmt_offset }
            | PacketLayers::EthernetIpv4Mmt { mmt_offset, .. }
            | PacketLayers::EthernetIpv4UdpMmt { mmt_offset, .. } => Some(mmt_offset),
            _ => None,
        }
    }

    /// The IPv4 header offset, if present.
    pub fn ip_offset(&self) -> Option<usize> {
        match *self {
            PacketLayers::EthernetIpv4Mmt { ip_offset, .. }
            | PacketLayers::EthernetIpv4UdpMmt { ip_offset, .. } => Some(ip_offset),
            PacketLayers::EthernetIpv4 => Some(ethernet::HEADER_LEN),
            _ => None,
        }
    }

    /// The UDP header offset, when the MMT rides the UDP tunnel.
    pub fn udp_offset(&self) -> Option<usize> {
        match *self {
            PacketLayers::EthernetIpv4UdpMmt { udp_offset, .. } => Some(udp_offset),
            _ => None,
        }
    }
}

/// The payload of an MMT frame: whatever follows the header in the head,
/// then the shared tail. Every payload reader goes through this; none
/// indexes past the header itself.
#[derive(Debug, Clone, Copy)]
pub struct Payload<'a> {
    head: &'a [u8],
    tail: &'a [u8],
}

impl<'a> Payload<'a> {
    /// Payload bytes resident in memory (a virtual tail has none).
    pub fn len(&self) -> usize {
        self.head.len() + self.tail.len()
    }

    /// Whether no payload byte is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The first `N` bytes, copied out since they may straddle the two
    /// parts; `None` if the payload is shorter.
    pub fn prefix<const N: usize>(&self) -> Option<[u8; N]> {
        let mut out = [0u8; N];
        let mut parts = self.head.iter().chain(self.tail);
        for slot in &mut out {
            *slot = *parts.next()?;
        }
        Some(out)
    }

    /// The payload as one slice: borrowed when it lies wholly in the head
    /// or wholly in the tail, gathered into a fresh buffer otherwise.
    pub fn contiguous(&self) -> Cow<'a, [u8]> {
        if self.tail.is_empty() {
            Cow::Borrowed(self.head)
        } else if self.head.is_empty() {
            Cow::Borrowed(self.tail)
        } else {
            Cow::Owned([self.head, self.tail].concat())
        }
    }
}

/// A borrowed look at a packet: where its headers are, without taking it
/// apart or copying a byte. What classifiers, monitors and anything else
/// that only *reads* a frame use.
#[derive(Debug, Clone, Copy)]
pub struct FrameView<'a> {
    head: &'a [u8],
    tail: &'a Tail,
    /// Parse result.
    pub layers: PacketLayers,
}

impl<'a> FrameView<'a> {
    /// Parse `pkt` in place.
    pub fn of(pkt: &'a Packet) -> FrameView<'a> {
        FrameView {
            head: &pkt.bytes,
            tail: &pkt.tail,
            layers: classify_layers(&pkt.bytes, pkt.tail.len()),
        }
    }

    /// The bytes from the MMT header on, if the frame carries MMT.
    pub fn mmt_bytes(&self) -> Option<&'a [u8]> {
        Some(&self.head[self.layers.mmt_offset()?..])
    }

    /// A checked MMT header view, if the frame carries MMT.
    pub fn mmt(&self) -> Option<CoreHeader<&'a [u8]>> {
        CoreHeader::new_checked(self.mmt_bytes()?).ok()
    }

    /// The parsed owned MMT header, if present and valid.
    pub fn mmt_repr(&self) -> Option<MmtRepr> {
        MmtRepr::parse(self.mmt_bytes()?).ok()
    }

    /// The MMT payload, if the frame carries MMT.
    pub fn payload(&self) -> Option<Payload<'a>> {
        let mmt = self.mmt_bytes()?;
        // The parser has already checked the header is all there.
        let header_len = CoreHeader::new_unchecked(mmt).header_len();
        Some(Payload {
            head: mmt.get(header_len..)?,
            tail: self.tail.bytes(),
        })
    }
}

/// A frame plus its parse result — what one pipeline invocation sees.
///
/// It owns the packet's head and holds a reference to its tail: actions
/// rewrite `bytes` in place and never touch the payload behind it, and a
/// clone (a mirror copy) costs a head and a refcount.
#[derive(Debug, Clone)]
pub struct ParsedPacket {
    /// The head bytes (may be rewritten by actions).
    pub bytes: Vec<u8>,
    /// The shared payload tail riding behind the head.
    pub tail: Tail,
    /// Parse result.
    pub layers: PacketLayers,
    /// The port the frame arrived on.
    pub ingress_port: usize,
}

impl ParsedPacket {
    /// Parse a contiguous frame arriving on `ingress_port`.
    pub fn parse(bytes: Vec<u8>, ingress_port: usize) -> ParsedPacket {
        ParsedPacket::of(Packet::new(bytes), ingress_port)
    }

    /// Parse a packet arriving on `ingress_port`, keeping its tail by
    /// reference. The metadata is `Copy`; callers that need it read it
    /// before handing the packet over and give it back to
    /// [`ParsedPacket::into_packet`].
    pub fn of(pkt: Packet, ingress_port: usize) -> ParsedPacket {
        let layers = classify_layers(&pkt.bytes, pkt.tail.len());
        ParsedPacket {
            bytes: pkt.bytes,
            tail: pkt.tail,
            layers,
            ingress_port,
        }
    }

    /// Reassemble the packet that leaves the element.
    pub fn into_packet(self, meta: PacketMeta) -> Packet {
        Packet {
            bytes: self.bytes,
            meta,
            tail: self.tail,
        }
    }

    /// Wire length of the frame (head plus tail).
    pub fn wire_len(&self) -> usize {
        self.bytes.len() + self.tail.len()
    }

    /// The borrowed view the read accessors below go through.
    fn view(&self) -> FrameView<'_> {
        FrameView {
            head: &self.bytes,
            tail: &self.tail,
            layers: self.layers,
        }
    }

    /// Re-run the parser after an action rewrote the frame.
    pub fn reparse(&mut self) {
        self.layers = classify_layers(&self.bytes, self.tail.len());
    }

    /// A checked MMT header view, if the frame carries MMT.
    pub fn mmt(&self) -> Option<CoreHeader<&[u8]>> {
        self.view().mmt()
    }

    /// The parsed owned MMT header, if present and valid.
    pub fn mmt_repr(&self) -> Option<MmtRepr> {
        self.view().mmt_repr()
    }

    /// The MMT payload, if the frame carries MMT.
    pub fn payload(&self) -> Option<Payload<'_>> {
        self.view().payload()
    }

    /// Replace the MMT header with `new_repr`, preserving the payload and
    /// any outer encapsulation (fixing the UDP/IPv4 lengths and the IPv4
    /// checksum when present). This is the frame surgery a
    /// mode-transition element performs, done in place: the header region
    /// of the head grows or shrinks, any payload inlined behind it shifts
    /// over, and the tail is not touched.
    pub fn rewrite_mmt(&mut self, new_repr: &MmtRepr) -> bool {
        let Some(mmt_off) = self.layers.mmt_offset() else {
            return false;
        };
        // Only the old header's length is needed. The parser validated these
        // bytes, but `bytes` is public, so the length is checked again.
        let Ok(old) = CoreHeader::new_checked(&self.bytes[mmt_off..]) else {
            return false;
        };
        let old_end = mmt_off + old.header_len();
        let new_end = mmt_off + new_repr.header_len();
        let old_len = self.bytes.len();
        if new_end > old_end {
            self.bytes.resize(old_len + (new_end - old_end), 0);
            self.bytes.copy_within(old_end..old_len, new_end);
        } else {
            self.bytes.copy_within(old_end.., new_end);
            self.bytes.truncate(old_len - (old_end - new_end));
        }
        if new_repr.emit(&mut self.bytes[mmt_off..new_end]).is_err() {
            // Unreachable: the slice was sized from header_len above.
            self.reparse();
            return false;
        }
        // Fix outer UDP and IPv4 lengths + checksums if present.
        if let Some(udp_off) = self.layers.udp_offset() {
            if let Ok(udp_total) = u16::try_from(self.wire_len() - udp_off) {
                let mut udp = mmt_wire::udp::Datagram::new_unchecked(&mut self.bytes[udp_off..]);
                udp.set_len(udp_total);
                // Tunnel checksum left at zero (legal for UDP over IPv4);
                // the inner MMT header is integrity-checked end to end.
            }
        }
        if let Some(ip_off) = self.layers.ip_offset() {
            if let Ok(total) = u16::try_from(self.wire_len() - ip_off) {
                let mut ip = Ipv4Packet::new_unchecked(&mut self.bytes[ip_off..]);
                ip.set_total_len(total);
                ip.fill_checksum();
            }
        }
        self.reparse();
        true
    }
}

/// Locate the headers in `head`, the front of a frame whose last
/// `tail_len` wire bytes are held elsewhere.
fn classify_layers(head: &[u8], tail_len: usize) -> PacketLayers {
    let Ok(frame) = Frame::new_checked(head) else {
        return PacketLayers::Malformed;
    };
    match frame.ethertype() {
        EtherType::Mmt => {
            let off = ethernet::HEADER_LEN;
            if CoreHeader::new_checked(&head[off..]).is_ok() {
                PacketLayers::EthernetMmt { mmt_offset: off }
            } else {
                PacketLayers::Malformed
            }
        }
        EtherType::Ipv4 => {
            let ip_off = ethernet::HEADER_LEN;
            let Ok(ip) = Ipv4Packet::new_checked_split(&head[ip_off..], tail_len) else {
                return PacketLayers::Malformed;
            };
            if ip.protocol() == Protocol::Mmt {
                let mmt_off = ip_off + ip.header_len();
                if CoreHeader::new_checked(&head[mmt_off..]).is_ok() {
                    PacketLayers::EthernetIpv4Mmt {
                        ip_offset: ip_off,
                        mmt_offset: mmt_off,
                    }
                } else {
                    PacketLayers::Malformed
                }
            } else if ip.protocol() == Protocol::Udp {
                // MMT-over-UDP tunnel?
                let udp_off = ip_off + ip.header_len();
                match mmt_wire::udp::Datagram::new_checked_split(&head[udp_off..], tail_len) {
                    Ok(udp) if udp.dst_port() == mmt_wire::udp::MMT_TUNNEL_PORT => {
                        let mmt_off = udp_off + mmt_wire::udp::HEADER_LEN;
                        if CoreHeader::new_checked(&head[mmt_off..]).is_ok() {
                            PacketLayers::EthernetIpv4UdpMmt {
                                ip_offset: ip_off,
                                udp_offset: udp_off,
                                mmt_offset: mmt_off,
                            }
                        } else {
                            PacketLayers::Malformed
                        }
                    }
                    _ => PacketLayers::EthernetIpv4,
                }
            } else {
                PacketLayers::EthernetIpv4
            }
        }
        EtherType::Unknown(_) => PacketLayers::EthernetOnly,
    }
}

/// How a datagram is framed below its MMT header (Req 1: the protocol
/// works both directly on Ethernet and on IP; a UDP tunnel covers networks
/// that drop unknown IP protocols).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// MMT directly over Ethernet (DAQ-network framing).
    Ethernet,
    /// MMT over IPv4 (protocol 253).
    Ipv4 {
        /// Source address.
        src: mmt_wire::Ipv4Address,
        /// Destination address.
        dst: mmt_wire::Ipv4Address,
    },
    /// MMT in a UDP tunnel over IPv4.
    UdpTunnel {
        /// Source address.
        src: mmt_wire::Ipv4Address,
        /// Destination address.
        dst: mmt_wire::Ipv4Address,
    },
}

/// Build the head of a frame — Ethernet, the outer encapsulation, MMT,
/// then `inline`, the payload bytes that ride in the head. The other
/// `tail_len` payload bytes ride behind it as a packet tail: the outer
/// length fields count them, but no byte of them is needed here.
///
/// # Panics
/// Panics if an IP-framed datagram would exceed the 16-bit length fields
/// (as the contiguous builders always have).
pub fn build_head(
    eth_src: mmt_wire::EthernetAddress,
    eth_dst: mmt_wire::EthernetAddress,
    framing: Framing,
    mmt: &MmtRepr,
    inline: &[u8],
    tail_len: usize,
) -> Vec<u8> {
    // mmt-lint: allow(P1, "every emit writes into a buffer sized from the same header lengths; what is left is a frame past 64 KiB, a caller bug")
    emit_head(eth_src, eth_dst, framing, mmt, inline, tail_len).expect("headers fit their buffer")
}

fn emit_head(
    eth_src: mmt_wire::EthernetAddress,
    eth_dst: mmt_wire::EthernetAddress,
    framing: Framing,
    mmt: &MmtRepr,
    inline: &[u8],
    tail_len: usize,
) -> mmt_wire::Result<Vec<u8>> {
    let header_len = mmt.header_len();
    let mmt_len = header_len + inline.len() + tail_len;
    let (ethertype, outer_len) = match framing {
        Framing::Ethernet => (EtherType::Mmt, 0),
        Framing::Ipv4 { .. } => (EtherType::Ipv4, ipv4::HEADER_LEN),
        Framing::UdpTunnel { .. } => (
            EtherType::Ipv4,
            ipv4::HEADER_LEN + mmt_wire::udp::HEADER_LEN,
        ),
    };
    let ip_off = ethernet::HEADER_LEN;
    let mmt_off = ip_off + outer_len;
    // Room for every extension an element downstream may add, with the
    // inlined payload behind them, so a mode upgrade grows the header
    // without reallocating the head.
    const FULL_HEADER_LEN: usize =
        mmt_wire::mmt::CORE_HEADER_LEN + ExtLayout::of(Features::ALL_KNOWN).total;
    let mut buf = Vec::with_capacity(mmt_off + FULL_HEADER_LEN + inline.len());
    buf.resize(mmt_off + header_len, 0);
    let eth = mmt_wire::ethernet::EthernetRepr {
        dst: eth_dst,
        src: eth_src,
        ethertype,
    };
    eth.emit(&mut buf)?;
    if let Framing::Ipv4 { src, dst } | Framing::UdpTunnel { src, dst } = framing {
        let tunnelled = matches!(framing, Framing::UdpTunnel { .. });
        let ip = ipv4::Ipv4Repr {
            src,
            dst,
            protocol: if tunnelled {
                Protocol::Udp
            } else {
                Protocol::Mmt
            },
            payload_len: outer_len - ipv4::HEADER_LEN + mmt_len,
            ttl: 64,
            dscp: 0,
        };
        ip.emit(&mut buf[ip_off..])?;
        if tunnelled {
            let udp = mmt_wire::udp::UdpRepr {
                src_port: mmt_wire::udp::MMT_TUNNEL_PORT,
                dst_port: mmt_wire::udp::MMT_TUNNEL_PORT,
                payload_len: mmt_len,
            };
            udp.emit(&mut buf[ip_off + ipv4::HEADER_LEN..])?;
        }
    }
    mmt.emit(&mut buf[mmt_off..])?;
    buf.extend_from_slice(inline);
    Ok(buf)
}

/// Build an Ethernet+MMT frame (DAQ-network framing).
pub fn build_eth_mmt_frame(
    src: mmt_wire::EthernetAddress,
    dst: mmt_wire::EthernetAddress,
    mmt: &MmtRepr,
    payload: &[u8],
) -> Vec<u8> {
    build_head(src, dst, Framing::Ethernet, mmt, payload, 0)
}

/// Build an Ethernet+MMT control frame: Ethernet, the control header for
/// `experiment` and the body of `ctrl`, written into one buffer.
pub fn build_eth_control_frame(
    src: mmt_wire::EthernetAddress,
    dst: mmt_wire::EthernetAddress,
    experiment: mmt_wire::mmt::ExperimentId,
    ctrl: &ControlRepr,
) -> Vec<u8> {
    let mut buf = vec![0u8; ethernet::HEADER_LEN + ctrl.packet_len()];
    let eth = mmt_wire::ethernet::EthernetRepr {
        dst,
        src,
        ethertype: EtherType::Mmt,
    };
    // mmt-lint: allow(P1, "buffer sized from the Ethernet header and packet_len above")
    eth.emit(&mut buf)
        .and_then(|()| ctrl.emit_packet_into(experiment, &mut buf[ethernet::HEADER_LEN..]))
        .expect("sized above");
    buf
}

/// Build an Ethernet+IPv4+MMT frame (WAN framing).
pub fn build_ip_mmt_frame(
    eth_src: mmt_wire::EthernetAddress,
    eth_dst: mmt_wire::EthernetAddress,
    ip_src: mmt_wire::Ipv4Address,
    ip_dst: mmt_wire::Ipv4Address,
    mmt: &MmtRepr,
    payload: &[u8],
) -> Vec<u8> {
    build_head(
        eth_src,
        eth_dst,
        Framing::Ipv4 {
            src: ip_src,
            dst: ip_dst,
        },
        mmt,
        payload,
        0,
    )
}

/// Build an Ethernet+IPv4+UDP-tunnel+MMT frame (for networks that drop
/// unknown IP protocols; the tunnel uses
/// [`mmt_wire::udp::MMT_TUNNEL_PORT`]).
pub fn build_udp_tunnel_frame(
    eth_src: mmt_wire::EthernetAddress,
    eth_dst: mmt_wire::EthernetAddress,
    ip_src: mmt_wire::Ipv4Address,
    ip_dst: mmt_wire::Ipv4Address,
    mmt: &MmtRepr,
    payload: &[u8],
) -> Vec<u8> {
    build_head(
        eth_src,
        eth_dst,
        Framing::UdpTunnel {
            src: ip_src,
            dst: ip_dst,
        },
        mmt,
        payload,
        0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_wire::mmt::{ExperimentId, Features};
    use mmt_wire::{EthernetAddress, Ipv4Address};

    fn macs() -> (EthernetAddress, EthernetAddress) {
        (
            EthernetAddress([2, 0, 0, 0, 0, 1]),
            EthernetAddress([2, 0, 0, 0, 0, 2]),
        )
    }

    #[test]
    fn parses_eth_mmt() {
        let (s, d) = macs();
        let mmt = MmtRepr::data(ExperimentId::new(2, 0));
        let frame = build_eth_mmt_frame(s, d, &mmt, b"payload");
        let p = ParsedPacket::parse(frame, 0);
        assert_eq!(
            p.layers,
            PacketLayers::EthernetMmt {
                mmt_offset: ethernet::HEADER_LEN
            }
        );
        assert_eq!(p.mmt_repr().unwrap().experiment, ExperimentId::new(2, 0));
        assert_eq!(p.mmt().unwrap().payload(), b"payload");
    }

    #[test]
    fn control_frame_matches_emit_parse_and_frame() {
        use mmt_wire::mmt::{
            BackpressureRepr, DeadlineExceededRepr, ModeChangeRepr, NakRange, NakRepr,
        };
        let (s, d) = macs();
        let exp = ExperimentId::new(7, 3);
        let addr = Ipv4Address::new(10, 0, 0, 9);
        for ctrl in [
            ControlRepr::Nak(NakRepr {
                requester: addr,
                requester_port: 47_001,
                ranges: vec![
                    NakRange { first: 3, last: 4 },
                    NakRange {
                        first: 9,
                        last: u64::MAX,
                    },
                ],
            }),
            ControlRepr::DeadlineExceeded(DeadlineExceededRepr {
                sequence: 11,
                deadline_ns: 5_000,
                observed_age_ns: 6_000,
                reporter: addr,
            }),
            ControlRepr::Backpressure(BackpressureRepr {
                level: 1,
                window: 64,
                origin: addr,
            }),
            ControlRepr::ModeChange(ModeChangeRepr {
                config_id: 0,
                features: Features::SEQUENCE | Features::RETRANSMIT,
                retransmit_source: addr,
                retransmit_port: 47_002,
                window: 0,
            }),
        ] {
            // The three steps every control sender used to take.
            let packet = ctrl.emit_packet(exp);
            let repr = MmtRepr::parse(&packet).unwrap();
            let old = build_eth_mmt_frame(s, d, &repr, &packet[repr.header_len()..]);
            assert_eq!(build_eth_control_frame(s, d, exp, &ctrl), old, "{ctrl:?}");
        }
    }

    #[test]
    fn parses_eth_ipv4_mmt() {
        let (s, d) = macs();
        let mmt = MmtRepr::data(ExperimentId::new(2, 0)).with_sequence(9);
        let frame = build_ip_mmt_frame(
            s,
            d,
            Ipv4Address::new(10, 0, 0, 1),
            Ipv4Address::new(10, 0, 0, 2),
            &mmt,
            b"xyz",
        );
        let p = ParsedPacket::parse(frame, 3);
        assert!(matches!(p.layers, PacketLayers::EthernetIpv4Mmt { .. }));
        assert_eq!(p.ingress_port, 3);
        assert_eq!(p.mmt_repr().unwrap().sequence(), Some(9));
    }

    #[test]
    fn non_mmt_traffic_classified() {
        let (s, d) = macs();
        // Unknown ethertype.
        let eth = mmt_wire::ethernet::EthernetRepr {
            dst: d,
            src: s,
            ethertype: EtherType::Unknown(0x86DD),
        };
        let frame = mmt_wire::ethernet::build_frame(&eth, &[0u8; 40]);
        assert_eq!(
            ParsedPacket::parse(frame, 0).layers,
            PacketLayers::EthernetOnly
        );
        // IPv4 but UDP payload.
        let ip = ipv4::Ipv4Repr {
            src: Ipv4Address::new(1, 1, 1, 1),
            dst: Ipv4Address::new(2, 2, 2, 2),
            protocol: Protocol::Udp,
            payload_len: 8,
            ttl: 64,
            dscp: 0,
        };
        let mut ip_pkt = vec![0u8; ip.total_len()];
        ip.emit(&mut ip_pkt).unwrap();
        let eth = mmt_wire::ethernet::EthernetRepr {
            dst: d,
            src: s,
            ethertype: EtherType::Ipv4,
        };
        let frame = mmt_wire::ethernet::build_frame(&eth, &ip_pkt);
        assert_eq!(
            ParsedPacket::parse(frame, 0).layers,
            PacketLayers::EthernetIpv4
        );
    }

    #[test]
    fn malformed_frames_classified() {
        assert_eq!(
            ParsedPacket::parse(vec![0u8; 5], 0).layers,
            PacketLayers::Malformed
        );
        // MMT ethertype but truncated MMT header.
        let (s, d) = macs();
        let eth = mmt_wire::ethernet::EthernetRepr {
            dst: d,
            src: s,
            ethertype: EtherType::Mmt,
        };
        let frame = mmt_wire::ethernet::build_frame(&eth, &[0u8; 4]);
        assert_eq!(
            ParsedPacket::parse(frame, 0).layers,
            PacketLayers::Malformed
        );
    }

    #[test]
    fn rewrite_mmt_grows_header_and_fixes_ip() {
        let (s, d) = macs();
        let mmt = MmtRepr::data(ExperimentId::new(2, 0));
        let frame = build_ip_mmt_frame(
            s,
            d,
            Ipv4Address::new(10, 0, 0, 1),
            Ipv4Address::new(10, 0, 0, 2),
            &mmt,
            b"record",
        );
        let mut p = ParsedPacket::parse(frame, 0);
        let upgraded = p
            .mmt_repr()
            .unwrap()
            .with_sequence(1)
            .with_age(0, false)
            .with_flags(Features::ACK_NAK);
        assert!(p.rewrite_mmt(&upgraded));
        // Frame reparses cleanly with the new header.
        let repr = p.mmt_repr().unwrap();
        assert_eq!(repr.sequence(), Some(1));
        assert!(repr.features.contains(Features::ACK_NAK));
        assert_eq!(p.mmt().unwrap().payload(), b"record");
        // Outer IPv4 is still checksum-valid with the right length.
        let ip_off = p.layers.ip_offset().unwrap();
        let ip = Ipv4Packet::new_checked(&p.bytes[ip_off..]).unwrap();
        assert!(ip.verify_checksum());
        assert_eq!(ip_off + ip.total_len() as usize, p.bytes.len());
    }

    #[test]
    fn a_full_upgrade_shifts_inlined_payload_without_reallocating_the_head() {
        let (s, d) = macs();
        let (src, dst) = (Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 2));
        let index = 7u64.to_be_bytes();
        for framing in [
            Framing::Ethernet,
            Framing::Ipv4 { src, dst },
            Framing::UdpTunnel { src, dst },
        ] {
            let mmt = MmtRepr::data(ExperimentId::new(2, 0));
            let mut pkt = Packet::new(build_head(s, d, framing, &mmt, &index, 100));
            pkt.tail = Tail::Virtual(100);
            let mut p = ParsedPacket::of(pkt, 0);
            let before = p.bytes.as_ptr();
            let full = mmt
                .with_sequence(1)
                .with_retransmit(src, 47_000)
                .with_timeliness(1, dst)
                .with_age(0, false)
                .with_pacing(1)
                .with_backpressure(1)
                .with_priority(1)
                .with_flags(Features::DUPLICATED | Features::ENCRYPTED | Features::ACK_NAK);
            assert_eq!(full.features, Features::ALL_KNOWN);
            assert!(p.rewrite_mmt(&full));
            assert_eq!(
                p.bytes.as_ptr(),
                before,
                "{framing:?}: the head grew in place"
            );
            let payload = p.payload().unwrap();
            assert_eq!(payload.prefix::<8>(), Some(index), "{framing:?}");
            assert_eq!(p.wire_len(), p.bytes.len() + 100);
        }
    }

    #[test]
    fn rewrite_mmt_shrinks_header() {
        let (s, d) = macs();
        let mmt = MmtRepr::data(ExperimentId::new(2, 0))
            .with_sequence(5)
            .with_age(100, false);
        let frame = build_eth_mmt_frame(s, d, &mmt, b"abc");
        let mut p = ParsedPacket::parse(frame, 0);
        let before = p.bytes.len();
        let downgraded = p.mmt_repr().unwrap().without(Features::AGE);
        assert!(p.rewrite_mmt(&downgraded));
        assert_eq!(p.bytes.len(), before - 8);
        assert_eq!(p.mmt().unwrap().payload(), b"abc");
    }

    #[test]
    fn parses_udp_tunnel_and_rewrites_through_it() {
        let (s, d) = macs();
        let mmt = MmtRepr::data(ExperimentId::new(2, 0));
        let frame = build_udp_tunnel_frame(
            s,
            d,
            Ipv4Address::new(10, 0, 0, 1),
            Ipv4Address::new(10, 0, 0, 2),
            &mmt,
            b"tunnelled",
        );
        let mut p = ParsedPacket::parse(frame, 0);
        assert!(matches!(p.layers, PacketLayers::EthernetIpv4UdpMmt { .. }));
        assert!(p.layers.udp_offset().is_some());
        assert_eq!(p.mmt().unwrap().payload(), b"tunnelled");
        // A mode upgrade through the tunnel keeps both outer headers sane.
        let up = p.mmt_repr().unwrap().with_sequence(3).with_age(1, false);
        assert!(p.rewrite_mmt(&up));
        assert!(matches!(p.layers, PacketLayers::EthernetIpv4UdpMmt { .. }));
        assert_eq!(p.mmt_repr().unwrap().sequence(), Some(3));
        assert_eq!(p.mmt().unwrap().payload(), b"tunnelled");
        let ip_off = p.layers.ip_offset().unwrap();
        let ip = Ipv4Packet::new_checked(&p.bytes[ip_off..]).unwrap();
        assert!(ip.verify_checksum());
        let udp_off = p.layers.udp_offset().unwrap();
        let udp = mmt_wire::udp::Datagram::new_checked(&p.bytes[udp_off..]).unwrap();
        assert_eq!(udp_off + udp.len() as usize, p.bytes.len());
    }

    #[test]
    fn udp_on_other_ports_is_not_mmt() {
        let (s, d) = macs();
        let ip = ipv4::Ipv4Repr {
            src: Ipv4Address::new(1, 1, 1, 1),
            dst: Ipv4Address::new(2, 2, 2, 2),
            protocol: Protocol::Udp,
            payload_len: 16,
            ttl: 64,
            dscp: 0,
        };
        let mut ip_pkt = vec![0u8; ip.total_len()];
        ip.emit(&mut ip_pkt).unwrap();
        let udp = mmt_wire::udp::UdpRepr {
            src_port: 1234,
            dst_port: 5678,
            payload_len: 8,
        };
        udp.emit(&mut ip_pkt[ipv4::HEADER_LEN..]).unwrap();
        let eth = mmt_wire::ethernet::EthernetRepr {
            dst: d,
            src: s,
            ethertype: EtherType::Ipv4,
        };
        let frame = mmt_wire::ethernet::build_frame(&eth, &ip_pkt);
        assert_eq!(
            ParsedPacket::parse(frame, 0).layers,
            PacketLayers::EthernetIpv4
        );
    }

    #[test]
    fn rewrite_fails_without_mmt() {
        let mut p = ParsedPacket::parse(vec![0u8; 20], 0);
        assert!(!p.rewrite_mmt(&MmtRepr::data(ExperimentId::new(1, 0))));
    }
}
