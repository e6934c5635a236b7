//! Simulated packets.
//!
//! A packet is a **head** and a **tail**. The head ([`Packet::bytes`]) is
//! owned by this copy of the packet alone: it holds every header — and
//! whatever payload the producer chose to inline — and is what forwarding
//! elements parse, rewrite and grow. The tail ([`Packet::tail`]) is the
//! rest of the wire bytes, immutable and shared by reference between every
//! copy of the packet: cloning a packet copies the head and bumps a
//! refcount. A packet built from contiguous wire bytes ([`Packet::new`],
//! frames from sockets and tests) simply has an empty tail.

use crate::time::Time;
use std::sync::Arc;

/// Bookkeeping metadata carried alongside packet bytes.
///
/// The metadata is simulator-side only — it never appears "on the wire" —
/// and exists so experiments can measure per-packet latency and attribute
/// packets to flows without parsing headers at every hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PacketMeta {
    /// Unique id assigned at injection (0 until injected).
    pub id: u64,
    /// Virtual time the packet was created by its source.
    pub created_at: Time,
    /// Experiment-assigned flow label (not on the wire; analysis only).
    pub flow: u64,
    /// MMT sequence number, mirrored from the header by instrumented
    /// elements so traces correlate without re-parsing at every hop.
    pub seq: Option<u64>,
    /// MMT config (mode) id, mirrored like `seq`.
    pub config: Option<u8>,
    /// Whether this is a control-plane packet (NAK, deadline notification,
    /// backpressure credit). Stamped at the emitting node so the fault
    /// layer can target control loss without parsing headers.
    pub control: bool,
}

/// The wire bytes of a packet that follow its head.
///
/// [`Packet::len`] — and through it every serialization time, MTU check,
/// queue byte cap, and link stat — counts the tail in full; what differs
/// is how much memory stands behind it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tail {
    /// This many wire bytes the packet *represents* without any memory
    /// behind them. High-K fleets carry multi-KB payloads this way at
    /// header-only resident cost; `Virtual(0)` is "no tail".
    Virtual(u32),
    /// Payload bytes written once by the producer and shared, immutably,
    /// by every copy of the packet (forwarded, retained, mirrored,
    /// retransmitted) — and, when the producer's packets end in the same
    /// bytes, by every packet it makes: an `MmtSender` inlines each
    /// message's index in the head and shares one filler per stream.
    Shared(Arc<[u8]>),
}

impl Default for Tail {
    fn default() -> Tail {
        Tail::Virtual(0)
    }
}

impl Tail {
    /// Allocate a shared tail of `len` zero bytes and let `init` write the
    /// payload into it — the one allocation and the one write those bytes
    /// get on their way through the network, however many packets (and
    /// copies of packets) carry them.
    pub fn build(len: usize, init: impl FnOnce(&mut [u8])) -> Tail {
        let mut bytes: Arc<[u8]> = std::iter::repeat_n(0u8, len).collect();
        if let Some(buf) = Arc::get_mut(&mut bytes) {
            init(buf);
        }
        Tail::Shared(bytes)
    }

    /// Wire bytes in the tail.
    pub fn len(&self) -> usize {
        match self {
            Tail::Virtual(n) => *n as usize,
            Tail::Shared(bytes) => bytes.len(),
        }
    }

    /// Whether the packet ends with its head.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes behind the tail (empty for a virtual tail).
    pub fn bytes(&self) -> &[u8] {
        match self {
            Tail::Virtual(_) => &[],
            Tail::Shared(bytes) => bytes,
        }
    }

    /// Mutable payload bytes, copy-on-write: if another packet still
    /// shares this tail, the bytes are copied first and the other copies
    /// keep the original. The only way a payload is ever modified.
    pub fn to_mut(&mut self) -> &mut [u8] {
        match self {
            Tail::Virtual(_) => &mut [],
            Tail::Shared(bytes) => Arc::make_mut(bytes),
        }
    }

    /// Whether both tails are the same allocation (not merely equal
    /// bytes). Two virtual tails share nothing.
    pub fn shares_with(&self, other: &Tail) -> bool {
        match (self, other) {
            (Tail::Shared(a), Tail::Shared(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// A packet: an owned head, a shared tail, and metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// The head: every header, plus any payload the producer inlined.
    /// Owned by this copy; forwarding elements rewrite it in place.
    pub bytes: Vec<u8>,
    /// Simulator-side metadata.
    pub meta: PacketMeta,
    /// The wire bytes after the head, shared between copies.
    pub tail: Tail,
}

impl Packet {
    /// Create a packet from contiguous wire bytes.
    pub fn new(bytes: Vec<u8>) -> Packet {
        Packet::with_flow(bytes, 0)
    }

    /// Create a packet with a flow label.
    pub fn with_flow(bytes: Vec<u8>, flow: u64) -> Packet {
        Packet {
            bytes,
            meta: PacketMeta {
                flow,
                ..PacketMeta::default()
            },
            tail: Tail::default(),
        }
    }

    /// Wire length in bytes (head plus tail).
    pub fn len(&self) -> usize {
        self.bytes.len() + self.tail.len()
    }

    /// Whether the packet has no bytes (never true for real traffic; kept
    /// for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Gather head and tail into one contiguous buffer: the packet as it
    /// goes into a datagram. This is the single payload copy on the way
    /// to a socket; a packet with no shared tail is returned as it is.
    pub fn gather(mut self) -> Packet {
        if let Tail::Shared(tail) = &self.tail {
            self.bytes.reserve_exact(tail.len());
            self.bytes.extend_from_slice(tail);
            self.tail = Tail::default();
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let p = Packet::new(vec![1, 2, 3]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.meta.id, 0);
        let q = Packet::with_flow(vec![], 9);
        assert!(q.is_empty());
        assert_eq!(q.meta.flow, 9);
    }

    #[test]
    fn virtual_tail_counts_toward_wire_length() {
        let mut p = Packet::new(vec![0; 40]);
        p.tail = Tail::Virtual(8152);
        assert_eq!(p.len(), 8192, "wire length includes the virtual tail");
        assert_eq!(p.bytes.len(), 40, "only the header is resident");
        assert!(!p.is_empty());
        let mut hdr_only = Packet::new(Vec::new());
        hdr_only.tail = Tail::Virtual(1);
        assert!(!hdr_only.is_empty());
    }

    #[test]
    fn clones_share_the_tail_and_own_their_heads() {
        let mut p = Packet::new(vec![0xAA; 20]);
        p.tail = Tail::build(4096, |b| b[0] = 7);
        assert_eq!(p.len(), 20 + 4096);
        let mut q = p.clone();
        assert!(q.tail.shares_with(&p.tail), "clone bumps a refcount");
        q.bytes[0] = 0xBB;
        assert_eq!(p.bytes[0], 0xAA, "heads are private");
        // Writing a shared payload copies it first; the original stands.
        q.tail.to_mut()[0] = 9;
        assert!(!q.tail.shares_with(&p.tail));
        assert_eq!(p.tail.bytes()[0], 7);
        assert_eq!(q.tail.bytes()[0], 9);
        // A sole owner writes in place.
        let before = q.tail.bytes().as_ptr();
        q.tail.to_mut()[1] = 1;
        assert_eq!(q.tail.bytes().as_ptr(), before);
    }

    #[test]
    fn gather_appends_the_tail_once() {
        let mut p = Packet::new(vec![1, 2]);
        p.tail = Tail::build(3, |b| b.copy_from_slice(&[3, 4, 5]));
        p.meta.flow = 4;
        let g = p.clone().gather();
        assert_eq!(g.bytes, vec![1, 2, 3, 4, 5]);
        assert!(g.tail.is_empty());
        assert_eq!(g.len(), p.len());
        assert_eq!(g.meta, p.meta);
        assert_eq!(g.clone().gather(), g, "contiguous packets pass through");
    }

    #[test]
    fn packet_does_not_grow() {
        // Every simulator event carries a packet by value: the tail pointer
        // is paid for by the narrowed `config` and the folded-in virtual
        // tail length.
        assert!(std::mem::size_of::<Packet>() <= 88);
    }
}
