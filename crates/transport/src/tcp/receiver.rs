//! The TCP receiver: reassembly, cumulative ACKs, message delineation.

use crate::segment::{Segment, SegmentFlags};
use mmt_netsim::{Context, Node, Packet, PortId, Time};
use std::collections::BTreeMap;

/// One application message's delivery record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveredMessage {
    /// Message index in the stream.
    pub index: u64,
    /// When the message's last byte first *arrived* (possibly out of
    /// order).
    pub arrived_at: Time,
    /// When the message was *delivered* in order to the application.
    /// `delivered_at - arrived_at` is pure head-of-line blocking (§4.1).
    pub delivered_at: Time,
}

/// A TCP receiver that reassembles the bytestream and carves it back into
/// fixed-size messages — the "message delineation in the bytestream" the
/// paper points out DAQ peers are forced to implement (§4.1).
pub struct TcpReceiver {
    flow: u64,
    message_len: u64,
    window: u32,
    rcv_nxt: u64,
    /// Out-of-order byte ranges received: start → end (exclusive), merged.
    ooo: BTreeMap<u64, u64>,
    /// Per-message bytes still missing (only for messages not yet fully
    /// arrived).
    missing: BTreeMap<u64, u64>,
    /// Completed arrival times awaiting in-order delivery.
    arrived: BTreeMap<u64, Time>,
    /// Most-recently-touched received ranges, for SACK block selection
    /// (RFC 2018: the first block SHOULD cover the most recent arrival).
    recent_blocks: std::collections::VecDeque<u64>,
    /// Delivery log.
    delivered: Vec<DeliveredMessage>,
    /// Highest message index delivered + 1.
    next_deliver: u64,
    /// Total duplicate bytes received (retransmission overlap).
    pub duplicate_bytes: u64,
    /// ACKs sent.
    pub acks_sent: u64,
}

impl TcpReceiver {
    /// A receiver for `flow` carving the stream into `message_len`-byte
    /// messages and advertising `window` bytes.
    pub fn new(flow: u64, message_len: usize, window: u64) -> TcpReceiver {
        assert!(message_len > 0);
        TcpReceiver {
            flow,
            message_len: message_len as u64,
            window: window.min(u64::from(u32::MAX)) as u32,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            missing: BTreeMap::new(),
            recent_blocks: std::collections::VecDeque::new(),
            arrived: BTreeMap::new(),
            delivered: Vec::new(),
            next_deliver: 0,
            duplicate_bytes: 0,
            acks_sent: 0,
        }
    }

    /// Messages delivered so far, in order.
    pub fn delivered(&self) -> &[DeliveredMessage] {
        &self.delivered
    }

    /// The next expected in-order byte.
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// Insert `[start, end)` into the received-range set, returning the
    /// sub-ranges that are genuinely new.
    fn insert_range(&mut self, start: u64, end: u64) -> Vec<(u64, u64)> {
        debug_assert!(start < end);
        let mut new_parts = Vec::new();
        let mut cursor = start;
        // Walk existing ranges overlapping [start, end).
        let overlapping: Vec<(u64, u64)> = self
            .ooo
            .range(..end)
            .filter(|&(&_s, &e)| e > start)
            .map(|(&s, &e)| (s, e))
            .collect();
        for (s, e) in &overlapping {
            if cursor < *s {
                new_parts.push((cursor, *s));
            }
            cursor = cursor.max(*e);
        }
        if cursor < end {
            new_parts.push((cursor, end));
        }
        // Merge: remove overlapped ranges, insert the union.
        let union_start = overlapping.first().map_or(start, |&(s, _)| s.min(start));
        let union_end = overlapping.last().map_or(end, |&(_, e)| e.max(end));
        for (s, _) in overlapping {
            self.ooo.remove(&s);
        }
        // Also coalesce with immediately adjacent ranges.
        let mut union_start = union_start;
        let mut union_end = union_end;
        if let Some((&s, &e)) = self.ooo.range(..union_start).next_back() {
            if e == union_start {
                self.ooo.remove(&s);
                union_start = s;
            }
        }
        if let Some(&e) = self.ooo.get(&union_end) {
            self.ooo.remove(&union_end);
            union_end = e;
        }
        self.ooo.insert(union_start, union_end);
        new_parts
    }

    /// Credit newly arrived bytes to their messages; record completion.
    fn credit_messages(&mut self, parts: &[(u64, u64)], now: Time) {
        for &(s, e) in parts {
            let first_msg = s / self.message_len;
            let last_msg = (e - 1) / self.message_len;
            for m in first_msg..=last_msg {
                let m_start = m * self.message_len;
                let m_end = m_start + self.message_len;
                let overlap = e.min(m_end) - s.max(m_start);
                let remaining = self.missing.entry(m).or_insert(self.message_len);
                *remaining -= overlap;
                if *remaining == 0 {
                    self.missing.remove(&m);
                    self.arrived.insert(m, now);
                }
            }
        }
    }

    /// Deliver messages whose bytes are all below `rcv_nxt`, in order.
    fn deliver_ready(&mut self, now: Time) {
        while self.arrived.contains_key(&self.next_deliver) {
            let m = self.next_deliver;
            let m_end = (m + 1) * self.message_len;
            if m_end > self.rcv_nxt {
                break; // bytes arrived but stream not contiguous yet
            }
            let Some(arrived_at) = self.arrived.remove(&m) else {
                break; // unreachable: contains_key checked above
            };
            self.delivered.push(DeliveredMessage {
                index: m,
                arrived_at,
                delivered_at: now,
            });
            self.next_deliver += 1;
        }
    }
}

impl Node for TcpReceiver {
    fn on_packet(&mut self, ctx: &mut Context<'_>, _port: PortId, pkt: Packet) {
        let Some(seg) = Segment::decode(&pkt.bytes) else {
            return;
        };
        if seg.flow != self.flow {
            return;
        }
        if seg.flags.syn {
            let synack = Segment {
                flow: self.flow,
                seq: 0,
                ack: 0,
                flags: SegmentFlags {
                    syn: true,
                    ack: true,
                    fin: false,
                },
                window: self.window,
                len: 0,
                sack: [(0, 0); crate::segment::MAX_SACK],
            };
            ctx.send(0, Packet::with_flow(synack.encode(), self.flow));
            return;
        }
        if seg.len == 0 {
            return; // pure control, nothing to do
        }
        let now = ctx.now();
        let start = seg.seq;
        let end = seg.seq.saturating_add(u64::from(seg.len));
        let new_parts = self.insert_range(start, end);
        let new_bytes: u64 = new_parts.iter().map(|&(s, e)| e - s).sum();
        self.duplicate_bytes += (end - start) - new_bytes;
        self.credit_messages(&new_parts, now);
        // Advance rcv_nxt across the contiguous prefix.
        if let Some((&s, &e)) = self.ooo.iter().next() {
            if s <= self.rcv_nxt && e > self.rcv_nxt {
                self.rcv_nxt = e;
            }
        }
        self.deliver_ready(now);
        // Cumulative ACK for every data segment, with SACK blocks. Per
        // RFC 2018 the first block covers the most recent arrival; older
        // touched ranges fill the remaining slots, so the sender's
        // scoreboard converges even when the gap count exceeds the block
        // budget.
        let containing = self
            .ooo
            .range(..=start)
            .next_back()
            .map(|(&s, _)| s)
            .filter(|&s| s > self.rcv_nxt);
        if let Some(s) = containing {
            self.recent_blocks.retain(|&b| b != s);
            self.recent_blocks.push_front(s);
            self.recent_blocks.truncate(8);
        }
        // Drop stale starts (merged away or below the cumulative point).
        let ooo_ref = &self.ooo;
        let rcv_nxt = self.rcv_nxt;
        self.recent_blocks
            .retain(|&b| b > rcv_nxt && ooo_ref.contains_key(&b));
        let mut ack = Segment::pure_ack(self.flow, self.rcv_nxt, self.window);
        for (i, &s) in self
            .recent_blocks
            .iter()
            .take(crate::segment::MAX_SACK)
            .enumerate()
        {
            ack.sack[i] = (s, self.ooo[&s]);
        }
        ctx.send(0, Packet::with_flow(ack.encode(), self.flow));
        self.acks_sent += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_set_merging() {
        let mut r = TcpReceiver::new(1, 100, 1 << 20);
        assert_eq!(r.insert_range(0, 10), vec![(0, 10)]);
        // Disjoint.
        assert_eq!(r.insert_range(20, 30), vec![(20, 30)]);
        // Overlapping both.
        assert_eq!(r.insert_range(5, 25), vec![(10, 20)]);
        assert_eq!(r.ooo.len(), 1);
        assert_eq!(r.ooo.get(&0), Some(&30));
        // Fully contained: nothing new.
        assert!(r.insert_range(3, 7).is_empty());
        // Adjacent coalescing.
        assert_eq!(r.insert_range(30, 40), vec![(30, 40)]);
        assert_eq!(r.ooo.len(), 1);
        assert_eq!(r.ooo.get(&0), Some(&40));
    }
}
