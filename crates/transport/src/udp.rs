//! Fire-and-forget datagram endpoints — today's DAQ-network transport
//! (DUNE carries DAQ data over UDP, §4): no retransmission, no pacing
//! beyond the schedule, loss is silent.

use mmt_daq::workload::Source;
use mmt_netsim::{Context, Node, Packet, PortId, Time, TimerToken};

/// A UDP-style sender: emits one datagram per message of its source.
pub struct UdpSender {
    flow: u64,
    messages: Source,
    /// Datagrams sent.
    pub sent: u64,
}

impl UdpSender {
    /// A sender emitting one datagram of each message's length (at least
    /// 8 bytes) at its creation time.
    pub fn new(flow: u64, messages: Source) -> UdpSender {
        UdpSender {
            flow,
            messages,
            sent: 0,
        }
    }

    fn pump(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        while let Some(msg) = self.messages.next_if(|m| m.at <= now) {
            // Encode the message index in the first 8 bytes so receivers
            // can detect loss and reordering.
            let mut bytes = vec![0u8; msg.payload_len.max(8)];
            bytes[..8].copy_from_slice(&self.sent.to_be_bytes());
            ctx.send(0, Packet::with_flow(bytes, self.flow));
            self.sent += 1;
        }
        if let Some(next) = self.messages.peek() {
            ctx.set_timer(next.at - now, 1);
        }
    }
}

impl Node for UdpSender {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.pump(ctx);
    }

    fn on_packet(&mut self, _ctx: &mut Context<'_>, _port: PortId, _pkt: Packet) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: TimerToken) {
        self.pump(ctx);
    }
}

/// A UDP-style receiver: records arrivals, detects gaps.
pub struct UdpReceiver {
    flow: u64,
    /// `(message index, arrival time)` in arrival order.
    pub received: Vec<(u64, Time)>,
    /// Highest index seen + 1 (for loss accounting against the sender).
    pub highest_seen: u64,
}

impl UdpReceiver {
    /// A receiver for `flow`.
    pub fn new(flow: u64) -> UdpReceiver {
        UdpReceiver {
            flow,
            received: Vec::new(),
            highest_seen: 0,
        }
    }

    /// Number of datagrams received.
    pub fn count(&self) -> usize {
        self.received.len()
    }

    /// Indices never received, assuming `sent` datagrams were emitted.
    pub fn missing(&self, sent: u64) -> Vec<u64> {
        let mut seen = vec![false; sent as usize];
        for &(idx, _) in &self.received {
            if (idx as usize) < seen.len() {
                seen[idx as usize] = true;
            }
        }
        seen.iter()
            .enumerate()
            .filter(|(_, &s)| !s)
            .map(|(i, _)| i as u64)
            .collect()
    }
}

impl Node for UdpReceiver {
    fn on_packet(&mut self, ctx: &mut Context<'_>, _port: PortId, pkt: Packet) {
        if pkt.meta.flow != self.flow || pkt.bytes.len() < 8 {
            return;
        }
        let Ok(prefix) = pkt.bytes[..8].try_into() else {
            return; // unreachable: length checked above
        };
        let idx = u64::from_be_bytes(prefix);
        self.received.push((idx, ctx.now()));
        self.highest_seen = self.highest_seen.max(idx + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_daq::workload::{source, RegularFlow};
    use mmt_netsim::{Bandwidth, LinkSpec, LossModel, Simulator};
    use mmt_wire::mmt::ExperimentId;

    /// `count` `len`-byte messages, `gap` apart from `start`.
    fn flow(len: usize, start: Time, gap: Time, count: u64) -> Source {
        let exp = ExperimentId::new(2, 0);
        source(RegularFlow::with_gap(exp, len, gap, count).starting_at(start))
    }

    #[test]
    fn lossless_delivery_in_order() {
        let mut sim = Simulator::new(1);
        let messages = flow(1000, Time::ZERO, Time::from_micros(10), 50);
        let s = sim.add_node("s", Box::new(UdpSender::new(1, messages)));
        let r = sim.add_node("r", Box::new(UdpReceiver::new(1)));
        sim.add_oneway(
            s,
            0,
            r,
            0,
            LinkSpec::new(Bandwidth::gbps(10), Time::from_micros(5)),
        );
        sim.run();
        let rx = sim.node_as::<UdpReceiver>(r).unwrap();
        assert_eq!(rx.count(), 50);
        assert!(rx.missing(50).is_empty());
        // In-order, indices 0..50.
        assert!(rx.received.windows(2).all(|w| w[1].0 == w[0].0 + 1));
    }

    #[test]
    fn loss_is_silent_and_detected_by_gap() {
        let mut sim = Simulator::new(3);
        let messages = flow(1000, Time::ZERO, Time::from_micros(1), 1000);
        let s = sim.add_node("s", Box::new(UdpSender::new(1, messages)));
        let r = sim.add_node("r", Box::new(UdpReceiver::new(1)));
        sim.add_oneway(
            s,
            0,
            r,
            0,
            LinkSpec::new(Bandwidth::gbps(100), Time::ZERO).with_loss(LossModel::Random(0.05)),
        );
        sim.run();
        let tx = sim.node_as::<UdpSender>(s).unwrap().sent;
        assert_eq!(tx, 1000);
        let rx = sim.node_as::<UdpReceiver>(r).unwrap();
        let missing = rx.missing(1000);
        assert_eq!(missing.len() + rx.count(), 1000);
        assert!(!missing.is_empty(), "5% loss must drop something");
        assert!((20..=90).contains(&missing.len()), "{}", missing.len());
    }

    #[test]
    fn schedule_timing_respected() {
        let mut sim = Simulator::new(1);
        let messages = flow(100, Time::from_millis(1), Time::from_millis(4), 2);
        let s = sim.add_node("s", Box::new(UdpSender::new(1, messages)));
        let r = sim.add_node("r", Box::new(UdpReceiver::new(1)));
        sim.add_oneway(s, 0, r, 0, LinkSpec::new(Bandwidth::gbps(100), Time::ZERO));
        sim.run();
        let rx = sim.node_as::<UdpReceiver>(r).unwrap();
        assert_eq!(rx.count(), 2);
        assert!(rx.received[0].1 >= Time::from_millis(1));
        assert!(rx.received[1].1 >= Time::from_millis(5));
    }
}
