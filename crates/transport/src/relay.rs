//! Relays: the plumbing between endpoints.
//!
//! [`Relay`] is a transparent bidirectional forwarder (a dumb wire/switch
//! hop). [`StoreAndForwardRelay`] models the TCP-terminating DTN stages of
//! Fig. 2: it receives a whole message on one side before re-emitting it
//! on the other, adding the staging latency the paper wants to avoid for
//! rapid inter-instrument coordination (§4.1 point 2).

use mmt_netsim::{Context, Node, Packet, PortId, Time, TimerToken};
use std::collections::BTreeMap;

/// Transparent bidirectional forwarder between port 0 and port 1.
pub struct Relay {
    /// Frames forwarded.
    pub forwarded: u64,
}

impl Relay {
    /// Create a relay.
    pub fn new() -> Relay {
        Relay { forwarded: 0 }
    }
}

impl Default for Relay {
    fn default() -> Self {
        Self::new()
    }
}

impl Node for Relay {
    fn on_packet(&mut self, ctx: &mut Context<'_>, port: PortId, pkt: Packet) {
        let out = if port == 0 { 1 } else { 0 };
        self.forwarded += 1;
        ctx.send(out, pkt);
    }
}

/// A store-and-forward stage: holds each packet for a fixed staging delay
/// (buffering + termination processing) before re-emitting it on the
/// other side. A crude but honest model of a DTN that terminates one TCP
/// connection and opens the next (Fig. 2 ②/④).
pub struct StoreAndForwardRelay {
    staging_delay: Time,
    pending: BTreeMap<TimerToken, (PortId, Packet)>,
    next_token: TimerToken,
    /// Packets staged.
    pub staged: u64,
}

impl StoreAndForwardRelay {
    /// Create a stage with the given per-packet staging delay.
    pub fn new(staging_delay: Time) -> StoreAndForwardRelay {
        StoreAndForwardRelay {
            staging_delay,
            pending: BTreeMap::new(),
            next_token: 1,
            staged: 0,
        }
    }
}

impl Node for StoreAndForwardRelay {
    fn on_packet(&mut self, ctx: &mut Context<'_>, port: PortId, pkt: Packet) {
        let out = if port == 0 { 1 } else { 0 };
        self.staged += 1;
        let token = self.next_token;
        self.next_token += 1;
        self.pending.insert(token, (out, pkt));
        ctx.set_timer(self.staging_delay, token);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
        if let Some((port, pkt)) = self.pending.remove(&token) {
            ctx.send(port, pkt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_netsim::{Bandwidth, LinkSpec, Simulator, Sink};

    #[test]
    fn relay_forwards_both_directions() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a", Box::new(Sink));
        let relay = sim.add_node("relay", Box::new(Relay::new()));
        let b = sim.add_node("b", Box::new(Sink));
        let spec = LinkSpec::new(Bandwidth::gbps(10), Time::from_micros(1));
        sim.connect(a, 0, relay, 0, spec);
        sim.connect(relay, 1, b, 0, spec);
        // Frames cross untouched: E1's source-retransmit arm relies on
        // the retransmit source DTN 1 wrote reaching the receiver.
        let frame: Vec<u8> = (0..100).collect();
        sim.inject(Time::ZERO, relay, 0, Packet::new(frame.clone()));
        sim.inject(Time::ZERO, relay, 1, Packet::new(vec![0u8; 100]));
        sim.run();
        assert_eq!(sim.local_deliveries(b).len(), 1);
        assert_eq!(sim.local_deliveries(b)[0].1.bytes, frame);
        assert_eq!(sim.local_deliveries(a).len(), 1);
        assert_eq!(sim.node_as::<Relay>(relay).unwrap().forwarded, 2);
    }

    #[test]
    fn store_and_forward_adds_staging_delay() {
        let mut sim = Simulator::new(1);
        let stage = sim.add_node(
            "dtn",
            Box::new(StoreAndForwardRelay::new(Time::from_millis(2))),
        );
        let b = sim.add_node("b", Box::new(Sink));
        sim.add_oneway(
            stage,
            1,
            b,
            0,
            LinkSpec::new(Bandwidth::gbps(10), Time::ZERO),
        );
        sim.inject(Time::ZERO, stage, 0, Packet::new(vec![0u8; 1000]));
        sim.run();
        let got = sim.local_deliveries(b);
        assert_eq!(got.len(), 1);
        let tx = Bandwidth::gbps(10).tx_time(1000);
        assert_eq!(got[0].0, Time::from_millis(2) + tx);
        assert_eq!(
            sim.node_as::<StoreAndForwardRelay>(stage).unwrap().staged,
            1
        );
    }
}
