//! Endpoint assemblies: the glue between sans-io machines and the wire.
//!
//! A real deployment splits the pilot topology at the WAN: the sensor and
//! its border DTN share a host (the DAQ link is in-memory), the receiver
//! sits across the network. [`SenderSide`] therefore bundles an
//! [`MmtSender`] and a [`RetransmitBuffer`] and routes DAQ-port traffic
//! between them directly; only WAN-port output reaches the socket.
//! [`ReceiverSide`] wraps an [`MmtReceiver`] whose port 0 faces the wire.
//!
//! Both assemblies are themselves sans-io: they consume `(now, bytes)`
//! and produce outbound [`Packet`]s plus pending wakeups, so every
//! routing decision is unit-testable without a socket. The poll loop in
//! [`crate::pilot`] is the only place that touches the kernel.
//!
//! Inside the sending host a message is a head plus a shared payload
//! tail (see [`Packet`]); the step onto `wire` is where the two are
//! gathered into the contiguous datagram a socket sends — the one payload
//! copy on the io path. Everything in `wire`, and everything arriving
//! through `wire_in`, is contiguous.

use mmt_core::buffer::{PORT_DAQ, PORT_WAN};
use mmt_core::machine::{Input, Machine, Output};
use mmt_core::{MmtReceiver, MmtSender, RetransmitBuffer};
use mmt_netsim::{Packet, Time, TimerToken, TimerWheel};

/// Machine slots inside an assembly.
const MACH_SENDER: u8 = 0;
const MACH_BUFFER: u8 = 1;
const MACH_RECEIVER: u8 = 2;

/// Pending wakeups of one endpoint, `(machine slot, token)` by deadline:
/// the simulator's own timer core, so ties fire in the order they were
/// armed here too.
type Timers = TimerWheel<(u8, TimerToken)>;

/// Pop the earliest wakeup if it is due at `now`.
fn pop_due(timers: &mut Timers, now: Time) -> Option<(u8, TimerToken)> {
    let (at, _) = timers.peek()?;
    if at > now.as_nanos() {
        return None;
    }
    timers.pop().map(|(_, due)| due)
}

/// The sending host: sensor machine + border DTN machine, DAQ link
/// in-memory, WAN link on the wire.
pub struct SenderSide {
    sender: MmtSender,
    buffer: RetransmitBuffer,
    timers: Timers,
    /// Output scratch for `dispatch`, kept for its capacity.
    scratch: Vec<Output>,
}

impl SenderSide {
    /// Assemble the sending host.
    pub fn new(sender: MmtSender, buffer: RetransmitBuffer) -> SenderSide {
        SenderSide {
            sender,
            buffer,
            timers: Timers::new(),
            scratch: Vec::new(),
        }
    }

    /// Feed `Input::Start` to both machines (arms the sender's pump).
    pub fn start(&mut self, now: Time, wire: &mut Vec<Packet>) {
        self.dispatch(now, MACH_SENDER, Input::Start, wire);
        self.dispatch(now, MACH_BUFFER, Input::Start, wire);
    }

    /// A datagram arrived from the WAN (a NAK or other control message):
    /// hand it to the buffer's WAN port.
    pub fn wire_in(&mut self, now: Time, bytes: Vec<u8>, wire: &mut Vec<Packet>) {
        let mut pkt = Packet::new(bytes);
        pkt.meta.created_at = now;
        self.dispatch(
            now,
            MACH_BUFFER,
            Input::Frame {
                port: PORT_WAN,
                pkt,
            },
            wire,
        );
    }

    /// Fire every timer due at `now`.
    pub fn poll_timers(&mut self, now: Time, wire: &mut Vec<Packet>) {
        while let Some((mach, token)) = pop_due(&mut self.timers, now) {
            self.dispatch(now, mach, Input::Timer { token }, wire);
        }
    }

    /// The earliest pending wakeup (`&mut`: peeking may advance the wheel).
    pub fn next_wake(&mut self) -> Option<Time> {
        self.timers.peek().map(|(at, _)| Time::from_nanos(at))
    }

    /// The sensor machine.
    pub fn sender(&self) -> &MmtSender {
        &self.sender
    }

    /// The border DTN machine.
    pub fn buffer(&self) -> &RetransmitBuffer {
        &self.buffer
    }

    /// Route one input to one machine and recursively deliver the
    /// outputs: sender port 0 ↔ buffer DAQ port stay in-memory, buffer
    /// WAN output goes to `wire`, wakeups land in the timer queue.
    fn dispatch(&mut self, now: Time, mach: u8, input: Input, wire: &mut Vec<Packet>) {
        // A re-entrant dispatch finds the scratch empty and grows its
        // own; whichever returns last leaves its buffer behind.
        let mut out = std::mem::take(&mut self.scratch);
        self.machine(mach).poll(now, input, &mut out);
        for o in out.drain(..) {
            match (mach, o) {
                (MACH_SENDER, Output::Transmit { pkt, .. }) => {
                    // Sensor egress → DTN ingress, directly.
                    self.dispatch(
                        now,
                        MACH_BUFFER,
                        Input::Frame {
                            port: PORT_DAQ,
                            pkt,
                        },
                        wire,
                    );
                }
                (MACH_BUFFER, Output::Transmit { port, pkt }) if port == PORT_DAQ => {
                    // Backpressure credits flow back to the sensor.
                    self.dispatch(now, MACH_SENDER, Input::Frame { port: 0, pkt }, wire);
                }
                (_, Output::Transmit { pkt, .. }) => wire.push(pkt.gather()),
                (m, Output::WakeAt { at, token }) => {
                    self.timers.schedule(at.as_nanos(), (m, token));
                }
                (_, Output::DeliverLocal { .. }) => {}
            }
        }
        self.scratch = out;
    }

    fn machine(&mut self, mach: u8) -> &mut dyn Machine {
        match mach {
            MACH_SENDER => &mut self.sender,
            _ => &mut self.buffer,
        }
    }
}

/// The receiving host: one receiver machine, port 0 on the wire.
pub struct ReceiverSide {
    receiver: MmtReceiver,
    timers: Timers,
    /// Output scratch for `dispatch`, kept for its capacity.
    scratch: Vec<Output>,
}

impl ReceiverSide {
    /// Assemble the receiving host.
    pub fn new(receiver: MmtReceiver) -> ReceiverSide {
        ReceiverSide {
            receiver,
            timers: Timers::new(),
            scratch: Vec::new(),
        }
    }

    /// A datagram arrived: hand it to the receiver. Outbound packets
    /// (NAKs) land in `wire`.
    pub fn wire_in(&mut self, now: Time, bytes: Vec<u8>, wire: &mut Vec<Packet>) {
        let mut pkt = Packet::new(bytes);
        pkt.meta.created_at = now;
        self.dispatch(now, Input::Frame { port: 0, pkt }, wire);
    }

    /// Fire every timer due at `now`.
    pub fn poll_timers(&mut self, now: Time, wire: &mut Vec<Packet>) {
        while let Some((_, token)) = pop_due(&mut self.timers, now) {
            self.dispatch(now, Input::Timer { token }, wire);
        }
    }

    /// The earliest pending wakeup (`&mut`: peeking may advance the wheel).
    pub fn next_wake(&mut self) -> Option<Time> {
        self.timers.peek().map(|(at, _)| Time::from_nanos(at))
    }

    /// The receiver machine.
    pub fn receiver(&self) -> &MmtReceiver {
        &self.receiver
    }

    /// One extra step of the receiver's retry backoff
    /// ([`MmtReceiver::back_off`]).
    pub fn back_off(&mut self) {
        self.receiver.back_off();
    }

    /// Collapse the receiver's retry budgets ([`MmtReceiver::degrade`]).
    pub fn degrade(&mut self) {
        self.receiver.degrade();
    }

    fn dispatch(&mut self, now: Time, input: Input, wire: &mut Vec<Packet>) {
        let mut out = std::mem::take(&mut self.scratch);
        self.receiver.poll(now, input, &mut out);
        for o in out.drain(..) {
            match o {
                Output::Transmit { pkt, .. } => wire.push(pkt),
                Output::WakeAt { at, token } => {
                    self.timers.schedule(at.as_nanos(), (MACH_RECEIVER, token));
                }
                Output::DeliverLocal { .. } => {}
            }
        }
        self.scratch = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_core::{ReceiverConfig, SenderConfig};
    use mmt_wire::mmt::ExperimentId;
    use mmt_wire::Ipv4Address;

    fn exp() -> ExperimentId {
        ExperimentId::new(2, 0)
    }

    #[test]
    fn wakeups_fire_by_deadline_then_arming_order_and_only_when_due() {
        let mut q = Timers::new();
        q.schedule(Time::from_millis(5).as_nanos(), (0, 10));
        q.schedule(Time::from_millis(1).as_nanos(), (1, 11));
        q.schedule(Time::from_millis(5).as_nanos(), (2, 12));
        assert_eq!(q.peek().map(|(at, _)| at), Some(1_000_000));
        assert_eq!(pop_due(&mut q, Time::from_millis(1)), Some((1, 11)));
        assert_eq!(pop_due(&mut q, Time::from_millis(1)), None);
        assert_eq!(pop_due(&mut q, Time::from_millis(5)), Some((0, 10)));
        assert_eq!(pop_due(&mut q, Time::from_millis(5)), Some((2, 12)));
        assert!(q.is_empty());
    }

    #[test]
    fn sender_side_emits_wan_frames_for_the_whole_schedule() {
        let sender = MmtSender::new(SenderConfig::regular(exp(), 256, Time::from_micros(10), 5));
        let buffer = RetransmitBuffer::with_defaults(
            exp(),
            Ipv4Address::new(10, 0, 0, 5),
            Time::from_secs(10).as_nanos(),
            1 << 20,
        );
        let mut side = SenderSide::new(sender, buffer);
        let mut wire = Vec::new();
        side.start(Time::ZERO, &mut wire);
        // Message 0 is due at t=0; the rest arrive as timers fire.
        let mut now = Time::ZERO;
        for _ in 0..20 {
            now += Time::from_micros(10);
            side.poll_timers(now, &mut wire);
        }
        assert_eq!(wire.len(), 5, "every scheduled message reaches the WAN");
        assert!(side.sender().is_complete());
        assert_eq!(side.buffer().stored_count(), 5, "DTN retains copies");
    }

    #[test]
    fn wire_roundtrip_delivers_to_receiver_and_serves_naks() {
        let sender = MmtSender::new(SenderConfig::regular(exp(), 256, Time::from_micros(10), 3));
        let buffer = RetransmitBuffer::with_defaults(
            exp(),
            Ipv4Address::new(10, 0, 0, 5),
            Time::from_secs(10).as_nanos(),
            1 << 20,
        );
        let mut tx = SenderSide::new(sender, buffer);
        let mut rcfg = ReceiverConfig::wan_defaults(exp(), Ipv4Address::new(10, 0, 0, 8));
        rcfg.expect_messages = Some(3);
        rcfg.reorder_delay = Time::from_micros(50);
        let mut rx = ReceiverSide::new(MmtReceiver::new(rcfg));

        let mut wan = Vec::new();
        tx.start(Time::ZERO, &mut wan);
        let mut now = Time::ZERO;
        for _ in 0..10 {
            now += Time::from_micros(10);
            tx.poll_timers(now, &mut wan);
        }
        assert_eq!(wan.len(), 3);
        // Drop the middle datagram on the "wire"; deliver the rest.
        let mut naks = Vec::new();
        for (i, pkt) in wan.drain(..).enumerate() {
            if i != 1 {
                rx.wire_in(now, pkt.bytes, &mut naks);
            }
        }
        // Let the NAK wakes fire: the gap round NAKs seq 1, the first
        // retry round finds it named already.
        now += Time::from_millis(1);
        rx.poll_timers(now, &mut naks);
        assert_eq!(naks.len(), 1, "gap triggers one NAK");
        // Serve the NAK through the sender side; the retransmission
        // comes back out on the WAN.
        let mut retx = Vec::new();
        for nak in naks.drain(..) {
            tx.wire_in(now, nak.bytes, &mut retx);
        }
        assert_eq!(retx.len(), 1, "buffer serves the missing sequence");
        for pkt in retx.drain(..) {
            rx.wire_in(now, pkt.bytes, &mut naks);
        }
        assert!(rx.receiver().is_complete());
        assert_eq!(rx.receiver().stats.recovered, 1);
    }
}
