//! The sans-io state-machine contract.
//!
//! Every protocol node in this crate is a pure state machine: it consumes
//! an [`Input`] at a caller-supplied instant and pushes [`Output`]s — and
//! that is *all* it can do. No clocks (time arrives as the `now`
//! argument), no sockets (frames arrive as inputs and leave as outputs),
//! no threads, no sleeping (a machine that needs the future asks for it
//! with [`Output::WakeAt`]). The same machines therefore run unchanged
//! under two drivers:
//!
//! * the virtual-time simulator (`mmt-netsim`), whose [`Node`] hooks are
//!   thin adapters over [`Machine::poll`] (see [`step`]), and
//! * the real-socket runtime (`mmt-io`), which feeds UDP datagrams and a
//!   monotonic clock into the identical `poll` functions.
//!
//! Because the adapter replays outputs in exactly the order the machine
//! pushed them, the simulator's event stream — and with it every
//! determinism digest — is byte-identical to a direct-`Context`
//! implementation.

use mmt_netsim::{Context, Packet, PortId, Time, TimerToken};

/// One event presented to a state machine.
#[derive(Debug)]
pub enum Input {
    /// The node has been started (driver boot, `t = 0` in the sim).
    Start,
    /// A frame arrived on `port`.
    Frame {
        /// The ingress port.
        port: PortId,
        /// The frame, with driver metadata.
        pkt: Packet,
    },
    /// A previously requested [`Output::WakeAt`] instant has been reached.
    Timer {
        /// The token the machine passed when requesting the wake-up.
        token: TimerToken,
    },
    /// The node has been restarted after a crash.
    Restart,
}

/// One effect requested by a state machine. The driver performs these in
/// the order they were pushed.
#[derive(Debug)]
pub enum Output {
    /// Transmit `pkt` out of `port`.
    Transmit {
        /// The egress port.
        port: PortId,
        /// The frame to send.
        pkt: Packet,
    },
    /// Deliver `Input::Timer { token }` at (or as soon as possible after)
    /// the absolute instant `at`.
    WakeAt {
        /// The absolute wake-up instant (same clock as `poll`'s `now`).
        at: Time,
        /// Echoed back in the matching [`Input::Timer`].
        token: TimerToken,
    },
    /// Hand `pkt` to the local application (endpoint delivery).
    DeliverLocal {
        /// The delivered frame.
        pkt: Packet,
    },
}

/// A strictly sans-io protocol state machine.
///
/// `poll` is the *only* way time or packets reach the machine, and `out`
/// is the only way effects leave it. Implementations must not read
/// clocks, touch sockets, or spawn threads — `mmt-lint` rule D2 enforces
/// this for every sim-critical crate.
pub trait Machine {
    /// Advance the machine: consume `input` at instant `now`, pushing any
    /// requested effects onto `out` in execution order.
    fn poll(&mut self, now: Time, input: Input, out: &mut Vec<Output>);

    /// The node lost power: volatile state is gone. No outputs — a dead
    /// node cannot transmit.
    fn crash(&mut self) {}

    /// The reusable output buffer driver adapters scratch into (so steady
    /// state allocates nothing). Implementations return a `Vec` field.
    fn outbox(&mut self) -> &mut Vec<Output>;
}

/// Replay buffered outputs into a simulator [`Context`], preserving
/// order. `WakeAt` converts back to a relative delay against the
/// context's current instant; an `at` in the past fires immediately
/// (delay zero).
pub fn replay(out: &mut Vec<Output>, ctx: &mut Context<'_>) {
    let now = ctx.now();
    for o in out.drain(..) {
        match o {
            Output::Transmit { port, pkt } => ctx.send(port, pkt),
            Output::WakeAt { at, token } => ctx.set_timer(at.saturating_sub(now), token),
            Output::DeliverLocal { pkt } => ctx.deliver_local(pkt),
        }
    }
}

/// Drive one machine step from a simulator callback: poll into the
/// machine's own outbox, then replay the outputs into `ctx`. The outbox
/// is taken and restored so its capacity is reused across events.
pub fn step<M: Machine + ?Sized>(m: &mut M, ctx: &mut Context<'_>, input: Input) {
    let mut out = std::mem::take(m.outbox());
    m.poll(ctx.now(), input, &mut out);
    replay(&mut out, ctx);
    *m.outbox() = out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_netsim::{Node, Simulator};

    /// A hand-written simulator node.
    struct Plain;
    impl Node for Plain {
        fn on_packet(&mut self, _: &mut Context<'_>, _: PortId, _: Packet) {}
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// A machine that answers every frame by asking for a wake-up at an
    /// instant already gone, and notes when each wake-up arrives.
    #[derive(Default)]
    struct LateWaker {
        fired_at: Vec<Time>,
        outbox: Vec<Output>,
    }
    impl Machine for LateWaker {
        fn poll(&mut self, now: Time, input: Input, out: &mut Vec<Output>) {
            match input {
                Input::Frame { .. } => out.push(Output::WakeAt {
                    at: Time::from_micros(1),
                    token: 7,
                }),
                Input::Timer { token: 7 } => self.fired_at.push(now),
                _ => {}
            }
        }
        fn outbox(&mut self) -> &mut Vec<Output> {
            &mut self.outbox
        }
    }
    impl Node for LateWaker {
        fn on_packet(&mut self, ctx: &mut Context<'_>, port: PortId, pkt: Packet) {
            step(self, ctx, Input::Frame { port, pkt });
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
            step(self, ctx, Input::Timer { token });
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn node_as_finds_the_registered_type_for_nodes_and_machines() {
        let mut sim = Simulator::new(1);
        let plain = sim.add_node("plain", Box::new(Plain));
        let machine = sim.add_node("machine", Box::new(LateWaker::default()));
        assert!(sim.node_as::<Plain>(plain).is_some());
        assert!(sim.node_as::<LateWaker>(plain).is_none());
        assert!(sim.node_as::<LateWaker>(machine).is_some());
        assert!(sim.node_as::<Plain>(machine).is_none());
        assert!(sim.node_as_mut::<LateWaker>(machine).is_some());
        assert!(sim.node_as_mut::<Plain>(machine).is_none());
    }

    #[test]
    fn a_wake_up_in_the_past_fires_at_the_current_instant() {
        let mut sim = Simulator::new(1);
        let n = sim.add_node("late", Box::new(LateWaker::default()));
        let at = Time::from_micros(10);
        sim.inject(at, n, 0, Packet::new(vec![0]));
        sim.run();
        assert_eq!(sim.node_as::<LateWaker>(n).unwrap().fired_at, vec![at]);
        assert_eq!(sim.now(), at);
    }
}
