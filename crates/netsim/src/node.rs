//! The component contract: what a protocol node implements, and the
//! context the simulator hands to it.
//!
//! There is one contract with two faces. A [`Machine`] is a sans-io state
//! machine: `poll(now, input, out)` and nothing else, so the same value
//! runs under this simulator and under the real-socket runtime
//! (`mmt-io`). A [`Node`] is what the engine stores; every `Machine` is a
//! `Node` through the one blanket impl below, which polls straight into
//! the [`Context`]'s action vector. Write a `Node` by hand only for a
//! simulator-only component that needs what a machine may not have: the
//! shared random stream ([`Context::rng`]) or its own [`NodeId`].

use std::any::Any;

use crate::packet::Packet;
use crate::rng::SimRng;
use crate::time::Time;

/// Identifies a node within a simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// A port index on a node.
pub type PortId = usize;

/// An opaque timer token chosen by the node when scheduling.
pub type TimerToken = u64;

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

/// One effect requested by a node. The driver performs these in the order
/// they were pushed, after the callback returns (keeps borrows simple and
/// execution order deterministic).
#[derive(Debug)]
pub enum Output {
    /// Transmit `pkt` out of `port`.
    Transmit {
        /// The egress port.
        port: PortId,
        /// The frame to send.
        pkt: Packet,
    },
    /// Deliver `Input::Timer { token }` at the absolute instant `at`, or
    /// at once if `at` has already passed.
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
}

/// The API a node sees during `on_packet` / `on_timer`.
pub struct Context<'a> {
    pub(crate) now: Time,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) actions: &'a mut Vec<Output>,
}

impl<'a> Context<'a> {
    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Deterministic randomness (shared simulator stream).
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Transmit a packet out of `port`. If no link is attached the packet
    /// is counted as an unrouted drop.
    #[inline]
    pub fn send(&mut self, port: PortId, pkt: Packet) {
        self.actions.push(Output::Transmit { port, pkt });
    }

    /// Schedule `on_timer(token)` after `delay`.
    #[inline]
    pub fn set_timer(&mut self, delay: Time, token: TimerToken) {
        let at = self.now + delay;
        self.actions.push(Output::WakeAt { at, token });
    }

    /// Record a packet as delivered to the local application. The simulator
    /// collects these per node; experiment drivers read them after the run.
    pub fn deliver_local(&mut self, pkt: Packet) {
        self.actions.push(Output::DeliverLocal { pkt });
    }
}

/// Behaviour of a simulated node (host NIC stack, switch, DTN, ...).
///
/// Implementations are dropped into the simulator with
/// [`crate::Simulator::add_node`]; after a run, experiment code gets the
/// concrete type back with [`crate::Simulator::node_as`] (`Any` is a
/// supertrait, so the engine downcasts the stored `dyn Node` itself).
pub trait Node: Any {
    /// A packet arrived on `port`.
    fn on_packet(&mut self, ctx: &mut Context<'_>, port: PortId, pkt: Packet);

    /// A timer set via [`Context::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
        let _ = (ctx, token);
    }

    /// Called once when the simulation starts, before any packet flows.
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let _ = ctx;
    }

    /// The node crashed (scheduled via [`crate::Simulator::schedule_crash`]).
    /// Implementations drop whatever soft state the failure model says a
    /// power loss destroys (e.g. a retransmit store). No [`Context`] is
    /// provided: a dead node cannot send, deliver, or arm timers.
    fn on_crash(&mut self) {}

    /// The node came back up after a crash. Unlike [`Node::on_start`] this
    /// runs with the simulation already in flight; use it to re-arm
    /// periodic timers. Default: no-op.
    fn on_restart(&mut self, ctx: &mut Context<'_>) {
        let _ = ctx;
    }

    /// Nothing in the workspace calls or overrides this: it exists so the
    /// frozen `benchmark/` package, which overrides it, still compiles,
    /// and goes in the next benchmark-only PR.
    fn as_any(&self) -> &dyn Any
    where
        Self: Sized,
    {
        self
    }

    /// As [`Node::as_any`], mutably; kept for the same reason.
    fn as_any_mut(&mut self) -> &mut dyn Any
    where
        Self: Sized,
    {
        self
    }
}

/// Every machine is a node: each simulator callback is one `poll`, with
/// the context's action vector as the machine's output buffer.
impl<M: Machine + 'static> Node for M {
    fn on_packet(&mut self, ctx: &mut Context<'_>, port: PortId, pkt: Packet) {
        self.poll(ctx.now, Input::Frame { port, pkt }, ctx.actions);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
        self.poll(ctx.now, Input::Timer { token }, ctx.actions);
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.poll(ctx.now, Input::Start, ctx.actions);
    }

    fn on_crash(&mut self) {
        self.crash();
    }

    fn on_restart(&mut self, ctx: &mut Context<'_>) {
        self.poll(ctx.now, Input::Restart, ctx.actions);
    }
}

/// A terminal node that hands every arrival to its local application
/// (read back with [`crate::Simulator::local_deliveries`]).
pub struct Sink;

impl Node for Sink {
    fn on_packet(&mut self, ctx: &mut Context<'_>, _port: PortId, pkt: Packet) {
        ctx.deliver_local(pkt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;

    struct Probe {
        started: bool,
    }

    impl Node for Probe {
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _port: PortId, _pkt: Packet) {}
        fn on_start(&mut self, _ctx: &mut Context<'_>) {
            self.started = true;
        }
    }

    /// A machine that answers every frame by asking for a wake-up at an
    /// instant already gone, and notes when each wake-up arrives.
    #[derive(Default)]
    struct LateWaker {
        fired_at: Vec<Time>,
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
    }

    #[test]
    fn context_buffers_actions() {
        let mut rng = SimRng::new(0);
        let mut actions = Vec::new();
        let mut ctx = Context {
            now: Time::from_nanos(5),
            rng: &mut rng,
            actions: &mut actions,
        };
        assert_eq!(ctx.now(), Time::from_nanos(5));
        let _ = ctx.rng().next_u64();
        ctx.send(1, Packet::new(vec![1]));
        ctx.set_timer(Time::from_millis(1), 42);
        ctx.deliver_local(Packet::new(vec![2]));
        assert_eq!(actions.len(), 3);
        assert!(matches!(actions[0], Output::Transmit { port: 1, .. }));
        let due = Time::from_nanos(5) + Time::from_millis(1);
        assert!(matches!(actions[1], Output::WakeAt { at, token: 42 } if at == due));
        assert!(matches!(actions[2], Output::DeliverLocal { .. }));
    }

    #[test]
    fn default_hooks_are_no_ops() {
        let mut probe = Probe { started: false };
        let mut rng = SimRng::new(0);
        let mut actions = Vec::new();
        let mut ctx = Context {
            now: Time::ZERO,
            rng: &mut rng,
            actions: &mut actions,
        };
        probe.on_timer(&mut ctx, 7); // default impl: no effect
        probe.on_crash();
        probe.on_restart(&mut ctx);
        probe.on_start(&mut ctx);
        assert!(actions.is_empty());
        assert!(probe.started);
    }

    #[test]
    fn sink_records_deliveries() {
        let mut sim = Simulator::new(1);
        let s = sim.add_node("s", Box::new(Sink));
        sim.inject(Time::ZERO, s, 0, Packet::new(vec![1, 2, 3]));
        sim.run();
        assert_eq!(sim.local_deliveries(s).len(), 1);
    }

    #[test]
    fn node_as_finds_the_registered_type_for_nodes_and_machines() {
        let mut sim = Simulator::new(1);
        let plain = sim.add_node("plain", Box::new(Sink));
        let machine = sim.add_node("machine", Box::new(LateWaker::default()));
        assert!(sim.node_as::<Sink>(plain).is_some());
        assert!(sim.node_as::<LateWaker>(plain).is_none());
        assert!(sim.node_as::<LateWaker>(machine).is_some());
        assert!(sim.node_as::<Sink>(machine).is_none());
        assert!(sim.node_as_mut::<LateWaker>(machine).is_some());
        assert!(sim.node_as_mut::<Sink>(machine).is_none());
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
