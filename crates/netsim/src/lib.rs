//! # `mmt-netsim` — deterministic discrete-event network simulator
//!
//! The paper's pilot (§5.4) runs on physical 100 GbE hardware (Tofino2,
//! Alveo FPGAs) that this reproduction does not have. `mmt-netsim` is the
//! substitute substrate: a packet-level, virtual-time discrete-event
//! simulator whose links model exactly the properties the paper's claims
//! depend on — bandwidth (serialization delay), propagation delay (the
//! 10–100 ms WAN RTTs of §2), MTU policy (jumbo frames, no fragmentation,
//! §2.1), and *corruption-only* loss ("It can occasionally lose packets
//! from corruption", §4 — DAQ and WAN segments are capacity-planned, so
//! congestive loss only appears when a queue actually overflows).
//!
//! ## Architecture
//!
//! * [`Time`] / [`Bandwidth`] — virtual time in nanoseconds, rates in bits
//!   per second; all arithmetic in integers for determinism.
//! * [`SimRng`] — a SplitMix64 PRNG so simulations are reproducible from a
//!   seed across platforms.
//! * [`Packet`] — a byte buffer plus bookkeeping metadata.
//! * [`Node`] / [`Machine`] — the one component contract: a sans-io
//!   [`Machine`] (`poll(now, input, out)`) is a [`Node`] through a blanket
//!   impl; simulator-only components implement [`Node`] directly.
//! * [`Link`] / [`LinkSpec`] — unidirectional links with an output queue
//!   ([`QueueSpec`]) feeding a serializing transmitter.
//! * [`Simulator`] — the event loop binding everything together.
//! * [`stats`] — counters and latency histograms collected per link/node.
//! * [`RttEstimator`] — RFC 6298 SRTT/RTTVAR in integers, the one
//!   estimator under the MMT receiver's and the TCP baseline's retry clocks.
//!
//! ## Example
//!
//! ```
//! use mmt_netsim::*;
//!
//! // A sender that emits one jumbo frame at start; [`Sink`] hands every
//! // arrival to its local application.
//! struct Sender;
//! impl Node for Sender {
//!     fn on_packet(&mut self, _: &mut Context<'_>, _: PortId, _: Packet) {}
//!     fn on_start(&mut self, ctx: &mut Context<'_>) {
//!         ctx.send(0, Packet::new(vec![0u8; 9000]));
//!     }
//! }
//!
//! let mut sim = Simulator::new(42);
//! let a = sim.add_node("a", Box::new(Sender));
//! let b = sim.add_node("b", Box::new(Sink));
//! // 100 Gb/s with 1 ms one-way propagation.
//! let spec = LinkSpec::new(Bandwidth::gbps(100), Time::from_millis(1));
//! sim.connect(a, 0, b, 0, spec);
//! sim.run();
//! let got = sim.local_deliveries(b);
//! assert_eq!(got.len(), 1);
//! // Arrival = serialization (720 ns) + propagation (1 ms).
//! assert_eq!(got[0].0, Time::from_nanos(720) + Time::from_millis(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
mod fault;
mod link;
pub mod linkstats;
mod node;
mod packet;
mod queue;
mod rng;
mod rtt;
pub mod shard;
mod sim;
pub mod stats;
mod time;
mod trace;
pub mod wheel;

pub use arena::{ArenaStats, PacketArena, PacketRef};
pub use fault::{FaultSpec, FaultState, FaultVerdict, PeriodicOutage, RandomOutage};
pub use link::{Link, LinkId, LinkSpec, LossModel, LossState};
pub use linkstats::LinkStatsBlock;
pub use node::{Context, Input, Machine, Node, NodeId, Output, PortId, Sink, TimerToken};
pub use packet::{Packet, PacketMeta, Tail};
pub use queue::{QueueSpec, TransmitQueue};
pub use rng::SimRng;
pub use rtt::RttEstimator;
pub use shard::{GroupResult, ShardLoad, ShardReport, ShardedSim};
pub use sim::Simulator;
pub use time::{Bandwidth, Time};
pub use trace::{Trace, TraceEvent, TraceKind};
pub use wheel::{TimerWheel, WheelToken};
