//! # `mmt-core` — the multi-modal transport protocol
//!
//! This crate is the paper's contribution (§5): a transport protocol for
//! DAQ elephant flows whose feature set is reconfigured *by the network*
//! as the flow crosses segments — "a pragmatic layering violation". The
//! wire format lives in `mmt-wire`; the in-network header surgery lives in
//! `mmt-dataplane`; this crate provides the protocol's *behaviour*:
//!
//! * [`machine`] — the sans-io state-machine contract every node obeys:
//!   `poll(now, input, &mut outputs)`, no clocks/sockets/threads inside,
//!   timers as "wake me at T" outputs. The simulator and the `mmt-io`
//!   real-socket runtime are two drivers of these identical machines.
//! * [`sender`] — the source endpoint: emits discrete MMT datagrams
//!   (Req 7) with no retransmission buffering at the sensor (§4's point
//!   that sources do not buffer), honours backpressure credits (§5.1).
//! * [`buffer`] — the in-network retransmission buffer: one element
//!   placed at DTN 1 (the border), as the standby re-homing target, or as
//!   a mid-path transit hop. It stores the stream and answers NAKs, so
//!   recovery happens from "a 'recent' (lower RTT) retransmission buffer
//!   ... to avoid retransmission from the source" (§1).
//! * [`store`] — the byte-bounded, sequence-keyed retransmission window
//!   the buffer keeps: a head and a payload reference per packet, oldest
//!   evicted first.
//! * [`receiver`] — the consuming endpoint (the DTN 2 role): detects loss
//!   from sequence gaps, NAKs the retransmission source named *in the
//!   packet header*, delivers datagrams immediately (no head-of-line
//!   blocking), and accounts ages/deadlines.
//! * [`seqtrack`] — sequence-space bookkeeping (gap detection, dedup).
//! * [`controller`] — the closed-loop adaptation state machine: consumes
//!   per-segment health observations and emits hysteresis-damped mode
//!   transitions (degrade/recover/re-home/shed).
//! * [`flowtable`] — dense struct-of-arrays per-flow state (generation
//!   checked `u32` ids, parallel columns for sequence cursors and
//!   remaining counters) so a million flows cost tens of bytes each
//!   instead of a boxed object graph.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asks;
pub mod buffer;
pub mod controller;
pub mod flowtable;
pub mod machine;
pub mod receiver;
pub mod sender;
pub mod seqtrack;
pub mod store;

pub use buffer::{RetransmitBuffer, RetransmitBufferStats};
pub use controller::{
    ControllerConfig, ControllerStats, HealthSample, ModeController, ModeTransition,
};
pub use flowtable::{FlowId, FlowTable, FlowTableStats};
pub use machine::{Input, Machine, Output};
pub use receiver::{MmtReceiver, ReceivedMessage, ReceiverConfig, ReceiverStats};
pub use sender::{Framing, MmtSender, SenderConfig, SenderStats};
pub use seqtrack::SeqTracker;
pub use store::RetransmitStore;
