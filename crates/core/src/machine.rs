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
//! * the virtual-time simulator (`mmt-netsim`), where every [`Machine`]
//!   is a `Node` through one blanket impl that polls into the engine's
//!   own action vector, and
//! * the real-socket runtime (`mmt-io`), which feeds UDP datagrams and a
//!   monotonic clock into the identical `poll` functions.
//!
//! The contract is defined in `mmt-netsim`, beside the engine that
//! performs the outputs; it is re-exported here under its original path.

pub use mmt_netsim::{Input, Machine, Output};
