//! `mmt-io` — the real I/O plane for the sans-io MMT machines.
//!
//! The protocol logic in [`mmt_core`] is expressed as [`mmt_core::Machine`]
//! state machines: `poll(now, input) -> outputs` with no clocks, sockets,
//! or threads. The simulator drives those machines in virtual time; this
//! crate drives the *identical* machines against wall clocks and real UDP
//! sockets. Nothing protocol-shaped lives here — only plumbing:
//!
//! | module       | role |
//! |--------------|------|
//! | [`clock`]    | the one place wall-clock time is read; maps `Instant` onto the same [`mmt_netsim::Time`] axis the machines already speak |
//! | [`rto`]      | RFC 6298-style integer RTO estimator with exponential backoff and a retry budget |
//! | [`fault`]    | seeded drop/duplicate/delay injection at the datagram boundary |
//! | [`socket`]   | nonblocking `std::net::UdpSocket` wrapper that routes every send through the fault injector |
//! | [`watchdog`] | per-flow deadline ladder: shed → degrade → abort |
//! | [`driver`]   | endpoint assemblies (sender+buffer, receiver) that route machine outputs between in-memory ports, the timer wheel, and the wire |
//! | [`pilot`]    | the `io-pilot` scenario: one poll loop over an optional sending and an optional receiving half, behind the loopback (single process) and listen/connect (two process) runners |
//!
//! This is deliberately the *only* crate in the workspace where clock
//! reads, socket calls, and sleeps are permitted — `mmt-lint` rule D2
//! enforces that the sim-critical crates stay free of them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod driver;
pub mod fault;
pub mod pilot;
pub mod rto;
pub mod socket;
pub mod watchdog;

pub use clock::IoClock;
pub use driver::{ReceiverSide, SenderSide};
pub use fault::{FaultInjector, FaultPlan, FaultStats};
pub use pilot::{run_connect, run_listen, run_loopback, IoPilotConfig, IoPilotReport};
pub use rto::RtoEstimator;
pub use socket::{FaultySocket, SocketStats};
pub use watchdog::{Watchdog, WatchdogStage};

/// Errors surfaced by the io plane.
#[derive(Debug)]
pub enum IoError {
    /// A socket operation failed.
    Socket(std::io::Error),
    /// A peer address could not be parsed.
    Addr(String),
    /// The deadline watchdog reached its abort stage. Carries a rendered
    /// flight-recorder dump so the caller can persist it before exiting
    /// nonzero.
    WatchdogAbort {
        /// Rendered flight-recorder JSON (header line + trace records).
        flight: String,
        /// Elapsed nanoseconds when the abort fired.
        elapsed_ns: u64,
    },
    /// The listen side saw no peer datagram before the deadline.
    NoPeer,
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Socket(e) => write!(f, "socket error: {e}"),
            IoError::Addr(a) => write!(f, "bad address: {a}"),
            IoError::WatchdogAbort { elapsed_ns, .. } => {
                write!(f, "watchdog abort after {elapsed_ns} ns")
            }
            IoError::NoPeer => write!(f, "no peer datagram arrived before the deadline"),
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> IoError {
        IoError::Socket(e)
    }
}
