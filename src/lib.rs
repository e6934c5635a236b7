//! # `mmt` — Multi-modal Transport for Integrated Research Infrastructure
//!
//! A full software reproduction of *"Shape-shifting Elephants: Multi-modal
//! Transport for Integrated Research Infrastructure"* (HotNets '24): a
//! transport protocol for Data-Acquisition (DAQ) elephant flows whose
//! feature set — retransmission, age tracking, delivery deadlines, pacing,
//! backpressure, duplication — is activated and re-configured *by the
//! network itself* as a stream crosses network segments.
//!
//! This crate is a facade: it re-exports the workspace's crates under one
//! roof so examples and downstream users need a single dependency.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`wire`] | `mmt-wire` | Ethernet/IPv4/UDP + the MMT header and DAQ record formats |
//! | [`netsim`] | `mmt-netsim` | deterministic discrete-event network simulator |
//! | [`dataplane`] | `mmt-dataplane` | P4-style match-action elements and mode-transition programs |
//! | [`daq`] | `mmt-daq` | physics events, Table 1 workloads |
//! | [`transport`] | `mmt-transport` | tuned-TCP and UDP baselines |
//! | [`protocol`] | `mmt-core` | MMT endpoints, buffers, mode controller |
//! | [`pilot`] | `mmt-pilot` | the Fig. 4 pilot and the experiment suite |
//! | [`telemetry`] | `mmt-telemetry` | metric registry, flow-correlated tracing, exporters |
//! | [`io`] | `mmt-io` | real-time UDP driver for the same sans-io machines: poll loop, RTO, watchdogs, socket fault injection |
//!
//! ## Quickstart
//!
//! ```
//! use mmt::pilot::{Pilot, PilotConfig};
//! use mmt::netsim::Time;
//!
//! let mut pilot = Pilot::build(PilotConfig::default_run());
//! pilot.run(Time::from_secs(30));
//! let report = pilot.report();
//! assert!(pilot.is_complete());
//! assert_eq!(report.receiver.lost, 0); // NAK recovery filled every gap
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mmt_daq as daq;
pub use mmt_dataplane as dataplane;
pub use mmt_io as io;
pub use mmt_netsim as netsim;
pub use mmt_pilot as pilot;
pub use mmt_telemetry as telemetry;
pub use mmt_transport as transport;
pub use mmt_wire as wire;

/// The multi-modal transport protocol endpoints and in-network buffers
/// (re-export of `mmt-core`; named `protocol` to avoid clashing with the
/// `core` language prelude).
pub use mmt_core as protocol;
