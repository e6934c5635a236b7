//! # `mmt-daq` — the instrument substrate: events, catalog, workloads
//!
//! The paper's pilot (§5.4) draws data from two sources: the ICEBERG DUNE
//! prototype (a liquid-argon time-projection chamber) and synthetic DUNE
//! DAQ data "that simulates the neutrino generation by different physical
//! events". Neither is available outside Fermilab. The transport only
//! ever sees message times and sizes, so this crate models those, not the
//! detector's bytes:
//!
//! * [`events`] — physics event generators: beam spills, cosmic rays,
//!   radiological background, and supernova bursts (the elevated-rate
//!   window that drives the paper's DUNE→Vera Rubin integration story).
//! * [`catalog`] — the experiment catalog reproducing **Table 1** of the
//!   paper (CMS L1 63 Tbps, DUNE 120 Tbps, ECCE 100 Tbps, Mu2e 160 Gbps,
//!   Vera Rubin 400 Gbps) with per-experiment record sizes and rates.
//! * [`workload`] — wire-level traffic generators: regular elephant flows
//!   and the Vera Rubin alert-burst profile (5.4 Gbps bursts beside the
//!   nightly 30 TB bulk capture, §2.1), and the [`Source`] every sender
//!   in the workspace pulls its messages from.
//! * [`supernova`] — the multi-domain alert scenario: a DUNE supernova
//!   trigger and the neutrino→photon arrival-lag model that gives the
//!   alert its deadline (§3 Req 10).
//! * [`osmotic`] — osmotic-computing sensor fields: many hertz-rate
//!   trickles sharing the instruments' infrastructure (§6, challenge 3).
//! * [`storage`] — a columnar container of trigger records, the HDF5
//!   stand-in that in-path processors emit (§6, challenge 2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod events;
pub mod osmotic;
pub mod storage;
pub mod supernova;
pub mod workload;

pub use catalog::{Experiment, EXPERIMENTS};
pub use events::{EventGenerator, EventKind, Hit};
pub use osmotic::SensorField;
pub use storage::{ContainerReader, ContainerWriter, StorageError};
pub use workload::{source, BurstFlow, RegularFlow, Source, WorkloadMessage};
