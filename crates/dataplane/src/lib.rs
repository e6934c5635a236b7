//! # `mmt-dataplane` — a P4-style programmable dataplane element
//!
//! The paper's pilot uses a Tofino2 switch and Alveo FPGA NICs to change a
//! stream's transport mode *in the network* (§5.3–5.4). This crate is the
//! software substitute: a match-action pipeline whose action set is
//! restricted to exactly the operations the paper relies on and that
//! P4-programmable hardware supports well — "conservative, header-based
//! processing" (§5): parse headers, match on header fields, rewrite/extend
//! headers, bump registers, mirror packets. There is deliberately no
//! payload processing and no floating point (the paper's own constraint,
//! citing Fingerhut's note \[25\]).
//!
//! ## Pieces
//!
//! * [`parser`] — fixed-function parse graph: Ethernet → (IPv4 →) MMT.
//! * [`table`] — exact/ternary/LPM match tables over header fields.
//! * [`action`] — the action set (forward, drop, mirror, MMT mode
//!   upgrade/downgrade, age update, sequence stamping, deadline check,
//!   priority mapping).
//! * [`pipeline`] — sequential table execution with a register file.
//! * [`resources`] — a Tofino2-flavoured resource budget so programs can be
//!   checked for hardware plausibility (experiment E8).
//! * [`element`] — the [`mmt_netsim::Node`] wrapper that runs the pipeline
//!   on every arriving frame, applying a fixed per-packet processing
//!   latency.
//! * [`programs`] — the canned mode-transition programs of the pilot:
//!   DAQ→WAN upgrade at the border, age update at every WAN hop, the
//!   destination timeliness check, alert duplication.
//! * [`classify`] — MMT-aware queue classifiers (aged packets shed first,
//!   priority class → strict-priority band).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod classify;
pub mod element;
pub mod parser;
pub mod pipeline;
pub mod programs;
pub mod resources;
pub mod table;

pub use action::Action;
pub use element::{DataplaneElement, ElementStats};
pub use parser::{FrameView, PacketLayers, ParsedPacket};
pub use pipeline::{Pipeline, PipelineBuilder};
pub use resources::{ResourceBudget, ResourceUsage};
pub use table::{FieldValue, Key, MatchField, MatchKind, Table, TableEntry};
