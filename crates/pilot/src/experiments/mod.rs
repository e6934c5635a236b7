//! The experiment suite: one module per entry in DESIGN.md's
//! per-experiment index. Each experiment is a plain function returning a
//! result struct; `mmt-bench`'s `tables` binary renders them.

pub mod alerts;
pub mod aqm;
pub mod backpressure;
pub mod failover;
pub mod faults;
pub mod fct;
pub mod hol;
pub mod osmotic;
pub mod payload;
pub mod rates;
pub mod scale;
pub mod slices;
pub mod supernova;
pub mod throughput;
pub mod timeliness;
pub mod today;
