//! **T1** — regenerate Table 1: DAQ rates of the five instruments.
//!
//! The generators in `mmt-daq` are parameterized by the paper's rates; a
//! full-rate DUNE stream (120 Tb/s) is millions of records per
//! millisecond, so each instrument is generated at `1/scale` of its rate
//! (one readout link's worth) and the measured offered load is scaled
//! back up — exactly how the real instruments parallelize readout.

use mmt_daq::catalog::{Experiment, EXPERIMENTS};
use mmt_daq::workload::{offered_bps, RegularFlow};
use mmt_netsim::{Bandwidth, Time};

/// One regenerated Table 1 row.
#[derive(Debug, Clone)]
pub struct T1Row {
    /// Instrument name.
    pub name: &'static str,
    /// The paper's DAQ rate.
    pub paper_rate: Bandwidth,
    /// The rate reconstructed from the generated workload.
    pub generated_rate_bps: f64,
    /// Record size used.
    pub record_bytes: usize,
    /// Records per second at full rate.
    pub records_per_sec: f64,
    /// Parallelism used for generation.
    pub scale: u64,
}

impl T1Row {
    /// Relative error between generated and paper rate.
    pub fn relative_error(&self) -> f64 {
        let paper = self.paper_rate.as_bps() as f64;
        (self.generated_rate_bps - paper).abs() / paper
    }
}

fn row_for(exp: &Experiment) -> T1Row {
    // One generator lane carries at most ~10 Gb/s.
    let lane_cap = Bandwidth::gbps(10).as_bps();
    let scale = exp.daq_rate.as_bps().div_ceil(lane_cap);
    let lane_rate = Bandwidth::bps(exp.daq_rate.as_bps() / scale);
    let window = Time::from_millis(10);
    let flow = RegularFlow::new(exp.id(0), exp.record_bytes, lane_rate, Time::ZERO);
    let msgs: Vec<_> = flow.take_while(|m| m.at <= window).collect();
    let lane_bps = offered_bps(&msgs, window);
    T1Row {
        name: exp.name,
        paper_rate: exp.daq_rate,
        generated_rate_bps: lane_bps * scale as f64,
        record_bytes: exp.record_bytes,
        records_per_sec: exp.record_rate_hz(),
        scale,
    }
}

/// Regenerate every Table 1 row.
pub fn table1() -> Vec<T1Row> {
    EXPERIMENTS.iter().map(row_for).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_rates_match_table1_within_two_percent() {
        let rows = table1();
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert!(
                row.relative_error() < 0.02,
                "{}: paper {} vs generated {:.3e} bps",
                row.name,
                row.paper_rate,
                row.generated_rate_bps
            );
        }
    }

    #[test]
    fn order_matches_paper() {
        let names: Vec<&str> = table1().iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            vec![
                "CMS L1 Trigger",
                "DUNE",
                "ECCE detector",
                "Mu2e",
                "Vera Rubin"
            ]
        );
    }

    #[test]
    fn scale_reflects_instrument_size() {
        let rows = table1();
        let dune = rows.iter().find(|r| r.name == "DUNE").unwrap();
        let mu2e = rows.iter().find(|r| r.name == "Mu2e").unwrap();
        assert!(dune.scale > mu2e.scale, "DUNE needs far more lanes");
        assert_eq!(dune.scale, 12_000);
        assert_eq!(mu2e.scale, 16);
    }
}
