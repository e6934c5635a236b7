//! Vera Rubin alert distribution: in-network duplication vs today's
//! store-and-forward unicast (§2.1, experiment E5).
//!
//! The telescope's alert stream bursts to 5.4 Gb/s after each exposure
//! and must reach researchers "at the time-scale of milliseconds"
//! (§4.1). This example measures when the *last* of N subscribers holds
//! an alert under both distribution schemes, then shows the alert-burst
//! workload itself.
//!
//! ```sh
//! cargo run --release --example vera_rubin_alerts
//! ```

use mmt::daq::catalog;
use mmt::daq::workload::{offered_bps, BurstFlow};
use mmt::netsim::Time;
use mmt::pilot::experiments::alerts;

fn main() {
    println!("=== Vera Rubin alert fan-out (E5) ===\n");
    println!(
        "{:<10} {:>28} {:>28}",
        "subs", "MMT in-network dup (last)", "store-and-forward (last)"
    );
    for n in [1usize, 4, 16, 64] {
        let mmt = alerts::run_mmt(n);
        let uni = alerts::run_unicast(n);
        println!(
            "{:<10} {:>28} {:>28}",
            n,
            format!("{}", mmt.last),
            format!("{}", uni.last)
        );
    }

    println!("\n=== the alert workload itself (§2.1) ===");
    let flow = BurstFlow::vera_rubin_alerts(Time::ZERO);
    let msgs: Vec<_> = flow.take_while(|m| m.at <= Time::from_secs(1)).collect();
    let burst_rate = offered_bps(&msgs, Time::from_secs(1));
    println!(
        "burst: {} alerts of 8 KiB in the first second -> {:.2} Gb/s (paper: 5.4 Gb/s)",
        msgs.len(),
        burst_rate / 1e9
    );
    println!(
        "alongside the nightly bulk capture: {} TB at {} aggregate",
        catalog::RUBIN_NIGHTLY_BYTES / 1_000_000_000_000,
        catalog::VERA_RUBIN.daq_rate
    );
}
