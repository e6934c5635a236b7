//! Pinned golden digests: what the simulator produces, per seed, for the
//! four end-to-end shapes the rest of the suite builds on. Every cell is
//! the `Fnv64` of one byte stream (Prometheus text, trace, series JSONL),
//! so any change to event order, RNG draws, flow state or telemetry
//! shows up here as a changed row — with no second engine, layout or
//! histogram kept alive to compare against. (The commit that introduced
//! this table reproduced every row through the binary-heap scheduler,
//! the boxed-per-sensor fleet layout and the pilot without its
//! flow-table row, then those twins were deleted. The Prometheus
//! summaries render from the same `QuantileSketch` every report reads;
//! the sample-keeping exact histogram they used to come from is gone.)
//!
//! Regenerate (only for an intended behaviour change) with
//! `cargo test --release --test golden_digests -- --ignored --nocapture`
//! and paste the printed rows over the tables below.

use mmt::netsim::shard::digest_str;
use mmt::netsim::{FaultSpec, LossModel, PeriodicOutage, Time};
use mmt::pilot::experiments::failover;
use mmt::pilot::manyflow::{self, ManyFlowConfig};
use mmt::pilot::{Pilot, PilotConfig};
use mmt::protocol::controller::ModeController;
use mmt::telemetry::{prometheus, series};

/// `[seed, prometheus, trace, series]`.
type Row = [u64; 4];

const SEEDS: std::ops::RangeInclusive<u64> = 1..=8;

#[rustfmt::skip]
const DEFAULT_PILOT: [Row; 8] = [
    [1, 0x7966d2882f8ee879, 0x82f54534dfcd8ca1, 0x13b356e58ec6f3f4],
    [2, 0x7966d2882f8ee879, 0x20ac70dbfa7d076a, 0x4880829b5839985a],
    [3, 0x491fd5db919ee15e, 0x656effaddbd003bc, 0x413d36dfeed47ce9],
    [4, 0x7966d2882f8ee879, 0x01beb3ead4e297d9, 0x13b356e58ec6f3f4],
    [5, 0x7966d2882f8ee879, 0xa53116b14a8d1fb0, 0x4880829b5839985a],
    [6, 0x7966d2882f8ee879, 0x6385f0cfa3d79ac1, 0x4880829b5839985a],
    [7, 0x7966d2882f8ee879, 0xe32720f49e38dce2, 0x123583ce6e27dbe9],
    [8, 0x863c0afc22c600f9, 0x0249dffcaf8b9bba, 0xaf7a87772715c180],
];

#[rustfmt::skip]
const FAULTED_PILOT: [Row; 8] = [
    [1, 0xfed8bde2f28ec71c, 0x87774847334b80ec, 0x05eff6e731f2ca15],
    [2, 0x4cd647124fc062e1, 0x7976e2d55ac7942d, 0x6fda4cf1f3550f6f],
    [3, 0xf715288eaa75de4f, 0xd356af82c7116e73, 0x2ef0967c1b6d86fb],
    [4, 0x6adf8b9350a1e1f3, 0x7f1b10ef956d4a23, 0x62248d19873940a2],
    [5, 0x12a3053a99303226, 0x15a70402dcc01657, 0xcca18d9635877bdf],
    [6, 0x504ae2374a4c2f6a, 0x880d71ac18f61398, 0xcb2bce60e6647ca0],
    [7, 0xe0da047fd7dc7ccf, 0xfbea3dbb4937283d, 0xa0ceea3556bb5907],
    [8, 0x66ece4e5fbe27974, 0x32489bfa624cd506, 0xdbdfeacb34541203],
];

#[rustfmt::skip]
const CRASH_ADAPTIVE_PILOT: [Row; 8] = [
    [1, 0x4d10cecc52dad2ea, 0x8b7fe280a5d975d6, 0xd4307a8df0c4f06a],
    [2, 0x53f7afb5d1efa3a4, 0x6ec5b321934bbd8f, 0xa2215f657bae820d],
    [3, 0x4d10cecc52dad2ea, 0x8f0545a45e39daa3, 0xd4307a8df0c4f06a],
    [4, 0x53f7afb5d1efa3a4, 0x2fe2d9d87e794fa4, 0xa2215f657bae820d],
    [5, 0xd7ba2c75a24a7df6, 0xae7f0d20804a0219, 0xa2b264c30d631d3e],
    [6, 0x53f7afb5d1efa3a4, 0xde62b000921b0af8, 0xa2215f657bae820d],
    [7, 0x53f7afb5d1efa3a4, 0xc0329fd42b14bfd8, 0xa2215f657bae820d],
    [8, 0xd7ba2c75a24a7df6, 0xf957c0a3600e6b1b, 0xa2b264c30d631d3e],
];

#[rustfmt::skip]
const QUICK_FLEET: [Row; 8] = [
    [1, 0x3f8cdf1e68ed2040, 0x0ab1fc02d251c224, 0x1032f5be75e0dfae],
    [2, 0x6216dd7d753320b9, 0x028ac89604e52ed8, 0x05ecc0cce86693b4],
    [3, 0x7a6c4def418f4466, 0x0c213177a84d8b62, 0x44761d5ed1403cd7],
    [4, 0xfaa6515771ca5d5c, 0xac8ac5b139a0d687, 0xf915896ff1e06f0c],
    [5, 0x207827d8fa5a19fe, 0xc3dd341b90b7ea17, 0xaf87e652208a2da5],
    [6, 0x0c487c00fdcb751c, 0x5f4a1070a6ae7d60, 0xd1413a1dbf6d361c],
    [7, 0xa6dbfa144a232e67, 0xf3ea7895489bb8a9, 0xc3d2148bcf04dc0a],
    [8, 0x6ddf82b04888a075, 0x570a28f5d91039ed, 0xaff99d1ae3b39d05],
];

/// The Fig. 4 pilot as shipped, seed aside.
fn default_pilot(seed: u64) -> PilotConfig {
    let mut cfg = PilotConfig::default_run();
    cfg.seed = seed;
    cfg
}

/// E12-style: composed WAN faults (reorder, duplication, jitter,
/// periodic flaps) on top of corruption loss. The fault layer draws from
/// its own seeded streams, so engine-order bugs show up as diverged
/// fault verdicts long before they corrupt counters.
fn faulted_pilot(seed: u64) -> PilotConfig {
    let mut cfg = default_pilot(seed);
    cfg.message_count = 400;
    cfg.wan_fault = FaultSpec::none()
        .with_reorder(0.05, Time::from_micros(500))
        .with_duplication(0.02, Time::from_micros(50))
        .with_jitter(Time::from_micros(100))
        .with_scheduled_outage(PeriodicOutage {
            first_down: Time::from_micros(200),
            down_for: Time::from_millis(2),
            period: Time::from_millis(50),
        });
    cfg
}

/// E13-style: DTN 1 crashes mid-run with a standby in the chain, then
/// restarts. Crash/restart events ride the same queue as packets and
/// timers, and the failover flips the flow's retransmit-buffer slot in
/// the flow table. 1% loss leaves every seed with gaps the dead store
/// can no longer fill, so the re-home is what completes the stream.
fn crash_pilot(seed: u64) -> PilotConfig {
    let mut cfg = default_pilot(seed);
    cfg.message_count = 300;
    cfg.wan_loss = LossModel::Random(1e-2);
    cfg.standby = true;
    cfg.crash_node = Some("dtn1".to_string());
    cfg.crash_at = Time::from_millis(4);
    cfg.restart_at = Some(Time::from_millis(40));
    cfg
}

/// One pilot run folded into a row. `adaptive` engages E13's closed
/// adaptation loop (standby configured as the re-home target), which
/// samples the WAN segment and pushes the controller's transitions to
/// the data plane every control interval.
fn pilot_row(cfg: PilotConfig, adaptive: bool) -> Row {
    let seed = cfg.seed;
    let mut pilot = Pilot::build(cfg);
    pilot.enable_trace_bounded(4096);
    pilot.enable_series(Time::from_millis(1));
    if adaptive {
        let mut controller = ModeController::new(failover::controller_config());
        pilot.run_adaptive(Time::from_secs(300), Time::from_millis(5), &mut controller);
    } else {
        pilot.run(Time::from_secs(300));
    }
    let trace = pilot
        .trace_records()
        .iter()
        .map(|r| r.to_json())
        .collect::<Vec<_>>()
        .join("\n");
    [
        seed,
        digest_str(&prometheus::render(&pilot.metrics())),
        digest_str(&trace),
        digest_str(&series::to_jsonl(&pilot.take_series())),
    ]
}

/// One `ManyFlowConfig::quick` fleet run with the series sampler on
/// (serial; `sharded_determinism` holds every shard × worker layout to
/// the serial bytes).
fn fleet_row(seed: u64) -> Row {
    let cfg = ManyFlowConfig::quick(seed).with_series(Time::from_micros(100));
    let report = manyflow::run(&cfg).shard;
    [
        seed,
        digest_str(&prometheus::render(&report.registry)),
        report.trace_digest,
        digest_str(&series::to_jsonl(&report.series)),
    ]
}

fn check(name: &str, table: &[Row; 8], row: impl Fn(u64) -> Row) {
    for (seed, pinned) in SEEDS.zip(table) {
        assert_eq!(
            row(seed),
            *pinned,
            "{name} seed {seed}: [seed, prometheus, trace, series] left the pinned row"
        );
    }
}

#[test]
fn default_pilot_matches_pinned_digests() {
    check("default pilot", &DEFAULT_PILOT, |seed| {
        pilot_row(default_pilot(seed), false)
    });
}

#[test]
fn faulted_pilot_matches_pinned_digests() {
    check("faulted pilot", &FAULTED_PILOT, |seed| {
        pilot_row(faulted_pilot(seed), false)
    });
}

#[test]
fn crash_adaptive_pilot_matches_pinned_digests() {
    check("crash adaptive pilot", &CRASH_ADAPTIVE_PILOT, |seed| {
        pilot_row(crash_pilot(seed), true)
    });
}

#[test]
fn quick_fleet_matches_pinned_digests() {
    check("quick fleet", &QUICK_FLEET, fleet_row);
}

fn print_table(name: &str, rows: impl Iterator<Item = Row>) {
    println!("#[rustfmt::skip]\nconst {name}: [Row; 8] = [");
    for [seed, prom, trace, series] in rows {
        println!("    [{seed}, 0x{prom:016x}, 0x{trace:016x}, 0x{series:016x}],");
    }
    println!("];\n");
}

#[test]
#[ignore = "prints the tables for regeneration; run with --ignored --nocapture"]
fn print_golden_tables() {
    let pilot = |shape: fn(u64) -> PilotConfig, adaptive| {
        SEEDS.map(move |seed| pilot_row(shape(seed), adaptive))
    };
    print_table("DEFAULT_PILOT", pilot(default_pilot, false));
    print_table("FAULTED_PILOT", pilot(faulted_pilot, false));
    print_table("CRASH_ADAPTIVE_PILOT", pilot(crash_pilot, true));
    print_table("QUICK_FLEET", SEEDS.map(fleet_row));
}
