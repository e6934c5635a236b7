//! Pinned golden digests: what the simulator produces, per seed, for the
//! four end-to-end shapes the rest of the suite builds on. Every cell is
//! the `Fnv64` of one byte stream (Prometheus text, trace, series JSONL),
//! so any change to event order, RNG draws, flow state or telemetry
//! shows up here as a changed row — with no second engine, layout or
//! histogram kept alive to compare against. (The commit that introduced
//! this table reproduced every row through the binary-heap scheduler,
//! the boxed-per-sensor fleet layout and the pilot without its
//! flow-table row, then those twins were deleted.)
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
    [1, 0x568ddaaf7c1a074a, 0x45f2b84daa613bae, 0x32c440aa0cd306f0],
    [2, 0xe0ce77ed5c3f0a0f, 0x18cf0bd60745621c, 0x879ea56ce443c434],
    [3, 0xa4b85cd3a51d4a93, 0x1c49746aaa3717a5, 0x23896ae13831aa66],
    [4, 0xfda55eeb8cb0478e, 0x720d30324659387f, 0x32c440aa0cd306f0],
    [5, 0xdd5cdfa34e2d5bf6, 0xa3cd79f8e6dcb097, 0x879ea56ce443c434],
    [6, 0x4d8e897c52050ec7, 0x681f85cdc76aa5bc, 0x879ea56ce443c434],
    [7, 0x8acf565b2eb6f883, 0x4bcbc1024d0b7b53, 0x879ea56ce443c434],
    [8, 0x25c237f65ed82cf5, 0x0249dffcaf8b9bba, 0xaf7a87772715c180],
];

#[rustfmt::skip]
const FAULTED_PILOT: [Row; 8] = [
    [1, 0x43fa49b9e9922c61, 0xb7eb7d5a7e495189, 0x38b65f9098cdf974],
    [2, 0x62f748167ae2681b, 0xbffdbb5f5c9670e8, 0x75c596db96881fb9],
    [3, 0x93c1780811bd8af3, 0xa07a277c7bb24e5b, 0xc7b6589b0e377e50],
    [4, 0x7ee2552334e8d493, 0x8cde477fe7abe15b, 0xee4f052f41596638],
    [5, 0x70c6d003505a9a5b, 0xc43a7c485b1356a7, 0x9191fd9e2acfc9ff],
    [6, 0xa25cbddcf5e21077, 0xea6afa7066c22068, 0x49b70f83feb455ad],
    [7, 0x217a9e611c019f8a, 0xfdbb3366ed9d3e83, 0x2dae1ab154e0f60d],
    [8, 0x4bd19b6898e90376, 0xdcf5e1d8381aff10, 0x6dfa08f822a620d0],
];

#[rustfmt::skip]
const CRASH_ADAPTIVE_PILOT: [Row; 8] = [
    [1, 0x7639c58c775b46d4, 0xdf274e7fcfa22df8, 0x0927ec1df8a29de9],
    [2, 0x2144704a071d37ea, 0x3b24f82de8d08497, 0x509149972f14f208],
    [3, 0xb41100b928183a45, 0x68f99c04e7b08b9d, 0x75817689e5b4bdb1],
    [4, 0xfcbadffab8c3f421, 0xfb23256fb8336b2a, 0x509149972f14f208],
    [5, 0x0899f6a7b7c3a542, 0xf05c4ed41faab03c, 0x17cd0b743be0e876],
    [6, 0x9c02e0bf5a87f543, 0x44b4ef88497429a3, 0xf8939b518095c3e3],
    [7, 0x0bc277de8a485c23, 0x0b68b11ba107fb04, 0x509149972f14f208],
    [8, 0x8aa19ba44468da36, 0x70e19ed25507cde9, 0x27aec24e2cfd6971],
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
/// parks the controller's mode word in the flow table and thaws it back
/// every control interval.
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
