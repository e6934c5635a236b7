//! Differential determinism: a sharded many-flow run must be
//! byte-identical to the serial run of the same seed — same merged
//! Prometheus export, same trace digest — for every shard count. This is
//! the contract that lets the scale harness use threads at all: sharding
//! is a performance knob, never an observable one.

use mmt::netsim::{ShardedSim, Time};
use mmt::pilot::manyflow::{self, ManyFlowConfig};
use mmt::pilot::{Pilot, PilotConfig};
use mmt::telemetry::{prometheus, series};

/// Render the merged registry and digest for one (seed, shards) point.
fn run_point(seed: u64, shards: usize) -> (String, u64, u64) {
    let cfg = ManyFlowConfig::quick(seed).with_shards(shards);
    let report = manyflow::run(&cfg);
    (
        prometheus::render(&report.shard.registry),
        report.shard.trace_digest,
        report.shard.packets,
    )
}

#[test]
fn sharded_matches_serial_for_eight_seeds() {
    for seed in 1..=8u64 {
        let (serial_prom, serial_digest, serial_packets) = run_point(seed, 1);
        assert!(!serial_prom.is_empty());
        assert!(serial_packets > 0, "fleet must deliver packets");
        for shards in [2usize, 4] {
            let (prom, digest, packets) = run_point(seed, shards);
            assert_eq!(
                serial_prom, prom,
                "seed {seed}: {shards}-shard Prometheus export diverged from serial"
            );
            assert_eq!(
                serial_digest, digest,
                "seed {seed}: {shards}-shard trace digest diverged from serial"
            );
            assert_eq!(serial_packets, packets, "seed {seed}: packet counts");
        }
    }
}

#[test]
fn worker_thread_layout_is_unobservable() {
    // Same groups, same shard count — only the worker-thread count
    // differs (forced past the host-core clamp). Every output must agree:
    // thread scheduling may reorder completion, never results.
    let cfg = ManyFlowConfig::quick(3).with_shards(4);
    let groups = cfg.dtns;
    let run = |workers: usize| {
        let sharded = ShardedSim::new(cfg.seed, cfg.shards).with_workers(workers);
        let report = sharded.run(groups, |g, gs| manyflow::run_group(&cfg, g, gs));
        (
            prometheus::render(&report.registry),
            report.trace_digest,
            report.shard_loads.clone(),
        )
    };
    let (prom1, digest1, loads1) = run(1);
    for workers in [2usize, 4, 8] {
        let (prom, digest, loads) = run(workers);
        assert_eq!(prom1, prom, "{workers} workers changed the metrics");
        assert_eq!(digest1, digest, "{workers} workers changed the digest");
        assert_eq!(loads1, loads, "{workers} workers changed shard loads");
    }
}

#[test]
fn distinct_seeds_produce_distinct_streams() {
    // Differential sanity in the other direction: the digest actually
    // depends on the seed (a constant digest would also pass equality).
    let (_, d1, _) = run_point(101, 2);
    let (_, d2, _) = run_point(102, 2);
    assert_ne!(d1, d2, "different seeds must not collide on digest");
}

/// Render the merged time-series JSONL for one (seed, shards, workers)
/// point, sampling every 100 µs of virtual time.
fn series_point(seed: u64, shards: usize, workers: usize) -> String {
    let cfg = ManyFlowConfig::quick(seed)
        .with_shards(shards)
        .with_series(Time::from_micros(100));
    let groups = cfg.dtns;
    let sharded = ShardedSim::new(cfg.seed, cfg.shards).with_workers(workers);
    let report = sharded.run(groups, |g, gs| manyflow::run_group(&cfg, g, gs));
    series::to_jsonl(&report.series)
}

#[test]
fn series_jsonl_is_byte_identical_across_shards_and_workers() {
    // The streaming sampler is part of the determinism contract: the
    // per-interval JSONL must be byte-identical for every shard count AND
    // every forced worker layout, for each of eight seeds. Virtual-time
    // boundaries are sampled per group and merged in ascending group
    // order, so neither partitioning nor thread scheduling may show.
    for seed in 1..=8u64 {
        let baseline = series_point(seed, 1, 1);
        assert!(!baseline.is_empty(), "seed {seed}: sampler emitted nothing");
        assert!(
            baseline.starts_with("{\"t_ns\":0,"),
            "seed {seed}: first row must be the t=0 boundary"
        );
        for shards in [1usize, 2, 4] {
            for workers in [1usize, 2, 4] {
                let got = series_point(seed, shards, workers);
                assert_eq!(
                    baseline, got,
                    "seed {seed}: series diverged at {shards} shards / {workers} workers"
                );
            }
        }
    }
}

#[test]
fn flight_recorder_dump_is_reproducible() {
    // The dump a crash trips must be a pure function of the config: two
    // identical runs produce byte-equal flight files (header + ring).
    let dump = || {
        let mut cfg = PilotConfig::default_run();
        cfg.message_count = 200;
        cfg.seed = 7;
        cfg.crash_node = Some("dtn1".to_string());
        cfg.crash_at = Time::from_millis(6);
        let mut pilot = Pilot::build(cfg);
        pilot.enable_trace_bounded(512);
        pilot.run(Time::from_secs(300));
        pilot.flight_dump("node_crash")
    };
    let first = dump();
    let second = dump();
    assert_eq!(first, second, "flight dump must be reproducible");
    let header = first.lines().next().expect("dump has a header line");
    assert!(
        header.starts_with("{\"flight\":\"v1\",\"reason\":\"node_crash\",\"seed\":7,"),
        "unexpected header: {header}"
    );
    assert!(
        first.lines().count() > 1,
        "dump must carry trace records after the header"
    );
}

#[test]
fn group_seeds_are_shard_independent() {
    // Group seeds derive from (root_seed, group) only; shard count is not
    // an input. Spot-check the pure function the whole scheme rests on.
    for shards in [1usize, 2, 4, 8] {
        let sim = ShardedSim::new(7, shards);
        assert_eq!(sim.group_seed(0), ShardedSim::new(7, 1).group_seed(0));
        assert_eq!(sim.group_seed(5), ShardedSim::new(7, 1).group_seed(5));
    }
}

#[test]
fn fleet_spends_three_events_per_packet() {
    // Each packet costs exactly one sensor timer, one TxComplete and one
    // Arrive: a link hop that gains or loses an event breaks this, on the
    // small fleet and on a 2 000-sensor one alike.
    for cfg in [ManyFlowConfig::quick(9), ManyFlowConfig::fleet(2_000, 1, 9)] {
        let report = manyflow::run(&cfg);
        assert_eq!(report.shard.packets, report.offered, "clean links");
        assert_eq!(
            report.shard.events,
            3 * report.shard.packets,
            "{} sensors: {} events for {} packets",
            cfg.sensors,
            report.shard.events,
            report.shard.packets
        );
    }
}
