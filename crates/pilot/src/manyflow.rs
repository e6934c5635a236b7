//! The many-flow fleet topology: K sensors fanning into M DTNs.
//!
//! Every experiment elsewhere in this crate simulates a handful of flows;
//! the paper's premise is *fleets* — thousands of detector streams
//! converging on data-transfer nodes. This module builds that shape as
//! `M` independent **flow groups** (one DTN plus its share of the K
//! sensors, each group a private [`Simulator`]) so the whole fleet can be
//! executed serially or scaled out across threads by
//! [`ShardedSim`] with byte-identical results either way.
//!
//! Hot-path discipline: each group owns a [`PacketArena`]; sensors draw
//! header-sized frame buffers from it ([`PacketArena::frame_virtual`]),
//! encode a real MMT data header in place with the zero-copy
//! [`MmtRepr::encode_into`], and the DTN parses it back with
//! [`MmtRepr::decode_from`] before recycling the buffer — so in steady
//! state the group neither allocates nor copies per packet.
//!
//! ## Flow-state layout: struct-of-arrays
//!
//! A group's sensors are one [`SensorFleet`] node whose per-flow state
//! (sequence cursor and remaining-packet counter) lives in a dense
//! [`FlowTable`] — tens of bytes per flow — and whose frames
//! carry their multi-KB payloads as *virtual tails* (only the MMT header
//! is resident). Staggers are drawn in flow order from the shared
//! simulator stream and link parameters from the frozen wiring stream;
//! `tests/golden_digests.rs` pins the resulting Prometheus text,
//! flow-keyed trace digests and series JSONL per seed.

use std::cell::RefCell;
use std::rc::Rc;

use mmt_core::flowtable::{FlowId, FlowTable};
use mmt_netsim::shard::{digest_trace_flow, Fnv64, GroupResult, ShardReport, ShardedSim};
use mmt_netsim::stats::LatencyHistogram;
use mmt_netsim::{
    Bandwidth, Context, LinkSpec, Node, NodeId, Packet, PacketArena, PortId, SimRng, Simulator,
    Time, TimerToken,
};
use mmt_telemetry::MetricRegistry;
use mmt_wire::mmt::{ExperimentId, MmtRepr};

/// Parameters of a many-flow run.
#[derive(Debug, Clone)]
pub struct ManyFlowConfig {
    /// Total sensors (K), distributed round-robin across the DTN groups.
    pub sensors: usize,
    /// DTN groups (M); the unit of shard parallelism.
    pub dtns: usize,
    /// Packets each sensor emits.
    pub packets_per_sensor: usize,
    /// Payload bytes per packet.
    pub payload_bytes: usize,
    /// Worker shards (1 = the serial reference execution).
    pub shards: usize,
    /// Root seed; group seeds derive from `(seed, group)` only.
    pub seed: u64,
    /// Record per-packet traces (needed for trace digests; costs memory,
    /// so fleet-scale runs turn it off).
    pub trace: bool,
    /// Sample deterministic time-series rows every interval of virtual
    /// time (`None` = sampler off).
    pub series_interval: Option<Time>,
}

impl ManyFlowConfig {
    /// A small, fast fleet for tests and CI smoke: 64 sensors × 8 DTNs.
    pub fn quick(seed: u64) -> ManyFlowConfig {
        ManyFlowConfig {
            sensors: 64,
            dtns: 8,
            packets_per_sensor: 4,
            payload_bytes: 1500,
            shards: 1,
            seed,
            trace: true,
            series_interval: None,
        }
    }

    /// The E14/benchmark fleet shape: `sensors` across 16 DTN groups, jumbo
    /// payloads, traces off.
    pub fn fleet(sensors: usize, shards: usize, seed: u64) -> ManyFlowConfig {
        ManyFlowConfig {
            sensors,
            dtns: 16,
            packets_per_sensor: 8,
            payload_bytes: 8192,
            shards,
            seed,
            trace: false,
            series_interval: None,
        }
    }

    /// With a different shard count (group seeds are unaffected).
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> ManyFlowConfig {
        self.shards = shards;
        self
    }

    /// With the time-series sampler on at `interval`.
    #[must_use]
    pub fn with_series(mut self, interval: Time) -> ManyFlowConfig {
        self.series_interval = Some(interval);
        self
    }

    /// Sensors assigned to group `g` (round-robin remainder).
    pub fn sensors_in_group(&self, group: usize) -> usize {
        let dtns = self.dtns.max(1);
        let base = self.sensors / dtns;
        let extra = usize::from(group < self.sensors % dtns);
        base + extra
    }

    /// Total packets the fleet offers.
    pub fn offered_packets(&self) -> u64 {
        (self.sensors * self.packets_per_sensor) as u64
    }
}

/// Pacing gap between a sensor's packets.
const SENSOR_GAP: Time = Time::from_micros(100);

/// The whole group's sensor population as ONE node: per-flow state lives
/// in the group's [`FlowTable`] (seq cursor and remaining counter as
/// dense columns), frames carry virtual payload tails, and timer tokens
/// address flows. Each flow emits on a timer: the sequence-stamped data
/// header is encoded in place over the arena buffer.
struct SensorFleet {
    /// `(group << 32)`; flow `i`'s label is `base_flow | i`.
    base_flow: u64,
    payload_bytes: usize,
    /// Header template; per-packet emission adds the sequence number.
    header: MmtRepr,
    arena: Rc<RefCell<PacketArena>>,
    table: FlowTable,
    /// Flow handles in sensor order: timer token `i` drives `flows[i]`,
    /// which sends on port `i` over sensor `i`'s own link.
    flows: Vec<FlowId>,
}

impl Node for SensorFleet {
    fn on_packet(&mut self, _ctx: &mut Context<'_>, _port: PortId, _pkt: Packet) {}

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        // Staggers drawn in flow order from the shared simulator stream.
        for i in 0..self.flows.len() {
            let id = self.flows[i];
            if self.table.remaining(id).unwrap_or(0) > 0 {
                let stagger =
                    Time::from_nanos(ctx.rng().next_bounded(SENSOR_GAP.as_nanos().max(1)));
                ctx.set_timer(stagger, i as TimerToken);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
        let i = token as usize;
        let Some(&id) = self.flows.get(i) else {
            return;
        };
        let (Some(seq), Some(remaining)) = (self.table.seq(id), self.table.remaining(id)) else {
            return;
        };
        if remaining == 0 {
            return;
        }
        let repr = self.header.with_sequence(seq);
        let header_len = repr.header_len();
        let total = header_len + self.payload_bytes;
        let mut pkt =
            self.arena
                .borrow_mut()
                .frame_virtual(header_len, total, self.base_flow | i as u64);
        // Infallible: the buffer was sized from header_len one line up.
        let payload_at = repr.encode_into(&mut pkt.bytes);
        debug_assert_eq!(payload_at, Ok(header_len));
        if payload_at.is_err() {
            return;
        }
        pkt.meta.seq = Some(seq);
        ctx.send(i, pkt);
        self.table.set_seq(id, seq.wrapping_add(1));
        self.table.set_remaining(id, remaining - 1);
        if remaining > 1 {
            ctx.set_timer(SENSOR_GAP, token);
        }
    }
}

/// The group's DTN: zero-copy-decodes, counts, and recycles every
/// arrival instead of storing it, so memory stays flat at any K.
struct Dtn {
    delivered: u64,
    /// Payload bytes consumed (header bytes excluded; counted from the
    /// wire length so virtual tails weigh the same as resident bytes).
    bytes: u64,
    /// Frames whose MMT header failed to parse (must stay zero on
    /// clean links; exported as `mmt_manyflow_decode_errors_total`).
    decode_errors: u64,
    latency: LatencyHistogram,
    arena: Rc<RefCell<PacketArena>>,
}

impl Node for Dtn {
    fn on_packet(&mut self, ctx: &mut Context<'_>, _port: PortId, pkt: Packet) {
        match MmtRepr::decode_from(&pkt.bytes) {
            Ok((header, payload)) => {
                debug_assert_eq!(header.sequence(), pkt.meta.seq);
                self.delivered += 1;
                self.bytes += (payload.len() + pkt.tail.len()) as u64;
                self.latency
                    .record(ctx.now().saturating_sub(pkt.meta.created_at));
            }
            Err(_) => self.decode_errors += 1,
        }
        self.arena.borrow_mut().recycle(pkt);
    }
}

/// One group's simulator plus the handles `run_group` (and the layout
/// tests) need after the run.
struct GroupSim {
    sim: Simulator,
    arena: Rc<RefCell<PacketArena>>,
    dtn: NodeId,
}

/// Build one flow group's simulator without running it.
fn build_group(cfg: &ManyFlowConfig, group: usize, group_seed: u64) -> GroupSim {
    let sensors = cfg.sensors_in_group(group);
    let mut sim = Simulator::new(group_seed);
    if cfg.trace {
        sim.enable_trace();
    }
    if let Some(interval) = cfg.series_interval {
        sim.enable_series(interval);
    }
    let arena = Rc::new(RefCell::new(PacketArena::new()));
    // One experiment id per group; the 24-bit field is masked rather than
    // checked so pathological group counts degrade to aliasing, not a
    // panic on the hot construction path.
    let experiment = ExperimentId::new(group as u32 & 0x00FF_FFFF, 0);
    let mut table = FlowTable::with_capacity(sensors);
    let mut flows = Vec::with_capacity(sensors);
    for _ in 0..sensors {
        // Cannot exhaust: a group holds well under 2^32 flows.
        if let Some(id) = table.alloc() {
            table.set_remaining(id, cfg.packets_per_sensor.min(u32::MAX as usize) as u32);
            flows.push(id);
        }
    }
    let dtn = sim.add_node(
        "dtn",
        Box::new(Dtn {
            delivered: 0,
            bytes: 0,
            decode_errors: 0,
            latency: LatencyHistogram::new(),
            arena: Rc::clone(&arena),
        }),
    );
    let fleet = sim.add_node(
        "sensor",
        Box::new(SensorFleet {
            base_flow: (group as u64) << 32,
            payload_bytes: cfg.payload_bytes,
            header: MmtRepr::data(experiment),
            arena: Rc::clone(&arena),
            table,
            flows,
        }),
    );
    // Per-sensor link heterogeneity comes from the group seed, not the
    // simulator's event stream, so wiring is reproducible by inspection.
    let mut wiring = SimRng::new(group_seed).fork_frozen(0x3EA5);
    for s in 0..sensors {
        let prop = Time::from_micros(50 + wiring.next_bounded(200));
        let spec = LinkSpec::new(Bandwidth::gbps(10), prop).with_mtu(9018);
        sim.add_oneway(fleet, s, dtn, s, spec);
    }
    GroupSim { sim, arena, dtn }
}

/// Run one flow group (DTN `group` and its sensors) to completion and
/// fold its telemetry into a [`GroupResult`]. Pure in `(config, group,
/// group_seed)`; never consults the shard layout.
pub fn run_group(cfg: &ManyFlowConfig, group: usize, group_seed: u64) -> GroupResult {
    let GroupSim {
        mut sim,
        arena,
        dtn,
    } = build_group(cfg, group, group_seed);
    sim.run();
    // The run is over: keep the arena's counters, give its spare
    // buffers back before the export allocates.
    let arena_stats = arena.replace(PacketArena::new()).stats();
    let (delivered, bytes, decode_errors, p50, p99) = match sim.node_as_mut::<Dtn>(dtn) {
        Some(d) => (
            d.delivered,
            d.bytes,
            d.decode_errors,
            d.latency.median().unwrap_or(Time::ZERO),
            d.latency.p99().unwrap_or(Time::ZERO),
        ),
        None => (0, 0, 0, Time::ZERO, Time::ZERO),
    };
    let group_s = group.to_string();
    // Prefix each sampled row with the group label so merged JSONL rows
    // stay attributable (and unique) after ascending-group-order concat.
    let mut series = sim.take_series();
    for row in &mut series {
        row.labels.insert(0, ("group".to_string(), group_s.clone()));
    }
    let mut registry = MetricRegistry::new();
    // Per-link cells ride back packed (152 B/link) instead of as eager
    // registry rows (~1 kB/link); the sharded merge folds the blocks row
    // by row and materializes real rows once, after the last group.
    let links = sim.export_metrics_split(&mut registry);
    let labels = [("group", group_s.as_str())];
    registry.describe(
        "mmt_manyflow_delivered_total",
        "packets the group's DTN consumed",
    );
    registry.counter_add("mmt_manyflow_delivered_total", &labels, delivered);
    registry.describe(
        "mmt_manyflow_bytes_total",
        "payload bytes the group's DTN consumed (MMT headers excluded)",
    );
    registry.counter_add("mmt_manyflow_bytes_total", &labels, bytes);
    registry.describe(
        "mmt_manyflow_decode_errors_total",
        "frames whose MMT header failed zero-copy decode at the DTN",
    );
    registry.counter_add("mmt_manyflow_decode_errors_total", &labels, decode_errors);
    registry.describe("mmt_manyflow_latency_p50_ns", "median sensor→DTN latency");
    registry.gauge_set(
        "mmt_manyflow_latency_p50_ns",
        &labels,
        p50.as_nanos() as f64,
    );
    registry.describe("mmt_manyflow_latency_p99_ns", "p99 sensor→DTN latency");
    registry.gauge_set(
        "mmt_manyflow_latency_p99_ns",
        &labels,
        p99.as_nanos() as f64,
    );
    registry.describe(
        "mmt_arena_packets_reused_total",
        "packet buffers served from the arena's spare pool",
    );
    registry.counter_add(
        "mmt_arena_packets_reused_total",
        &labels,
        arena_stats.packets_reused,
    );
    registry.describe(
        "mmt_arena_packets_fresh_total",
        "packet buffers that had to be freshly allocated",
    );
    registry.counter_add(
        "mmt_arena_packets_fresh_total",
        &labels,
        arena_stats.packets_fresh,
    );
    // Flow-keyed digest: every wire-observable field, minus the node
    // index, so re-housing flows in different node objects keeps it.
    let trace_digest = if cfg.trace {
        digest_trace_flow(&sim.trace_records())
    } else {
        // Traces off (fleet scale): digest the group's observable outcome
        // instead, so repeated runs still compare something real.
        let mut h = Fnv64::new();
        h.write_u64(delivered);
        h.write_u64(bytes);
        h.write_u64(sim.events_processed());
        h.write_u64(sim.now().as_nanos());
        h.write_u64(p50.as_nanos());
        h.write_u64(p99.as_nanos());
        h.finish()
    };
    GroupResult {
        registry,
        links,
        trace_digest,
        events: sim.events_processed(),
        packets: delivered,
        series,
    }
}

/// The merged outcome of a many-flow run.
#[derive(Debug)]
pub struct ManyFlowReport {
    /// Merged telemetry, digest, totals, and per-shard loads.
    pub shard: ShardReport,
    /// Packets offered by the whole fleet.
    pub offered: u64,
    /// The configuration that produced this report.
    pub config: ManyFlowConfig,
}

/// Run the fleet described by `cfg` (serially when `cfg.shards == 1`).
pub fn run(cfg: &ManyFlowConfig) -> ManyFlowReport {
    let runner = ShardedSim::new(cfg.seed, cfg.shards);
    let shard = runner.run(cfg.dtns, |g, seed| run_group(cfg, g, seed));
    ManyFlowReport {
        shard,
        offered: cfg.offered_packets(),
        config: cfg.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensor_distribution_covers_k() {
        let cfg = ManyFlowConfig {
            sensors: 10,
            dtns: 4,
            ..ManyFlowConfig::quick(1)
        };
        let per_group: Vec<usize> = (0..4).map(|g| cfg.sensors_in_group(g)).collect();
        assert_eq!(per_group, vec![3, 3, 2, 2]);
        assert_eq!(per_group.iter().sum::<usize>(), 10);
    }

    #[test]
    fn quick_fleet_delivers_everything() {
        let report = run(&ManyFlowConfig::quick(11));
        assert_eq!(report.offered, 64 * 4);
        assert_eq!(report.shard.packets, report.offered, "clean links: no loss");
        assert!(report.shard.events > 0);
    }

    #[test]
    fn arena_reuse_dominates_after_warmup() {
        let mut cfg = ManyFlowConfig::quick(3);
        cfg.packets_per_sensor = 32;
        let report = run(&cfg);
        let reused = report
            .shard
            .registry
            .counter("mmt_arena_packets_reused_total", &[("group", "0")]);
        let fresh = report
            .shard
            .registry
            .counter("mmt_arena_packets_fresh_total", &[("group", "0")]);
        assert!(
            reused > fresh,
            "steady state must recycle more than it allocates ({reused} vs {fresh})"
        );
    }

    #[test]
    fn sharded_fleet_is_byte_identical_to_serial() {
        let serial = run(&ManyFlowConfig::quick(5));
        let sharded = run(&ManyFlowConfig::quick(5).with_shards(4));
        assert_eq!(serial.shard.trace_digest, sharded.shard.trace_digest);
        assert_eq!(
            mmt_telemetry::prometheus::render(&serial.shard.registry),
            mmt_telemetry::prometheus::render(&sharded.shard.registry)
        );
    }

    #[test]
    fn series_rows_carry_group_labels_and_shard_identically() {
        let cfg = ManyFlowConfig::quick(21).with_series(Time::from_micros(100));
        let serial = run(&cfg);
        let sharded = run(&cfg.clone().with_shards(4));
        let a = mmt_telemetry::series::to_jsonl(&serial.shard.series);
        let b = mmt_telemetry::series::to_jsonl(&sharded.shard.series);
        assert!(!a.is_empty(), "sampler on → rows out");
        assert_eq!(a, b, "series JSONL must ignore the shard count");
        let first = a.lines().next().unwrap_or("");
        assert!(
            first.contains("\"labels\":{\"group\":\"0\""),
            "group label leads, ascending group order: {first}"
        );
    }

    #[test]
    fn group_flow_table_is_sized_to_its_sensors() {
        let cfg = ManyFlowConfig::quick(1);
        let group = build_group(&cfg, 0, 42);
        let fleet = (0..group.sim.node_count())
            .find_map(|n| group.sim.node_as::<SensorFleet>(NodeId(n)))
            .expect("every group has a sensor fleet");
        let table = &fleet.table;
        assert_eq!(table.live(), cfg.sensors_in_group(0));
        assert_eq!(table.stats().fresh as usize, cfg.sensors_in_group(0));
    }
}
