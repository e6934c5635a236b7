//! The simulator event loop.

use mmt_telemetry::SeriesRow;

use crate::fault::FaultVerdict;
use crate::link::{Link, LinkId, LinkSpec, LinkStats};
use crate::node::{Context, Node, NodeId, Output, PortId, TimerToken};
use crate::packet::Packet;
use crate::queue::Classifier;
use crate::rng::SimRng;
use crate::time::Time;
use crate::trace::{Trace, TraceEvent, TraceKind};
use crate::wheel::TimerWheel;

/// One scheduled event: 16 bytes, so a wheel slab entry is 40. A packet
/// in flight waits in the simulator's [`InFlight`] store, not here.
#[derive(Debug)]
enum EventKind {
    /// A packet arrives at a node's port (propagation finished); `pkt`
    /// is its [`InFlight`] handle.
    Arrive { node: u32, port: u32, pkt: u32 },
    /// A link transmitter finished serializing; it may start the next packet.
    TxComplete { link: u32 },
    /// A node timer fires.
    Timer { node: u32, token: TimerToken },
    /// A scheduled node crash takes effect.
    NodeCrash { node: u32 },
    /// A crashed node comes back up.
    NodeRestart { node: u32 },
}

/// Packets between the wire and their `Arrive` event: a slab with a free
/// list, addressed by the `u32` handle the event carries.
#[derive(Debug, Default)]
struct InFlight {
    slots: Vec<Option<Packet>>,
    free: Vec<u32>,
}

impl InFlight {
    /// Park `pkt` until its arrival; returns its handle.
    fn park(&mut self, pkt: Packet) -> u32 {
        match self.free.pop() {
            Some(at) => {
                self.slots[at as usize] = Some(pkt);
                at
            }
            None => {
                self.slots.push(Some(pkt));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Take the packet behind a handle and free its slot.
    fn take(&mut self, at: u32) -> Option<Packet> {
        let pkt = self.slots.get_mut(at as usize)?.take()?;
        self.free.push(at);
        Some(pkt)
    }

    /// Packets parked now.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

struct NodeEntry {
    name: String,
    behavior: Box<dyn Node>,
    /// Outgoing link attached to each port.
    ports: Vec<Option<usize>>,
    /// Packets the node handed to its local application.
    local: Vec<(Time, Packet)>,
    /// Packets sent out of ports with no attached link.
    unrouted_drops: u64,
    /// Whether the node is currently crashed (scheduled fault).
    crashed: bool,
    /// Packets destroyed by crashes: arrivals swallowed while down plus
    /// egress-queue contents flushed at crash time.
    crashed_drops: u64,
    /// How many times the node has crashed.
    crashes: u64,
    /// How many times the node has restarted after a crash.
    restarts: u64,
}

/// The periodic time-series sampler (enabled via
/// [`Simulator::enable_series`]).
///
/// In a discrete-event simulation state only changes at events, so a
/// boundary `k·interval` is sampled lazily: just before the first event
/// at or past the boundary is processed. The sampled state therefore
/// reflects exactly the events strictly before the boundary — a pure
/// function of the seed, independent of shard/worker layout.
struct SeriesState {
    interval: Time,
    /// Next unemitted boundary multiplier (`t = next_k · interval`).
    next_k: u64,
    rows: Vec<SeriesRow>,
}

/// The discrete-event network simulator.
///
/// Deterministic given its seed and the order of construction: nodes and
/// links are identified by insertion order, and events sharing a timestamp
/// dispatch in the order they were pushed (the [`TimerWheel`]'s ordering
/// contract, held by `tests/wheel_properties.rs`).
pub struct Simulator {
    now: Time,
    next_packet_id: u64,
    events: TimerWheel<EventKind>,
    in_flight: InFlight,
    nodes: Vec<NodeEntry>,
    links: Vec<Link>,
    rng: SimRng,
    started: bool,
    trace: Trace,
    actions: Vec<Output>,
    events_processed: u64,
    series: Option<SeriesState>,
}

impl Simulator {
    /// Create a simulator with a deterministic seed.
    pub fn new(seed: u64) -> Simulator {
        Simulator {
            now: Time::ZERO,
            next_packet_id: 1,
            events: TimerWheel::new(),
            in_flight: InFlight::default(),
            nodes: Vec::new(),
            links: Vec::new(),
            rng: SimRng::new(seed),
            started: false,
            trace: Trace::disabled(),
            actions: Vec::new(),
            events_processed: 0,
            series: None,
        }
    }

    /// Enable the periodic time-series sampler: one batch of rows per
    /// `interval` of virtual time, starting at `t = 0` (see
    /// [`Simulator::take_series`]).
    ///
    /// # Panics
    /// Panics if `interval` is zero.
    pub fn enable_series(&mut self, interval: Time) {
        assert!(interval > Time::ZERO, "series interval must be positive");
        self.series = Some(SeriesState {
            interval,
            next_k: 0,
            rows: Vec::new(),
        });
    }

    /// Drain the sampled series rows accumulated so far (empty when the
    /// sampler is disabled). Rows are in ascending time order; at each
    /// boundary the batch is the event-loop counter followed by per-link
    /// delivered-packets / tx-bytes counters and queue-occupancy gauges.
    pub fn take_series(&mut self) -> Vec<SeriesRow> {
        match &mut self.series {
            Some(s) => std::mem::take(&mut s.rows),
            None => Vec::new(),
        }
    }

    /// Emit rows for every unemitted boundary `k·interval ≤ upto`. The
    /// simulator state is constant between events, so sampling just
    /// before advancing to an event at `upto` yields the exact state at
    /// each boundary.
    fn sample_series_until(&mut self, upto: Time) {
        let (interval_ns, mut k) = match &self.series {
            Some(s) => (s.interval.as_nanos(), s.next_k),
            None => return,
        };
        let upto_ns = u128::from(upto.as_nanos());
        let mut rows = Vec::new();
        while u128::from(k) * u128::from(interval_ns) <= upto_ns {
            let t_ns = (u128::from(k) * u128::from(interval_ns)) as u64;
            rows.push(SeriesRow::counter(
                t_ns,
                "mmt_sim_events_total",
                &[],
                self.events_processed,
            ));
            for (idx, link) in self.links.iter().enumerate() {
                let idx_s = idx.to_string();
                let labels = [("link", idx_s.as_str())];
                rows.push(SeriesRow::counter(
                    t_ns,
                    "mmt_link_delivered_packets_total",
                    &labels,
                    link.delivered_packets,
                ));
                rows.push(SeriesRow::counter(
                    t_ns,
                    "mmt_link_tx_bytes_total",
                    &labels,
                    link.tx_bytes,
                ));
                rows.push(SeriesRow::gauge(
                    t_ns,
                    "mmt_link_queue_occupancy_bytes",
                    &labels,
                    link.queue.occupancy_bytes() as f64,
                ));
            }
            k += 1;
        }
        if let Some(s) = &mut self.series {
            s.next_k = k;
            s.rows.append(&mut rows);
        }
    }

    /// Enable packet tracing (records per-packet events for debugging and
    /// fine-grained assertions; costs memory).
    pub fn enable_trace(&mut self) {
        self.trace = Trace::enabled();
    }

    /// Enable packet tracing with a bounded ring buffer: only the most
    /// recent `capacity` events are retained (see [`Trace::with_capacity`]
    /// for the drop semantics).
    pub fn enable_trace_bounded(&mut self, capacity: usize) {
        self.trace = Trace::with_capacity(capacity);
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The retained trace as exporter-ready flow-correlated records
    /// (node names resolved, virtual time flattened to `u64` ns).
    pub fn trace_records(&self) -> Vec<mmt_telemetry::TraceRecord> {
        self.trace
            .events()
            .iter()
            .map(|e| mmt_telemetry::TraceRecord {
                ts_ns: e.time.as_nanos(),
                kind: e.kind.as_str().to_string(),
                node: e.node.map(|n| n as u64),
                node_name: e.node.map(|n| self.nodes[n].name.clone()),
                link: e.link.map(|l| l as u64),
                packet_id: e.packet_id,
                flow: e.flow,
                seq: e.seq,
                config: e.config,
                len_bytes: e.len as u64,
            })
            .collect()
    }

    /// Export simulator-level metrics into a registry: per-link counters,
    /// throughput/utilization/occupancy, per-node unrouted drops, and
    /// event-loop totals. Link series are labeled `link` (index), `src`,
    /// and `dst` (node names); everything is a snapshot at `now`.
    ///
    /// The export is *sparse*: zero-valued per-node and per-link series
    /// are omitted, which keeps fleet-scale registries proportional to
    /// observed activity rather than topology size. Absent counters read
    /// back as zero, so consumers see the same numbers either way.
    pub fn export_metrics(&self, reg: &mut mmt_telemetry::MetricRegistry) {
        let links = self.export_metrics_split(reg);
        links.materialize(reg);
    }

    /// The fleet-scale variant of [`export_metrics`]: everything *except*
    /// the per-link rows lands in `reg`; the per-link cells come back as
    /// a packed [`LinkStatsBlock`] (152 B/link, no per-row heap, no index) for
    /// the caller to merge across groups and materialize once. HELP
    /// strings for the link metrics are still described into `reg`, so
    /// an absorbed registry renders identically.
    ///
    /// [`export_metrics`]: Simulator::export_metrics
    /// [`LinkStatsBlock`]: crate::linkstats::LinkStatsBlock
    pub fn export_metrics_split(
        &self,
        reg: &mut mmt_telemetry::MetricRegistry,
    ) -> crate::linkstats::LinkStatsBlock {
        use crate::time::Time;
        let mut block = crate::linkstats::LinkStatsBlock::new();
        if !reg.is_enabled() {
            return block;
        }
        reg.describe("mmt_sim_now_ns", "current virtual time");
        reg.gauge_set("mmt_sim_now_ns", &[], self.now.as_nanos() as f64);
        reg.describe("mmt_sim_events_total", "simulator events processed");
        reg.counter_add("mmt_sim_events_total", &[], self.events_processed);
        reg.describe(
            "mmt_sim_trace_dropped_total",
            "trace events evicted by the bounded ring buffer",
        );
        reg.counter_add("mmt_sim_trace_dropped_total", &[], self.trace.dropped());
        reg.describe(
            "mmt_node_unrouted_drops_total",
            "packets sent out of unconnected ports",
        );
        reg.describe(
            "mmt_node_local_deliveries_total",
            "packets handed to the local app",
        );
        reg.describe(
            "mmt_node_crashed_drops_total",
            "packets destroyed by node crashes (swallowed arrivals + flushed egress queues)",
        );
        reg.describe("mmt_node_crashes_total", "scheduled node crashes");
        reg.describe("mmt_node_restarts_total", "node restarts after a crash");
        for (idx, node) in self.nodes.iter().enumerate() {
            let idx_s = idx.to_string();
            let labels = mmt_telemetry::LabelSet::new(&[
                ("node", idx_s.as_str()),
                ("name", node.name.as_str()),
            ]);
            for (name, value) in [
                ("mmt_node_unrouted_drops_total", node.unrouted_drops),
                ("mmt_node_local_deliveries_total", node.local.len() as u64),
                ("mmt_node_crashed_drops_total", node.crashed_drops),
                ("mmt_node_crashes_total", node.crashes),
                ("mmt_node_restarts_total", node.restarts),
            ] {
                if value != 0 {
                    reg.counter_add_set(name, &labels, value);
                }
            }
        }
        reg.describe(
            "mmt_link_offered_packets_total",
            "packets handed to the link",
        );
        reg.describe("mmt_link_offered_bytes_total", "bytes handed to the link");
        reg.describe("mmt_link_tx_packets_total", "packets fully serialized");
        reg.describe("mmt_link_tx_bytes_total", "bytes fully serialized");
        reg.describe(
            "mmt_link_delivered_packets_total",
            "packets delivered to the far end",
        );
        reg.describe(
            "mmt_link_mtu_drops_total",
            "packets dropped for exceeding the MTU",
        );
        reg.describe(
            "mmt_link_queue_drops_total",
            "packets dropped by the output queue",
        );
        reg.describe(
            "mmt_link_corruption_losses_total",
            "packets lost to corruption",
        );
        reg.describe(
            "mmt_link_queue_shed_aged_total",
            "aged packets shed by the deadline-aware queue",
        );
        reg.describe(
            "mmt_link_flap_drops_total",
            "packets lost to injected link outages",
        );
        reg.describe(
            "mmt_link_control_drops_total",
            "control-plane packets dropped by selective control loss",
        );
        reg.describe(
            "mmt_link_dup_injected_total",
            "duplicate packet copies injected by the fault layer",
        );
        reg.describe(
            "mmt_link_reordered_total",
            "packets delayed for reordering by the fault layer",
        );
        reg.describe(
            "mmt_link_utilization",
            "transmitter busy fraction since t=0",
        );
        reg.describe("mmt_link_throughput_bps", "achieved throughput since t=0");
        reg.describe(
            "mmt_link_queue_occupancy_bytes",
            "bytes queued at export time",
        );
        reg.describe(
            "mmt_link_queue_occupancy_packets",
            "packets queued at export time",
        );
        let elapsed = if self.now == Time::ZERO {
            Time::from_nanos(1)
        } else {
            self.now
        };
        for (idx, link) in self.links.iter().enumerate() {
            let s = link.stats();
            // Cell order is pinned by `linkstats::LINK_COUNTERS` /
            // `LINK_GAUGES`; materialization re-applies the sparse
            // (nonzero-only) export rule, so the rendered rows are
            // byte-identical to the old eager exporter.
            block.push(
                idx as u32,
                self.nodes[link.src_node].name.as_str(),
                self.nodes[link.dst_node].name.as_str(),
                [
                    s.offered_packets,
                    s.offered_bytes,
                    s.tx_packets,
                    s.tx_bytes,
                    s.delivered_packets,
                    s.mtu_drops,
                    s.queue_drops,
                    s.corruption_losses,
                    link.queue.shed_aged(),
                    s.flap_drops,
                    s.control_drops,
                    s.dup_injected,
                    s.reordered,
                ],
                [
                    s.utilization(elapsed),
                    s.throughput_bps(elapsed),
                    link.queue.occupancy_bytes() as f64,
                    link.queue.occupancy_packets() as f64,
                ],
            );
        }
        block
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total events processed so far (the deterministic work counter the
    /// sharded load reports are built from).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Add a node; returns its id. Order of addition fixes ids.
    pub fn add_node(&mut self, name: &str, behavior: Box<dyn Node>) -> NodeId {
        self.nodes.push(NodeEntry {
            name: name.to_string(),
            behavior,
            ports: Vec::new(),
            local: Vec::new(),
            unrouted_drops: 0,
            crashed: false,
            crashed_drops: 0,
            crashes: 0,
            restarts: 0,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// The name a node was registered with.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.nodes[id.0].name
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Connect `a`'s `a_port` to `b`'s `b_port` with a *bidirectional*
    /// link (two unidirectional links sharing the spec). Returns the two
    /// link ids (a→b, b→a).
    pub fn connect(
        &mut self,
        a: NodeId,
        a_port: PortId,
        b: NodeId,
        b_port: PortId,
        spec: LinkSpec,
    ) -> (LinkId, LinkId) {
        let ab = self.add_oneway(a, a_port, b, b_port, spec);
        let ba = self.add_oneway(b, b_port, a, a_port, spec);
        (ab, ba)
    }

    /// Add a single unidirectional link from `src`'s `src_port` to `dst`'s
    /// `dst_port`.
    pub fn add_oneway(
        &mut self,
        src: NodeId,
        src_port: PortId,
        dst: NodeId,
        dst_port: PortId,
        spec: LinkSpec,
    ) -> LinkId {
        let link_idx = self.links.len();
        let link = Link::new(spec, src.0, dst.0, dst_port, link_idx, &mut self.rng);
        self.links.push(link);
        let ports = &mut self.nodes[src.0].ports;
        if ports.len() <= src_port {
            ports.resize(src_port + 1, None);
        }
        assert!(
            ports[src_port].is_none(),
            "port {src_port} of node {} already connected",
            self.nodes[src.0].name
        );
        ports[src_port] = Some(link_idx);
        LinkId(link_idx)
    }

    /// Install a queue classifier on a link (e.g. an MMT-aware one).
    ///
    /// # Panics
    /// Panics once packets are queued on the link.
    pub fn set_link_classifier(&mut self, id: LinkId, classifier: Classifier) {
        self.links[id.0].queue.set_classifier(classifier);
    }

    /// Packets a link's output queue dropped: tail drops plus the
    /// deadline-aware discipline's sheds (a shed admits the arrival, so
    /// the link's `queue_drops` counter alone misses it).
    pub fn link_queue_dropped(&self, id: LinkId) -> u64 {
        self.links[id.0].queue.dropped()
    }

    /// A snapshot of a link's statistics.
    pub fn link_stats(&self, id: LinkId) -> LinkStats {
        self.links[id.0].stats()
    }

    /// Inject a packet so it *arrives at* `node`'s `port` at time `at`
    /// (used by workload drivers standing in for upstream hardware).
    pub fn inject(&mut self, at: Time, node: NodeId, port: PortId, mut pkt: Packet) {
        assert!(at >= self.now, "cannot inject into the past");
        if pkt.meta.id == 0 {
            pkt.meta.id = self.next_packet_id;
            self.next_packet_id += 1;
        }
        if pkt.meta.created_at == Time::ZERO {
            pkt.meta.created_at = at;
        }
        self.push_arrive(at, node.0, port, pkt);
    }

    /// Schedule a timer for a node from outside a callback.
    pub fn schedule_timer(&mut self, at: Time, node: NodeId, token: TimerToken) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.push_event(
            at,
            EventKind::Timer {
                node: node.0 as u32,
                token,
            },
        );
    }

    /// Schedule a node crash at `crash_at`, optionally followed by a
    /// restart at `restart_at`. Like [`crate::PeriodicOutage`], the schedule
    /// is purely time-driven — no randomness is consumed, so adding a crash
    /// leaves every pre-existing seeded stream byte-identical.
    ///
    /// While crashed the node swallows every arriving packet and timer
    /// (counted in [`Simulator::crashed_drops`]); at crash time its egress
    /// queues are flushed and [`Node::on_crash`] runs so the behaviour can
    /// drop its soft state. On restart [`Node::on_restart`] runs with a
    /// live [`Context`] so periodic timers can be re-armed.
    ///
    /// # Panics
    /// Panics if `crash_at` is in the past or `restart_at <= crash_at`.
    pub fn schedule_crash(&mut self, node: NodeId, crash_at: Time, restart_at: Option<Time>) {
        assert!(crash_at >= self.now, "cannot schedule a crash in the past");
        if let Some(up_at) = restart_at {
            assert!(up_at > crash_at, "restart must come after the crash");
            self.push_event(
                up_at,
                EventKind::NodeRestart {
                    node: node.0 as u32,
                },
            );
        }
        self.push_event(
            crash_at,
            EventKind::NodeCrash {
                node: node.0 as u32,
            },
        );
    }

    /// Whether a node is currently crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.nodes[node.0].crashed
    }

    /// Packets destroyed by crashes at this node (arrivals swallowed while
    /// down plus egress-queue contents flushed at crash time).
    pub fn crashed_drops(&self, node: NodeId) -> u64 {
        self.nodes[node.0].crashed_drops
    }

    /// Record a mode transition in the trace. Nodes cannot write the trace
    /// themselves, so control-plane drivers (the mode controller) call this
    /// when they push a `ModeChange` at `node`; `features` is the new
    /// feature bitmap, carried in the record's `config` field.
    pub fn record_mode_change(&mut self, node: NodeId, features: u64) {
        self.trace.record(TraceEvent {
            time: self.now,
            kind: TraceKind::ModeChange,
            node: Some(node.0),
            link: None,
            packet_id: 0,
            len: 0,
            flow: 0,
            seq: None,
            config: Some(features),
        });
    }

    /// Packets delivered to `node`'s local application so far.
    pub fn local_deliveries(&self, node: NodeId) -> &[(Time, Packet)] {
        &self.nodes[node.0].local
    }

    /// Packets a node sent to unconnected ports.
    pub fn unrouted_drops(&self, node: NodeId) -> u64 {
        self.nodes[node.0].unrouted_drops
    }

    /// Downcast a node's behaviour to its concrete type.
    pub fn node_as<T: 'static>(&self, node: NodeId) -> Option<&T> {
        let behavior: &dyn std::any::Any = self.nodes[node.0].behavior.as_ref();
        behavior.downcast_ref::<T>()
    }

    /// Downcast a node's behaviour mutably.
    pub fn node_as_mut<T: 'static>(&mut self, node: NodeId) -> Option<&mut T> {
        let behavior: &mut dyn std::any::Any = self.nodes[node.0].behavior.as_mut();
        behavior.downcast_mut::<T>()
    }

    fn push_event(&mut self, at: Time, kind: EventKind) {
        self.events.schedule(at.as_nanos(), kind);
    }

    /// Park `pkt` in the in-flight store and schedule its arrival.
    fn push_arrive(&mut self, at: Time, node: usize, port: PortId, pkt: Packet) {
        let pkt = self.in_flight.park(pkt);
        self.push_event(
            at,
            EventKind::Arrive {
                node: node as u32,
                port: port as u32,
                pkt,
            },
        );
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for idx in 0..self.nodes.len() {
            self.call_node(idx, |node, ctx| node.on_start(ctx));
        }
    }

    /// Run a node callback and apply the actions it produced.
    fn call_node<F>(&mut self, idx: usize, f: F)
    where
        F: FnOnce(&mut dyn Node, &mut Context<'_>),
    {
        debug_assert!(self.actions.is_empty());
        let mut actions = std::mem::take(&mut self.actions);
        {
            let entry = &mut self.nodes[idx];
            let mut ctx = Context {
                now: self.now,
                rng: &mut self.rng,
                actions: &mut actions,
            };
            f(entry.behavior.as_mut(), &mut ctx);
        }
        for action in actions.drain(..) {
            match action {
                Output::Transmit { port, pkt } => self.handle_send(idx, port, pkt),
                Output::WakeAt { at, token } => {
                    // An instant already gone fires at once.
                    let at = at.max(self.now);
                    self.push_event(
                        at,
                        EventKind::Timer {
                            node: idx as u32,
                            token,
                        },
                    );
                }
                Output::DeliverLocal { pkt } => {
                    self.trace.record(TraceEvent {
                        time: self.now,
                        kind: TraceKind::LocalDeliver,
                        node: Some(idx),
                        link: None,
                        packet_id: pkt.meta.id,
                        len: pkt.len(),
                        flow: pkt.meta.flow,
                        seq: pkt.meta.seq,
                        config: pkt.meta.config.map(u64::from),
                    });
                    self.nodes[idx].local.push((self.now, pkt));
                }
            }
        }
        self.actions = actions;
    }

    fn handle_send(&mut self, node_idx: usize, port: PortId, mut pkt: Packet) {
        if pkt.meta.id == 0 {
            pkt.meta.id = self.next_packet_id;
            self.next_packet_id += 1;
        }
        if pkt.meta.created_at == Time::ZERO {
            pkt.meta.created_at = self.now;
        }
        let Some(&Some(link_idx)) = self.nodes[node_idx].ports.get(port) else {
            self.nodes[node_idx].unrouted_drops += 1;
            return;
        };
        let link = &mut self.links[link_idx];
        link.offered_packets += 1;
        link.offered_bytes += pkt.len() as u64;
        if pkt.len() > link.mtu {
            link.mtu_drops += 1;
            self.trace.record(TraceEvent {
                time: self.now,
                kind: TraceKind::MtuDrop,
                node: Some(node_idx),
                link: Some(link_idx),
                packet_id: pkt.meta.id,
                len: pkt.len(),
                flow: pkt.meta.flow,
                seq: pkt.meta.seq,
                config: pkt.meta.config.map(u64::from),
            });
            return;
        }
        let meta = pkt.meta;
        let len = pkt.len();
        // A packet waits in the queue only while the transmitter is busy.
        // An idle link's queue is empty, so the packet is admitted exactly
        // when an empty queue would take it, and goes straight to the wire.
        let (admitted, idle_pkt) = if link.busy {
            (link.queue.enqueue(pkt), None)
        } else {
            (link.queue.pass_through(len), Some(pkt))
        };
        if !admitted {
            link.queue_drops += 1;
            self.trace.record(TraceEvent {
                time: self.now,
                kind: TraceKind::QueueDrop,
                node: Some(node_idx),
                link: Some(link_idx),
                packet_id: meta.id,
                len,
                flow: meta.flow,
                seq: meta.seq,
                config: meta.config.map(u64::from),
            });
            return;
        }
        // Hot path: skip even building the record when tracing is off.
        if self.trace.is_enabled() {
            self.trace.record(TraceEvent {
                time: self.now,
                kind: TraceKind::Enqueue,
                node: Some(node_idx),
                link: Some(link_idx),
                packet_id: meta.id,
                len,
                flow: meta.flow,
                seq: meta.seq,
                config: meta.config.map(u64::from),
            });
        }
        if let Some(pkt) = idle_pkt {
            self.transmit(link_idx, pkt);
        }
    }

    /// Serialize `pkt` onto an idle link: the one path from a send on an
    /// idle link and from a `TxComplete` that finds the queue non-empty.
    fn transmit(&mut self, link_idx: usize, pkt: Packet) {
        let link = &mut self.links[link_idx];
        debug_assert!(!link.busy, "transmit on a busy link");
        link.busy = true;
        let meta = pkt.meta;
        let len = pkt.len();
        let tx = link.bandwidth.tx_time(len);
        link.busy_ns += tx.as_nanos();
        link.tx_packets += 1;
        link.tx_bytes += len as u64;
        let lost = !link.lossless && link.loss.lose(&mut link.rng, len, &mut link.loss_state);
        let arrive_at = self.now + tx + link.propagation;
        let tx_done = self.now + tx;
        let (dst_node, dst_port) = (link.dst_node, link.dst_port);
        // The fault layer only sees packets the loss model spared; its
        // verdict is drawn from a dedicated RNG stream.
        let verdict = match &mut link.fault {
            Some(fault) if !lost => {
                let (spec, state) = &mut **fault;
                state.apply(spec, self.now, meta.control)
            }
            _ => FaultVerdict::Deliver {
                extra_delay: Time::ZERO,
                duplicate_after: None,
                reordered: false,
            },
        };
        let fault_trace = |kind: TraceKind| TraceEvent {
            time: tx_done,
            kind,
            node: None,
            link: Some(link_idx),
            packet_id: meta.id,
            len,
            flow: meta.flow,
            seq: meta.seq,
            config: meta.config.map(u64::from),
        };
        if lost {
            link.corruption_losses += 1;
            self.trace.record(TraceEvent {
                time: self.now,
                kind: TraceKind::CorruptionLoss,
                node: None,
                link: Some(link_idx),
                packet_id: meta.id,
                len,
                flow: meta.flow,
                seq: meta.seq,
                config: meta.config.map(u64::from),
            });
        } else {
            match verdict {
                FaultVerdict::FlapDrop => {
                    link.flap_drops += 1;
                    self.trace.record(fault_trace(TraceKind::FlapDrop));
                }
                FaultVerdict::ControlDrop => {
                    link.control_drops += 1;
                    self.trace.record(fault_trace(TraceKind::ControlDrop));
                }
                FaultVerdict::Deliver {
                    extra_delay,
                    duplicate_after,
                    reordered,
                } => {
                    link.delivered_packets += 1;
                    if reordered {
                        link.reordered += 1;
                    }
                    if let Some(lag) = duplicate_after {
                        link.delivered_packets += 1;
                        link.dup_injected += 1;
                        let copy = pkt.clone();
                        self.trace.record(fault_trace(TraceKind::DupInject));
                        self.push_arrive(arrive_at + extra_delay + lag, dst_node, dst_port, copy);
                    }
                    self.push_arrive(arrive_at + extra_delay, dst_node, dst_port, pkt);
                }
            }
        }
        self.push_event(
            tx_done,
            EventKind::TxComplete {
                link: link_idx as u32,
            },
        );
    }

    /// Take a node down: flush its egress queues (the NIC loses power with
    /// frames still buffered), let the behaviour drop its soft state, and
    /// start swallowing arrivals/timers until restart.
    fn crash_node(&mut self, idx: usize) {
        let entry = &mut self.nodes[idx];
        entry.crashed = true;
        entry.crashes += 1;
        entry.behavior.on_crash();
        let mut flushed = 0u64;
        for link in self.links.iter_mut().filter(|l| l.src_node == idx) {
            while link.queue.dequeue().is_some() {
                flushed += 1;
            }
        }
        self.nodes[idx].crashed_drops += flushed;
        self.trace.record(TraceEvent {
            time: self.now,
            kind: TraceKind::NodeCrash,
            node: Some(idx),
            link: None,
            packet_id: 0,
            len: flushed as usize,
            flow: 0,
            seq: None,
            config: None,
        });
    }

    /// Process a single event. Returns `false` when no events remain.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        let Some((at, kind)) = self.events.pop() else {
            return false;
        };
        let at = Time::from_nanos(at);
        debug_assert!(at >= self.now, "time went backwards");
        self.sample_series_until(at);
        self.now = at;
        self.events_processed += 1;
        match kind {
            EventKind::Arrive { node, port, pkt } => {
                let (node, port) = (node as usize, port as PortId);
                // Every `Arrive` parked its packet; the handle is live.
                let Some(pkt) = self.in_flight.take(pkt) else {
                    return true;
                };
                if self.nodes[node].crashed {
                    // A dead node's NIC swallows the frame silently.
                    self.nodes[node].crashed_drops += 1;
                    return true;
                }
                // Hot path: skip even building the record when tracing is off.
                if self.trace.is_enabled() {
                    self.trace.record(TraceEvent {
                        time: self.now,
                        kind: TraceKind::Arrive,
                        node: Some(node),
                        link: None,
                        packet_id: pkt.meta.id,
                        len: pkt.len(),
                        flow: pkt.meta.flow,
                        seq: pkt.meta.seq,
                        config: pkt.meta.config.map(u64::from),
                    });
                }
                self.call_node(node, |n, ctx| n.on_packet(ctx, port, pkt));
            }
            EventKind::TxComplete { link } => {
                let link = link as usize;
                let l = &mut self.links[link];
                l.busy = false;
                if let Some(pkt) = l.queue.dequeue() {
                    self.transmit(link, pkt);
                }
            }
            EventKind::Timer { node, token } => {
                let node = node as usize;
                if self.nodes[node].crashed {
                    // Timers armed before the crash die with the process.
                    return true;
                }
                self.call_node(node, |n, ctx| n.on_timer(ctx, token));
            }
            EventKind::NodeCrash { node } => self.crash_node(node as usize),
            EventKind::NodeRestart { node } => {
                let node = node as usize;
                let entry = &mut self.nodes[node];
                entry.crashed = false;
                entry.restarts += 1;
                self.trace.record(TraceEvent {
                    time: self.now,
                    kind: TraceKind::NodeRestart,
                    node: Some(node),
                    link: None,
                    packet_id: 0,
                    len: 0,
                    flow: 0,
                    seq: None,
                    config: None,
                });
                self.call_node(node, |n, ctx| n.on_restart(ctx));
            }
        }
        true
    }

    /// Run until the event queue drains, then give back the memory the
    /// event wheel and the in-flight store grew to. A later schedule
    /// starts a fresh wheel; with nothing left in the old one, pop order
    /// is the same.
    pub fn run(&mut self) {
        while self.step() {}
        self.events = TimerWheel::new();
        self.in_flight = InFlight::default();
    }

    /// Run until virtual time reaches `deadline` (events at exactly
    /// `deadline` are processed) or the queue drains.
    pub fn run_until(&mut self, deadline: Time) {
        self.ensure_started();
        while let Some((head_at, _)) = self.events.peek() {
            if Time::from_nanos(head_at) > deadline {
                self.sample_series_until(deadline);
                self.now = deadline;
                break;
            }
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LossModel;
    use crate::node::Sink;
    use crate::queue::QueueSpec;
    use crate::time::Bandwidth;

    /// Forwarder that relays everything from port 0 to port 1.
    struct Forward;
    impl Node for Forward {
        fn on_packet(&mut self, ctx: &mut Context<'_>, port: PortId, pkt: Packet) {
            if port == 0 {
                ctx.send(1, pkt);
            }
        }
    }

    /// Source that emits `n` packets at start, then one per timer tick.
    struct Burst {
        n: usize,
        size: usize,
    }
    impl Node for Burst {
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _port: PortId, _pkt: Packet) {}
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for _ in 0..self.n {
                ctx.send(0, Packet::new(vec![0u8; self.size]));
            }
        }
    }

    fn gbit_link(ms: u64) -> LinkSpec {
        LinkSpec::new(Bandwidth::gbps(1), Time::from_millis(ms))
    }

    #[test]
    fn delivery_latency_is_tx_plus_propagation() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a", Box::new(Sink));
        let b = sim.add_node("b", Box::new(Forward));
        sim.connect(b, 1, a, 0, gbit_link(10));
        // b forwards injections from port 0 out of port 1 to a.
        sim.inject(Time::ZERO, b, 0, Packet::new(vec![0u8; 1500]));
        sim.run();
        let got = sim.local_deliveries(a);
        assert_eq!(got.len(), 1);
        // 1500B at 1 Gb/s = 12 µs; +10 ms propagation.
        assert_eq!(got[0].0, Time::from_micros(12) + Time::from_millis(10));
    }

    #[test]
    fn serialization_spaces_back_to_back_packets() {
        let mut sim = Simulator::new(1);
        let src = sim.add_node("src", Box::new(Burst { n: 3, size: 1500 }));
        let dst = sim.add_node("dst", Box::new(Sink));
        sim.add_oneway(src, 0, dst, 0, gbit_link(0));
        sim.run();
        let got = sim.local_deliveries(dst);
        assert_eq!(got.len(), 3);
        // Arrivals at 12, 24, 36 µs: queueing + serialization.
        assert_eq!(got[0].0, Time::from_micros(12));
        assert_eq!(got[1].0, Time::from_micros(24));
        assert_eq!(got[2].0, Time::from_micros(36));
    }

    #[test]
    fn corruption_loss_drops_packets_deterministically() {
        let run = |seed| {
            let mut sim = Simulator::new(seed);
            let src = sim.add_node(
                "src",
                Box::new(Burst {
                    n: 1000,
                    size: 1000,
                }),
            );
            let dst = sim.add_node("dst", Box::new(Sink));
            sim.add_oneway(
                src,
                0,
                dst,
                0,
                gbit_link(0).with_loss(LossModel::Random(0.1)),
            );
            sim.run();
            sim.local_deliveries(dst).len()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed, same outcome");
        assert!((850..=950).contains(&a), "≈10% loss, got {}", 1000 - a);
    }

    #[test]
    fn queue_overflow_counted() {
        let mut sim = Simulator::new(1);
        let src = sim.add_node("src", Box::new(Burst { n: 100, size: 1000 }));
        let dst = sim.add_node("dst", Box::new(Sink));
        let link = sim.add_oneway(
            src,
            0,
            dst,
            0,
            gbit_link(0).with_queue(QueueSpec::DropTailFifo {
                capacity_bytes: 10_000,
            }),
        );
        sim.run();
        let stats = sim.link_stats(link);
        // 1 in flight + 10 queued = 11 delivered, rest dropped.
        assert_eq!(stats.queue_drops, 89);
        assert_eq!(sim.local_deliveries(dst).len(), 11);
        assert_eq!(stats.offered_packets, 100);
    }

    #[test]
    fn mtu_drops_counted() {
        let mut sim = Simulator::new(1);
        let src = sim.add_node("src", Box::new(Burst { n: 1, size: 9500 }));
        let dst = sim.add_node("dst", Box::new(Sink));
        let link = sim.add_oneway(src, 0, dst, 0, gbit_link(0).with_mtu(9018));
        sim.run();
        assert_eq!(sim.link_stats(link).mtu_drops, 1);
        assert!(sim.local_deliveries(dst).is_empty());
    }

    #[test]
    fn unrouted_port_counts_drop() {
        let mut sim = Simulator::new(1);
        let src = sim.add_node("src", Box::new(Burst { n: 2, size: 100 }));
        sim.run();
        assert_eq!(sim.unrouted_drops(src), 2);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulator::new(1);
        let src = sim.add_node("src", Box::new(Burst { n: 5, size: 1500 }));
        let dst = sim.add_node("dst", Box::new(Sink));
        sim.add_oneway(src, 0, dst, 0, gbit_link(0));
        sim.run_until(Time::from_micros(25));
        assert_eq!(sim.local_deliveries(dst).len(), 2); // 12µs, 24µs
        assert_eq!(sim.now(), Time::from_micros(25));
        sim.run();
        assert_eq!(sim.local_deliveries(dst).len(), 5);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerNode {
            fired: Vec<u64>,
        }
        impl Node for TimerNode {
            fn on_packet(&mut self, _: &mut Context<'_>, _: PortId, _: Packet) {}
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(Time::from_millis(2), 2);
                ctx.set_timer(Time::from_millis(1), 1);
                ctx.set_timer(Time::from_millis(3), 3);
            }
            fn on_timer(&mut self, _ctx: &mut Context<'_>, token: TimerToken) {
                self.fired.push(token);
            }
        }
        let mut sim = Simulator::new(1);
        let n = sim.add_node("t", Box::new(TimerNode { fired: vec![] }));
        sim.run();
        assert_eq!(sim.node_as::<TimerNode>(n).unwrap().fired, vec![1, 2, 3]);
    }

    #[test]
    fn external_timer_scheduling() {
        struct T {
            hits: u64,
        }
        impl Node for T {
            fn on_packet(&mut self, _: &mut Context<'_>, _: PortId, _: Packet) {}
            fn on_timer(&mut self, _: &mut Context<'_>, _: TimerToken) {
                self.hits += 1;
            }
        }
        let mut sim = Simulator::new(1);
        let n = sim.add_node("t", Box::new(T { hits: 0 }));
        sim.schedule_timer(Time::from_secs(1), n, 0);
        sim.run();
        assert_eq!(sim.node_as::<T>(n).unwrap().hits, 1);
        assert_eq!(sim.now(), Time::from_secs(1));
    }

    #[test]
    fn packet_ids_assigned_uniquely() {
        let mut sim = Simulator::new(1);
        let src = sim.add_node("src", Box::new(Burst { n: 3, size: 100 }));
        let dst = sim.add_node("dst", Box::new(Sink));
        sim.add_oneway(src, 0, dst, 0, gbit_link(0));
        sim.inject(Time::ZERO, dst, 5, Packet::new(vec![0u8; 10]));
        sim.run();
        let mut ids: Vec<u64> = sim
            .local_deliveries(dst)
            .iter()
            .map(|(_, p)| p.meta.id)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4, "ids must be unique");
        assert!(ids.iter().all(|&i| i != 0));
    }

    #[test]
    fn trace_records_lifecycle() {
        let mut sim = Simulator::new(1);
        sim.enable_trace();
        let src = sim.add_node("src", Box::new(Burst { n: 1, size: 100 }));
        let dst = sim.add_node("dst", Box::new(Sink));
        sim.add_oneway(src, 0, dst, 0, gbit_link(1));
        sim.run();
        let kinds: Vec<TraceKind> = sim.trace().events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TraceKind::Enqueue,
                TraceKind::Arrive,
                TraceKind::LocalDeliver
            ]
        );
    }

    #[test]
    fn node_metadata_accessors() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("alpha", Box::new(Sink));
        assert_eq!(sim.node_name(a), "alpha");
        assert_eq!(sim.node_count(), 1);
        assert!(sim.node_as::<Sink>(a).is_some());
        assert!(sim.node_as::<Forward>(a).is_none());
        assert!(sim.node_as_mut::<Sink>(a).is_some());
        assert!(sim.local_deliveries(a).is_empty());
        assert!(sim.take_series().is_empty(), "series disabled → empty");
    }

    /// Sink that tracks the crash/restart hooks and drops a counter on
    /// crash, like a retransmit buffer losing its store.
    struct CrashProbe {
        soft_state: u64,
        crashes: u64,
        restarts: u64,
    }
    impl Node for CrashProbe {
        fn on_packet(&mut self, ctx: &mut Context<'_>, _port: PortId, pkt: Packet) {
            self.soft_state += 1;
            ctx.deliver_local(pkt);
        }
        fn on_crash(&mut self) {
            self.soft_state = 0;
            self.crashes += 1;
        }
        fn on_restart(&mut self, _ctx: &mut Context<'_>) {
            self.restarts += 1;
        }
    }

    #[test]
    fn crash_swallows_arrivals_until_restart() {
        let mut sim = Simulator::new(1);
        sim.enable_trace();
        let n = sim.add_node(
            "dtn",
            Box::new(CrashProbe {
                soft_state: 0,
                crashes: 0,
                restarts: 0,
            }),
        );
        // Arrivals at 1, 3, 5 ms; down between 2 and 4 ms.
        for ms in [1u64, 3, 5] {
            sim.inject(Time::from_millis(ms), n, 0, Packet::new(vec![0u8; 64]));
        }
        sim.schedule_crash(n, Time::from_millis(2), Some(Time::from_millis(4)));
        sim.run();
        assert_eq!(sim.local_deliveries(n).len(), 2, "3 ms arrival swallowed");
        assert_eq!(sim.crashed_drops(n), 1);
        assert!(!sim.is_crashed(n));
        let probe = sim.node_as::<CrashProbe>(n).unwrap();
        assert_eq!(probe.crashes, 1);
        assert_eq!(probe.restarts, 1);
        assert_eq!(
            probe.soft_state, 1,
            "state cleared at crash, one arrival after"
        );
        assert_eq!(sim.trace().count(TraceKind::NodeCrash), 1);
        assert_eq!(sim.trace().count(TraceKind::NodeRestart), 1);
    }

    #[test]
    fn crash_without_restart_stays_down() {
        let mut sim = Simulator::new(1);
        let n = sim.add_node("dtn", Box::new(Sink));
        sim.inject(Time::from_millis(3), n, 0, Packet::new(vec![0u8; 64]));
        sim.schedule_crash(n, Time::from_millis(1), None);
        sim.run();
        assert!(sim.is_crashed(n));
        assert!(sim.local_deliveries(n).is_empty());
        assert_eq!(sim.crashed_drops(n), 1);
    }

    #[test]
    fn crash_flushes_egress_queue_and_kills_timers() {
        struct TickSource {
            ticks: u64,
        }
        impl Node for TickSource {
            fn on_packet(&mut self, _: &mut Context<'_>, _: PortId, _: Packet) {}
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                // Queue a burst that outlasts the crash point.
                for _ in 0..10 {
                    ctx.send(0, Packet::new(vec![0u8; 1500]));
                }
                ctx.set_timer(Time::from_millis(5), 1);
            }
            fn on_timer(&mut self, _: &mut Context<'_>, _: TimerToken) {
                self.ticks += 1;
            }
        }
        let mut sim = Simulator::new(1);
        let src = sim.add_node("src", Box::new(TickSource { ticks: 0 }));
        let dst = sim.add_node("dst", Box::new(Sink));
        sim.add_oneway(src, 0, dst, 0, gbit_link(0));
        // 1500 B at 1 Gb/s = 12 µs each; crash at 30 µs: 2 delivered, 1 on
        // the wire (survives), 7 flushed from the queue.
        sim.schedule_crash(src, Time::from_micros(30), None);
        sim.run();
        assert_eq!(sim.local_deliveries(dst).len(), 3);
        assert_eq!(sim.crashed_drops(src), 7);
        assert_eq!(
            sim.node_as::<TickSource>(src).unwrap().ticks,
            0,
            "pre-crash timer must not fire on a dead node"
        );
    }

    #[test]
    fn crash_schedule_is_deterministic_and_consumes_no_randomness() {
        let run = |crash: bool| {
            let mut sim = Simulator::new(77);
            let src = sim.add_node("src", Box::new(Burst { n: 500, size: 1000 }));
            let dst = sim.add_node("dst", Box::new(Sink));
            sim.add_oneway(
                src,
                0,
                dst,
                0,
                gbit_link(0).with_loss(LossModel::Random(0.1)),
            );
            if crash {
                sim.schedule_crash(dst, Time::from_secs(1), None);
            }
            sim.run();
            sim.local_deliveries(dst).len()
        };
        // The crash fires after all traffic: identical delivery outcome,
        // proving the schedule itself draws nothing from the RNG.
        assert_eq!(run(false), run(true));
        assert_eq!(run(true), run(true));
    }

    #[test]
    fn control_and_data_events_at_one_timestamp_dispatch_in_push_order() {
        use crate::wheel::{HORIZON_TICKS, SLOTS, SLOT_NS};

        /// Logs every callback; a crashed node logs nothing, so a crash
        /// or restart dispatched out of push order changes the log.
        #[derive(Default)]
        struct Recorder(Vec<&'static str>);
        impl Node for Recorder {
            fn on_packet(&mut self, _: &mut Context<'_>, _: PortId, _: Packet) {
                self.0.push("arrive");
            }
            fn on_timer(&mut self, _: &mut Context<'_>, _: TimerToken) {
                self.0.push("timer");
            }
            fn on_crash(&mut self) {
                self.0.push("crash");
            }
            fn on_restart(&mut self, _: &mut Context<'_>) {
                self.0.push("restart");
            }
        }

        type Push = fn(&mut Simulator, NodeId, Time);
        let arrive: Push = |sim, n, at| sim.inject(at, n, 0, Packet::new(vec![0u8; 64]));
        let timer: Push = |sim, n, at| sim.schedule_timer(at, n, 7);
        let crash: Push = |sim, n, at| sim.schedule_crash(n, at, None);
        // Down from 100 ns, back up at `at`: the restart shares the
        // timestamp with whatever the permutation pushes after it.
        let restart: Push = |sim, n, at| sim.schedule_crash(n, Time::from_nanos(100), Some(at));

        let permutations: [(&[Push], &[&str], u64); 3] = [
            (
                &[restart, arrive, timer, crash],
                &["crash", "restart", "arrive", "timer", "crash"],
                0,
            ),
            (
                &[restart, timer, arrive, crash],
                &["crash", "restart", "timer", "arrive", "crash"],
                0,
            ),
            // Crash pushed ahead of the data events: both are swallowed
            // (the arrival counted, the timer silently).
            (
                &[restart, crash, arrive, timer],
                &["crash", "restart", "crash"],
                1,
            ),
        ];
        // Inside one level-0 slot, across a level cascade, and out of
        // the overflow list beyond the wheel horizon.
        for at_ns in [500, SLOTS as u64 * SLOT_NS + 5, HORIZON_TICKS * SLOT_NS + 5] {
            let at = Time::from_nanos(at_ns);
            for (pushes, expected, swallowed) in permutations {
                let mut sim = Simulator::new(1);
                let n = sim.add_node("n", Box::new(Recorder::default()));
                for push in pushes {
                    push(&mut sim, n, at);
                }
                sim.run();
                assert_eq!(
                    sim.node_as::<Recorder>(n).unwrap().0,
                    expected,
                    "events at {at_ns} ns left push order"
                );
                assert_eq!(sim.crashed_drops(n), swallowed, "at {at_ns} ns");
                assert_eq!(sim.now(), at);
            }
        }
    }

    #[test]
    fn mode_change_recorded_in_trace() {
        let mut sim = Simulator::new(1);
        sim.enable_trace();
        let n = sim.add_node("border", Box::new(Sink));
        sim.record_mode_change(n, 0x47);
        assert_eq!(sim.trace().count(TraceKind::ModeChange), 1);
        let ev = sim.trace().events()[0];
        assert_eq!(ev.node, Some(0));
        assert_eq!(ev.config, Some(0x47));
    }

    #[test]
    fn series_sampler_emits_every_boundary_deterministically() {
        let run = || {
            let mut sim = Simulator::new(3);
            sim.enable_series(Time::from_micros(10));
            let src = sim.add_node("src", Box::new(Burst { n: 5, size: 1500 }));
            let dst = sim.add_node("dst", Box::new(Sink));
            sim.add_oneway(src, 0, dst, 0, gbit_link(0));
            sim.run();
            mmt_telemetry::series::to_jsonl(&sim.take_series())
        };
        let a = run();
        assert_eq!(a, run(), "same seed, same series bytes");
        // Deliveries at 12..60 µs; boundaries 0,10,...,60 µs each emit
        // one sim row + three rows for the single link.
        assert_eq!(a.lines().count(), 7 * 4);
        assert!(a.contains("\"t_ns\":0,\"name\":\"mmt_sim_events_total\""));
        assert!(a.contains("\"t_ns\":60000,\"name\":\"mmt_link_tx_bytes_total\""));
    }

    #[test]
    fn series_boundary_reflects_pre_boundary_state_only() {
        let mut sim = Simulator::new(3);
        sim.enable_series(Time::from_micros(12));
        let src = sim.add_node("src", Box::new(Burst { n: 2, size: 1500 }));
        let dst = sim.add_node("dst", Box::new(Sink));
        sim.add_oneway(src, 0, dst, 0, gbit_link(0));
        sim.run();
        let rows = sim.take_series();
        // The 12 µs boundary must not see the arrival event at exactly
        // 12 µs: delivered count there is still what the link reported
        // at serialization time of packet 1 (which happened at 12 µs
        // TxComplete, also not yet processed).
        let at_12: Vec<_> = rows
            .iter()
            .filter(|r| r.t_ns == 12_000 && r.name == "mmt_link_delivered_packets_total")
            .collect();
        assert_eq!(at_12.len(), 1);
    }

    #[test]
    fn run_until_flushes_series_boundaries_to_deadline() {
        let mut sim = Simulator::new(1);
        sim.enable_series(Time::from_micros(10));
        let src = sim.add_node("src", Box::new(Burst { n: 5, size: 1500 }));
        let dst = sim.add_node("dst", Box::new(Sink));
        sim.add_oneway(src, 0, dst, 0, gbit_link(0));
        sim.run_until(Time::from_micros(25));
        let rows = sim.take_series();
        let ts: Vec<u64> = rows
            .iter()
            .filter(|r| r.name == "mmt_sim_events_total")
            .map(|r| r.t_ns)
            .collect();
        assert_eq!(ts, vec![0, 10_000, 20_000], "boundaries ≤ deadline");
    }

    /// Source that sends `n` 1500-byte packets at start, the k-th (from
    /// 1) filled with byte k.
    struct Numbered(u8);
    impl Node for Numbered {
        fn on_packet(&mut self, _: &mut Context<'_>, _: PortId, _: Packet) {}
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for i in 1..=self.0 {
                ctx.send(0, Packet::new(vec![i; 1500]));
            }
        }
    }

    #[test]
    fn an_idle_link_transmits_at_once_with_the_same_trace() {
        let mut sim = Simulator::new(1);
        sim.enable_trace();
        let src = sim.add_node("src", Box::new(Numbered(1)));
        let dst = sim.add_node("dst", Box::new(Sink));
        let link = sim.add_oneway(src, 0, dst, 0, gbit_link(10));
        sim.run();
        // 1500 B at 1 Gb/s = 12 µs, then 10 ms of propagation.
        let arrive = Time::from_micros(12) + Time::from_millis(10);
        let records: Vec<_> = sim
            .trace()
            .events()
            .iter()
            .map(|e| (e.kind, e.time, e.node, e.link, e.len))
            .collect();
        assert_eq!(
            records,
            vec![
                // The packet never waited, yet its Enqueue record stays.
                (TraceKind::Enqueue, Time::ZERO, Some(0), Some(0), 1500),
                (TraceKind::Arrive, arrive, Some(1), None, 1500),
                (TraceKind::LocalDeliver, arrive, Some(1), None, 1500),
            ]
        );
        let stats = sim.link_stats(link);
        assert_eq!((stats.tx_packets, stats.delivered_packets), (1, 1));
        assert_eq!(stats.busy_ns, 12_000);
        assert!(!sim.links[link.0].busy);
        assert_eq!(sim.events_processed(), 2, "TxComplete and Arrive");
    }

    #[test]
    fn a_busy_link_queues_in_fifo_order() {
        let mut sim = Simulator::new(1);
        sim.enable_trace();
        let src = sim.add_node("src", Box::new(Numbered(3)));
        let dst = sim.add_node("dst", Box::new(Sink));
        let link = sim.add_oneway(src, 0, dst, 0, gbit_link(0));
        sim.run_until(Time::from_micros(5));
        // The first packet is on the wire; the other two wait.
        let l = &sim.links[link.0];
        assert!(l.busy);
        assert_eq!(l.queue.occupancy_packets(), 2);
        assert_eq!(l.queue.occupancy_bytes(), 3000);
        sim.run();
        let got: Vec<(Time, u8)> = sim
            .local_deliveries(dst)
            .iter()
            .map(|(t, p)| (*t, p.bytes[0]))
            .collect();
        assert_eq!(
            got,
            vec![
                (Time::from_micros(12), 1),
                (Time::from_micros(24), 2),
                (Time::from_micros(36), 3),
            ]
        );
        assert_eq!(sim.trace().count(TraceKind::Enqueue), 3);
        assert!(sim.links[link.0].queue.is_empty());
        assert!(!sim.links[link.0].busy);
    }

    #[test]
    fn an_oversize_packet_on_an_idle_link_is_a_queue_drop() {
        let mut sim = Simulator::new(1);
        sim.enable_trace();
        let src = sim.add_node("src", Box::new(Numbered(1)));
        let dst = sim.add_node("dst", Box::new(Sink));
        let spec = gbit_link(0).with_queue(QueueSpec::DropTailFifo {
            capacity_bytes: 1000,
        });
        let link = sim.add_oneway(src, 0, dst, 0, spec);
        sim.run();
        // The transmitter was idle, but an empty 1000-byte queue could
        // not have held 1500 bytes: dropped, counted and traced as before.
        let stats = sim.link_stats(link);
        assert_eq!((stats.offered_packets, stats.queue_drops), (1, 1));
        assert_eq!(stats.tx_packets, 0);
        assert_eq!(sim.link_queue_dropped(link), 1);
        let drops: Vec<_> = sim
            .trace()
            .events()
            .iter()
            .map(|e| (e.kind, e.node, e.link, e.len))
            .collect();
        assert_eq!(drops, vec![(TraceKind::QueueDrop, Some(0), Some(0), 1500)]);
        assert!(sim.local_deliveries(dst).is_empty());
        assert!(!sim.links[link.0].busy);
    }

    #[test]
    fn a_crash_flush_leaves_the_queue_count_at_zero() {
        let mut sim = Simulator::new(1);
        let src = sim.add_node("src", Box::new(Numbered(10)));
        let dst = sim.add_node("dst", Box::new(Sink));
        let link = sim.add_oneway(src, 0, dst, 0, gbit_link(0));
        // 12 µs per packet: at 30 µs two are out, the third is on the
        // wire and seven wait.
        sim.schedule_crash(src, Time::from_micros(30), None);
        sim.run_until(Time::from_micros(30));
        let q = &sim.links[link.0].queue;
        assert!(q.is_empty());
        assert_eq!((q.occupancy_packets(), q.occupancy_bytes()), (0, 0));
        assert!(
            sim.links[link.0].busy,
            "the third packet is still on the wire"
        );
        sim.run();
        assert_eq!(sim.crashed_drops(src), 7);
        assert_eq!(sim.local_deliveries(dst).len(), 3);
        assert!(!sim.links[link.0].busy, "TxComplete found nothing queued");
    }

    #[test]
    fn an_event_is_16_bytes_and_a_wheel_entry_40() {
        use std::mem::size_of;
        assert!(size_of::<EventKind>() <= 16, "{}", size_of::<EventKind>());
        let entry = size_of::<crate::wheel::SlabEntry<EventKind>>();
        assert!(entry <= 40, "{entry}");
    }

    #[test]
    fn a_fault_free_link_holds_no_fault_state() {
        use crate::fault::FaultSpec;
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a", Box::new(Sink));
        let b = sim.add_node("b", Box::new(Sink));
        let clean = sim.add_oneway(a, 0, b, 0, gbit_link(0));
        let jittery = gbit_link(0).with_fault(FaultSpec::none().with_jitter(Time::from_micros(5)));
        let faulted = sim.add_oneway(a, 1, b, 1, jittery);
        assert!(sim.links[clean.0].fault.is_none());
        assert!(sim.links[faulted.0].fault.is_some());
    }

    #[test]
    fn a_faulted_link_after_1000_clean_ones_draws_the_same_fault_stream() {
        use crate::fault::{FaultSpec, FaultState};
        const SEED: u64 = 0x5EED;
        let spec = FaultSpec::none()
            .with_jitter(Time::from_micros(7))
            .with_reorder(0.3, Time::from_micros(20))
            .with_duplication(0.2, Time::from_micros(3));
        let mut sim = Simulator::new(SEED);
        let a = sim.add_node("a", Box::new(Sink));
        let b = sim.add_node("b", Box::new(Sink));
        for port in 0..1000 {
            sim.add_oneway(a, port, b, port, gbit_link(0));
        }
        let link = sim.add_oneway(a, 1000, b, 1000, gbit_link(0).with_fault(spec));
        // Every link forked its fault stream before its loss stream, so
        // link 1000's fault stream is the parent's state after 1000 loss
        // forks, frozen-forked with the link's index.
        let mut parent = SimRng::new(SEED);
        for idx in 0..1000u64 {
            parent.fork(idx + 0x1000);
        }
        let mut want = FaultState::new(parent.fork_frozen(1000 + 0xFA17_0000));
        let fault = sim.links[link.0].fault.as_mut().expect("fault state");
        let (got_spec, got) = &mut **fault;
        assert_eq!(*got_spec, spec);
        for us in 0..200 {
            let now = Time::from_micros(us);
            assert_eq!(got.apply(&spec, now, false), want.apply(&spec, now, false));
        }
        // Only the 1001 loss forks advanced the simulator's stream.
        parent.fork(1000 + 0x1000);
        assert_eq!(sim.rng.next_u64(), parent.next_u64());
    }

    /// Step until the queue drains without `run`'s release, so the
    /// in-flight store can be inspected; returns the most packets it
    /// held at once.
    fn drain_keeping_storage(sim: &mut Simulator) -> usize {
        let mut most = 0;
        while sim.step() {
            most = most.max(sim.in_flight.len());
        }
        most
    }

    #[test]
    fn the_in_flight_store_empties_under_duplicates_reorder_and_jitter() {
        use crate::fault::FaultSpec;
        let spec = gbit_link(1).with_fault(
            FaultSpec::none()
                .with_duplication(0.2, Time::from_micros(3))
                .with_reorder(0.3, Time::from_micros(40))
                .with_jitter(Time::from_micros(5)),
        );
        let mut sim = Simulator::new(9);
        let src = sim.add_node("src", Box::new(Burst { n: 300, size: 1000 }));
        let dst = sim.add_node("dst", Box::new(Sink));
        let link = sim.add_oneway(src, 0, dst, 0, spec);
        let most = drain_keeping_storage(&mut sim);
        let stats = sim.link_stats(link);
        assert!(stats.dup_injected > 0 && stats.reordered > 0, "{stats:?}");
        assert_eq!(
            sim.local_deliveries(dst).len() as u64,
            300 + stats.dup_injected
        );
        assert!(most > 1, "packets were in flight together");
        assert_eq!(sim.in_flight.len(), 0, "every arrival took its packet");
        assert_eq!(sim.in_flight.free.len(), sim.in_flight.slots.len());
        assert!(sim.in_flight.slots.len() <= most, "freed slots were reused");
        // `run` on a drained simulator hands the storage back.
        sim.run();
        assert_eq!(sim.in_flight.slots.capacity(), 0);
        assert!(sim.events.is_empty());
    }

    #[test]
    fn an_arrival_swallowed_by_a_crashed_node_frees_its_slot() {
        let mut sim = Simulator::new(1);
        let n = sim.add_node("dtn", Box::new(Sink));
        // Down from 1 ms to 10 ms: 40 arrivals inside the outage, 5
        // after it.
        for us in (2_000..10_000)
            .step_by(200)
            .chain([11_000, 12_000, 13_000, 14_000, 15_000])
        {
            sim.inject(Time::from_micros(us), n, 0, Packet::new(vec![0u8; 64]));
        }
        sim.schedule_crash(n, Time::from_millis(1), Some(Time::from_millis(10)));
        assert_eq!(sim.in_flight.len(), 45, "an injection parks its packet");
        sim.run_until(Time::from_millis(10));
        assert_eq!(sim.crashed_drops(n), 40);
        assert_eq!(
            sim.in_flight.len(),
            5,
            "each swallowed arrival freed its slot"
        );
        drain_keeping_storage(&mut sim);
        assert_eq!(sim.crashed_drops(n), 40);
        assert_eq!(sim.local_deliveries(n).len(), 5);
        assert_eq!(sim.in_flight.len(), 0);
    }

    #[test]
    #[should_panic(expected = "series interval must be positive")]
    fn zero_series_interval_panics() {
        let mut sim = Simulator::new(1);
        sim.enable_series(Time::ZERO);
    }

    #[test]
    #[should_panic(expected = "restart must come after")]
    fn restart_before_crash_panics() {
        let mut sim = Simulator::new(1);
        let n = sim.add_node("n", Box::new(Sink));
        sim.schedule_crash(n, Time::from_millis(5), Some(Time::from_millis(5)));
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_connect_panics() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a", Box::new(Sink));
        let b = sim.add_node("b", Box::new(Sink));
        sim.add_oneway(a, 0, b, 0, gbit_link(0));
        sim.add_oneway(a, 0, b, 1, gbit_link(0));
    }
}
