//! Unidirectional links: queue → serializer → propagation → loss.

use crate::fault::{FaultSpec, FaultState};
use crate::queue::{QueueSpec, TransmitQueue};
use crate::rng::SimRng;
use crate::time::{Bandwidth, Time};

/// Identifies a link within a simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub usize);

/// How a link loses packets.
///
/// Capacity-planned research networks do not lose packets to congestion in
/// normal operation, "but can occasionally lose packets from corruption"
/// (§4). The corruption models express that; queue overflow drops are a
/// separate mechanism that only engages in overcommit experiments (E7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// No loss ever (ideal DAQ-network segment).
    None,
    /// Independent per-packet loss probability.
    Random(f64),
    /// Bit-error rate: a packet of `n` bytes is lost with probability
    /// `1 - (1 - ber)^(8n)` — long jumbo frames are proportionally more
    /// exposed, as on real links.
    Ber(f64),
    /// Gilbert–Elliott two-state burst-loss model: a good state with
    /// `p_good` loss and a bad state with `p_bad` loss, with per-packet
    /// transition probabilities. Models the correlated loss of optical
    /// glitches and micro-bursts that single-packet NAK recovery must
    /// survive (DESIGN.md ablation A1).
    GilbertElliott {
        /// Loss probability while in the good state.
        p_good: f64,
        /// Loss probability while in the bad state.
        p_bad: f64,
        /// P(good → bad) per packet.
        to_bad: f64,
        /// P(bad → good) per packet.
        to_good: f64,
    },
}

impl LossModel {
    /// A typical burst profile: near-lossless good state, heavy bad
    /// state with mean burst length `1/to_good` packets, tuned so the
    /// long-run average loss is `avg`.
    pub fn bursty(avg: f64, mean_burst_packets: f64) -> LossModel {
        // mmt-lint: allow(F1, "construction-time parameter derivation, +,-,*,/ only: IEEE-exact, bit-identical on all platforms")
        let p_bad = 0.5;
        // mmt-lint: allow(F1, "construction-time parameter derivation, +,-,*,/ only: IEEE-exact, bit-identical on all platforms")
        let to_good = 1.0 / mean_burst_packets.max(1.0);
        // Stationary bad-state probability π_b = to_bad/(to_bad+to_good);
        // avg = π_b × p_bad  ⇒  to_bad = avg·to_good / (p_bad − avg).
        // mmt-lint: allow(F1, "construction-time parameter derivation, +,-,*,/ only: IEEE-exact, bit-identical on all platforms")
        let to_bad = (avg * to_good / (p_bad - avg).max(1e-9)).min(1.0);
        LossModel::GilbertElliott {
            // mmt-lint: allow(F1, "exact zero constant for the lossless good state")
            p_good: 0.0,
            p_bad,
            to_bad,
            to_good,
        }
    }

    /// Whether this model keeps per-link mutable state (Gilbert–Elliott
    /// does; the memoryless models do not).
    pub fn stateful(&self) -> bool {
        matches!(self, LossModel::GilbertElliott { .. })
    }
}

/// Runtime state for stateful loss models (one per link direction).
#[derive(Debug, Clone, Copy, Default)]
pub struct LossState {
    /// Gilbert–Elliott: currently in the bad state.
    pub in_bad: bool,
}

impl LossModel {
    /// Decide whether a packet of `len` bytes is lost.
    pub fn lose(&self, rng: &mut SimRng, len: usize, state: &mut LossState) -> bool {
        match *self {
            LossModel::None => false,
            LossModel::Random(p) => rng.chance(p),
            LossModel::Ber(ber) => {
                // mmt-lint: allow(F1, "exact comparison against the 0.0 constant; no rounding involved")
                if ber <= 0.0 {
                    return false;
                }
                let bits = (len * 8) as f64;
                // P(loss) = 1 - (1-ber)^bits, computed stably in log space.
                // mmt-lint: allow(F1, "ln/exp are libm-backed (documented hazard): bit-stable per platform, digest baselines recorded on the pinned CI libm")
                let p = 1.0 - (bits * (1.0 - ber).ln()).exp();
                rng.chance(p)
            }
            LossModel::GilbertElliott {
                p_good,
                p_bad,
                to_bad,
                to_good,
            } => {
                // Transition first, then sample in the new state.
                if state.in_bad {
                    if rng.chance(to_good) {
                        state.in_bad = false;
                    }
                } else if rng.chance(to_bad) {
                    state.in_bad = true;
                }
                rng.chance(if state.in_bad { p_bad } else { p_good })
            }
        }
    }
}

/// Static description of a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Serialization rate.
    pub bandwidth: Bandwidth,
    /// One-way propagation delay.
    pub propagation: Time,
    /// Maximum frame size accepted (larger packets are dropped and counted;
    /// DAQ paths are engineered so this never fires, §2.1).
    pub mtu: usize,
    /// Loss model applied at the receiving end.
    pub loss: LossModel,
    /// Output queue discipline.
    pub queue: QueueSpec,
    /// Fault injection attached to this direction (default: none).
    pub fault: FaultSpec,
}

impl LinkSpec {
    /// A lossless jumbo-MTU link with a default FIFO.
    pub fn new(bandwidth: Bandwidth, propagation: Time) -> LinkSpec {
        LinkSpec {
            bandwidth,
            propagation,
            mtu: 9018, // jumbo payload + Ethernet header
            loss: LossModel::None,
            queue: QueueSpec::default_fifo(),
            fault: FaultSpec::none(),
        }
    }

    /// Set the loss model.
    #[must_use]
    pub fn with_loss(mut self, loss: LossModel) -> LinkSpec {
        self.loss = loss;
        self
    }

    /// Set the MTU.
    #[must_use]
    pub fn with_mtu(mut self, mtu: usize) -> LinkSpec {
        self.mtu = mtu;
        self
    }

    /// Set the queue discipline.
    #[must_use]
    pub fn with_queue(mut self, queue: QueueSpec) -> LinkSpec {
        self.queue = queue;
        self
    }

    /// Attach a fault-injection spec.
    #[must_use]
    pub fn with_fault(mut self, fault: FaultSpec) -> LinkSpec {
        self.fault = fault;
        self
    }
}

/// Per-link statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets handed to the link by the sender.
    pub offered_packets: u64,
    /// Bytes handed to the link by the sender.
    pub offered_bytes: u64,
    /// Packets fully serialized onto the wire.
    pub tx_packets: u64,
    /// Bytes fully serialized onto the wire.
    pub tx_bytes: u64,
    /// Packets delivered to the far end.
    pub delivered_packets: u64,
    /// Packets dropped because they exceeded the MTU.
    pub mtu_drops: u64,
    /// Packets dropped by the output queue.
    pub queue_drops: u64,
    /// Packets lost to corruption in flight.
    pub corruption_losses: u64,
    /// Packets lost to link outages (fault injection).
    pub flap_drops: u64,
    /// Control-plane packets dropped by selective control loss.
    pub control_drops: u64,
    /// Duplicate copies injected by the fault layer.
    pub dup_injected: u64,
    /// Packets held back for reordering by the fault layer.
    pub reordered: u64,
    /// Nanoseconds the transmitter spent busy (for utilization).
    pub busy_ns: u64,
}

impl LinkStats {
    /// Link utilization over `elapsed` (0.0–1.0).
    pub fn utilization(&self, elapsed: Time) -> f64 {
        if elapsed == Time::ZERO {
            // mmt-lint: allow(F1, "report-side ratio; never enters the sim or its digests")
            0.0
        } else {
            // mmt-lint: allow(F1, "report-side ratio; never enters the sim or its digests")
            self.busy_ns as f64 / elapsed.as_nanos() as f64
        }
    }

    /// Achieved throughput over `elapsed`, in bits per second.
    pub fn throughput_bps(&self, elapsed: Time) -> f64 {
        if elapsed == Time::ZERO {
            // mmt-lint: allow(F1, "report-side ratio; never enters the sim or its digests")
            0.0
        } else {
            // mmt-lint: allow(F1, "report-side ratio; never enters the sim or its digests")
            self.tx_bytes as f64 * 8.0 / elapsed.as_secs_f64()
        }
    }
}

/// Runtime state of one unidirectional link.
///
/// Fields sit in declaration order (`repr(C)`) with everything a
/// packet's hop reads or writes first: the busy flag, the two cached spec
/// tests, the destination, rate, propagation, MTU, the six per-packet
/// counters, and the queue's count and capacity (which lead
/// [`TransmitQueue`]). That is the first 120 bytes: two cache lines, or
/// three where a link straddles one. (`align(64)` would guarantee two,
/// but measured no faster and ~85 B/flow more fleet RSS: the allocator
/// cannot grow an over-aligned `Vec<Link>` in place.) The loss model and
/// its stream, the fault box, the rare counters and the source (crash
/// flushes and exports only) follow. A link without faults holds no
/// fault spec or state at all: one null pointer.
#[derive(Debug)]
#[repr(C)]
pub(crate) struct Link {
    /// Whether the transmitter is serializing a packet. While it is not,
    /// the queue is empty.
    pub(crate) busy: bool,
    /// `loss == LossModel::None`, fixed at construction.
    pub(crate) lossless: bool,
    pub(crate) dst_node: usize,
    pub(crate) dst_port: usize,
    pub(crate) bandwidth: Bandwidth,
    pub(crate) propagation: Time,
    pub(crate) mtu: usize,
    pub(crate) offered_packets: u64,
    pub(crate) offered_bytes: u64,
    pub(crate) tx_packets: u64,
    pub(crate) tx_bytes: u64,
    pub(crate) delivered_packets: u64,
    pub(crate) busy_ns: u64,
    pub(crate) queue: TransmitQueue,
    pub(crate) loss: LossModel,
    pub(crate) rng: SimRng,
    pub(crate) loss_state: LossState,
    /// The fault spec and its state, only where the spec injects
    /// something.
    pub(crate) fault: Option<Box<(FaultSpec, FaultState)>>,
    pub(crate) mtu_drops: u64,
    pub(crate) queue_drops: u64,
    pub(crate) corruption_losses: u64,
    pub(crate) flap_drops: u64,
    pub(crate) control_drops: u64,
    pub(crate) dup_injected: u64,
    pub(crate) reordered: u64,
    pub(crate) src_node: usize,
}

impl Link {
    /// Create the runtime state for the simulator's `index`-th link,
    /// forking its random streams from `streams`.
    pub(crate) fn new(
        spec: LinkSpec,
        src_node: usize,
        dst_node: usize,
        dst_port: usize,
        index: usize,
        streams: &mut SimRng,
    ) -> Link {
        // The fault stream is frozen-forked BEFORE the loss fork advances
        // the parent, so pre-fault seeds reproduce their exact loss
        // sequences on every link. A frozen fork leaves the parent as it
        // was, so a fault-free link skips it and changes no stream.
        let fault = (!spec.fault.is_none()).then(|| {
            let rng = streams.fork_frozen(index as u64 + 0xFA17_0000);
            Box::new((spec.fault, FaultState::new(rng)))
        });
        let rng = streams.fork(index as u64 + 0x1000);
        Link {
            busy: false,
            lossless: spec.loss == LossModel::None,
            dst_node,
            dst_port,
            bandwidth: spec.bandwidth,
            propagation: spec.propagation,
            mtu: spec.mtu,
            offered_packets: 0,
            offered_bytes: 0,
            tx_packets: 0,
            tx_bytes: 0,
            delivered_packets: 0,
            busy_ns: 0,
            queue: TransmitQueue::new(spec.queue),
            loss: spec.loss,
            rng,
            loss_state: LossState::default(),
            fault,
            mtu_drops: 0,
            queue_drops: 0,
            corruption_losses: 0,
            flap_drops: 0,
            control_drops: 0,
            dup_injected: 0,
            reordered: 0,
            src_node,
        }
    }

    /// A snapshot of the link's counters.
    pub(crate) fn stats(&self) -> LinkStats {
        LinkStats {
            offered_packets: self.offered_packets,
            offered_bytes: self.offered_bytes,
            tx_packets: self.tx_packets,
            tx_bytes: self.tx_bytes,
            delivered_packets: self.delivered_packets,
            mtu_drops: self.mtu_drops,
            queue_drops: self.queue_drops,
            corruption_losses: self.corruption_losses,
            flap_drops: self.flap_drops,
            control_drops: self.control_drops,
            dup_injected: self.dup_injected,
            reordered: self.reordered,
            busy_ns: self.busy_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_models() {
        let mut rng = SimRng::new(1);
        let mut st = LossState::default();
        assert!(!LossModel::None.lose(&mut rng, 9000, &mut st));
        // Random(1.0) always loses.
        assert!(LossModel::Random(1.0).lose(&mut rng, 1, &mut st));
        // BER 0 never loses.
        assert!(!LossModel::Ber(0.0).lose(&mut rng, 9000, &mut st));
        // High BER on a long frame virtually always loses.
        let mut hits = 0;
        for _ in 0..100 {
            if LossModel::Ber(1e-3).lose(&mut rng, 9000, &mut st) {
                hits += 1;
            }
        }
        assert!(hits > 95, "{hits}");
        // Longer packets are more exposed at a given BER.
        let mut rng2 = SimRng::new(2);
        let short: usize = (0..20_000)
            .filter(|_| LossModel::Ber(1e-6).lose(&mut rng2, 100, &mut st))
            .count();
        let long: usize = (0..20_000)
            .filter(|_| LossModel::Ber(1e-6).lose(&mut rng2, 9000, &mut st))
            .count();
        assert!(long > short * 5, "short={short} long={long}");
    }

    #[test]
    fn gilbert_elliott_loss_is_bursty_with_right_average() {
        let avg = 0.01;
        let model = LossModel::bursty(avg, 20.0);
        let mut rng = SimRng::new(7);
        let mut st = LossState::default();
        let n = 2_000_000;
        let mut losses = 0u64;
        let mut runs = 0u64; // maximal loss runs
        let mut prev_lost = false;
        for _ in 0..n {
            let lost = model.lose(&mut rng, 1500, &mut st);
            if lost {
                losses += 1;
                if !prev_lost {
                    runs += 1;
                }
            }
            prev_lost = lost;
        }
        let measured = losses as f64 / n as f64;
        assert!((measured - avg).abs() / avg < 0.25, "avg {measured}");
        // Bursty: mean run length well above 1 (independent loss ≈ 1.01).
        let mean_run = losses as f64 / runs as f64;
        assert!(mean_run > 1.5, "mean run {mean_run}");
        assert!(model.stateful());
        assert!(!LossModel::Random(0.5).stateful());
    }

    #[test]
    fn spec_builders() {
        let spec = LinkSpec::new(Bandwidth::gbps(100), Time::from_millis(10))
            .with_loss(LossModel::Random(0.1))
            .with_mtu(1500)
            .with_queue(QueueSpec::DropTailFifo {
                capacity_bytes: 1000,
            });
        assert_eq!(spec.mtu, 1500);
        assert_eq!(spec.loss, LossModel::Random(0.1));
    }

    #[test]
    fn a_hop_reads_the_first_120_bytes_of_a_link() {
        use std::mem::{offset_of, size_of};
        // Under `repr(C)` a field declared ahead of the queue, hot or
        // cold, moves this; the queue leads with its count and spec
        // (`queue::tests`).
        let hot_end = offset_of!(Link, queue) + size_of::<usize>() + size_of::<QueueSpec>();
        assert_eq!(hot_end, 120);
    }

    #[test]
    fn a_fault_free_link_is_296_bytes() {
        // Its fault spec and state are one null pointer, not 136 bytes.
        assert_eq!(std::mem::size_of::<Link>(), 296);
    }

    #[test]
    fn stats_utilization() {
        let stats = LinkStats {
            busy_ns: 500,
            tx_bytes: 125, // 1000 bits
            ..LinkStats::default()
        };
        assert!((stats.utilization(Time::from_nanos(1000)) - 0.5).abs() < 1e-9);
        assert_eq!(stats.utilization(Time::ZERO), 0.0);
        let bps = stats.throughput_bps(Time::from_secs(1));
        assert!((bps - 1000.0).abs() < 1e-9);
        assert_eq!(stats.throughput_bps(Time::ZERO), 0.0);
    }
}
