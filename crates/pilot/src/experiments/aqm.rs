//! **A1/A2** — queueing ablations for the design choices in DESIGN.md.
//!
//! * **A1 — deadline-aware AQM**: §5.3 calls explicit deadlines "an input
//!   to active queue management", and Fig. 2's age-sensitivity icon means
//!   "the aging of transported data follows a pre-determined policy".
//!   When a bottleneck must shed, shedding already-aged packets first
//!   preserves the information that is still worth carrying. The ablation
//!   overloads a link with a 50/50 mix of aged and fresh packets and
//!   compares fresh-traffic survival under drop-tail vs deadline-aware
//!   queues.
//! * **A2 — priority for age-sensitive streams**: §5.3 "we can prioritize
//!   the processing of age-sensitive data". A 5.4 Gb/s alert burst shares
//!   a 10 Gb/s link with a bulk elephant; with the MMT priority class
//!   mapped to a strict-priority band the alert latency stays at
//!   propagation delay, without it the alerts queue behind the elephant.

use mmt_dataplane::classify;
use mmt_dataplane::parser::{build_eth_mmt_frame, FrameView};
use mmt_netsim::{Bandwidth, LinkSpec, NodeId, Packet, QueueSpec, Simulator, Sink, Time};
use mmt_wire::mmt::{ExperimentId, MmtRepr};
use mmt_wire::EthernetAddress;

/// A1 result: fresh-traffic survival under overload.
#[derive(Debug, Clone, Copy)]
pub struct AqmResult {
    /// Queue discipline name.
    pub queue: &'static str,
    /// Fresh packets delivered / offered.
    pub fresh_delivery_ratio: f64,
    /// Aged packets delivered / offered.
    pub aged_delivery_ratio: f64,
    /// Total drops at the bottleneck.
    pub drops: u64,
}

fn mixed_frame(aged: bool, index: u64) -> Packet {
    let repr = MmtRepr::data(ExperimentId::new(2, 0))
        .with_sequence(index)
        .with_age(if aged { 60_000_000 } else { 1_000 }, aged);
    let mut payload = vec![0u8; 2048];
    payload[..8].copy_from_slice(&index.to_be_bytes());
    Packet::new(build_eth_mmt_frame(
        EthernetAddress([2, 0, 0, 0, 0, 1]),
        EthernetAddress([2, 0, 0, 0, 0, 2]),
        &repr,
        &payload,
    ))
}

fn count_kind(sim: &Simulator, node: NodeId, want_aged: bool) -> u64 {
    sim.local_deliveries(node)
        .iter()
        .filter(|(_, pkt)| {
            FrameView::of(pkt)
                .mmt_repr()
                .and_then(|r| r.age())
                .map(|a| a.aged)
                == Some(want_aged)
        })
        .count() as u64
}

/// Run A1 with the given queue discipline.
pub fn run_aqm(deadline_aware: bool, packets_per_kind: usize, seed: u64) -> AqmResult {
    let mut sim = Simulator::new(seed);
    struct Blast {
        n: usize,
    }
    impl mmt_netsim::Node for Blast {
        fn on_packet(&mut self, _: &mut mmt_netsim::Context<'_>, _: usize, _: Packet) {}
        fn on_start(&mut self, ctx: &mut mmt_netsim::Context<'_>) {
            // Interleave aged and fresh, all at once: a worst-case burst
            // far above the queue capacity.
            for i in 0..self.n {
                ctx.send(0, mixed_frame(false, i as u64));
                ctx.send(0, mixed_frame(true, (self.n + i) as u64));
            }
        }
    }
    let src = sim.add_node(
        "src",
        Box::new(Blast {
            n: packets_per_kind,
        }),
    );
    let dst = sim.add_node("dst", Box::new(Sink));
    // A queue that can hold all the fresh packets (with headroom) but
    // not the aged ones too: shedding policy decides who survives.
    let capacity = packets_per_kind * 2100 * 12 / 10;
    let queue = if deadline_aware {
        QueueSpec::DeadlineAware {
            capacity_bytes: capacity,
        }
    } else {
        QueueSpec::DropTailFifo {
            capacity_bytes: capacity,
        }
    };
    let link = sim.add_oneway(
        src,
        0,
        dst,
        0,
        LinkSpec::new(Bandwidth::gbps(1), Time::from_micros(10)).with_queue(queue),
    );
    if deadline_aware {
        sim.set_link_classifier(link, classify::aged_shed_classifier);
    }
    sim.run();
    let fresh = count_kind(&sim, dst, false);
    let aged = count_kind(&sim, dst, true);
    let drops = sim.link_queue_dropped(link);
    AqmResult {
        queue: if deadline_aware {
            "deadline-aware"
        } else {
            "drop-tail"
        },
        fresh_delivery_ratio: fresh as f64 / packets_per_kind as f64,
        aged_delivery_ratio: aged as f64 / packets_per_kind as f64,
        drops,
    }
}

/// A2 result: alert latency sharing a link with a bulk elephant.
#[derive(Debug, Clone, Copy)]
pub struct PriorityResult {
    /// Queue discipline name.
    pub queue: &'static str,
    /// Worst alert delivery latency.
    pub alert_max_latency: Time,
    /// Alerts delivered.
    pub alerts_delivered: u64,
}

/// Run A2: a paced bulk stream saturating ~90% of a 10 Gb/s link plus a
/// burst of priority-class alerts arriving mid-stream.
pub fn run_priority(strict_priority: bool, seed: u64) -> PriorityResult {
    let mut sim = Simulator::new(seed);
    struct Mix;
    impl mmt_netsim::Node for Mix {
        fn on_packet(&mut self, _: &mut mmt_netsim::Context<'_>, _: usize, _: Packet) {}
        fn on_start(&mut self, ctx: &mut mmt_netsim::Context<'_>) {
            // 2000 bulk packets of 8 KiB back to back (the elephant's
            // queue backlog)…
            for i in 0..2000u64 {
                let repr = MmtRepr::data(ExperimentId::new(2, 0)).with_sequence(i);
                let payload = vec![0u8; 8192];
                ctx.send(
                    0,
                    Packet::new(build_eth_mmt_frame(
                        EthernetAddress([2, 0, 0, 0, 0, 1]),
                        EthernetAddress([2, 0, 0, 0, 0, 2]),
                        &repr,
                        &payload,
                    )),
                );
            }
            // …then 20 alert packets with priority class 3.
            for i in 0..20u64 {
                let repr = MmtRepr::data(ExperimentId::new(5, 0))
                    .with_sequence(i)
                    .with_priority(3);
                let payload = vec![0u8; 2048];
                ctx.send(
                    0,
                    Packet::new(build_eth_mmt_frame(
                        EthernetAddress([2, 0, 0, 0, 0, 1]),
                        EthernetAddress([2, 0, 0, 0, 0, 2]),
                        &repr,
                        &payload,
                    )),
                );
            }
        }
    }
    let src = sim.add_node("src", Box::new(Mix));
    let dst = sim.add_node("dst", Box::new(Sink));
    let queue = if strict_priority {
        QueueSpec::StrictPriority {
            capacity_bytes: 64 * 1024 * 1024,
        }
    } else {
        QueueSpec::DropTailFifo {
            capacity_bytes: 64 * 1024 * 1024,
        }
    };
    let link = sim.add_oneway(
        src,
        0,
        dst,
        0,
        LinkSpec::new(Bandwidth::gbps(10), Time::from_micros(10)).with_queue(queue),
    );
    if strict_priority {
        sim.set_link_classifier(link, classify::priority_class_classifier);
    }
    sim.run();
    let mut worst = Time::ZERO;
    let mut alerts = 0u64;
    for (t, pkt) in sim.local_deliveries(dst) {
        let parsed = FrameView::of(pkt);
        if parsed.mmt_repr().map(|r| r.experiment.experiment()) == Some(5) {
            alerts += 1;
            worst = worst.max(*t);
        }
    }
    PriorityResult {
        queue: if strict_priority {
            "strict-priority"
        } else {
            "drop-tail FIFO"
        },
        alert_max_latency: worst,
        alerts_delivered: alerts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_aware_saves_the_fresh_traffic() {
        let droptail = run_aqm(false, 400, 1);
        let aware = run_aqm(true, 400, 1);
        assert!(droptail.drops > 0 && aware.drops > 0);
        // Drop-tail sheds blindly: both kinds suffer roughly equally.
        assert!(droptail.fresh_delivery_ratio < 0.8, "{droptail:?}");
        // Deadline-aware sheds aged first: fresh survives (nearly) whole.
        assert!(aware.fresh_delivery_ratio > 0.95, "{aware:?}");
        assert!(
            aware.aged_delivery_ratio < droptail.aged_delivery_ratio,
            "aware {aware:?} vs droptail {droptail:?}"
        );
    }

    #[test]
    fn priority_band_shields_alert_latency() {
        let fifo = run_priority(false, 2);
        let prio = run_priority(true, 2);
        assert_eq!(fifo.alerts_delivered, 20);
        assert_eq!(prio.alerts_delivered, 20);
        // Behind 2000 × 8 KiB at 10 Gb/s the FIFO alerts wait ~13 ms;
        // the priority band cuts that by an order of magnitude.
        assert!(fifo.alert_max_latency > Time::from_millis(10), "{fifo:?}");
        assert!(
            prio.alert_max_latency * 5 < fifo.alert_max_latency,
            "prio {prio:?} vs fifo {fifo:?}"
        );
    }
}
