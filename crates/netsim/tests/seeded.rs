//! Seeded randomized tests for the simulator core: determinism,
//! conservation, and timing laws that every experiment implicitly relies
//! on. Cases are generated with the simulator's own `SimRng`, so every
//! failure replays exactly from the constants below.

use mmt_netsim::{
    Bandwidth, Context, FaultSpec, LinkSpec, LossModel, Node, Packet, PeriodicOutage, PortId,
    QueueSpec, SimRng, Simulator, Sink, Time,
};

struct Burst {
    sizes: Vec<usize>,
}
impl Node for Burst {
    fn on_packet(&mut self, _: &mut Context<'_>, _: PortId, _: Packet) {}
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for &s in &self.sizes {
            ctx.send(0, Packet::new(vec![0u8; s]));
        }
    }
}

fn gen_sizes(rng: &mut SimRng, min: usize, max: usize, count_max: u64) -> Vec<usize> {
    let n = 1 + rng.next_bounded(count_max) as usize;
    (0..n)
        .map(|_| min + rng.next_bounded((max - min) as u64) as usize)
        .collect()
}

fn run_once(
    seed: u64,
    sizes: &[usize],
    loss: f64,
    rate_gbps: u64,
    prop_us: u64,
) -> (usize, Vec<u64>, Time) {
    let mut sim = Simulator::new(seed);
    let src = sim.add_node(
        "src",
        Box::new(Burst {
            sizes: sizes.to_vec(),
        }),
    );
    let dst = sim.add_node("dst", Box::new(Sink));
    sim.add_oneway(
        src,
        0,
        dst,
        0,
        LinkSpec::new(Bandwidth::gbps(rate_gbps), Time::from_micros(prop_us))
            .with_loss(LossModel::Random(loss)),
    );
    sim.run();
    let arrivals: Vec<u64> = sim
        .local_deliveries(dst)
        .iter()
        .map(|(t, _)| t.as_nanos())
        .collect();
    (sim.local_deliveries(dst).len(), arrivals, sim.now())
}

/// Identical seeds yield byte-identical outcomes (the reproducibility
/// every EXPERIMENTS.md number rests on).
#[test]
fn simulation_is_deterministic() {
    let mut rng = SimRng::new(0x5EED_0001);
    for _ in 0..30 {
        let seed = rng.next_u64();
        let sizes = gen_sizes(&mut rng, 64, 9000, 59);
        let loss = rng.next_f64() * 0.5;
        let a = run_once(seed, &sizes, loss, 10, 50);
        let b = run_once(seed, &sizes, loss, 10, 50);
        assert_eq!(a, b);
    }
}

/// Conservation: delivered + corruption losses + queue drops + MTU
/// drops == offered, on every link.
#[test]
fn link_conserves_packets() {
    let mut rng = SimRng::new(0x5EED_0002);
    for _ in 0..30 {
        let seed = rng.next_u64();
        let sizes = gen_sizes(&mut rng, 64, 12_000, 79);
        let loss = rng.next_f64() * 0.3;
        let cap_kb = 1 + rng.next_bounded(63) as usize;
        let mut sim = Simulator::new(seed);
        let src = sim.add_node(
            "src",
            Box::new(Burst {
                sizes: sizes.clone(),
            }),
        );
        let dst = sim.add_node("dst", Box::new(Sink));
        let link = sim.add_oneway(
            src,
            0,
            dst,
            0,
            LinkSpec::new(Bandwidth::gbps(1), Time::from_micros(10))
                .with_loss(LossModel::Random(loss))
                .with_queue(QueueSpec::DropTailFifo {
                    capacity_bytes: cap_kb * 1024,
                }),
        );
        sim.run();
        let s = sim.link_stats(link);
        assert_eq!(s.offered_packets, sizes.len() as u64);
        assert_eq!(
            s.delivered_packets + s.corruption_losses + s.queue_drops + s.mtu_drops,
            s.offered_packets
        );
        assert_eq!(sim.local_deliveries(dst).len() as u64, s.delivered_packets);
    }
}

/// Timing law: every arrival is ≥ serialization + propagation after
/// its send, and arrivals preserve FIFO order on one link.
#[test]
fn arrivals_respect_physics() {
    let mut rng = SimRng::new(0x5EED_0003);
    for _ in 0..30 {
        let sizes = gen_sizes(&mut rng, 64, 9000, 39);
        let rate_gbps = 1 + rng.next_bounded(99);
        let prop_us = 1 + rng.next_bounded(999);
        let (_, arrivals, _) = run_once(1, &sizes, 0.0, rate_gbps, prop_us);
        assert_eq!(arrivals.len(), sizes.len());
        let bw = Bandwidth::gbps(rate_gbps);
        let prop_ns = prop_us * 1_000;
        // FIFO order and a physical lower bound per packet.
        let mut cursor = 0u64; // serialization completion time
        for (i, &at) in arrivals.iter().enumerate() {
            cursor += bw.tx_time(sizes[i]).as_nanos();
            assert_eq!(at, cursor + prop_ns, "packet {i} timing");
        }
    }
}

/// Node that emits alternating data / control packets (even index =
/// data, odd = control), for exercising selective control loss.
struct MixedBurst {
    count: usize,
}
impl Node for MixedBurst {
    fn on_packet(&mut self, _: &mut Context<'_>, _: PortId, _: Packet) {}
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for i in 0..self.count {
            let mut pkt = Packet::new(vec![0u8; 1000]);
            pkt.meta.control = i % 2 == 1;
            ctx.send(0, pkt);
        }
    }
}

fn fault_topology(seed: u64, sizes: &[usize], fault: FaultSpec) -> Simulator {
    let mut sim = Simulator::new(seed);
    let src = sim.add_node(
        "src",
        Box::new(Burst {
            sizes: sizes.to_vec(),
        }),
    );
    let dst = sim.add_node("dst", Box::new(Sink));
    sim.add_oneway(
        src,
        0,
        dst,
        0,
        LinkSpec::new(Bandwidth::gbps(10), Time::from_micros(50)).with_fault(fault),
    );
    sim.run();
    sim
}

/// Attaching `FaultSpec::none()` leaves every outcome byte-identical to
/// a link with no fault spec at all (the fault layer is transparent
/// when idle).
#[test]
fn none_fault_is_transparent() {
    let mut rng = SimRng::new(0x5EED_0010);
    for _ in 0..10 {
        let seed = rng.next_u64();
        let sizes = gen_sizes(&mut rng, 64, 9000, 49);
        let loss = rng.next_f64() * 0.3;
        let plain = run_once(seed, &sizes, loss, 10, 50);
        let mut sim = Simulator::new(seed);
        let src = sim.add_node(
            "src",
            Box::new(Burst {
                sizes: sizes.clone(),
            }),
        );
        let dst = sim.add_node("dst", Box::new(Sink));
        sim.add_oneway(
            src,
            0,
            dst,
            0,
            LinkSpec::new(Bandwidth::gbps(10), Time::from_micros(50))
                .with_loss(LossModel::Random(loss))
                .with_fault(FaultSpec::none()),
        );
        sim.run();
        let arrivals: Vec<u64> = sim
            .local_deliveries(dst)
            .iter()
            .map(|(t, _)| t.as_nanos())
            .collect();
        let faulted = (sim.local_deliveries(dst).len(), arrivals, sim.now());
        assert_eq!(plain, faulted, "seed {seed:#x}");
    }
}

/// Conservation still holds with every fault armed: each offered packet
/// is delivered, dropped by a flap, dropped as control, lost to
/// corruption, or queue/MTU-dropped — and injected duplicates add to
/// deliveries exactly once each.
#[test]
fn faulted_link_conserves_packets() {
    let mut rng = SimRng::new(0x5EED_0011);
    for _ in 0..20 {
        let seed = rng.next_u64();
        let sizes = gen_sizes(&mut rng, 64, 9000, 99);
        let fault = FaultSpec::none()
            .with_reorder(rng.next_f64() * 0.5, Time::from_micros(200))
            .with_duplication(rng.next_f64() * 0.5, Time::from_micros(10))
            .with_jitter(Time::from_micros(1 + rng.next_bounded(100)))
            .with_random_outage(Time::from_micros(500), Time::from_micros(100));
        let sim = fault_topology(seed, &sizes, fault);
        let s = sim.link_stats(mmt_netsim::LinkId(0));
        assert_eq!(s.offered_packets, sizes.len() as u64, "seed {seed:#x}");
        assert_eq!(
            s.delivered_packets
                + s.flap_drops
                + s.control_drops
                + s.corruption_losses
                + s.queue_drops
                + s.mtu_drops,
            s.offered_packets + s.dup_injected,
            "seed {seed:#x}"
        );
    }
}

/// A duplication probability of 1.0 delivers every packet exactly twice.
#[test]
fn full_duplication_doubles_deliveries() {
    let sizes = vec![1000; 50];
    let fault = FaultSpec::none().with_duplication(1.0, Time::from_micros(5));
    let sim = fault_topology(7, &sizes, fault);
    let s = sim.link_stats(mmt_netsim::LinkId(0));
    assert_eq!(s.dup_injected, 50);
    assert_eq!(s.delivered_packets, 100);
}

/// A scheduled outage covering the whole run drops everything; one that
/// never starts drops nothing.
#[test]
fn scheduled_outage_windows_gate_delivery() {
    let sizes = vec![1000; 20];
    let always_down = FaultSpec::none().with_scheduled_outage(PeriodicOutage {
        first_down: Time::ZERO,
        down_for: Time::from_secs(1000),
        period: Time::from_secs(2000),
    });
    let sim = fault_topology(7, &sizes, always_down);
    let s = sim.link_stats(mmt_netsim::LinkId(0));
    assert_eq!(s.flap_drops, 20);
    assert_eq!(s.delivered_packets, 0);

    let never_down = FaultSpec::none().with_scheduled_outage(PeriodicOutage {
        first_down: Time::from_secs(1000),
        down_for: Time::from_secs(1),
        period: Time::from_secs(2000),
    });
    let sim = fault_topology(7, &sizes, never_down);
    let s = sim.link_stats(mmt_netsim::LinkId(0));
    assert_eq!(s.flap_drops, 0);
    assert_eq!(s.delivered_packets, 20);
}

/// Control loss of 1.0 drops every control packet and no data packet.
#[test]
fn control_loss_spares_data_plane() {
    let mut sim = Simulator::new(11);
    let src = sim.add_node("src", Box::new(MixedBurst { count: 40 }));
    let dst = sim.add_node("dst", Box::new(Sink));
    sim.add_oneway(
        src,
        0,
        dst,
        0,
        LinkSpec::new(Bandwidth::gbps(10), Time::from_micros(50))
            .with_fault(FaultSpec::none().with_control_loss(1.0)),
    );
    sim.run();
    let s = sim.link_stats(mmt_netsim::LinkId(0));
    assert_eq!(s.control_drops, 20, "all 20 control packets dropped");
    assert_eq!(s.delivered_packets, 20, "all 20 data packets delivered");
}

/// Faulted runs replay byte-identically from the same seed.
#[test]
fn faulted_simulation_is_deterministic() {
    let mut rng = SimRng::new(0x5EED_0012);
    for _ in 0..10 {
        let seed = rng.next_u64();
        let sizes = gen_sizes(&mut rng, 64, 9000, 49);
        let fault = FaultSpec::none()
            .with_reorder(0.3, Time::from_micros(100))
            .with_duplication(0.2, Time::from_micros(10))
            .with_jitter(Time::from_micros(20))
            .with_random_outage(Time::from_millis(1), Time::from_micros(200))
            .with_control_loss(0.5);
        let a = fault_topology(seed, &sizes, fault);
        let b = fault_topology(seed, &sizes, fault);
        let da: Vec<u64> = a
            .local_deliveries(mmt_netsim::NodeId(1))
            .iter()
            .map(|(t, _)| t.as_nanos())
            .collect();
        let db: Vec<u64> = b
            .local_deliveries(mmt_netsim::NodeId(1))
            .iter()
            .map(|(t, _)| t.as_nanos())
            .collect();
        assert_eq!(da, db, "seed {seed:#x}");
        assert_eq!(
            a.link_stats(mmt_netsim::LinkId(0)),
            b.link_stats(mmt_netsim::LinkId(0)),
            "seed {seed:#x}"
        );
    }
}

/// The Gilbert–Elliott model's long-run loss matches its configured
/// average across seeds.
#[test]
fn bursty_loss_average_holds() {
    let mut rng = SimRng::new(0x5EED_0004);
    for _ in 0..8 {
        let seed = rng.next_u64();
        let avg = 0.005 + rng.next_f64() * 0.045;
        let model = LossModel::bursty(avg, 10.0);
        let mut loss_rng = SimRng::new(seed);
        let mut state = mmt_netsim::LossState::default();
        let n = 300_000u32;
        let losses = (0..n)
            .filter(|_| model.lose(&mut loss_rng, 1500, &mut state))
            .count();
        let measured = losses as f64 / n as f64;
        assert!(
            (measured - avg).abs() < avg * 0.5 + 0.002,
            "configured {avg}, measured {measured}"
        );
    }
}
