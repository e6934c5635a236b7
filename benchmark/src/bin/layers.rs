//! The per-layer probes: ns/op of each layer's public functions, timed
//! from outside in calibrated loops.
//!
//! This is a binary of its own, built after the end-to-end binary and
//! run by it as a child: when an API change in a probed layer breaks this
//! file, the end-to-end metrics still build, run and print, and the layer
//! block is reported as missing with the error.
//!
//! Each probe runs for three windows of the per-probe budget and prints
//! the median ns/op as `metric <name> <value> <unit>`. Probes of pure
//! computation use on-CPU time; the socket probe uses wall time.

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::net::UdpSocket;
use std::process::ExitCode;

use mmt_benchmark::{flag_num, median, Basis, Clock, Metric};
use mmt_core::buffer::{PORT_DAQ, PORT_WAN};
use mmt_core::controller::{ControllerConfig, HealthSample, ModeController};
use mmt_core::machine::{Input, Machine, Output};
use mmt_core::{
    FlowTable, MmtReceiver, MmtSender, ReceiverConfig, RetransmitBuffer, SenderConfig, SeqTracker,
};
use mmt_dataplane::action::Intrinsics;
use mmt_dataplane::parser::{build_eth_mmt_frame, ParsedPacket};
use mmt_dataplane::programs::{self, BorderConfig};
use mmt_io::{FaultInjector, FaultPlan, FaultySocket, ReceiverSide, SenderSide};
use mmt_netsim::{
    Bandwidth, Context, LinkSpec, LossModel, Node, Packet, PacketArena, PortId, Simulator, Time,
    TimerWheel,
};
use mmt_pilot::{Pilot, PilotConfig};
use mmt_telemetry::{MetricRegistry, QuantileSketch};
use mmt_wire::mmt::{CoreHeader, ExperimentId, Features, MmtRepr};
use mmt_wire::{EthernetAddress, Ipv4Address};

/// Ops per timed stretch of a nanosecond-scale probe: long enough that
/// the two clock reads around it (~6 µs each on-CPU) stay under 1–2 %.
const SMALL_BATCH: u64 = 65_536;
/// Frames per timed stretch of the 8 KiB-frame probes (2 MB of frames).
const FRAME_BATCH: usize = 256;
const WINDOWS: usize = 3;

/// Accumulates timed stretches for the metrics one probe body feeds.
struct Lanes {
    clock: Clock,
    basis: Basis,
    ns: Vec<u64>,
    ops: Vec<u64>,
}

impl Lanes {
    /// Time `f`, charging its duration and `ops` operations to `lane`.
    fn time<T>(&mut self, lane: usize, ops: u64, f: impl FnOnce() -> T) -> T {
        let t0 = self.clock.now_ns(self.basis);
        let out = f();
        self.ns[lane] += self.clock.now_ns(self.basis).saturating_sub(t0);
        self.ops[lane] += ops;
        out
    }
}

struct Prober {
    clock: Clock,
    /// Wall nanoseconds one window of one probe may take.
    window_ns: u64,
    out: Vec<Metric>,
}

impl Prober {
    /// Run `body` repeatedly for [`WINDOWS`] windows and record, for each
    /// name, the median over windows of timed ns ÷ ops.
    fn probe(&mut self, names: &[&str], basis: Basis, mut body: impl FnMut(&mut Lanes)) {
        let mut per_lane: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
        for _ in 0..WINDOWS {
            let mut lanes = Lanes {
                clock: self.clock,
                basis,
                ns: vec![0; names.len()],
                ops: vec![0; names.len()],
            };
            let t0 = self.clock.wall_ns();
            loop {
                body(&mut lanes);
                if self.clock.wall_ns() - t0 >= self.window_ns {
                    break;
                }
            }
            for (lane, samples) in per_lane.iter_mut().enumerate() {
                samples.push(lanes.ns[lane] as f64 / lanes.ops[lane].max(1) as f64);
            }
        }
        for (name, samples) in names.iter().zip(&per_lane) {
            // The name's suffix is its unit.
            let (value, unit) = match name.ends_with("_ms") {
                true => (median(samples) / 1e6, "ms"),
                false => (median(samples), "ns"),
            };
            self.out.push(Metric::new(name, value, unit));
        }
    }
}

fn experiment() -> ExperimentId {
    ExperimentId::new(2, 0)
}

/// The mode-2 (WAN) header: every extension the pilot's border adds.
fn wan_repr() -> MmtRepr {
    MmtRepr::data(experiment())
        .with_sequence(42)
        .with_retransmit(Ipv4Address::new(10, 0, 0, 5), 47_000)
        .with_timeliness(1_000_000, Ipv4Address::new(10, 0, 0, 9))
        .with_age(1_500, false)
        .with_flags(Features::ACK_NAK)
}

fn probe_wire(p: &mut Prober) {
    let repr = wan_repr();
    let mut buf = vec![0u8; repr.header_len()];
    p.probe(&["wire.encode_ns"], Basis::Cpu, |l| {
        l.time(0, SMALL_BATCH, || {
            for _ in 0..SMALL_BATCH {
                black_box(repr.encode_into(black_box(&mut buf)).is_ok());
            }
        });
    });
    p.probe(&["wire.decode_ns"], Basis::Cpu, |l| {
        l.time(0, SMALL_BATCH, || {
            for _ in 0..SMALL_BATCH {
                black_box(MmtRepr::decode_from(black_box(&buf)).is_ok());
            }
        });
    });
    let mut frame = repr.emit_with_payload(&[0u8; 64]);
    p.probe(&["wire.age_update_ns"], Basis::Cpu, |l| {
        l.time(0, SMALL_BATCH, || {
            for _ in 0..SMALL_BATCH {
                let mut hdr = CoreHeader::new_unchecked(black_box(&mut frame[..]));
                black_box(hdr.update_age(100, 1_000_000));
            }
        });
    });
}

struct Sink(u64);
impl Node for Sink {
    fn on_packet(&mut self, _: &mut Context<'_>, _: PortId, _: Packet) {
        self.0 += 1;
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Sends its pre-built packets at start, so the timed run holds no
/// payload allocation.
struct Burst(Vec<Packet>);
impl Node for Burst {
    fn on_packet(&mut self, _: &mut Context<'_>, _: PortId, _: Packet) {}
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for pkt in self.0.drain(..) {
            ctx.send(0, pkt);
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn probe_netsim(p: &mut Prober) {
    // Pop the earliest timer and re-arm it one pacing gap later over a
    // standing population, the way the simulator drives the wheel.
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    for i in 0..4096u64 {
        wheel.schedule(i * 25, i);
    }
    p.probe(&["netsim.wheel_ns"], Basis::Cpu, |l| {
        l.time(0, SMALL_BATCH, || {
            for _ in 0..SMALL_BATCH {
                if let Some((at, v)) = wheel.pop() {
                    wheel.schedule(at + 100_000, black_box(v));
                }
            }
        });
    });

    let mut arena = PacketArena::new();
    let header_len = MmtRepr::data(experiment()).with_sequence(0).header_len();
    p.probe(&["netsim.arena_lease_ns"], Basis::Cpu, |l| {
        l.time(0, SMALL_BATCH, || {
            for i in 0..SMALL_BATCH {
                let pkt = arena.frame_virtual(header_len, header_len + 8192, i);
                arena.recycle(black_box(pkt));
            }
        });
    });

    // One packet over one link: enqueue, serialize, propagate, deliver.
    const N: usize = 10_000;
    let mut hop_events = 0.0;
    p.probe(&["netsim.link_hop_ns"], Basis::Cpu, |l| {
        let mut sim = Simulator::new(1);
        let packets = (0..N).map(|_| Packet::new(vec![0u8; 64])).collect();
        let src = sim.add_node("src", Box::new(Burst(packets)));
        let dst = sim.add_node("dst", Box::new(Sink(0)));
        sim.add_oneway(
            src,
            0,
            dst,
            0,
            LinkSpec::new(Bandwidth::gbps(100), Time::from_micros(1)),
        );
        l.time(0, N as u64, || sim.run());
        let delivered = sim.node_as::<Sink>(dst).map_or(0, |s| s.0);
        hop_events = sim.events_processed() as f64 / delivered.max(1) as f64;
    });
    p.out
        .push(Metric::new("netsim.link_hop_events", hop_events, "count"));
}

fn probe_telemetry(p: &mut Prober) {
    let mut sketch = QuantileSketch::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    p.probe(&["telemetry.sketch_record_ns"], Basis::Cpu, |l| {
        l.time(0, SMALL_BATCH, || {
            for _ in 0..SMALL_BATCH {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                sketch.record(black_box(x >> 40));
            }
        });
    });
    black_box(sketch.count());
    let mut reg = MetricRegistry::new();
    p.probe(&["telemetry.counter_add_ns"], Basis::Cpu, |l| {
        l.time(0, SMALL_BATCH, || {
            for _ in 0..SMALL_BATCH {
                reg.counter_add("mmt_probe_total", black_box(&[("node", "dtn1")]), 1);
            }
        });
    });
    black_box(reg.len());
}

fn probe_core_state(p: &mut Prober) {
    p.probe(&["core.seqtrack_record_ns"], Basis::Cpu, |l| {
        let mut t = SeqTracker::new();
        l.time(0, SMALL_BATCH, || {
            for s in 0..SMALL_BATCH {
                black_box(t.record(s));
            }
        });
    });
    // 2 % of sequences arrive late, as on the lossy pilot: each opens a
    // gap and closes it 64 sequences later.
    p.probe(&["core.seqtrack_gap_ns"], Basis::Cpu, |l| {
        let mut t = SeqTracker::new();
        l.time(0, SMALL_BATCH, || {
            for s in 0..SMALL_BATCH {
                if s % 50 != 25 {
                    black_box(t.record(s));
                }
                if s >= 64 && (s - 64) % 50 == 25 {
                    black_box(t.record(s - 64));
                }
            }
        });
        black_box(t.gap_count());
    });
    p.probe(&["core.flowtable_alloc_ns"], Basis::Cpu, |l| {
        let mut table = FlowTable::with_capacity(SMALL_BATCH as usize);
        let mut ids = Vec::with_capacity(SMALL_BATCH as usize);
        l.time(0, SMALL_BATCH, || {
            for _ in 0..SMALL_BATCH {
                if let Some(id) = table.alloc() {
                    table.set_remaining(id, 8);
                    ids.push(id);
                }
            }
            for id in ids.drain(..) {
                black_box(table.release(id));
            }
        });
    });
    let mut controller = ModeController::new(ControllerConfig::default());
    let mut sample = HealthSample {
        wan_tx: 1_000,
        primary_alive: true,
        ..HealthSample::default()
    };
    p.probe(&["core.controller_observe_ns"], Basis::Cpu, |l| {
        l.time(0, SMALL_BATCH, || {
            for i in 0..SMALL_BATCH {
                sample.wan_lost = i % 40;
                black_box(controller.observe(black_box(&sample)).len());
            }
        });
    });
}

fn transmits(out: &mut Vec<Output>, port: PortId) -> Vec<Packet> {
    out.drain(..)
        .filter_map(|o| match o {
            Output::Transmit { port: p, pkt } if p == port => Some(pkt),
            _ => None,
        })
        .collect()
}

/// The protocol machines of the Fig. 4 chain, polled in memory on 8 KiB
/// messages: sender pump, border store-and-upgrade, receiver delivery,
/// and NAK service for the one message in sixteen held back.
fn probe_core_machines(p: &mut Prober) {
    const N: usize = 256;
    let names = [
        "core.sender_poll_ns",
        "core.buffer_store_ns",
        "core.receiver_poll_ns",
        "core.buffer_serve_ns",
    ];
    p.probe(&names, Basis::Cpu, |l| {
        let mut sender = MmtSender::new(SenderConfig::regular(experiment(), 8192, Time::ZERO, N));
        let mut buffer = RetransmitBuffer::with_defaults(
            experiment(),
            Ipv4Address::new(10, 0, 0, 5),
            Time::from_secs(10).as_nanos(),
            1 << 30,
        );
        let mut rcfg = ReceiverConfig::wan_defaults(experiment(), Ipv4Address::new(10, 0, 0, 8));
        rcfg.expect_messages = Some(N as u64);
        let mut receiver = MmtReceiver::new(rcfg);
        let mut out = Vec::new();
        let now = Time::from_micros(10);

        l.time(0, N as u64, || {
            sender.poll(Time::ZERO, Input::Start, &mut out)
        });
        let daq = transmits(&mut out, 0);
        l.time(1, daq.len() as u64, || {
            for pkt in daq {
                let frame = Input::Frame {
                    port: PORT_DAQ,
                    pkt,
                };
                buffer.poll(now, frame, &mut out);
            }
        });
        let wan = transmits(&mut out, PORT_WAN);
        let arriving: Vec<Packet> = wan
            .into_iter()
            .enumerate()
            .filter_map(|(i, pkt)| (i % 16 != 7).then_some(pkt))
            .collect();
        l.time(2, arriving.len() as u64, || {
            for pkt in arriving {
                receiver.poll(now, Input::Frame { port: 0, pkt }, &mut out);
            }
        });
        // Fire the NAK timer the receiver armed, then serve the NAKs.
        let token = out.iter().find_map(|o| match o {
            Output::WakeAt { token, .. } => Some(*token),
            _ => None,
        });
        out.clear();
        let later = now + Time::from_millis(1);
        if let Some(token) = token {
            receiver.poll(later, Input::Timer { token }, &mut out);
        }
        let naks = transmits(&mut out, 0);
        let before = buffer.stats.retransmitted;
        let t0 = l.clock.now_ns(l.basis);
        for pkt in naks {
            let frame = Input::Frame {
                port: PORT_WAN,
                pkt,
            };
            buffer.poll(later, frame, &mut out);
        }
        l.ns[3] += l.clock.now_ns(l.basis).saturating_sub(t0);
        l.ops[3] += buffer.stats.retransmitted - before;
        black_box(out.len());
    });
}

fn probe_dataplane(p: &mut Prober) {
    let macs = (
        EthernetAddress([2, 0, 0, 0, 0, 1]),
        EthernetAddress([2, 0, 0, 0, 0, 2]),
    );
    let intr = Intrinsics {
        now_ns: 100,
        created_at_ns: 0,
    };
    let sensor_frame =
        build_eth_mmt_frame(macs.0, macs.1, &MmtRepr::data(experiment()), &[0u8; 8192]);
    let wan_frame = build_eth_mmt_frame(macs.0, macs.1, &wan_repr(), &[0u8; 8192]);
    p.probe(&["dataplane.parse_ns"], Basis::Cpu, |l| {
        let frames: Vec<Vec<u8>> = (0..FRAME_BATCH).map(|_| wan_frame.clone()).collect();
        l.time(0, FRAME_BATCH as u64, || {
            for f in frames {
                black_box(ParsedPacket::parse(f, 0));
            }
        });
    });
    let mut border = programs::daq_to_wan_border(BorderConfig {
        daq_port: 0,
        wan_port: 1,
        retransmit_source: (Ipv4Address::new(10, 0, 0, 5), 47_000),
        deadline_budget_ns: 50_000_000,
        notify_addr: Ipv4Address::new(10, 0, 0, 1),
        priority_class: None,
    });
    let mut transit = programs::wan_transit(0, 1, 40_000_000);
    for (name, frame, pipeline) in [
        ("dataplane.border_upgrade_ns", &sensor_frame, &mut border),
        ("dataplane.transit_age_ns", &wan_frame, &mut transit),
    ] {
        p.probe(&[name], Basis::Cpu, |l| {
            let parsed: Vec<ParsedPacket> = (0..FRAME_BATCH)
                .map(|_| ParsedPacket::parse(frame.clone(), 0))
                .collect();
            l.time(0, FRAME_BATCH as u64, || {
                for mut pkt in parsed {
                    black_box(pipeline.process(&mut pkt, intr));
                    black_box(pkt);
                }
            });
        });
    }
}

/// What `pilot-lossy` pays outside its timed region (build) and at the
/// end of it (report), on its 10 000-message stream.
fn probe_pilot(p: &mut Prober) {
    let mut cfg = PilotConfig::default_run();
    cfg.message_count = 10_000;
    cfg.message_gap = Time::from_micros(20);
    cfg.wan_loss = LossModel::None;
    p.probe(&["pilot.build_ms"], Basis::Cpu, |l| {
        for _ in 0..16 {
            black_box(l.time(0, 1, || Pilot::build(cfg.clone())).is_complete());
        }
    });
    let mut pilot = Pilot::build(cfg.clone());
    pilot.run(Time::from_secs(30));
    p.probe(&["pilot.report_ms"], Basis::Cpu, |l| {
        for _ in 0..16 {
            black_box(l.time(0, 1, || pilot.report()).receiver.delivered);
        }
    });
}

fn loopback_pair() -> Result<(FaultySocket, FaultySocket), String> {
    let a = UdpSocket::bind(("127.0.0.1", 0)).map_err(|e| e.to_string())?;
    let b = UdpSocket::bind(("127.0.0.1", 0)).map_err(|e| e.to_string())?;
    let (a_addr, b_addr) = (
        a.local_addr().map_err(|e| e.to_string())?,
        b.local_addr().map_err(|e| e.to_string())?,
    );
    let clean = || FaultInjector::new(1, FaultPlan::clean());
    Ok((
        FaultySocket::new(a, Some(b_addr), clean()).map_err(|e| e.to_string())?,
        FaultySocket::new(b, Some(a_addr), clean()).map_err(|e| e.to_string())?,
    ))
}

fn probe_io(p: &mut Prober) -> Result<(), String> {
    // One 1 KiB datagram through the kernel's loopback and back out.
    let (mut a, mut b) = loopback_pair()?;
    let datagram = vec![0xA5u8; 1024];
    let mut buf = vec![0u8; 65_536];
    let mut failed: Option<String> = None;
    p.probe(&["io.sendrecv_ns"], Basis::Wall, |l| {
        l.time(0, 256, || {
            for _ in 0..256 {
                if let Err(e) = a.send(Time::ZERO, &datagram) {
                    failed = Some(e.to_string());
                }
                // Loopback delivery is synchronous; the bound only keeps
                // a lost datagram from hanging the probe.
                for _ in 0..1_000 {
                    match b.recv(&mut buf) {
                        Ok(Some(_)) => break,
                        Ok(None) => {}
                        Err(e) => failed = Some(e.to_string()),
                    }
                }
            }
        });
    });
    if let Some(e) = failed {
        return Err(format!("io.sendrecv probe: {e}"));
    }

    let mut plan = FaultPlan::clean();
    plan.drop = 0.05;
    let mut injector = FaultInjector::new(7, plan);
    let mut ready: Vec<Vec<u8>> = Vec::new();
    p.probe(&["io.fault_admit_ns"], Basis::Cpu, |l| {
        l.time(0, 4_096, || {
            for _ in 0..4_096 {
                injector.admit(Time::ZERO, black_box(&datagram), &mut ready);
            }
            ready.clear();
        });
    });

    // The io workloads' burst with the sockets taken out: both endpoint
    // assemblies wired in memory under a synthetic clock.
    const BURST: usize = 32;
    p.probe(&["io.driver_msg_ns"], Basis::Cpu, |l| {
        for _ in 0..64 {
            let sender =
                MmtSender::new(SenderConfig::regular(experiment(), 1024, Time::ZERO, BURST));
            let buffer = RetransmitBuffer::with_defaults(
                experiment(),
                Ipv4Address::new(10, 0, 0, 5),
                Time::from_secs(10).as_nanos(),
                1 << 30,
            );
            let mut rcfg =
                ReceiverConfig::wan_defaults(experiment(), Ipv4Address::new(10, 0, 0, 8));
            rcfg.expect_messages = Some(BURST as u64);
            let mut tx = SenderSide::new(sender, buffer);
            let mut rx = ReceiverSide::new(MmtReceiver::new(rcfg));
            let (mut wire, mut back) = (Vec::new(), Vec::new());
            l.time(0, BURST as u64, || {
                tx.start(Time::ZERO, &mut wire);
                for pkt in wire.drain(..) {
                    rx.wire_in(Time::ZERO, pkt.bytes, &mut back);
                }
            });
            black_box(rx.receiver().is_complete());
        }
    });
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let budget_ms = match flag_num(&args, "--budget-ms", 6_000u64) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("layers: {e}");
            return ExitCode::from(2);
        }
    };
    // 25 probes of three windows each share the budget.
    let mut p = Prober {
        clock: Clock::start(),
        window_ns: budget_ms * 1_000_000 / (25 * WINDOWS as u64),
        out: Vec::new(),
    };
    probe_wire(&mut p);
    probe_netsim(&mut p);
    probe_telemetry(&mut p);
    probe_core_state(&mut p);
    probe_core_machines(&mut p);
    probe_dataplane(&mut p);
    probe_pilot(&mut p);
    if let Err(e) = probe_io(&mut p) {
        eprintln!("layers: {e}");
        return ExitCode::FAILURE;
    }
    for m in &p.out {
        println!("{}", m.line());
    }
    ExitCode::SUCCESS
}
