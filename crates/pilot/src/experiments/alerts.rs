//! **E5** — alert fan-out: in-network duplication vs store-and-forward
//! unicast distribution.
//!
//! §2.1/§4.1: Vera Rubin's alert stream must reach "end-users at the
//! time-scale of milliseconds", and §5.1: "Streams can be duplicated in
//! the network ⑤ to reach several downstream researchers directly,
//! ensuring that they get rapid access to fresh data." Today the alert
//! archive terminates the stream and unicasts copies to each subscriber.
//! This experiment measures the time until the *last* subscriber holds
//! the alert, as the subscriber count grows.

use mmt_core::sender::{MmtSender, SenderConfig};
use mmt_dataplane::programs;
use mmt_dataplane::DataplaneElement;
use mmt_netsim::{
    Bandwidth, Context, LinkSpec, Node, NodeId, Packet, PortId, Simulator, Sink, Time, TimerToken,
};
use mmt_wire::mmt::ExperimentId;

const ALERT_BYTES: usize = 8192;
/// Vera Rubin's experiment number in the catalog.
const ALERT_EXP: u32 = 5;

/// One fan-out measurement.
#[derive(Debug, Clone, Copy)]
pub struct AlertResult {
    /// Variant name.
    pub variant: &'static str,
    /// Number of subscribers.
    pub subscribers: usize,
    /// Time until the first subscriber held the alert.
    pub first: Time,
    /// Time until the last subscriber held the alert.
    pub last: Time,
}

/// Today's distribution point: terminates the stream, stages it, then
/// unicasts one copy per subscriber with a per-copy application cost.
struct UnicastFanout {
    staging: Time,
    per_copy: Time,
    subscribers: usize,
    pending: Vec<Packet>,
}

impl UnicastFanout {
    fn new(staging: Time, per_copy: Time, subscribers: usize) -> UnicastFanout {
        UnicastFanout {
            staging,
            per_copy,
            subscribers,
            pending: Vec::new(),
        }
    }
}

impl Node for UnicastFanout {
    fn on_packet(&mut self, ctx: &mut Context<'_>, _port: PortId, pkt: Packet) {
        self.pending.push(pkt);
        let idx = self.pending.len() - 1;
        // After staging, copies go out one at a time.
        for s in 0..self.subscribers {
            ctx.set_timer(
                self.staging + self.per_copy * (s as u64 + 1),
                (idx * self.subscribers + s) as TimerToken,
            );
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
        let idx = token as usize / self.subscribers;
        let sub = token as usize % self.subscribers;
        let pkt = self.pending[idx].clone();
        ctx.send(1 + sub, pkt);
    }
}

fn sender(exp: ExperimentId) -> MmtSender {
    MmtSender::new(SenderConfig::regular(
        exp,
        ALERT_BYTES,
        Time::from_micros(1),
        1,
    ))
}

fn subscriber_link() -> LinkSpec {
    // Researchers sit ~20 ms away over 10 GbE campus paths.
    LinkSpec::new(Bandwidth::gbps(10), Time::from_millis(20))
}

fn collect(sim: &Simulator, subs: &[NodeId]) -> (Time, Time) {
    let mut times: Vec<Time> = subs
        .iter()
        .map(|&s| {
            sim.local_deliveries(s)
                .first()
                .map(|(t, _)| *t)
                .expect("every subscriber must receive the alert") // mmt-lint: allow(P1, "experiment invariant; a failure here is a harness bug and must be loud")
        })
        .collect();
    times.sort_unstable();
    (*times.first().unwrap(), *times.last().unwrap()) // mmt-lint: allow(P1, "experiment invariant; a failure here is a harness bug and must be loud")
}

/// MMT: the alert is duplicated in the network element it traverses.
pub fn run_mmt(subscribers: usize) -> AlertResult {
    let exp = ExperimentId::new(ALERT_EXP, 0);
    let mut sim = Simulator::new(41);
    let src = sim.add_node("telescope", Box::new(sender(exp)));
    let sub_ports: Vec<usize> = (2..2 + subscribers).collect();
    let dup = sim.add_node(
        "dup-switch",
        Box::new(DataplaneElement::new(programs::alert_duplicator(
            0, 1, ALERT_EXP, &sub_ports,
        ))),
    );
    let archive = sim.add_node("archive", Box::new(Sink));
    sim.connect(
        src,
        0,
        dup,
        0,
        LinkSpec::new(Bandwidth::gbps(100), Time::from_micros(5)),
    );
    sim.connect(
        dup,
        1,
        archive,
        0,
        LinkSpec::new(Bandwidth::gbps(100), Time::from_millis(5)),
    );
    let subs: Vec<NodeId> = (0..subscribers)
        .map(|i| {
            let n = sim.add_node(&format!("researcher-{i}"), Box::new(Sink));
            sim.connect(dup, 2 + i, n, 0, subscriber_link());
            n
        })
        .collect();
    sim.run();
    let (first, last) = collect(&sim, &subs);
    AlertResult {
        variant: "MMT in-network duplication",
        subscribers,
        first,
        last,
    }
}

/// Baseline: stream terminates at the archive DTN, which then unicasts
/// copies (5 ms staging — buffering, brokering, connection setup — plus
/// 100 µs of per-copy application/TCP work).
pub fn run_unicast(subscribers: usize) -> AlertResult {
    let exp = ExperimentId::new(ALERT_EXP, 0);
    let mut sim = Simulator::new(41);
    let src = sim.add_node("telescope", Box::new(sender(exp)));
    let archive = sim.add_node(
        "archive",
        Box::new(UnicastFanout::new(
            Time::from_millis(5),
            Time::from_micros(100),
            subscribers,
        )),
    );
    sim.connect(
        src,
        0,
        archive,
        0,
        LinkSpec::new(Bandwidth::gbps(100), Time::from_millis(5)),
    );
    let subs: Vec<NodeId> = (0..subscribers)
        .map(|i| {
            let n = sim.add_node(&format!("researcher-{i}"), Box::new(Sink));
            sim.connect(archive, 1 + i, n, 0, subscriber_link());
            n
        })
        .collect();
    sim.run();
    let (first, last) = collect(&sim, &subs);
    AlertResult {
        variant: "store-and-forward unicast",
        subscribers,
        first,
        last,
    }
}

/// The published sweep over subscriber counts.
pub fn sweep() -> Vec<AlertResult> {
    let mut out = Vec::new();
    for n in [1usize, 4, 16, 64] {
        out.push(run_mmt(n));
        out.push(run_unicast(n));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplication_beats_unicast_and_scales_flat() {
        let mmt_small = run_mmt(4);
        let mmt_large = run_mmt(64);
        let uni_small = run_unicast(4);
        let uni_large = run_unicast(64);
        // MMT wins at any size (no staging, no per-copy serial work).
        assert!(mmt_small.last < uni_small.last);
        assert!(mmt_large.last < uni_large.last);
        // MMT's last-subscriber latency is flat in N (copies leave in
        // parallel ports); unicast grows with N.
        let mmt_growth = mmt_large.last.as_nanos() as f64 / mmt_small.last.as_nanos() as f64;
        assert!(mmt_growth < 1.05, "{mmt_growth}");
        assert!(uni_large.last > uni_small.last);
        // The staging delay alone puts unicast ≥ 5 ms behind.
        assert!(uni_small.last >= mmt_small.last + Time::from_millis(5));
    }

    #[test]
    fn mmt_alert_latency_is_milliseconds_scale() {
        let r = run_mmt(16);
        // ≈ 20 ms propagation + microseconds of switching.
        assert!(r.last < Time::from_millis(21), "{}", r.last);
        assert!(r.first >= Time::from_millis(20));
    }

    #[test]
    fn single_subscriber_degenerate_case() {
        let mmt = run_mmt(1);
        let uni = run_unicast(1);
        assert_eq!(mmt.first, mmt.last);
        assert_eq!(uni.first, uni.last);
        assert!(mmt.last < uni.last);
    }
}
