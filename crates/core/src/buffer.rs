//! The in-network retransmission buffer: one element, placed where
//! recovery should start.
//!
//! "This buffering reduces the flow-completion time since a
//! re-transmission would originate from a closer source, rather than from
//! ①" (§5.1), and "if another retransmission buffer becomes available, we
//! would then avoid the need to retransmit from the source" (§5). A
//! [`RetransmitBuffer`] keeps a bounded window of the stream it forwards
//! ([`RetransmitStore`]: a copy of each head, a reference to each payload)
//! and answers NAKs from it. Port 0 ([`PORT_DAQ`]) faces the source, port
//! 1 ([`PORT_WAN`]) the receiver. Its three placements differ in four
//! decisions, each a field its constructor sets:
//!
//! | decision | DTN 1 ([`new`](RetransmitBuffer::new)) | standby ([`standby`](RetransmitBuffer::standby)) | transit ([`transit`](RetransmitBuffer::transit)) |
//! |---|---|---|---|
//! | 1. data from port 0 | runs the border pipeline: mode 1 → 2 upgrade (sequence, retransmit source, age), which also takes mode changes and drives §5.1 credits | is stored as it is | has RETRANSMIT re-pointed here in place (a P4 header update), then is stored |
//! | 2. NAKs are served | always (§5.4) | once a mode change names the node | always |
//! | 3. a served copy names | what was stored | this node, re-stamped | what was stored |
//! | 4. the unserved remainder | is counted | goes upstream as the original NAK | goes upstream as a NAK for just the gaps |
//!
//! Everything else — the store, the NAK front end, the holdoff, the crash
//! rule, the counters — exists once.

use crate::machine::{Input, Machine, Output};
use crate::store::{RetransmitStore, Served};
use mmt_dataplane::action::Intrinsics;
use mmt_dataplane::parser::{build_eth_control_frame, ParsedPacket};
use mmt_dataplane::pipeline::Pipeline;
use mmt_dataplane::programs::{self, BorderConfig};
use mmt_netsim::{Packet, PacketMeta, PortId, Time, TimerToken};
use mmt_wire::mmt::{
    BackpressureRepr, ControlRepr, CoreHeader, ExperimentId, ModeChangeRepr, NakRange, NakRepr,
    RetransmitExt,
};
use mmt_wire::{EthernetAddress, Ipv4Address};

const TOKEN_CREDIT: TimerToken = 0x42;

/// Port facing the source (the DAQ network at DTN 1).
pub const PORT_DAQ: PortId = 0;
/// Port facing the WAN and the receiver.
pub const PORT_WAN: PortId = 1;

/// The other port: where a frame this node does not consume goes on to.
fn across(port: PortId) -> PortId {
    if port == PORT_DAQ {
        PORT_WAN
    } else {
        PORT_DAQ
    }
}

/// Backpressure credit generation settings.
#[derive(Debug, Clone, Copy)]
pub struct CreditConfig {
    /// Messages granted per interval.
    pub grant: u32,
    /// Grant interval.
    pub interval: Time,
}

/// Counters exposed after a run. Each placement moves the ones its
/// decisions reach.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetransmitBufferStats {
    /// Data packets forwarded toward the WAN (upgraded first at DTN 1).
    pub forwarded: u64,
    /// Packets currently retained (snapshot at read time).
    pub stored: u64,
    /// Data packets taken into the store: the first copy of each
    /// sequence.
    pub tapped: u64,
    /// Packets evicted to honour the capacity bound.
    pub evicted: u64,
    /// NAK messages received.
    pub naks_received: u64,
    /// Packets re-sent in response to NAKs.
    pub retransmitted: u64,
    /// NAKed sequences not in the store (never stored, or evicted before
    /// recovery).
    pub nak_misses: u64,
    /// Retransmissions suppressed by the holdoff window (NAK-storm
    /// protection: the same sequence re-requested before the previous
    /// copy could plausibly have arrived).
    pub retx_suppressed: u64,
    /// NAKs, or NAKs for their unserved remainder, sent on upstream.
    pub naks_forwarded: u64,
    /// Backpressure grants sent upstream.
    pub credits_sent: u64,
    /// Highest store occupancy ever reached (bytes) — the shed
    /// controller's high-watermark evidence.
    pub occupancy_highwater_bytes: u64,
    /// Mode-change control messages applied to the border pipeline.
    pub mode_changes: u64,
    /// Mirror copies emitted while in a DUPLICATED mode.
    pub mirrored: u64,
    /// Data packets whose retransmit source was re-pointed to this node.
    pub repointed: u64,
    /// Mode changes that activated this node's NAK service.
    pub activations: u64,
}

/// DTN 1's border: the pipeline that upgrades data from port 0, the flow
/// it belongs to, and the credit chain it drives.
struct Border {
    pipeline: Pipeline,
    experiment: ExperimentId,
    credit: Option<CreditConfig>,
}

/// Decision 2: when NAKs are served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Service {
    /// DTN 1 and transit: every NAK.
    Always,
    /// A standby no mode change has named yet (or since a crash): NAKs
    /// are relayed upstream untouched.
    Dormant,
    /// A standby a mode change named.
    Active,
}

/// Decision 4: what becomes of NAKed sequences the store does not hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Remainder {
    /// DTN 1: there is nowhere further to ask; they are counted.
    Count,
    /// Standby: the original NAK goes on upstream (a primary still alive
    /// dedups by holdoff; sequences already served cost one duplicate at
    /// worst).
    Relay,
    /// Transit: a NAK naming exactly the missing ranges goes upstream.
    Renak,
}

/// The buffer node.
pub struct RetransmitBuffer {
    /// Decision 1: the border pipeline data from port 0 runs through
    /// (DTN 1 only) ...
    border: Option<Border>,
    /// ... or, without one, whether that data is re-pointed at this node
    /// in place (transit) or stored as it is (standby).
    repoint: bool,
    /// Decision 2.
    service: Service,
    /// Decision 3: name this node in the RETRANSMIT extension of every
    /// served copy.
    restamp: bool,
    /// Decision 4.
    remainder: Remainder,
    /// The NAK address this node answers as: what it re-points and
    /// re-stamps to, and what a mode change names to activate it.
    own: (Ipv4Address, u16),
    store: RetransmitStore,
    /// Minimum spacing between retransmissions of the same sequence
    /// (`Time::ZERO` = no holdoff, every NAK is served).
    retx_holdoff: Time,
    /// Bumped on every crash so credit timers armed before the crash are
    /// recognisably stale after restart (no double credit chains).
    credit_epoch: u64,
    /// Counters.
    pub stats: RetransmitBufferStats,
}

impl RetransmitBuffer {
    /// Create the DTN 1 node: a border pipeline configured from `border`,
    /// a `capacity_bytes` retransmission store, and optional credit
    /// generation.
    pub fn new(
        experiment: ExperimentId,
        border: BorderConfig,
        capacity_bytes: usize,
        credit: Option<CreditConfig>,
    ) -> RetransmitBuffer {
        assert_eq!(border.daq_port, PORT_DAQ);
        assert_eq!(border.wan_port, PORT_WAN);
        RetransmitBuffer {
            border: Some(Border {
                pipeline: programs::daq_to_wan_border(border),
                experiment,
                credit,
            }),
            ..RetransmitBuffer::placed(border.retransmit_source, capacity_bytes)
        }
    }

    /// Convenience: a buffer whose border names this node as the
    /// retransmission source.
    pub fn with_defaults(
        experiment: ExperimentId,
        own_addr: Ipv4Address,
        deadline_budget_ns: u64,
        capacity_bytes: usize,
    ) -> RetransmitBuffer {
        RetransmitBuffer::new(
            experiment,
            BorderConfig {
                daq_port: PORT_DAQ,
                wan_port: PORT_WAN,
                retransmit_source: (own_addr, 47_000),
                deadline_budget_ns,
                notify_addr: own_addr,
                priority_class: None,
            },
            capacity_bytes,
            None,
        )
    }

    /// Create a standby tapping the stream, answering NAKs as
    /// `addr:port` once a mode change names that address.
    pub fn standby(addr: Ipv4Address, port: u16, capacity_bytes: usize) -> RetransmitBuffer {
        RetransmitBuffer {
            service: Service::Dormant,
            restamp: true,
            remainder: Remainder::Relay,
            ..RetransmitBuffer::placed((addr, port), capacity_bytes)
        }
    }

    /// Create a transit hop that re-points retransmission at `addr:port`.
    pub fn transit(addr: Ipv4Address, port: u16, capacity_bytes: usize) -> RetransmitBuffer {
        RetransmitBuffer {
            repoint: true,
            remainder: Remainder::Renak,
            ..RetransmitBuffer::placed((addr, port), capacity_bytes)
        }
    }

    /// What the constructors share: a store that serves every NAK as it
    /// is and counts what it misses.
    fn placed(own: (Ipv4Address, u16), capacity_bytes: usize) -> RetransmitBuffer {
        RetransmitBuffer {
            border: None,
            repoint: false,
            service: Service::Always,
            restamp: false,
            remainder: Remainder::Count,
            own,
            store: RetransmitStore::new(capacity_bytes),
            retx_holdoff: Time::ZERO,
            credit_epoch: 0,
            stats: RetransmitBufferStats::default(),
        }
    }

    /// Set the per-sequence retransmission holdoff: NAKs for a sequence
    /// retransmitted less than `holdoff` ago are suppressed (counted in
    /// `retx_suppressed`) instead of amplifying a NAK storm. Pick a value
    /// below the receiver's probe timeout
    /// ([`crate::MmtReceiver::tail_quiet`] once measured), the soonest it
    /// re-asks for a sequence, so legitimate re-asks are still served; a
    /// longer holdoff swallows the probe, and a lost retransmission then
    /// waits for the next retry round.
    pub fn with_retx_holdoff(mut self, holdoff: Time) -> RetransmitBuffer {
        self.retx_holdoff = holdoff;
        self
    }

    /// Whether NAKs are being served: always at DTN 1 and a transit hop,
    /// at a standby once a mode change named it (until a crash).
    pub fn is_active(&self) -> bool {
        self.service != Service::Dormant
    }

    /// Number of packets currently retained.
    pub fn stored_count(&self) -> usize {
        self.store.len()
    }

    /// The border pipeline's sequence-stamping cursor: the next sequence
    /// number it will stamp onto an upgraded data packet (0 off the
    /// border, which stamps none).
    pub fn sequence_cursor(&self) -> u64 {
        self.border
            .as_ref()
            .map_or(0, |b| b.pipeline.register(programs::regs::SEQ_COUNTER))
    }

    /// Seed the sequence-stamping cursor (nothing to seed off the
    /// border). In deployment the control plane restores the cursor
    /// across restarts (see `crash`); tests use this to place the stream
    /// right before a numeric boundary (e.g. `u32::MAX`) without feeding
    /// four billion packets first.
    pub fn seed_sequence_cursor(&mut self, seq: u64) {
        if let Some(b) = &mut self.border {
            b.pipeline.set_register(programs::regs::SEQ_COUNTER, seq);
        }
    }

    /// Bytes currently retained (the occupancy the shed controller
    /// watches).
    pub fn stored_bytes(&self) -> usize {
        self.store.bytes()
    }

    /// Export the counters into a metric registry, labeled by `node`: a
    /// standby as the `mmt_standby_*` family, DTN 1 and a transit hop as
    /// `mmt_buffer_*` (plus the border pipeline's per-table hit/miss
    /// counters at DTN 1).
    pub fn export_metrics(&self, node: &str, reg: &mut mmt_telemetry::MetricRegistry) {
        let labels = [("node", node)];
        let s = &self.stats;
        // Order-sensitive digest: folds the store's iteration order into
        // an exported value, so a regression to a nondeterministically
        // ordered map shows up as byte-diverging telemetry
        // (tests/telemetry_determinism.rs).
        let digest = self
            .store
            .seqs()
            .fold(0u64, |h, s| h.wrapping_mul(31).wrapping_add(s));
        type Rows<'a, T> = &'a [(&'static str, &'static str, T)];
        let (counters, gauges): (Rows<u64>, Rows<f64>) = if self.service == Service::Always {
            (
                &[
                    (
                        "mmt_buffer_forwarded_total",
                        "Data packets upgraded and forwarded to the WAN.",
                        s.forwarded,
                    ),
                    (
                        "mmt_buffer_evicted_total",
                        "Packets evicted to honour the capacity bound.",
                        s.evicted,
                    ),
                    (
                        "mmt_buffer_naks_received_total",
                        "NAK messages served.",
                        s.naks_received,
                    ),
                    (
                        "mmt_buffer_retransmitted_total",
                        "Packets re-sent in response to NAKs.",
                        s.retransmitted,
                    ),
                    (
                        "mmt_buffer_nak_misses_total",
                        "NAKed sequences no longer in the buffer (evicted before recovery).",
                        s.nak_misses,
                    ),
                    (
                        "mmt_buffer_retx_suppressed_total",
                        "Retransmissions suppressed by the per-sequence holdoff window.",
                        s.retx_suppressed,
                    ),
                    (
                        "mmt_buffer_credits_sent_total",
                        "Backpressure grants sent upstream.",
                        s.credits_sent,
                    ),
                    (
                        "mmt_buffer_mode_changes_total",
                        "Mode-change control messages applied to the border pipeline.",
                        s.mode_changes,
                    ),
                    (
                        "mmt_buffer_mirrored_total",
                        "Mirror copies emitted while in a DUPLICATED mode.",
                        s.mirrored,
                    ),
                ],
                &[
                    (
                        "mmt_buffer_stored_packets",
                        "Packets currently retained for retransmission.",
                        self.store.len() as f64,
                    ),
                    (
                        "mmt_buffer_stored_bytes",
                        "Bytes currently retained for retransmission.",
                        self.store.bytes() as f64,
                    ),
                    (
                        "mmt_buffer_occupancy_highwater",
                        "Highest retransmission-store occupancy reached, bytes.",
                        s.occupancy_highwater_bytes as f64,
                    ),
                    (
                        "mmt_buffer_stored_seq_digest",
                        "Order-sensitive digest of retained sequence numbers.",
                        (digest & 0xFFFF_FFFF) as f64,
                    ),
                ],
            )
        } else {
            (
                &[
                    (
                        "mmt_standby_tapped_total",
                        "Data packets tapped into the standby store.",
                        s.tapped,
                    ),
                    (
                        "mmt_standby_evicted_total",
                        "Standby store evictions to honour the capacity bound.",
                        s.evicted,
                    ),
                    (
                        "mmt_standby_naks_seen_total",
                        "NAK messages seen travelling upstream.",
                        s.naks_received,
                    ),
                    (
                        "mmt_standby_served_total",
                        "Sequences served from the standby store.",
                        s.retransmitted,
                    ),
                    (
                        "mmt_standby_misses_total",
                        "NAKed sequences not in the standby store while active.",
                        s.nak_misses,
                    ),
                    (
                        "mmt_standby_naks_forwarded_total",
                        "NAKs (or unserved remainders) forwarded upstream.",
                        s.naks_forwarded,
                    ),
                    (
                        "mmt_standby_activations_total",
                        "Mode changes that activated this standby.",
                        s.activations,
                    ),
                ],
                &[
                    (
                        "mmt_standby_active",
                        "Whether the standby is currently answering NAKs (0/1).",
                        u64::from(self.is_active()) as f64,
                    ),
                    (
                        "mmt_standby_stored_bytes",
                        "Bytes currently retained in the standby store.",
                        self.store.bytes() as f64,
                    ),
                ],
            )
        };
        for &(name, help, value) in counters {
            reg.describe(name, help);
            reg.counter_add(name, &labels, value);
        }
        for &(name, help, value) in gauges {
            reg.describe(name, help);
            reg.gauge_set(name, &labels, value);
        }
        if let Some(b) = &self.border {
            b.pipeline.export_metrics(node, reg);
        }
    }

    /// Sequence numbers currently retained, ascending. The order is part
    /// of the determinism contract: `mmt_buffer_stored_seq_digest` folds
    /// the sequences in this order.
    pub fn stored_seqs(&self) -> Vec<u64> {
        self.store.seqs().collect()
    }

    /// A copy of what is retained for `seq`: what a NAK for it would be
    /// served.
    pub fn stored(&self, seq: u64) -> Option<Packet> {
        self.store.get(seq)
    }

    /// A mode change reconfigures the border pipeline — rewrites the
    /// retransmit source (when named), toggles DUPLICATED mirroring, and
    /// sets or clears the stamped backpressure window — and activates a
    /// dormant standby it names. It goes no further.
    fn on_mode_change(&mut self, mc: &ModeChangeRepr) {
        if let Some(b) = &mut self.border {
            let source = (!mc.retransmit_source.is_unspecified())
                .then_some((mc.retransmit_source, mc.retransmit_port));
            let window = (mc.window != 0).then_some(mc.window);
            if programs::apply_mode_change(&mut b.pipeline, PORT_WAN, mc.features, source, window) {
                self.stats.mode_changes += 1;
            }
        }
        let named = (mc.retransmit_source, mc.retransmit_port) == self.own;
        if named && self.service == Service::Dormant {
            self.service = Service::Active;
            self.stats.activations += 1;
        }
    }

    fn credit_token(&self) -> TimerToken {
        TOKEN_CREDIT | (self.credit_epoch << 8)
    }

    /// The NAK front end: serve what the store holds back toward the port
    /// the NAK came from, and hand the rest to decision 4.
    fn on_nak(
        &mut self,
        now: Time,
        port: PortId,
        nak: &NakRepr,
        experiment: ExperimentId,
        pkt: Packet,
        out: &mut Vec<Output>,
    ) {
        self.stats.naks_received += 1;
        if self.service == Service::Dormant {
            self.stats.naks_forwarded += 1;
            out.push(Output::Transmit {
                port: across(port),
                pkt,
            });
            return;
        }
        // What is not held comes back as compact gaps, in request order.
        let mut missing: Vec<NakRange> = Vec::new();
        let (stats, restamp, own) = (&mut self.stats, self.restamp, self.own);
        for &range in &nak.ranges {
            self.store
                .serve(range, now, self.retx_holdoff, |answer| match answer {
                    Served::Hit(held) => {
                        let copy = if restamp {
                            restamped(held, own)
                        } else {
                            Some(held)
                        };
                        match copy {
                            Some(pkt) => {
                                out.push(Output::Transmit { port, pkt });
                                stats.retransmitted += 1;
                            }
                            None => stats.nak_misses += 1,
                        }
                    }
                    Served::HeldOff => stats.retx_suppressed += 1,
                    Served::Missing(gap) => {
                        stats.nak_misses = stats.nak_misses.saturating_add(gap.len());
                        missing.push(gap);
                    }
                });
        }
        if missing.is_empty() {
            return;
        }
        let pkt = match self.remainder {
            Remainder::Count => return,
            Remainder::Relay => pkt,
            Remainder::Renak => Packet::new(build_eth_control_frame(
                EthernetAddress([0x02, 0, 0, 0, 0, 0x30]),
                EthernetAddress::BROADCAST,
                experiment,
                &ControlRepr::Nak(NakRepr {
                    requester: nak.requester,
                    requester_port: nak.requester_port,
                    ranges: missing,
                }),
            )),
        };
        self.stats.naks_forwarded += 1;
        out.push(Output::Transmit {
            port: across(port),
            pkt,
        });
    }

    /// Start and restart look the same to the credit generator: open a
    /// fresh grant chain.
    fn start_credit_chain(&mut self, now: Time, out: &mut Vec<Output>) {
        let Some(Border {
            experiment,
            credit: Some(credit),
            ..
        }) = self.border
        else {
            return;
        };
        let frame = build_eth_control_frame(
            EthernetAddress([0x02, 0, 0, 0, 0, 0x10]),
            EthernetAddress::BROADCAST,
            experiment,
            &ControlRepr::Backpressure(BackpressureRepr {
                level: 1,
                window: credit.grant,
                origin: Ipv4Address::UNSPECIFIED,
            }),
        );
        let mut pkt = Packet::new(frame);
        pkt.meta.control = true;
        out.push(Output::Transmit {
            port: PORT_DAQ,
            pkt,
        });
        self.stats.credits_sent += 1;
        out.push(Output::WakeAt {
            at: now + credit.interval,
            token: self.credit_token(),
        });
    }

    fn on_frame(&mut self, now: Time, port: PortId, pkt: Packet, out: &mut Vec<Output>) {
        let mut meta = pkt.meta;
        let mut parsed = ParsedPacket::of(pkt, port);
        let Some(off) = parsed.layers.mmt_offset() else {
            // Not MMT: the border has no use for it, a hop on the path
            // lets it by.
            if self.border.is_none() {
                out.push(Output::Transmit {
                    port: across(port),
                    pkt: parsed.into_packet(meta),
                });
            }
            return;
        };
        // NAKs are served and mode changes applied whichever port they
        // arrive on.
        let data = match ControlRepr::parse_packet(&parsed.bytes[off..]) {
            Ok((experiment, ControlRepr::Nak(nak))) => {
                let pkt = parsed.into_packet(meta);
                return self.on_nak(now, port, &nak, experiment, pkt, out);
            }
            Ok((_, ControlRepr::ModeChange(mc))) => return self.on_mode_change(&mc),
            Ok((_, ControlRepr::DeadlineExceeded(_))) | Ok((_, ControlRepr::Backpressure(_))) => {
                false
            }
            Err(_) => true,
        };
        // Decision 1. At DTN 1 everything else runs the border pipeline.
        if let Some(b) = &mut self.border {
            let intr = Intrinsics {
                now_ns: now.as_nanos(),
                created_at_ns: meta.created_at.as_nanos(),
            };
            let disp = b.pipeline.process(&mut parsed, intr);
            // The pipeline just stamped the sequence; mirror it (and the
            // config id) into the simulator metadata so WAN-side trace
            // events carry it.
            if let Some(hdr) = parsed.mmt() {
                meta.seq = hdr.sequence();
                meta.config = Some(hdr.config_id());
            }
            if let Some(egress) = disp.egress {
                let fwd = parsed.into_packet(meta);
                if egress == PORT_WAN {
                    self.forward(meta.seq, fwd, out);
                } else {
                    out.push(Output::Transmit {
                        port: egress,
                        pkt: fwd,
                    });
                }
            }
            for (eport, pkt) in disp.emitted {
                // Mirror copies (DUPLICATED mode) are data: they keep the
                // original packet's identity so the receiver's sequence
                // tracker absorbs whichever twin arrives second.
                // Everything else the pipeline emits is control plane
                // (deadline notifications and the like).
                let pmeta = if disp.mirrors.contains(&eport) {
                    self.stats.mirrored += 1;
                    PacketMeta { id: 0, ..meta }
                } else {
                    PacketMeta {
                        control: true,
                        ..PacketMeta::default()
                    }
                };
                out.push(Output::Transmit {
                    port: eport,
                    pkt: Packet { meta: pmeta, ..pkt },
                });
            }
            return;
        }
        if !data || port != PORT_DAQ {
            // Control traffic, and data heading upstream: let it by.
            out.push(Output::Transmit {
                port: across(port),
                pkt: parsed.into_packet(meta),
            });
            return;
        }
        let mut hdr = CoreHeader::new_unchecked(&mut parsed.bytes[off..]);
        let seq = hdr.sequence();
        if self.repoint {
            let (source, port) = self.own;
            if hdr.set_retransmit(RetransmitExt { source, port }) {
                self.stats.repointed += 1;
            }
        }
        self.forward(seq, parsed.into_packet(meta), out);
    }

    /// Retain a data packet heading for the WAN under its sequence, if it
    /// has one, and send it on. The store gets its own head and a
    /// reference to the payload; no message byte is copied.
    fn forward(&mut self, seq: Option<u64>, pkt: Packet, out: &mut Vec<Output>) {
        if let Some(seq) = seq {
            // Retransmissions and mirror twins pass a hop on the path
            // too; the store keeps the first copy of a sequence.
            let retained = self.store.retain(seq, &pkt);
            self.stats.evicted += retained.evicted;
            self.stats.tapped += u64::from(retained.stored);
            self.stats.stored = self.store.len() as u64;
            self.stats.occupancy_highwater_bytes = self.store.highwater_bytes() as u64;
        }
        self.stats.forwarded += 1;
        out.push(Output::Transmit {
            port: PORT_WAN,
            pkt,
        });
    }
}

/// The copy of `held` a standby serves: its RETRANSMIT extension
/// re-stamped to `own`, so the recovered copy teaches the receiver that
/// NAKs now resolve here, not at the dead primary. The served copy's
/// head is rewritten in place, the stored payload shared.
fn restamped(held: Packet, (source, port): (Ipv4Address, u16)) -> Option<Packet> {
    let meta = held.meta;
    let mut parsed = ParsedPacket::of(held, PORT_DAQ);
    let repr = parsed.mmt_repr()?;
    parsed.rewrite_mmt(&repr.with_retransmit(source, port));
    Some(parsed.into_packet(meta))
}

impl Machine for RetransmitBuffer {
    fn poll(&mut self, now: Time, input: Input, out: &mut Vec<Output>) {
        match input {
            Input::Start | Input::Restart => self.start_credit_chain(now, out),
            Input::Frame { port, pkt } => self.on_frame(now, port, pkt, out),
            Input::Timer { token } => {
                if token == self.credit_token() {
                    self.start_credit_chain(now, out);
                }
            }
        }
    }

    fn crash(&mut self) {
        // A power loss destroys the DRAM retransmission store: every
        // retained packet, the eviction ring, and the holdoff history.
        // The border pipeline's registers (the sequence cursor) survive —
        // in deployment they live in the switch ASIC and are restored by
        // the control plane; wiping the cursor would re-issue already-used
        // sequence numbers and break exactly-once delivery downstream.
        self.store.clear();
        self.stats.stored = 0;
        // Invalidate any credit timer armed before the crash so restart
        // starts exactly one fresh chain.
        self.credit_epoch += 1;
        // A standby's activation is control-plane state: it lives in the
        // controller, which would push it again after a restart.
        if self.service == Service::Active {
            self.service = Service::Dormant;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_dataplane::parser::build_eth_mmt_frame;
    use mmt_netsim::{Bandwidth, LinkSpec, NodeId, Simulator, Sink};
    use mmt_wire::mmt::{Features, MmtRepr};

    const DTN1: Ipv4Address = Ipv4Address([10, 0, 0, 5]);
    const STANDBY: Ipv4Address = Ipv4Address([10, 0, 0, 6]);
    const TRANSIT: Ipv4Address = Ipv4Address([10, 0, 0, 7]);

    fn exp() -> ExperimentId {
        ExperimentId::new(2, 0)
    }

    /// A mode-0 frame as a sensor emits it, its index leading the payload.
    fn sensor_frame(index: u64) -> Packet {
        let mut payload = vec![0u8; 256];
        payload[..8].copy_from_slice(&index.to_be_bytes());
        let frame = build_eth_mmt_frame(
            EthernetAddress([2, 0, 0, 0, 0, 1]),
            EthernetAddress([2, 0, 0, 0, 0, 2]),
            &MmtRepr::data(exp()),
            &payload,
        );
        Packet::new(frame)
    }

    /// An upgraded (mode 2) frame as it leaves DTN 1: 100 bytes (14
    /// Ethernet + 22 MMT + 64 payload).
    fn wan_frame(seq: u64) -> Packet {
        let repr = MmtRepr::data(exp())
            .with_sequence(seq)
            .with_retransmit(DTN1, 47_000);
        let mut payload = vec![0u8; 64];
        payload[..8].copy_from_slice(&seq.to_be_bytes());
        let mut pkt = Packet::new(build_eth_mmt_frame(
            EthernetAddress([2, 0, 0, 0, 0, 5]),
            EthernetAddress([2, 0, 0, 0, 0, 6]),
            &repr,
            &payload,
        ));
        pkt.meta.seq = Some(seq);
        pkt
    }

    fn control_frame(ctrl: ControlRepr) -> Packet {
        let ctrl = ctrl.emit_packet(exp());
        let repr = MmtRepr::parse(&ctrl).unwrap();
        let mut pkt = Packet::new(build_eth_mmt_frame(
            EthernetAddress([2, 0, 0, 0, 0, 8]),
            EthernetAddress([2, 0, 0, 0, 0, 2]),
            &repr,
            &ctrl[repr.header_len()..],
        ));
        pkt.meta.control = true;
        pkt
    }

    fn nak_frame(ranges: Vec<NakRange>) -> Packet {
        control_frame(ControlRepr::Nak(NakRepr {
            requester: Ipv4Address::new(10, 0, 0, 8),
            requester_port: 47_000,
            ranges,
        }))
    }

    fn nak(first: u64, last: u64) -> Packet {
        nak_frame(vec![NakRange { first, last }])
    }

    fn mode_change_frame(mc: ModeChangeRepr) -> Packet {
        control_frame(ControlRepr::ModeChange(mc))
    }

    /// The mode change that re-homes recovery to the standby.
    fn activation_frame() -> Packet {
        mode_change_frame(ModeChangeRepr {
            config_id: 1,
            features: Features::SEQUENCE | Features::RETRANSMIT | Features::ACK_NAK,
            retransmit_source: STANDBY,
            retransmit_port: 47_001,
            window: 0,
        })
    }

    fn dtn1(capacity: usize) -> RetransmitBuffer {
        RetransmitBuffer::with_defaults(exp(), DTN1, 1_000_000_000, capacity)
    }

    fn standby() -> RetransmitBuffer {
        RetransmitBuffer::standby(STANDBY, 47_001, 1 << 20)
    }

    fn transit(capacity: usize) -> RetransmitBuffer {
        RetransmitBuffer::transit(TRANSIT, 47_001, capacity)
    }

    /// DTN 1 granting 16 messages every millisecond.
    fn credited() -> RetransmitBuffer {
        RetransmitBuffer::new(
            exp(),
            BorderConfig {
                daq_port: PORT_DAQ,
                wan_port: PORT_WAN,
                retransmit_source: (DTN1, 47_000),
                deadline_budget_ns: 1_000_000,
                notify_addr: DTN1,
                priority_class: None,
            },
            1 << 20,
            Some(CreditConfig {
                grant: 16,
                interval: Time::from_millis(1),
            }),
        )
    }

    /// up-sink ← buffer → down-sink.
    fn setup(buffer: RetransmitBuffer) -> (Simulator, NodeId, NodeId, NodeId) {
        let mut sim = Simulator::new(1);
        let buf = sim.add_node("buffer", Box::new(buffer));
        let up = sim.add_node("up", Box::new(Sink));
        let down = sim.add_node("down", Box::new(Sink));
        let spec = LinkSpec::new(Bandwidth::gbps(100), Time::ZERO);
        sim.add_oneway(buf, PORT_DAQ, up, 0, spec);
        sim.add_oneway(buf, PORT_WAN, down, 0, spec);
        (sim, buf, up, down)
    }

    fn buffer(sim: &Simulator, node: NodeId) -> &RetransmitBuffer {
        sim.node_as::<RetransmitBuffer>(node).unwrap()
    }

    fn repr_of(pkt: &Packet) -> MmtRepr {
        ParsedPacket::parse(pkt.bytes.clone(), 0)
            .mmt_repr()
            .unwrap()
    }

    fn sequences(got: &[(Time, Packet)]) -> Vec<u64> {
        got.iter()
            .map(|(_, p)| repr_of(p).sequence().unwrap())
            .collect()
    }

    /// The NAK ranges carried by a control frame.
    fn nak_ranges(pkt: &Packet) -> NakRepr {
        let parsed = ParsedPacket::parse(pkt.bytes.clone(), 0);
        let off = parsed.layers.mmt_offset().unwrap();
        match ControlRepr::parse_packet(&parsed.bytes[off..]).unwrap().1 {
            ControlRepr::Nak(nak) => nak,
            other => panic!("expected NAK, got {other:?}"),
        }
    }

    // --- DTN 1 ---

    #[test]
    fn upgrades_and_stores_data_packets() {
        let (mut sim, buf, _, wan) = setup(dtn1(1 << 20));
        for i in 0..5 {
            sim.inject(Time::from_micros(i), buf, PORT_DAQ, sensor_frame(i));
        }
        sim.run();
        let got = sim.local_deliveries(wan);
        assert_eq!(got.len(), 5);
        for (i, (_, pkt)) in got.iter().enumerate() {
            let repr = repr_of(pkt);
            assert_eq!(repr.sequence(), Some(i as u64));
            assert!(repr.features.contains(Features::RETRANSMIT));
            assert_eq!(repr.retransmit().unwrap().source, DTN1);
        }
        let b = buffer(&sim, buf);
        assert_eq!(b.stored_count(), 5);
        assert_eq!(b.stats.forwarded, 5);
    }

    #[test]
    fn serves_naks_from_store() {
        let (mut sim, buf, _, wan) = setup(dtn1(1 << 20));
        for i in 0..10 {
            sim.inject(Time::from_micros(i), buf, PORT_DAQ, sensor_frame(i));
        }
        sim.run();
        let before = sim.local_deliveries(wan).len();
        // NAK seqs 2..=4 and 7 from the WAN side.
        sim.inject(
            sim.now(),
            buf,
            PORT_WAN,
            nak_frame(vec![
                NakRange { first: 2, last: 4 },
                NakRange { first: 7, last: 7 },
            ]),
        );
        sim.run();
        let got = sim.local_deliveries(wan);
        assert_eq!(got.len(), before + 4);
        // Retransmitted copies are the stored upgraded frames with the
        // right sequence numbers.
        assert_eq!(sequences(&got[before..]), vec![2, 3, 4, 7]);
        let b = buffer(&sim, buf);
        assert_eq!(b.stats.naks_received, 1);
        assert_eq!(b.stats.retransmitted, 4);
        assert_eq!(b.stats.nak_misses, 0);
    }

    #[test]
    fn capacity_bound_evicts_oldest() {
        // Each upgraded frame is ~300+ bytes; capacity for ~3.
        let (mut sim, buf, _, _) = setup(dtn1(1_000));
        for i in 0..10 {
            sim.inject(Time::from_micros(i), buf, PORT_DAQ, sensor_frame(i));
        }
        sim.run();
        let b = buffer(&sim, buf);
        assert!(b.stored_count() <= 3, "{}", b.stored_count());
        assert!(b.stats.evicted >= 7);
        // NAK for an evicted seq is a miss.
        sim.inject(sim.now(), buf, PORT_WAN, nak(0, 0));
        sim.run();
        assert_eq!(buffer(&sim, buf).stats.nak_misses, 1);
    }

    #[test]
    fn retx_holdoff_suppresses_nak_storm() {
        let holdoff = Time::from_millis(2);
        let (mut sim, buf, _, wan) = setup(dtn1(1 << 20).with_retx_holdoff(holdoff));
        for i in 0..5 {
            sim.inject(Time::from_micros(i), buf, PORT_DAQ, sensor_frame(i));
        }
        sim.run();
        let before = sim.local_deliveries(wan).len();
        // A storm: the same NAK three times within the holdoff window,
        // then once after it expires.
        for t_us in [100u64, 200, 300] {
            sim.inject(Time::from_micros(t_us), buf, PORT_WAN, nak(2, 3));
        }
        sim.inject(Time::from_millis(5), buf, PORT_WAN, nak(2, 3));
        sim.run();
        let b = buffer(&sim, buf);
        assert_eq!(b.stats.naks_received, 4);
        assert_eq!(b.stats.retransmitted, 4, "first burst + post-holdoff retry");
        assert_eq!(b.stats.retx_suppressed, 4, "two storm repeats suppressed");
        assert_eq!(sim.local_deliveries(wan).len(), before + 4);
    }

    #[test]
    fn crash_loses_store_and_restart_resumes_sequencing() {
        let (mut sim, buf, _, wan) = setup(dtn1(1 << 20));
        for i in 0..5 {
            sim.inject(Time::from_micros(i), buf, PORT_DAQ, sensor_frame(i));
        }
        sim.schedule_crash(buf, Time::from_micros(100), Some(Time::from_micros(200)));
        // Post-restart traffic.
        for i in 5..8 {
            sim.inject(Time::from_micros(300 + i), buf, PORT_DAQ, sensor_frame(i));
        }
        // NAK for a pre-crash sequence arrives after the restart: the
        // store is gone, so it must be a miss, not a retransmission.
        sim.inject(Time::from_micros(400), buf, PORT_WAN, nak(2, 2));
        sim.run();
        let b = buffer(&sim, buf);
        assert_eq!(b.stats.nak_misses, 1);
        assert_eq!(b.stats.retransmitted, 0);
        assert_eq!(b.stored_count(), 3, "only post-restart packets retained");
        // The sequence cursor survives the crash: post-restart packets
        // continue 5, 6, 7 — no reuse of already-issued numbers.
        let got = sim.local_deliveries(wan);
        assert_eq!(sequences(got), vec![0, 1, 2, 3, 4, 5, 6, 7]);
        // Highwater was reached just before the crash: all 5 pre-crash
        // upgraded frames resident at once.
        let per = got[0].1.len() as u64;
        assert_eq!(b.stats.occupancy_highwater_bytes, 5 * per);
    }

    #[test]
    fn mode_change_engages_duplication_and_rehomes_source() {
        let (mut sim, buf, _, wan) = setup(dtn1(1 << 20));
        sim.inject(Time::from_micros(1), buf, PORT_DAQ, sensor_frame(0));
        let base = Features::SEQUENCE
            | Features::RETRANSMIT
            | Features::TIMELINESS
            | Features::AGE
            | Features::ACK_NAK;
        sim.inject(
            Time::from_micros(10),
            buf,
            PORT_WAN,
            mode_change_frame(ModeChangeRepr {
                config_id: 1,
                features: base | Features::DUPLICATED,
                retransmit_source: STANDBY,
                retransmit_port: 47_001,
                window: 0,
            }),
        );
        sim.inject(Time::from_micros(20), buf, PORT_DAQ, sensor_frame(1));
        sim.run();
        let got = sim.local_deliveries(wan);
        // Packet 0 arrives singly; packet 1 arrives twice (mirror copy).
        assert_eq!(got.len(), 3);
        let reprs: Vec<_> = got.iter().map(|(_, p)| repr_of(p)).collect();
        assert_eq!(reprs[0].sequence(), Some(0));
        assert_eq!(reprs[0].retransmit().unwrap().source, DTN1);
        // Both twins of packet 1 carry the re-homed source and the
        // DUPLICATED mode bit (the bit marks the stream's mode, not which
        // copy is the mirror); packet 0 predates the change.
        assert!(!reprs[0].features.contains(Features::DUPLICATED));
        assert_eq!(reprs[1].sequence(), Some(1));
        assert_eq!(reprs[2].sequence(), Some(1));
        for r in &reprs[1..] {
            assert_eq!(r.retransmit().unwrap().source, STANDBY);
            assert!(r.features.contains(Features::DUPLICATED));
        }
        let b = buffer(&sim, buf);
        assert_eq!(b.stats.mode_changes, 1);
        assert_eq!(b.stats.mirrored, 1);
        // Naming another node's address activates nothing here.
        assert_eq!(b.stats.activations, 0);
    }

    #[test]
    fn credits_are_stamped_control_plane() {
        let (mut sim, _, sensor_side, _) = setup(credited());
        sim.run_until(Time::from_micros(500));
        let got = sim.local_deliveries(sensor_side);
        assert!(!got.is_empty());
        for (_, pkt) in got {
            assert!(pkt.meta.control, "credits must carry the control flag");
        }
    }

    #[test]
    fn credit_generation_is_periodic() {
        let (mut sim, _, sensor_side, _) = setup(credited());
        // Run past t = 5 ms so the grant emitted at 5 ms finishes its
        // (nanoseconds of) link serialization and arrives.
        sim.run_until(Time::from_micros(5_500));
        let got = sim.local_deliveries(sensor_side);
        // Grants at t=0,1,2,3,4,5 ms.
        assert_eq!(got.len(), 6, "{}", got.len());
        let parsed = ParsedPacket::parse(got[0].1.bytes.clone(), 0);
        let off = parsed.layers.mmt_offset().unwrap();
        let (_, ctrl) = ControlRepr::parse_packet(&parsed.bytes[off..]).unwrap();
        match ctrl {
            ControlRepr::Backpressure(bp) => assert_eq!(bp.window, 16),
            other => panic!("expected backpressure, got {other:?}"),
        }
    }

    #[test]
    fn the_border_drops_what_is_not_mmt() {
        let (mut sim, buf, up, down) = setup(dtn1(1 << 20));
        sim.inject(Time::ZERO, buf, PORT_DAQ, Packet::new(vec![0u8; 64]));
        sim.inject(Time::ZERO, buf, PORT_WAN, Packet::new(vec![0u8; 64]));
        sim.run();
        assert!(sim.local_deliveries(up).is_empty());
        assert!(sim.local_deliveries(down).is_empty());
    }

    // --- standby ---

    #[test]
    fn passive_taps_data_and_relays_naks_upstream() {
        let (mut sim, sb, up, down) = setup(standby());
        for i in 0..5 {
            sim.inject(Time::from_micros(i), sb, PORT_DAQ, wan_frame(i));
        }
        sim.inject(Time::from_micros(50), sb, PORT_WAN, nak(1, 2));
        sim.run();
        // All data forwarded down; the NAK relayed up, nothing served.
        assert_eq!(sim.local_deliveries(down).len(), 5);
        assert_eq!(sim.local_deliveries(up).len(), 1);
        let b = buffer(&sim, sb);
        assert!(!b.is_active());
        assert_eq!(b.stats.tapped, 5);
        assert_eq!(b.stats.naks_received, 1);
        assert_eq!(b.stats.naks_forwarded, 1);
        assert_eq!(b.stats.retransmitted, 0);
    }

    #[test]
    fn duplicate_sequences_do_not_inflate_the_store() {
        let (mut sim, sb, _, _) = setup(standby());
        for t in 0..3 {
            sim.inject(Time::from_micros(t), sb, PORT_DAQ, wan_frame(7));
        }
        sim.run();
        let b = buffer(&sim, sb);
        assert_eq!(b.stats.tapped, 1);
        assert_eq!(b.stored_count(), 1);
        assert_eq!(b.stored_bytes(), wan_frame(7).len());
    }

    #[test]
    fn active_serves_naks_with_rehomed_source() {
        let (mut sim, sb, up, down) = setup(standby());
        for i in 0..5 {
            sim.inject(Time::from_micros(i), sb, PORT_DAQ, wan_frame(i));
        }
        sim.inject(Time::from_micros(10), sb, PORT_WAN, activation_frame());
        sim.inject(Time::from_micros(50), sb, PORT_WAN, nak(1, 2));
        sim.run();
        let down_got = sim.local_deliveries(down);
        // 5 passthrough + 2 served.
        assert_eq!(down_got.len(), 7);
        for (_, pkt) in &down_got[5..] {
            let r = repr_of(pkt).retransmit().unwrap();
            assert_eq!(r.source, STANDBY, "served copy must name the standby");
            assert_eq!(r.port, 47_001);
        }
        // Fully served: nothing forwarded upstream.
        assert!(sim.local_deliveries(up).is_empty());
        let b = buffer(&sim, sb);
        assert!(b.is_active());
        assert_eq!(b.stats.activations, 1);
        assert_eq!(b.stats.retransmitted, 2);
        assert_eq!(b.stats.naks_forwarded, 0);
    }

    #[test]
    fn unserved_remainder_continues_upstream() {
        let (mut sim, sb, up, _) = setup(standby());
        sim.inject(Time::ZERO, sb, PORT_DAQ, wan_frame(1));
        sim.inject(Time::from_micros(10), sb, PORT_WAN, activation_frame());
        // Seq 1 is in the store; seq 9 is not.
        sim.inject(
            Time::from_micros(50),
            sb,
            PORT_WAN,
            nak_frame(vec![
                NakRange { first: 1, last: 1 },
                NakRange { first: 9, last: 9 },
            ]),
        );
        sim.run();
        assert_eq!(sim.local_deliveries(up).len(), 1, "remainder NAK relayed");
        let b = buffer(&sim, sb);
        assert_eq!(b.stats.retransmitted, 1);
        assert_eq!(b.stats.nak_misses, 1);
        assert_eq!(b.stats.naks_forwarded, 1);
    }

    #[test]
    fn foreign_mode_change_does_not_activate() {
        let (mut sim, sb, _, _) = setup(standby());
        let pkt = mode_change_frame(ModeChangeRepr {
            config_id: 1,
            features: Features::SEQUENCE,
            retransmit_source: DTN1, // someone else
            retransmit_port: 47_000,
            window: 0,
        });
        sim.inject(Time::ZERO, sb, PORT_WAN, pkt);
        sim.run();
        let b = buffer(&sim, sb);
        assert!(!b.is_active());
        assert_eq!(b.stats.activations, 0);
    }

    #[test]
    fn crash_wipes_store_and_deactivates() {
        let (mut sim, sb, up, _) = setup(standby());
        for i in 0..4 {
            sim.inject(Time::from_micros(i), sb, PORT_DAQ, wan_frame(i));
        }
        sim.inject(Time::from_micros(10), sb, PORT_WAN, activation_frame());
        sim.schedule_crash(sb, Time::from_micros(20), Some(Time::from_micros(30)));
        sim.inject(Time::from_micros(50), sb, PORT_WAN, nak(0, 0));
        sim.run();
        let b = buffer(&sim, sb);
        assert_eq!(b.stored_count(), 0);
        assert!(!b.is_active());
        // Post-crash NAK relayed upstream (passive again).
        assert_eq!(sim.local_deliveries(up).len(), 1);
    }

    #[test]
    fn a_standby_taps_by_the_header_sequence_and_lets_foreign_frames_by() {
        // The sequence is read from the MMT header, not the simulator's
        // metadata; frames that are not MMT pass in both directions.
        let (mut sim, sb, up, down) = setup(standby());
        let mut untagged = wan_frame(3);
        untagged.meta.seq = None;
        sim.inject(Time::ZERO, sb, PORT_DAQ, untagged);
        sim.inject(Time::ZERO, sb, PORT_DAQ, Packet::new(vec![0u8; 64]));
        sim.inject(Time::ZERO, sb, PORT_WAN, Packet::new(vec![0u8; 64]));
        sim.run();
        assert_eq!(sim.local_deliveries(down).len(), 2);
        assert_eq!(sim.local_deliveries(up).len(), 1);
        assert_eq!(buffer(&sim, sb).stored_seqs(), vec![3]);
    }

    #[test]
    fn an_active_standby_counts_what_its_holdoff_suppresses() {
        let holdoff = Time::from_millis(2);
        let (mut sim, sb, _, down) = setup(standby().with_retx_holdoff(holdoff));
        sim.inject(Time::ZERO, sb, PORT_DAQ, wan_frame(1));
        sim.inject(Time::from_micros(10), sb, PORT_WAN, activation_frame());
        sim.inject(Time::from_micros(50), sb, PORT_WAN, nak(1, 1));
        sim.inject(Time::from_micros(60), sb, PORT_WAN, nak(1, 1));
        sim.run();
        assert_eq!(sim.local_deliveries(down).len(), 2, "original + one copy");
        let b = buffer(&sim, sb);
        assert_eq!(b.stats.retransmitted, 1);
        assert_eq!(b.stats.retx_suppressed, 1);
        assert_eq!(b.stats.naks_forwarded, 0);
    }

    // --- transit ---

    #[test]
    fn repoints_retransmit_source_and_stores() {
        let (mut sim, mid, _, down) = setup(transit(1 << 20));
        for s in 0..5u64 {
            sim.inject(Time::from_micros(s), mid, PORT_DAQ, wan_frame(s));
        }
        sim.run();
        let got = sim.local_deliveries(down);
        assert_eq!(got.len(), 5);
        for (_, pkt) in got {
            assert_eq!(
                repr_of(pkt).retransmit().unwrap(),
                RetransmitExt {
                    source: TRANSIT,
                    port: 47_001
                }
            );
        }
        let b = buffer(&sim, mid);
        assert_eq!(b.stats.repointed, 5);
        assert_eq!(b.stored_count(), 5);
    }

    #[test]
    fn serves_naks_locally_and_renaks_missing_upstream() {
        let (mut sim, mid, up, down) = setup(transit(1 << 20));
        for s in 2..6u64 {
            sim.inject(Time::from_micros(s), mid, PORT_DAQ, wan_frame(s));
        }
        sim.run();
        let downstream_before = sim.local_deliveries(down).len();
        // NAK 0..=3: 2,3 held locally; 0,1 must be re-NAKed upstream.
        sim.inject(sim.now(), mid, PORT_WAN, nak(0, 3));
        sim.run();
        let served = sim.local_deliveries(down).len() - downstream_before;
        assert_eq!(served, 2);
        let upstream = sim.local_deliveries(up);
        assert_eq!(upstream.len(), 1, "one re-NAK upstream");
        let renak = nak_ranges(&upstream[0].1);
        assert_eq!(renak.ranges, vec![NakRange { first: 0, last: 1 }]);
        assert_eq!(renak.requester, Ipv4Address::new(10, 0, 0, 8));
        let b = buffer(&sim, mid);
        assert_eq!(b.stats.retransmitted, 2);
        assert_eq!(b.stats.nak_misses, 2);
    }

    #[test]
    fn non_mmt_traffic_forwards_transparently() {
        let (mut sim, mid, up, down) = setup(transit(1 << 20));
        sim.inject(Time::ZERO, mid, PORT_DAQ, Packet::new(vec![0u8; 64]));
        sim.inject(Time::ZERO, mid, PORT_WAN, Packet::new(vec![0u8; 64]));
        sim.run();
        assert_eq!(sim.local_deliveries(down).len(), 1);
        assert_eq!(sim.local_deliveries(up).len(), 1);
    }

    #[test]
    fn store_respects_capacity() {
        let (mut sim, mid, _, _) = setup(transit(300));
        for s in 0..10u64 {
            sim.inject(Time::from_micros(s), mid, PORT_DAQ, wan_frame(s));
        }
        sim.run();
        let b = buffer(&sim, mid);
        // Each frame is 100 bytes (14 eth + 22 MMT + 64 payload): 3 fit.
        assert!(b.stored_count() <= 3, "{}", b.stored_count());
        assert!(b.stats.evicted >= 7);
    }

    #[test]
    fn a_late_low_first_copy_is_evicted_before_higher_ones() {
        // The store evicts the lowest sequence first, not the oldest
        // arrival: a late first copy of 5 is kept (10 goes to make room),
        // then is the first to go when 13 needs room.
        let (mut sim, mid, _, _) = setup(transit(300));
        for (t, s) in [10u64, 11, 12, 5, 13].into_iter().enumerate() {
            sim.inject(Time::from_micros(t as u64), mid, PORT_DAQ, wan_frame(s));
        }
        sim.run();
        let b = buffer(&sim, mid);
        assert_eq!(b.stored_seqs(), vec![11, 12, 13]);
        assert_eq!(b.stats.tapped, 5);
        assert_eq!(b.stats.evicted, 2);
    }

    #[test]
    fn a_crashed_transit_renaks_what_it_held_before_the_crash() {
        let (mut sim, mid, up, down) = setup(transit(1 << 20));
        for s in 0..5u64 {
            sim.inject(Time::from_micros(s), mid, PORT_DAQ, wan_frame(s));
        }
        sim.schedule_crash(mid, Time::from_micros(100), Some(Time::from_micros(200)));
        sim.inject(Time::from_micros(300), mid, PORT_WAN, nak(2, 2));
        sim.run();
        // The store went with the power: seq 2 goes upstream, not down.
        assert_eq!(sim.local_deliveries(down).len(), 5, "nothing served");
        let upstream = sim.local_deliveries(up);
        assert_eq!(upstream.len(), 1);
        assert_eq!(
            nak_ranges(&upstream[0].1).ranges,
            vec![NakRange { first: 2, last: 2 }]
        );
        let b = buffer(&sim, mid);
        assert_eq!(b.stored_count(), 0);
        assert_eq!(b.stats.retransmitted, 0);
        assert_eq!(b.stats.nak_misses, 1);
    }

    #[test]
    fn a_transit_consumes_mode_changes_and_keeps_repointing() {
        let (mut sim, mid, up, down) = setup(transit(1 << 20));
        sim.inject(Time::ZERO, mid, PORT_WAN, activation_frame());
        sim.inject(Time::ZERO, mid, PORT_DAQ, activation_frame());
        sim.inject(Time::from_micros(10), mid, PORT_DAQ, wan_frame(0));
        sim.run();
        assert!(sim.local_deliveries(up).is_empty());
        let got = sim.local_deliveries(down);
        assert_eq!(got.len(), 1, "only the data packet leaves");
        assert_eq!(repr_of(&got[0].1).retransmit().unwrap().source, TRANSIT);
        let b = buffer(&sim, mid);
        assert_eq!(b.stats.mode_changes, 0);
        assert_eq!(b.stats.activations, 0);
    }

    #[test]
    fn a_nak_from_the_source_side_is_served_back_toward_it() {
        // NAKs travel upstream in every run; one heard on port 0 is served
        // toward port 0, and its remainder goes on out of port 1.
        let (mut sim, mid, up, down) = setup(transit(1 << 20));
        sim.inject(Time::ZERO, mid, PORT_DAQ, wan_frame(4));
        sim.inject(Time::from_micros(10), mid, PORT_DAQ, nak(3, 4));
        sim.run();
        let upward = sim.local_deliveries(up);
        assert_eq!(sequences(upward), vec![4]);
        let downward = sim.local_deliveries(down);
        assert_eq!(downward.len(), 2, "the data packet and the re-NAK");
        assert_eq!(
            nak_ranges(&downward[1].1).ranges,
            vec![NakRange { first: 3, last: 3 }]
        );

        // An active standby does the same, relaying the original NAK.
        let (mut sim, sb, up, down) = setup(standby());
        sim.inject(Time::ZERO, sb, PORT_DAQ, wan_frame(4));
        sim.inject(Time::from_micros(10), sb, PORT_WAN, activation_frame());
        sim.inject(Time::from_micros(20), sb, PORT_DAQ, nak(3, 4));
        sim.run();
        let upward = sim.local_deliveries(up);
        assert_eq!(sequences(upward), vec![4]);
        let r = repr_of(&upward[0].1).retransmit().unwrap();
        assert_eq!(r.source, STANDBY);
        let downward = sim.local_deliveries(down);
        assert_eq!(downward.len(), 2, "the data packet and the NAK");
        assert_eq!(
            nak_ranges(&downward[1].1).ranges,
            vec![NakRange { first: 3, last: 4 }]
        );
    }
}
