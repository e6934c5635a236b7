//! The receiver's NAK transcript, pinned: every NAK `MmtReceiver` sends,
//! with the instant it sends it, for seeded scripts that exercise each
//! way a loss is found and re-asked.
//!
//! A small deterministic driver plays the network. Originals leave a
//! paced sender and may be lost, duplicated, delayed past later ones
//! (reordering) or delivered long after their NAK (late originals). Each
//! NAK is answered by served copies one modelled round trip later, some
//! of them lost too. Some scripts expect a known stream length and lose
//! its tail; some call `back_off` and `degrade` mid-run, as a watchdog
//! would. The receiver is driven through `Machine::poll` only: every wake
//! it asks for fires at its instant, stale ones included, and at equal
//! instants frames go first, then wakes in the order requested.
//!
//! Each script's pin is one FNV-64 over every emitted `(time, frame
//! bytes)` and the final `ReceiverStats`. So a change to what is asked,
//! when, or how it is counted moves a pin; a change to how the receiver
//! keeps its books does not.

use mmt::dataplane::parser::{build_eth_mmt_frame, FrameView};
use mmt::netsim::{Input, Machine, Output, Packet, Time, TimerToken};
use mmt::protocol::{MmtReceiver, ReceiverConfig, ReceiverStats};
use mmt::wire::mmt::{ControlRepr, ExperimentId, Features, MmtRepr};
use mmt::wire::{EthernetAddress, Ipv4Address};

fn exp() -> ExperimentId {
    ExperimentId::new(2, 0)
}

/// Message `seq` as DTN 1 forwards it (a served copy is the same frame).
fn frame(seq: u64) -> Packet {
    let repr = MmtRepr::data(exp())
        .with_sequence(seq)
        .with_retransmit(Ipv4Address::new(10, 0, 0, 5), 47_000)
        .with_age(1_000, false)
        .with_flags(Features::ACK_NAK);
    let mut payload = [0u8; 32];
    payload[..8].copy_from_slice(&seq.to_be_bytes());
    Packet::new(build_eth_mmt_frame(
        EthernetAddress([2, 0, 0, 0, 0, 5]),
        EthernetAddress([2, 0, 0, 0, 0, 8]),
        &repr,
        &payload,
    ))
}

/// SplitMix64: the scripts' only source of chance.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// True with probability `per_mille / 1000`.
    fn roll(&mut self, per_mille: u64) -> bool {
        self.next() % 1000 < per_mille
    }
}

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// One seeded run.
#[derive(Clone, Copy)]
struct Script {
    seed: u64,
    messages: u64,
    /// Interval between originals leaving the sender.
    pacing: Time,
    /// One-way delay of an original.
    owd: Time,
    /// From a NAK leaving the receiver to its served copies arriving.
    round_trip: Time,
    /// Chance, in ‰, that an original is lost...
    loss: u64,
    /// ...that a lost original still turns up, long after its NAK...
    late: u64,
    /// ...that an original arrives twice...
    dup: u64,
    /// ...that an original is held back behind later ones...
    reorder: u64,
    /// ...and that a served copy is lost.
    serve_loss: u64,
    /// The last `lost_tail` originals never arrive.
    lost_tail: u64,
    /// Whether the receiver knows the stream's length.
    expect: bool,
    /// When a watchdog calls `back_off`, and when `degrade`.
    back_off_at: Option<Time>,
    degrade_at: Option<Time>,
    /// `give_up_after` and `max_nak_retries`, if not the defaults.
    give_up: Option<Time>,
    retries: Option<u32>,
    /// The run stops at this instant.
    end: Time,
}

const fn us(v: u64) -> Time {
    Time::from_micros(v)
}

const fn ms(v: u64) -> Time {
    Time::from_millis(v)
}

const BASE: Script = Script {
    seed: 1,
    messages: 2_000,
    pacing: us(20),
    owd: ms(2),
    round_trip: ms(4),
    loss: 20,
    late: 0,
    dup: 0,
    reorder: 0,
    serve_loss: 0,
    lost_tail: 0,
    expect: false,
    back_off_at: None,
    degrade_at: None,
    give_up: None,
    retries: None,
    end: Time::from_secs(5),
};

/// Run `script`; its transcript digest and final counters.
fn transcript(script: Script) -> (u64, ReceiverStats) {
    let mut cfg = ReceiverConfig::wan_defaults(exp(), Ipv4Address::new(10, 0, 0, 8));
    cfg.nak_interval = ms(5);
    cfg.nak_interval_max = ms(80);
    cfg.expect_messages = script.expect.then_some(script.messages);
    if let Some(give_up) = script.give_up {
        cfg.give_up_after = give_up;
    }
    if let Some(retries) = script.retries {
        cfg.max_nak_retries = retries;
    }
    let mut r = MmtReceiver::new(cfg);
    let mut rng = Rng(script.seed);
    // Frames and wakes: (instant, order requested, what).
    let mut frames: Vec<(Time, u64, u64)> = Vec::new();
    let mut wakes: Vec<(Time, u64, TimerToken)> = Vec::new();
    let mut order = 0u64;
    let mut push_frame = |frames: &mut Vec<(Time, u64, u64)>, at: Time, seq: u64| {
        order += 1;
        frames.push((at, order, seq));
    };
    for seq in 0..script.messages {
        let sent = script.pacing * seq;
        let arrive = sent + script.owd;
        if seq + script.lost_tail >= script.messages {
            continue;
        }
        if rng.roll(script.loss) {
            if rng.roll(script.late) {
                push_frame(&mut frames, arrive + script.round_trip * 3, seq);
            }
            continue;
        }
        let held = if rng.roll(script.reorder) {
            script.pacing * (1 + rng.next() % 4)
        } else {
            Time::ZERO
        };
        push_frame(&mut frames, arrive + held, seq);
        if rng.roll(script.dup) {
            push_frame(&mut frames, arrive + held + script.pacing / 2, seq);
        }
    }
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    let mut out = Vec::new();
    let mut wake_order = 0u64;
    let (mut backed_off, mut degraded) = (false, false);
    loop {
        let next_frame = (0..frames.len()).min_by_key(|&i| (frames[i].0, frames[i].1));
        let next_wake = (0..wakes.len()).min_by_key(|&i| (wakes[i].0, wakes[i].1));
        let (now, input) = match (next_frame, next_wake) {
            (Some(f), w) if w.is_none_or(|w| frames[f].0 <= wakes[w].0) => {
                let (at, _, seq) = frames.swap_remove(f);
                (
                    at,
                    Input::Frame {
                        port: 0,
                        pkt: frame(seq),
                    },
                )
            }
            (_, Some(w)) => {
                let (at, _, token) = wakes.swap_remove(w);
                (at, Input::Timer { token })
            }
            _ => break,
        };
        if now > script.end {
            break;
        }
        if !backed_off && script.back_off_at.is_some_and(|at| at <= now) {
            backed_off = true;
            r.back_off();
        }
        if !degraded && script.degrade_at.is_some_and(|at| at <= now) {
            degraded = true;
            r.degrade();
        }
        r.poll(now, input, &mut out);
        for o in out.drain(..) {
            match o {
                Output::Transmit { pkt, .. } => {
                    let pkt = pkt.gather();
                    digest.eat(&now.as_nanos().to_le_bytes());
                    digest.eat(&pkt.bytes);
                    let mmt = FrameView::of(&pkt).mmt_bytes().expect("an MMT frame");
                    let Ok((_, ControlRepr::Nak(nak))) = ControlRepr::parse_packet(mmt) else {
                        panic!("the receiver sends only NAKs");
                    };
                    for range in nak.ranges {
                        for seq in range.first..=range.last.min(script.messages - 1) {
                            if !rng.roll(script.serve_loss) {
                                push_frame(&mut frames, now + script.round_trip, seq);
                            }
                        }
                    }
                }
                Output::WakeAt { at, token } => {
                    wake_order += 1;
                    wakes.push((at, wake_order, token));
                }
                Output::DeliverLocal { .. } => {}
            }
        }
    }
    digest.eat(format!("{:?}", r.stats).as_bytes());
    (digest.0, r.stats)
}

/// Check every `(script, pin)`; print the digests first so a deliberate
/// change can be re-pinned from the output.
fn check(name: &str, cases: &[(Script, u64)]) {
    let mut got = Vec::new();
    for (i, &(script, _)) in cases.iter().enumerate() {
        let (digest, stats) = transcript(script);
        eprintln!("{name} case {i}: 0x{digest:016x} {stats:?}");
        got.push(digest);
    }
    let want: Vec<u64> = cases.iter().map(|&(_, pin)| pin).collect();
    assert_eq!(got, want, "{name}: the NAK transcript moved");
}

#[test]
fn gaps_duplicates_reordering_and_late_originals() {
    let base = Script {
        dup: 20,
        reorder: 30,
        late: 300,
        ..BASE
    };
    let heavy = Script {
        seed: 3,
        loss: 60,
        ..base
    };
    check(
        "gaps",
        &[
            (Script { seed: 1, ..base }, 0x3e2c_2593_d477_209f),
            (Script { seed: 2, ..base }, 0xb50f_af01_b545_1500),
            (heavy, 0x41b1_c676_59ae_0ff9),
        ],
    );
}

#[test]
fn a_lost_tail_of_a_known_length_stream() {
    let base = Script {
        expect: true,
        lost_tail: 40,
        ..BASE
    };
    let reordered = Script {
        seed: 5,
        reorder: 30,
        late: 300,
        ..base
    };
    let lossy_serves = Script {
        seed: 6,
        serve_loss: 300,
        ..base
    };
    check(
        "tail",
        &[
            (Script { seed: 4, ..base }, 0x2ddf_7b0e_1770_aa3a),
            (reordered, 0x7cce_6207_a299_4d05),
            (lossy_serves, 0x21d0_8412_6d81_3063),
        ],
    );
}

#[test]
fn served_copies_some_lost_answer_after_a_round_trip() {
    let base = Script {
        serve_loss: 250,
        loss: 40,
        ..BASE
    };
    let slow = Script {
        seed: 8,
        round_trip: ms(12),
        pacing: us(100),
        ..base
    };
    let known_length = Script {
        seed: 9,
        expect: true,
        lost_tail: 5,
        dup: 20,
        ..base
    };
    check(
        "served",
        &[
            (Script { seed: 7, ..base }, 0x768e_ca6f_72f8_db68),
            (slow, 0xcb96_fbf2_617d_d2ca),
            (known_length, 0xb45f_4482_81c1_8417),
        ],
    );
}

#[test]
fn back_off_and_degrade_mid_run() {
    let base = Script {
        serve_loss: 500,
        loss: 50,
        expect: true,
        lost_tail: 10,
        back_off_at: Some(ms(20)),
        degrade_at: Some(ms(45)),
        ..BASE
    };
    let short_give_up = Script {
        seed: 11,
        give_up: Some(ms(30)),
        degrade_at: None,
        ..base
    };
    let reordered = Script {
        seed: 12,
        reorder: 30,
        late: 300,
        dup: 20,
        ..base
    };
    let three_retries = Script {
        seed: 13,
        retries: Some(3),
        degrade_at: None,
        ..base
    };
    check(
        "watchdog",
        &[
            (Script { seed: 10, ..base }, 0xa4bd_4479_97a5_55b2),
            (short_give_up, 0x5ef2_1e20_8523_f5be),
            (reordered, 0x18c9_7186_329d_1b03),
            (three_retries, 0x5359_a67d_fb40_b7f6),
        ],
    );
}
