//! Receiver heap per gap: what a receiver holds for one gap must not
//! grow with the gap's width.
//!
//! The receiver keeps what is missing and what it asked for as runs of
//! sequences that share their state, so one gap costs a few runs however
//! many sequences it spans. Two hostile shapes check it, each after more
//! than five retry rounds have named its first `NAK_ROUND_SEQS`
//! sequences: one forged frame that opens the gap `1..=u64::MAX-2`, and a
//! 10M-message stream stalled after 10. A receiver that kept one entry
//! per named sequence held 4 096 of them in both shapes, about 200 KB.
//!
//! The allocator is process-wide, so this file holds this one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use mmt::dataplane::parser::build_eth_mmt_frame;
use mmt::netsim::{Input, Machine, Output, Packet, Time, TimerToken};
use mmt::protocol::{MmtReceiver, ReceiverConfig};
use mmt::wire::mmt::{ExperimentId, MmtRepr};
use mmt::wire::{EthernetAddress, Ipv4Address};

/// Bytes currently allocated and not yet freed.
static LIVE: AtomicI64 = AtomicI64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// implementation upholds the `GlobalAlloc` contract; the only addition is
// a relaxed counter update that touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as they are.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // this `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Most live heap one receiver may hold after the rounds, in either
/// shape: the measured 3 984 B (release and debug alike, on x86-64
/// Linux; the delivery histograms are most of it) plus under 10 %.
const BOUND: i64 = 4_350;

/// NAKs each shape is driven to: its gap or tail round and at least five
/// retry rounds.
const NAKS: u64 = 7;

fn exp() -> ExperimentId {
    ExperimentId::new(2, 0)
}

fn frame(seq: u64) -> Packet {
    let repr = MmtRepr::data(exp())
        .with_sequence(seq)
        .with_retransmit(Ipv4Address::new(10, 0, 0, 5), 47_000)
        .with_age(1_000, false);
    let mut payload = [0u8; 64];
    payload[..8].copy_from_slice(&seq.to_be_bytes());
    Packet::new(build_eth_mmt_frame(
        EthernetAddress([2, 0, 0, 0, 0, 5]),
        EthernetAddress([2, 0, 0, 0, 0, 8]),
        &repr,
        &payload,
    ))
}

fn live() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// The live heap a receiver expecting `expect` messages holds once `seqs`
/// arrived and it has sent [`NAKS`] NAKs, every wake fired at its instant.
fn held_after_rounds(seqs: &[u64], expect: Option<u64>) -> i64 {
    let mut out = Vec::with_capacity(16);
    let mut wakes: Vec<(Time, TimerToken)> = Vec::with_capacity(64);
    let base = live();
    let mut cfg = ReceiverConfig::wan_defaults(exp(), Ipv4Address::new(10, 0, 0, 8));
    cfg.expect_messages = expect;
    let mut r = MmtReceiver::new(cfg);
    for &seq in seqs {
        r.poll(
            Time::from_micros(1),
            Input::Frame {
                port: 0,
                pkt: frame(seq),
            },
            &mut out,
        );
    }
    while r.stats.naks_sent < NAKS {
        for o in out.drain(..) {
            if let Output::WakeAt { at, token } = o {
                wakes.push((at, token));
            }
        }
        let next = (0..wakes.len())
            .min_by_key(|&i| wakes[i].0)
            .expect("a wake");
        let (at, token) = wakes.remove(next);
        r.poll(at, Input::Timer { token }, &mut out);
    }
    out.clear();
    let held = live() - base;
    assert_eq!(r.stats.lost, 0, "still asking");
    drop(r);
    held
}

#[test]
fn a_wide_gap_costs_a_few_runs_of_heap() {
    let forged = held_after_rounds(&[0, u64::MAX - 1], None);
    let stalled = held_after_rounds(&(0..10).collect::<Vec<_>>(), Some(10_000_000));
    eprintln!(
        "receiver gap heap: forged gap {forged} B, stalled tail {stalled} B (bound {BOUND} B)"
    );
    for (shape, held) in [("forged gap", forged), ("stalled tail", stalled)] {
        assert!(
            held <= BOUND,
            "{shape}: the receiver holds {held} B after {NAKS} NAKs (bound {BOUND} B): \
             something keeps per-sequence state"
        );
    }
}
