//! Receiver heap: what a consuming endpoint holds must not grow with the
//! stream it consumes.
//!
//! The receiver records everything it reports — latency and age
//! histograms, the delivery digest, the distinct count — at the moment it
//! delivers, and keeps range sets for sequence bookkeeping. So an
//! in-order stream costs it the same live heap after 10 000 deliveries as
//! after 200 000. A counting allocator that tracks live bytes makes that
//! checkable. When the receiver still kept a delivery log and a set of
//! delivered indices, its heap here grew 1.2 MB by 10 000 deliveries and
//! 20.7 MB by 200 000, so the 1 KiB bound fails any per-message state by
//! four orders of magnitude.
//!
//! The allocator is process-wide, so this file holds this one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use mmt::dataplane::parser::build_eth_mmt_frame;
use mmt::netsim::{Input, Machine, Packet, Time};
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

/// Deliveries before the baseline is taken: the first ranges, histogram
/// buckets and output capacity are allocated by then.
const WARM_UP: u64 = 100;
const FIRST: u64 = 10_000;
const SECOND: u64 = 200_000;
/// Most the live heap may grow between the two checkpoints.
const SLACK: i64 = 1024;

fn exp() -> ExperimentId {
    ExperimentId::new(2, 0)
}

/// Message `seq` as DTN 1 forwards it: sequenced, aged, created 1 ms
/// before it arrives.
fn frame(seq: u64) -> Packet {
    let repr = MmtRepr::data(exp())
        .with_sequence(seq)
        .with_retransmit(Ipv4Address::new(10, 0, 0, 5), 47_000)
        .with_age(1_000, false);
    let mut payload = [0u8; 64];
    payload[..8].copy_from_slice(&seq.to_be_bytes());
    let mut pkt = Packet::new(build_eth_mmt_frame(
        EthernetAddress([2, 0, 0, 0, 0, 5]),
        EthernetAddress([2, 0, 0, 0, 0, 8]),
        &repr,
        &payload,
    ));
    pkt.meta.created_at = Time::from_micros(seq);
    pkt
}

/// Deliver `seqs` in order; each frame is built just before its poll,
/// which consumes it, so the frames hold nothing across iterations.
fn deliver(r: &mut MmtReceiver, seqs: std::ops::Range<u64>) {
    let mut out = Vec::with_capacity(4);
    for seq in seqs {
        let pkt = frame(seq);
        let now = Time::from_micros(seq) + Time::from_millis(1);
        r.poll(now, Input::Frame { port: 0, pkt }, &mut out);
        out.clear();
    }
}

fn live() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

#[test]
fn receiver_heap_does_not_grow_with_the_stream() {
    let mut cfg = ReceiverConfig::wan_defaults(exp(), Ipv4Address::new(10, 0, 0, 8));
    cfg.expect_messages = Some(SECOND);
    let mut r = MmtReceiver::new(cfg);
    deliver(&mut r, 0..WARM_UP);
    let base = live();
    deliver(&mut r, WARM_UP..FIRST);
    let at_first = live() - base;
    deliver(&mut r, FIRST..SECOND);
    let at_second = live() - base;

    assert_eq!(r.stats.delivered, SECOND);
    assert!(r.is_complete());
    assert_eq!(r.latency().count(), SECOND as usize);
    eprintln!(
        "receiver heap: {at_first} B grown after {FIRST} deliveries, \
         {at_second} B after {SECOND}"
    );
    assert!(
        at_second - at_first <= SLACK,
        "the receiver's live heap grew {} B between {FIRST} and {SECOND} in-order \
         deliveries (bound {SLACK} B): something keeps per-message state",
        at_second - at_first
    );
}
