//! Store heap: what a retransmission store spends per held packet.
//!
//! How much of a flow's window a buffer can hold is its memory divided by
//! the cost of one held packet. `RetransmitStore` keeps each packet as a
//! compact record in a fixed chunk plus its head bytes in the chunk's
//! byte buffer; the payload tail is shared with every other copy and
//! costs nothing per packet. A counting allocator that tracks live bytes
//! makes the per-packet cost checkable. When the store was a `BTreeMap`
//! of cloned packets with a separate eviction ring, it measured 287 B per
//! held packet here; the chunked store measures 162 B, and 176 B is the
//! bound.
//!
//! The allocator is process-wide, so this file holds this one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use mmt::netsim::{Packet, Tail};
use mmt::protocol::RetransmitStore;

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

const PACKETS: u64 = 10_000;
/// DTN 1's upgraded head: headers plus the inlined message index.
const HEAD: usize = 64;
/// Most live heap the store may spend per held packet.
const BOUND: i64 = 176;

#[test]
fn a_held_packet_costs_at_most_176_bytes_of_heap() {
    // One 8 KiB filler shared by every message, as the sender makes it.
    let filler = Tail::build(8192, |_| {});
    // DTN 1's capacity in the pilot: the whole stream stays held.
    let mut store = RetransmitStore::new(256 * 1024 * 1024);
    let base = LIVE.load(Ordering::Relaxed);
    for seq in 0..PACKETS {
        let mut pkt = Packet::new(vec![seq as u8; HEAD]);
        pkt.tail = filler.clone();
        pkt.meta.seq = Some(seq);
        assert!(store.retain(seq, &pkt).stored);
    }
    let grown = LIVE.load(Ordering::Relaxed) - base;
    assert_eq!(store.len() as u64, PACKETS);
    assert_eq!(store.bytes(), PACKETS as usize * (HEAD + 8192));

    let per_packet = grown / PACKETS as i64;
    eprintln!("store heap: {per_packet} B live per held packet ({grown} B for {PACKETS})");
    assert!(
        per_packet <= BOUND,
        "{per_packet} B of live heap per held packet (bound {BOUND} B): the store keeps \
         more than a compact record and the head bytes"
    );
}
