//! Copy audit: how many bytes the Fig. 4 chain allocates per message.
//!
//! The paper restricts in-network work to header processing (§5), so a
//! message's payload should be written once — by the sender — and every
//! hop after that (border upgrade, retransmission store, transit age
//! update, destination check, delivery) should cost a head's worth of
//! bytes at most. The sender goes one better: the only per-message payload
//! bytes, the 8-byte index, ride inlined in the head, and the rest is one
//! filler written once per stream. A counting allocator makes that
//! checkable: over a lossless pilot run, bytes allocated per delivered
//! message must stay within 369 B. One payload copy anywhere on the path
//! adds another `message_len` and fails the bound twenty-two-fold (the
//! allocation per message was ≈ 8.9 KB with a tail per message, ≈ 43 KB
//! with contiguous packets). What is left is heads and bookkeeping:
//! 313 B per message in debug and release builds on x86-64 Linux, down
//! from 377 B when the retransmission store was handed an owned clone of
//! each forwarded packet (a head allocated only to be copied into its
//! chunk and freed), 667 B when it cloned each head into its own
//! allocation and 743 B when the receiver still grew a per-message
//! delivery log. The bound is that figure plus 18 %.
//!
//! The allocator is process-wide, so this file holds this one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mmt::netsim::{LossModel, Tail, Time};
use mmt::pilot::topology::{Pilot, PilotConfig};
use mmt::protocol::RetransmitBuffer;

/// Bytes obtained from the allocator since process start. A `realloc`
/// counts the bytes it grows by.
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// implementation upholds the `GlobalAlloc` contract; the only addition is
// a relaxed counter update that touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as they are.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = new_size.saturating_sub(layout.size());
        ALLOCATED.fetch_add(grown as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // this `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn the_chain_allocates_one_payload_per_message() {
    const MESSAGES: u64 = 1_000;
    let mut cfg = PilotConfig::default_run();
    cfg.message_count = MESSAGES as usize;
    cfg.message_gap = Time::from_micros(20);
    cfg.wan_loss = LossModel::None;
    let message_len = cfg.message_len as u64;
    assert_eq!(message_len, 8192);

    // Building the topology is set-up; the stream is what is audited.
    let mut pilot = Pilot::build(cfg);
    let before = ALLOCATED.load(Ordering::Relaxed);
    pilot.run(Time::from_secs(30));
    let allocated = ALLOCATED.load(Ordering::Relaxed) - before;

    let report = pilot.report();
    assert!(pilot.is_complete());
    assert_eq!(report.receiver.delivered, MESSAGES);
    assert_eq!(report.receiver.naks_sent, 0, "lossless run");
    assert_eq!(report.buffer.stored, MESSAGES, "every message is retained");

    // The payload bytes are real, and there is one set of them: every
    // retained copy (what was forwarded and delivered shares its tail)
    // carries the same shared filler behind its inlined index.
    let dtn1 = pilot.sim.node_as::<RetransmitBuffer>(pilot.dtn1).unwrap();
    let first = dtn1.stored(0).unwrap().tail;
    assert!(matches!(first, Tail::Shared(_)), "the payload is resident");
    assert_eq!(first.len() as u64, message_len - 8);
    for seq in 0..MESSAGES {
        let copy = dtn1.stored(seq).unwrap();
        assert_eq!(copy.len(), copy.bytes.len() + first.len(), "seq {seq}");
        assert!(copy.tail.shares_with(&first), "seq {seq}: one filler");
    }

    let per_message = allocated / MESSAGES;
    eprintln!("copy audit: {per_message} B allocated per delivered {message_len} B message");
    assert!(
        per_message <= 369,
        "{per_message} B allocated per delivered message: some hop copies payload bytes \
         (budget: 369 B of heads and bookkeeping; one {message_len} B payload copy is 22x that)"
    );
}
