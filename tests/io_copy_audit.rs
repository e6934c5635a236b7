//! Copy audit for the io plane: how many bytes `run_loopback` allocates
//! per delivered message.
//!
//! A datagram on the real path is copied twice, by design: `gather` makes
//! the contiguous wire bytes of a message on the sending host, and the
//! receiving half copies each datagram out of the shared receive buffer
//! (`to_vec`) into the packet its machine consumes. The socket adds none:
//! a datagram the fault injector passes goes to the kernel from the
//! caller's slice. A counting allocator makes that checkable over 500
//! lossless bursts of 32 × 1 KiB messages, sent back to back: bytes
//! allocated per delivered message must stay within 5 564 B plus 18 %.
//! 5 564 B (5.53 allocations) is the release figure on x86-64 Linux,
//! 5 565 B in debug; with a staging copy of every datagram in the
//! injector it was 6 647 B (6.56 allocations), which fails the bound.
//! 2 048 B of what is left is not per datagram at all: the poll loop's
//! 64 KiB receive buffer, allocated once per run, over a 32-message burst.
//!
//! The allocator is process-wide, so this file holds this one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mmt::io::{run_loopback, IoPilotConfig};
use mmt::netsim::Time;

/// Bytes obtained from the allocator since process start. A `realloc`
/// counts the bytes it grows by.
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
/// Allocator calls that obtained bytes (`alloc`, `alloc_zeroed`, and a
/// `realloc` that grows).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// implementation upholds the `GlobalAlloc` contract; the only addition is
// relaxed counter updates that touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as they are.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = new_size.saturating_sub(layout.size());
        if grown > 0 {
            ALLOCATED.fetch_add(grown as u64, Ordering::Relaxed);
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
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
fn a_loopback_datagram_is_copied_once_each_way() {
    const BURSTS: u64 = 500;
    const MESSAGES: u64 = 32;
    const BOUND: u64 = 5_564 * 118 / 100;
    let mut cfg = IoPilotConfig::defaults();
    cfg.messages = MESSAGES;
    cfg.message_len = 1024;
    cfg.gap = Time::ZERO;
    cfg.deadline = Time::from_secs(10);

    let (bytes_before, calls_before) = (
        ALLOCATED.load(Ordering::Relaxed),
        ALLOCATIONS.load(Ordering::Relaxed),
    );
    let mut delivered = 0;
    for burst in 0..BURSTS {
        cfg.seed = burst + 1;
        let report = run_loopback(&cfg).expect("loopback burst");
        assert!(report.exactly_once(), "burst {burst}: {report:?}");
        delivered += report.delivered;
    }
    let bytes = ALLOCATED.load(Ordering::Relaxed) - bytes_before;
    let calls = ALLOCATIONS.load(Ordering::Relaxed) - calls_before;
    assert_eq!(delivered, BURSTS * MESSAGES);

    let per_message = bytes / delivered;
    let calls_per_message = calls as f64 / delivered as f64;
    eprintln!(
        "io copy audit: {per_message} B allocated per delivered 1024 B message \
         ({calls_per_message:.2} allocations)"
    );
    assert!(
        per_message <= BOUND,
        "{per_message} B allocated per delivered message: a datagram is copied more \
         than once each way (budget: {BOUND} B)"
    );
}
