//! Fleet heap: the most live heap one fleet run holds, per flow.
//!
//! A fleet is thousands of sensor flows converging on 16 DTN groups, run
//! one group after another. What bounds the fleet size a host can hold
//! is the heap a group holds at its peak: its links, its events and the
//! packets in flight, then its exported telemetry. A counting allocator
//! that tracks live bytes and their high-water mark makes that peak
//! checkable. While every event carried its packet inline (128 B per
//! wheel entry), every link carried fault state it never used, and each
//! group's link stats kept a B-tree index, this run peaked at 107 B per
//! flow; it now peaks at 74 B, and 81 B is the bound. (The figures are
//! the same in debug and release builds: the heap holds the same
//! objects.)
//!
//! The allocator is process-wide, so this file holds this one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use mmt::pilot::manyflow::{self, ManyFlowConfig};

/// Bytes currently allocated and not yet freed.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// The most bytes `LIVE` has reached.
static PEAK: AtomicI64 = AtomicI64::new(0);

struct Counting;

impl Counting {
    fn grow(by: i64) {
        let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// implementation upholds the `GlobalAlloc` contract; the only addition is
// relaxed counter updates that touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::grow(layout.size() as i64);
        // SAFETY: the caller's `layout` obligations pass through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::grow(layout.size() as i64);
        // SAFETY: the caller's `layout` obligations pass through as they are.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::grow(new_size as i64 - layout.size() as i64);
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

const SENSORS: usize = 30_000;
/// Most live heap the run may hold at its peak, per flow.
const BOUND: i64 = 81;

#[test]
fn a_fleet_flow_costs_at_most_81_bytes_of_peak_heap() {
    let cfg = ManyFlowConfig::fleet(SENSORS, 1, 1);
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let report = manyflow::run(&cfg);
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert_eq!(
        report.shard.packets, report.offered,
        "clean links lose nothing"
    );
    assert_eq!(report.shard.events, 3 * report.shard.packets);

    let per_flow = peak / SENSORS as i64;
    eprintln!("fleet heap: {per_flow} B peak live heap per flow ({peak} B for {SENSORS})");
    assert!(
        per_flow <= BOUND,
        "{per_flow} B of peak live heap per flow (bound {BOUND} B): a group holds more \
         than its links, its events and its packets in flight"
    );
}
