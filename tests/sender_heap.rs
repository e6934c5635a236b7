//! Sender heap: what a sending endpoint holds must not grow with the
//! stream it is asked to send.
//!
//! Every sender pulls its messages from a `daq::workload` source whose
//! state is the next index, so a sender built for 1 000 000 messages holds
//! the same live heap as one built for 10 000. A counting allocator that
//! tracks live bytes makes that checkable. When `MmtSender` and
//! `TcpSender` each kept a `Vec<Time>` schedule, one entry per message,
//! they held about 80 KB here at 10 000 messages and 8 MB at 1 000 000,
//! so the 1 KiB bound fails any per-message state by three orders of
//! magnitude.
//!
//! The allocator is process-wide, so this file holds this one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use mmt::netsim::Time;
use mmt::protocol::{MmtSender, SenderConfig};
use mmt::transport::{CcProfile, TcpSender};
use mmt::wire::mmt::ExperimentId;

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

const FIRST: usize = 10_000;
const SECOND: usize = 1_000_000;
/// Most the live heap may differ between the two stream lengths.
const SLACK: i64 = 1024;
const MSG: usize = 8192;

/// The live heap that `build` leaves allocated while its result lives.
fn heap_of<T>(build: impl FnOnce() -> T) -> i64 {
    let base = LIVE.load(Ordering::Relaxed);
    let built = build();
    let held = LIVE.load(Ordering::Relaxed) - base;
    drop(built);
    held
}

#[test]
fn a_sender_holds_the_same_heap_for_any_stream_length() {
    let exp = ExperimentId::new(2, 0);
    let gap = Time::from_micros(1);
    let mmt = |count| heap_of(|| MmtSender::new(SenderConfig::regular(exp, MSG, gap, count)));
    let tcp = |count: usize| {
        let bytes = (count * MSG) as u64;
        heap_of(|| TcpSender::bulk(CcProfile::tuned_dtn(), 1, bytes, MSG))
    };
    for (name, at_first, at_second) in [
        ("MmtSender", mmt(FIRST), mmt(SECOND)),
        ("TcpSender", tcp(FIRST), tcp(SECOND)),
    ] {
        eprintln!("{name} heap: {at_first} B for {FIRST} messages, {at_second} B for {SECOND}");
        assert!(
            (at_second - at_first).abs() <= SLACK,
            "{name} holds {at_first} B for {FIRST} messages but {at_second} B for {SECOND} \
             (bound {SLACK} B apart): something keeps per-message state"
        );
    }
}
