//! Output queues feeding link transmitters.
//!
//! Three disciplines cover the paper's needs:
//!
//! * [`QueueSpec::DropTailFifo`] — the commodity default.
//! * [`QueueSpec::StrictPriority`] — age-sensitive data "prioritize[d] ...
//!   as it travels" (§5.3); the MMT priority class selects the band.
//! * [`QueueSpec::DeadlineAware`] — an AQM that consults the MMT age/
//!   timeliness extensions: packets whose aged flag is already set are shed
//!   *first* under pressure, because their information value has expired
//!   ("the aging of transported data follows a pre-determined policy",
//!   Fig. 2) — this realizes the paper's "explicit transport deadlines
//!   [are] an input to active queue management".

use crate::packet::Packet;
use std::collections::VecDeque;

/// Number of priority bands for the strict-priority discipline.
pub const PRIORITY_BANDS: usize = 4;

/// Queue discipline and sizing for one link transmitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueSpec {
    /// Single FIFO with a byte capacity; arrivals beyond capacity are
    /// dropped (drop-tail).
    DropTailFifo {
        /// Queue capacity in bytes.
        capacity_bytes: usize,
    },
    /// `PRIORITY_BANDS` FIFOs served highest-band-first, each with a byte
    /// capacity. The classifier maps a packet to a band.
    StrictPriority {
        /// Per-band capacity in bytes.
        capacity_bytes: usize,
    },
    /// FIFO that, when full, prefers shedding packets already marked aged
    /// (classifier band 255 = "aged") before dropping the arrival.
    DeadlineAware {
        /// Queue capacity in bytes.
        capacity_bytes: usize,
    },
}

impl QueueSpec {
    /// A generously sized FIFO for capacity-planned segments.
    pub fn default_fifo() -> QueueSpec {
        QueueSpec::DropTailFifo {
            capacity_bytes: 16 * 1024 * 1024,
        }
    }
}

/// A packet classifier: returns the priority band (0 = lowest) or the
/// special value 255 meaning "aged, shed first". Installed per link by the
/// topology builder; the MMT-aware classifier lives in `mmt-dataplane`.
pub type Classifier = fn(&Packet) -> u8;

fn default_classifier(_: &Packet) -> u8 {
    0
}

/// The runtime state of an output queue.
///
/// The packet count and the spec lead the struct, so a link's hop (an
/// admission test on an idle link, an empty `dequeue`) reads them beside
/// the link's other hot fields and never touches the bands. The bands are
/// allocated by the first `enqueue`: a link whose transmitter is never
/// busy never allocates them.
#[derive(Debug)]
#[repr(C)]
pub struct TransmitQueue {
    /// Packets queued across every band.
    len: usize,
    spec: QueueSpec,
    bands: Vec<Band>,
    classifier: Classifier,
    dropped: u64,
    shed_aged: u64,
}

/// One FIFO band and the bytes it holds (strict priority admits each
/// band against its own capacity).
#[derive(Debug, Default)]
struct Band {
    packets: VecDeque<Packet>,
    bytes: usize,
}

impl TransmitQueue {
    /// Create a queue with the default (constant-0) classifier.
    pub fn new(spec: QueueSpec) -> TransmitQueue {
        Self::with_classifier(spec, default_classifier)
    }

    /// Create a queue with a custom classifier.
    pub fn with_classifier(spec: QueueSpec, classifier: Classifier) -> TransmitQueue {
        TransmitQueue {
            len: 0,
            spec,
            bands: Vec::new(),
            classifier,
            dropped: 0,
            shed_aged: 0,
        }
    }

    /// Replace the classifier.
    ///
    /// # Panics
    /// Panics if packets are queued: the bands they sit in were chosen by
    /// the old classifier.
    pub fn set_classifier(&mut self, classifier: Classifier) {
        assert!(
            self.is_empty(),
            "classifier must be installed before traffic flows"
        );
        self.classifier = classifier;
    }

    /// Bytes currently queued.
    pub fn occupancy_bytes(&self) -> usize {
        self.bands.iter().map(|b| b.bytes).sum()
    }

    /// Packets currently queued.
    pub fn occupancy_packets(&self) -> usize {
        self.len
    }

    /// Packets dropped by this queue so far (tail drops + sheds).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Of the drops, how many were aged packets shed by the deadline-aware
    /// discipline.
    pub fn shed_aged(&self) -> u64 {
        self.shed_aged
    }

    /// Whether the queue holds no packets.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Offer a `len`-byte packet that an idle transmitter takes at once,
    /// so it never waits here. Returns whether this (empty) queue would
    /// have admitted it; a refusal counts as a drop, exactly as
    /// [`TransmitQueue::enqueue`] counts it. Every discipline reduces to
    /// the same test on an empty queue: nothing to shed, no band fuller
    /// than another.
    pub fn pass_through(&mut self, len: usize) -> bool {
        debug_assert!(self.is_empty(), "only an empty queue passes through");
        let (QueueSpec::DropTailFifo { capacity_bytes }
        | QueueSpec::StrictPriority { capacity_bytes }
        | QueueSpec::DeadlineAware { capacity_bytes }) = self.spec;
        if len > capacity_bytes {
            self.dropped += 1;
            return false;
        }
        true
    }

    /// Offer a packet. Returns `true` if enqueued, `false` if dropped.
    pub fn enqueue(&mut self, pkt: Packet) -> bool {
        if self.bands.is_empty() {
            let bands = match self.spec {
                QueueSpec::StrictPriority { .. } => PRIORITY_BANDS,
                _ => 1,
            };
            self.bands.resize_with(bands, Band::default);
        }
        let (band, capacity_bytes) = match self.spec {
            QueueSpec::DropTailFifo { capacity_bytes } => (0, capacity_bytes),
            QueueSpec::StrictPriority { capacity_bytes } => (
                usize::from((self.classifier)(&pkt)).min(PRIORITY_BANDS - 1),
                capacity_bytes,
            ),
            QueueSpec::DeadlineAware { capacity_bytes } => {
                // Shed aged packets (classifier band 255) from the front
                // until the arrival fits.
                let fifo = &mut self.bands[0];
                while fifo.bytes + pkt.len() > capacity_bytes {
                    let Some(pos) = fifo
                        .packets
                        .iter()
                        .position(|p| (self.classifier)(p) == 255)
                    else {
                        break;
                    };
                    let Some(removed) = fifo.packets.remove(pos) else {
                        break; // unreachable: pos came from position() above
                    };
                    fifo.bytes -= removed.len();
                    self.len -= 1;
                    self.dropped += 1;
                    self.shed_aged += 1;
                }
                (0, capacity_bytes)
            }
        };
        let target = &mut self.bands[band];
        if target.bytes + pkt.len() > capacity_bytes {
            self.dropped += 1;
            return false;
        }
        target.bytes += pkt.len();
        target.packets.push_back(pkt);
        self.len += 1;
        true
    }

    /// Take the next packet to transmit (highest priority band first).
    pub fn dequeue(&mut self) -> Option<Packet> {
        if self.len == 0 {
            return None;
        }
        for band in self.bands.iter_mut().rev() {
            if let Some(pkt) = band.packets.pop_front() {
                band.bytes -= pkt.len();
                self.len -= 1;
                return Some(pkt);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(n: usize) -> Packet {
        Packet::new(vec![0u8; n])
    }

    #[test]
    fn fifo_order_and_occupancy() {
        let mut q = TransmitQueue::new(QueueSpec::DropTailFifo {
            capacity_bytes: 100,
        });
        assert!(q.enqueue(Packet::new(vec![1; 10])));
        assert!(q.enqueue(Packet::new(vec![2; 20])));
        assert_eq!(q.occupancy_bytes(), 30);
        assert_eq!(q.occupancy_packets(), 2);
        assert_eq!(q.dequeue().unwrap().bytes[0], 1);
        assert_eq!(q.dequeue().unwrap().bytes[0], 2);
        assert!(q.dequeue().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn drop_tail_at_capacity() {
        let mut q = TransmitQueue::new(QueueSpec::DropTailFifo { capacity_bytes: 25 });
        assert!(q.enqueue(pkt(10)));
        assert!(q.enqueue(pkt(10)));
        assert!(!q.enqueue(pkt(10))); // would exceed 25
        assert_eq!(q.dropped(), 1);
        assert_eq!(q.occupancy_bytes(), 20);
    }

    #[test]
    fn strict_priority_serves_high_band_first() {
        fn by_first_byte(p: &Packet) -> u8 {
            p.bytes[0]
        }
        let mut q = TransmitQueue::with_classifier(
            QueueSpec::StrictPriority {
                capacity_bytes: 1000,
            },
            by_first_byte,
        );
        assert!(q.enqueue(Packet::new(vec![0, 0])));
        assert!(q.enqueue(Packet::new(vec![3, 0]))); // high priority
        assert!(q.enqueue(Packet::new(vec![1, 0])));
        assert_eq!(q.dequeue().unwrap().bytes[0], 3);
        assert_eq!(q.dequeue().unwrap().bytes[0], 1);
        assert_eq!(q.dequeue().unwrap().bytes[0], 0);
    }

    #[test]
    fn strict_priority_band_isolation() {
        fn by_first_byte(p: &Packet) -> u8 {
            p.bytes[0]
        }
        let mut q = TransmitQueue::with_classifier(
            QueueSpec::StrictPriority { capacity_bytes: 4 },
            by_first_byte,
        );
        // Fill band 0.
        assert!(q.enqueue(Packet::new(vec![0, 0])));
        assert!(q.enqueue(Packet::new(vec![0, 0])));
        assert!(!q.enqueue(Packet::new(vec![0, 0]))); // band 0 full
                                                      // Band 3 still has room.
        assert!(q.enqueue(Packet::new(vec![3, 0])));
    }

    #[test]
    fn band_index_clamped() {
        fn always_200(_: &Packet) -> u8 {
            200
        }
        let mut q = TransmitQueue::with_classifier(
            QueueSpec::StrictPriority {
                capacity_bytes: 100,
            },
            always_200,
        );
        assert!(q.enqueue(pkt(4)));
        assert!(q.dequeue().is_some());
    }

    #[test]
    fn deadline_aware_sheds_aged_first() {
        // Classifier: byte 0 == 0xA9 means "aged".
        fn aged_marker(p: &Packet) -> u8 {
            if p.bytes[0] == 0xA9 {
                255
            } else {
                0
            }
        }
        let mut q = TransmitQueue::with_classifier(
            QueueSpec::DeadlineAware { capacity_bytes: 30 },
            aged_marker,
        );
        assert!(q.enqueue(Packet::new(vec![0xA9; 10]))); // aged
        assert!(q.enqueue(Packet::new(vec![0x01; 10]))); // fresh
        assert!(q.enqueue(Packet::new(vec![0x02; 10]))); // fresh
                                                         // Full. A fresh arrival displaces the aged packet.
        assert!(q.enqueue(Packet::new(vec![0x03; 10])));
        assert_eq!(q.shed_aged(), 1);
        assert_eq!(q.dropped(), 1);
        let order: Vec<u8> = std::iter::from_fn(|| q.dequeue().map(|p| p.bytes[0])).collect();
        assert_eq!(order, vec![0x01, 0x02, 0x03]);
    }

    #[test]
    fn an_empty_queue_never_touches_its_bands() {
        let mut q = TransmitQueue::new(QueueSpec::default_fifo());
        assert!(q.is_empty());
        assert!(q.dequeue().is_none());
        assert!(q.pass_through(1500));
        assert_eq!((q.occupancy_packets(), q.occupancy_bytes()), (0, 0));
        assert!(q.bands.is_empty(), "no band storage until a packet waits");
        // The count and the spec lead the struct, beside the link's hot
        // fields (see `link::tests`).
        assert_eq!(std::mem::offset_of!(TransmitQueue, len), 0);
        assert_eq!(
            std::mem::offset_of!(TransmitQueue, spec),
            std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn pass_through_admits_what_an_empty_queue_would() {
        for spec in [
            QueueSpec::DropTailFifo {
                capacity_bytes: 100,
            },
            QueueSpec::StrictPriority {
                capacity_bytes: 100,
            },
            QueueSpec::DeadlineAware {
                capacity_bytes: 100,
            },
        ] {
            for len in [1, 99, 100, 101, 9000] {
                let mut passed = TransmitQueue::new(spec);
                let mut queued = TransmitQueue::new(spec);
                assert_eq!(
                    passed.pass_through(len),
                    queued.enqueue(pkt(len)),
                    "{spec:?} len {len}"
                );
                assert_eq!(passed.dropped(), queued.dropped());
                assert_eq!(passed.shed_aged(), queued.shed_aged());
                assert!(passed.is_empty());
            }
        }
    }

    #[test]
    fn counts_match_the_bands_under_random_traffic() {
        fn by_first_byte(p: &Packet) -> u8 {
            p.bytes[0]
        }
        let mut rng = crate::rng::SimRng::new(0x0517_0033);
        for spec in [
            QueueSpec::DropTailFifo {
                capacity_bytes: 4000,
            },
            QueueSpec::StrictPriority {
                capacity_bytes: 2000,
            },
            QueueSpec::DeadlineAware {
                capacity_bytes: 4000,
            },
        ] {
            let mut q = TransmitQueue::with_classifier(spec, by_first_byte);
            for _ in 0..5_000 {
                if rng.next_bounded(3) == 0 {
                    q.dequeue();
                } else {
                    // Bands 0–3, or 255 ("aged") for the deadline-aware shed.
                    let class = [0, 1, 2, 3, 255][rng.next_bounded(5) as usize];
                    let len = 1 + rng.next_bounded(600) as usize;
                    let mut bytes = vec![0u8; len];
                    bytes[0] = class;
                    q.enqueue(Packet::new(bytes));
                }
                let packets: usize = q.bands.iter().map(|b| b.packets.len()).sum();
                assert_eq!(q.occupancy_packets(), packets, "{spec:?}");
                assert_eq!(q.is_empty(), packets == 0);
                for band in &q.bands {
                    let bytes: usize = band.packets.iter().map(Packet::len).sum();
                    assert_eq!(band.bytes, bytes, "{spec:?}");
                }
            }
            assert!(q.dropped() > 0, "{spec:?} never filled");
        }
    }

    #[test]
    fn deadline_aware_drops_arrival_when_no_aged_to_shed() {
        fn never_aged(_: &Packet) -> u8 {
            0
        }
        let mut q = TransmitQueue::with_classifier(
            QueueSpec::DeadlineAware { capacity_bytes: 20 },
            never_aged,
        );
        assert!(q.enqueue(pkt(10)));
        assert!(q.enqueue(pkt(10)));
        assert!(!q.enqueue(pkt(10)));
        assert_eq!(q.dropped(), 1);
        assert_eq!(q.shed_aged(), 0);
    }
}
