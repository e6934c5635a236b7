//! Sequence-space bookkeeping: dedup, gap detection, missing ranges.

use mmt_wire::mmt::NakRange;
use std::collections::BTreeMap;

/// Tracks which sequence numbers have been received.
///
/// Stores received sequence space as merged `[start, end)` intervals, so
/// memory stays proportional to the number of *gaps*, not packets.
#[derive(Debug, Clone, Default)]
pub struct SeqTracker {
    /// Merged received ranges: start → end (exclusive).
    ranges: BTreeMap<u64, u64>,
    /// Sum of the ranges' widths, kept as they merge.
    received: u64,
    /// How many `record` calls hit an already-received sequence.
    duplicate_hits: u64,
}

impl SeqTracker {
    /// An empty tracker.
    pub fn new() -> SeqTracker {
        SeqTracker::default()
    }

    /// Record a sequence number. Returns `true` if new, `false` if a
    /// duplicate.
    ///
    /// The highest range is read first: an in-order arrival extends it
    /// in place and one above it opens a new last range, neither with a
    /// tree search. Only a sequence below the highest range's start (a
    /// late fill) searches for its neighbours.
    pub fn record(&mut self, seq: u64) -> bool {
        // End-exclusive bound. Sequence space is allocated from a
        // 0-based counter, so `seq` never reaches u64::MAX in practice;
        // saturating keeps the interval invariants intact if it did.
        let seq_end = seq.saturating_add(1);
        match self.ranges.last_entry() {
            Some(mut top) if *top.get() == seq => *top.get_mut() = seq_end,
            Some(top) if seq < *top.key() => return self.record_below(seq, seq_end),
            Some(top) if seq < *top.get() => {
                self.duplicate_hits += 1;
                return false;
            }
            // Above the highest range, or the first sequence.
            _ => {
                self.ranges.insert(seq, seq_end);
            }
        }
        self.received += seq_end - seq;
        true
    }

    /// [`SeqTracker::record`] for a sequence below the highest range's
    /// start: merge it with the ranges it abuts.
    fn record_below(&mut self, seq: u64, seq_end: u64) -> bool {
        let prev = self.ranges.range(..=seq).next_back().map(|(&s, &e)| (s, e));
        if prev.is_some_and(|(_, e)| seq < e) {
            self.duplicate_hits += 1;
            return false;
        }
        self.received += seq_end - seq;
        let prev = prev.filter(|&(_, e)| e == seq);
        let next = self
            .ranges
            .range(seq_end..)
            .next()
            .map(|(&s, &e)| (s, e))
            .filter(|&(s, _)| s == seq_end);
        match (prev, next) {
            (Some((ps, _)), Some((ns, ne))) => {
                self.ranges.remove(&ns);
                self.ranges.insert(ps, ne);
            }
            (Some((ps, _)), None) => {
                self.ranges.insert(ps, seq_end);
            }
            (None, Some((ns, ne))) => {
                self.ranges.remove(&ns);
                self.ranges.insert(seq, ne);
            }
            (None, None) => {
                self.ranges.insert(seq, seq_end);
            }
        }
        true
    }

    /// Record every sequence in `first..=last` at once. Costs one merge per
    /// stored range the span touches, never one step per sequence, so a
    /// gap as wide as the sequence space closes in constant work.
    pub fn record_range(&mut self, first: u64, last: u64) {
        if first > last {
            return;
        }
        let mut start = first;
        let mut end = last.saturating_add(1);
        // Stored ranges that overlap or abut `[start, end)`, highest first.
        let touching: Vec<(u64, u64)> = self
            .ranges
            .range(..=end)
            .rev()
            .take_while(|&(_, &e)| e >= start)
            .map(|(&s, &e)| (s, e))
            .collect();
        for (s, e) in touching {
            self.ranges.remove(&s);
            self.received -= e - s;
            start = start.min(s);
            end = end.max(e);
        }
        self.ranges.insert(start, end);
        self.received += end - start;
    }

    /// Whether `seq` has been received.
    pub fn contains(&self, seq: u64) -> bool {
        // The highest range first: only a sequence below its start
        // searches.
        match self.ranges.last_key_value() {
            Some((&s, &e)) if seq >= s => seq < e,
            Some(_) => self
                .ranges
                .range(..=seq)
                .next_back()
                .is_some_and(|(_, &e)| seq < e),
            None => false,
        }
    }

    /// The highest received sequence number, if any.
    pub fn highest(&self) -> Option<u64> {
        self.ranges.last_key_value().map(|(_, &e)| e - 1)
    }

    /// Count of distinct sequence numbers received.
    pub fn received_count(&self) -> u64 {
        self.received
    }

    /// How many `record` calls were suppressed as duplicates (fault
    /// injection can multiply these; the tracker is the dedup authority).
    pub fn duplicate_hits(&self) -> u64 {
        self.duplicate_hits
    }

    /// Number of gaps (missing ranges at or below the highest received
    /// sequence). Sequence space starts at 0 — a stream whose first
    /// packets were lost has a *leading* gap.
    pub fn gap_count(&self) -> usize {
        let leading = usize::from(self.ranges.first_key_value().is_some_and(|(&s, _)| s > 0));
        self.ranges.len().saturating_sub(1) + leading
    }

    /// Missing ranges below the highest received sequence number, capped
    /// at `max_ranges` (NAK messages carry a bounded list). Includes the
    /// leading gap `[0, first-1]` when the first received sequence is not
    /// 0 — streams are numbered from 0, so those packets were lost too.
    pub fn missing_ranges(&self, max_ranges: usize) -> Vec<NakRange> {
        self.missing_ranges_from(0, max_ranges)
    }

    /// [`SeqTracker::missing_ranges`] restricted to sequences at or above
    /// `from`: a range straddling `from` is cut to start there.
    pub fn missing_ranges_from(&self, from: u64, max_ranges: usize) -> Vec<NakRange> {
        let mut out = Vec::new();
        // End of the received range that starts at or below `from`.
        let mut prev_end = self
            .ranges
            .range(..=from)
            .next_back()
            .map_or(from, |(_, &e)| e.max(from));
        for (&s, &e) in self.ranges.range(from.saturating_add(1)..) {
            if prev_end < s {
                if out.len() >= max_ranges {
                    break;
                }
                out.push(NakRange {
                    first: prev_end,
                    last: s - 1,
                });
            }
            prev_end = e;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_arrival_is_one_range() {
        let mut t = SeqTracker::new();
        for s in 0..100 {
            assert!(t.record(s));
        }
        assert_eq!(t.received_count(), 100);
        assert_eq!(t.gap_count(), 0);
        assert!(t.missing_ranges(16).is_empty());
        assert_eq!(t.highest(), Some(99));
    }

    #[test]
    fn duplicates_detected() {
        let mut t = SeqTracker::new();
        assert!(t.record(5));
        assert!(!t.record(5));
        assert!(t.contains(5));
        assert!(!t.contains(4));
        assert_eq!(t.received_count(), 1);
        assert_eq!(t.duplicate_hits(), 1);
        assert!(!t.record(5));
        assert_eq!(t.duplicate_hits(), 2);
    }

    #[test]
    fn gaps_reported_as_ranges() {
        let mut t = SeqTracker::new();
        for s in [0u64, 1, 2, 5, 6, 10] {
            t.record(s);
        }
        let missing = t.missing_ranges(16);
        assert_eq!(
            missing,
            vec![
                NakRange { first: 3, last: 4 },
                NakRange { first: 7, last: 9 }
            ]
        );
        assert_eq!(t.gap_count(), 2);
        // Filling a gap merges ranges.
        t.record(3);
        t.record(4);
        assert_eq!(t.gap_count(), 1);
        assert_eq!(t.missing_ranges(16), vec![NakRange { first: 7, last: 9 }]);
        t.record(8);
        assert_eq!(
            t.missing_ranges(16),
            vec![
                NakRange { first: 7, last: 7 },
                NakRange { first: 9, last: 9 }
            ]
        );
    }

    #[test]
    fn missing_ranges_capped() {
        let mut t = SeqTracker::new();
        for s in (0..100).step_by(2) {
            t.record(s); // every odd number missing
        }
        let missing = t.missing_ranges(5);
        assert_eq!(missing.len(), 5);
        assert_eq!(missing[0], NakRange { first: 1, last: 1 });
    }

    #[test]
    fn missing_ranges_from_cuts_at_from() {
        let mut t = SeqTracker::new();
        for s in [3, 4, 9, 20] {
            t.record(s);
        }
        let r = |first, last| NakRange { first, last };
        let all = vec![r(0, 2), r(5, 8), r(10, 19)];
        assert_eq!(t.missing_ranges_from(0, usize::MAX), all);
        assert_eq!(
            t.missing_ranges_from(1, usize::MAX),
            [r(1, 2), r(5, 8), r(10, 19)]
        );
        assert_eq!(t.missing_ranges_from(3, usize::MAX), [r(5, 8), r(10, 19)]);
        assert_eq!(t.missing_ranges_from(6, 1), [r(6, 8)]);
        assert_eq!(t.missing_ranges_from(9, usize::MAX), [r(10, 19)]);
        assert_eq!(t.missing_ranges_from(20, usize::MAX), []);
        assert_eq!(t.missing_ranges_from(u64::MAX, usize::MAX), []);
    }

    #[test]
    fn out_of_order_merges_correctly() {
        let mut t = SeqTracker::new();
        t.record(10);
        t.record(8);
        t.record(9); // joins both neighbours
        assert_eq!(t.gap_count(), 1, "leading gap [0,7] counts");
        assert_eq!(t.missing_ranges(16), vec![NakRange { first: 0, last: 7 }]);
        assert_eq!(t.received_count(), 3);
        assert_eq!(t.highest(), Some(10));
        t.record(0);
        assert_eq!(t.missing_ranges(16), vec![NakRange { first: 1, last: 7 }]);
    }

    #[test]
    fn record_range_merges_like_single_records() {
        let mut spans = SeqTracker::new();
        let mut singles = SeqTracker::new();
        for s in [0u64, 1, 5, 9, 10, 20] {
            spans.record(s);
            singles.record(s);
        }
        // Abuts 1 and 5, swallows 9..=10, stops short of 20.
        spans.record_range(2, 12);
        for s in 2..=12 {
            singles.record(s);
        }
        assert_eq!(spans.missing_ranges(16), singles.missing_ranges(16));
        assert_eq!(spans.received_count(), singles.received_count());
        assert_eq!(
            spans.missing_ranges(16),
            vec![NakRange {
                first: 13,
                last: 19
            }]
        );
        // The whole space in one call.
        spans.record_range(0, u64::MAX - 1);
        assert_eq!(spans.gap_count(), 0);
        assert_eq!(spans.highest(), Some(u64::MAX - 1));
        spans.record_range(7, 3);
        assert_eq!(spans.received_count(), u64::MAX);
    }

    #[test]
    fn empty_tracker() {
        let t = SeqTracker::new();
        assert_eq!(t.highest(), None);
        assert_eq!(t.received_count(), 0);
        assert!(t.missing_ranges(4).is_empty());
        assert!(!t.contains(0));
    }
}
