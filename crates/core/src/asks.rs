//! The receiver's ask table: what is missing and what was asked for.
//!
//! The table holds disjoint *runs* of missing sequences, keyed by their
//! first sequence. The sequences of a run share one state: when a retry
//! round first saw them missing, when and by which kind of round they
//! were first named, and the rounds charged since. A run splits when its
//! members stop sharing that state: an arrival inside it, or a round that
//! covers only part of it. So the table's size follows the number of
//! distinct states among the missing sequences, never how many there are.

use mmt_netsim::Time;
use std::collections::{btree_map, BTreeMap};

/// One run: consecutive missing sequences that share their state.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Run {
    /// The run's last sequence (the table's key is its first).
    pub last: u64,
    /// When a retry round first saw it missing: the give-up clock.
    pub seen: Option<Time>,
    /// When the first round that named it ran.
    pub asked: Time,
    /// NAK rounds that have named it, charged against `max_nak_retries`.
    pub asks: u32,
    /// Named by a gap, tail or probe round since the last retry round,
    /// which the next retry round skips.
    pub skip: bool,
    /// First named by a tail round. Its arrival may be the late original
    /// rather than the answer, so it gives no round-trip sample.
    pub tail: bool,
    /// Named by a gap or tail round that no probe round has looked at.
    pub probe: bool,
}

/// The ask table: disjoint runs keyed by their first sequence.
pub(crate) type Runs = BTreeMap<u64, Run>;

/// The run holding `s`: its first sequence and state.
pub(crate) fn run_of(runs: &Runs, s: u64) -> Option<(u64, Run)> {
    let (&first, &run) = runs.range(..=s).next_back()?;
    (run.last >= s).then_some((first, run))
}

/// Split the run holding `s`, if any, so that a run starts at `s`.
fn split_at(runs: &mut Runs, s: u64) {
    if let Some((first, run)) = run_of(runs, s).filter(|&(first, _)| first < s) {
        runs.insert(first, Run { last: s - 1, ..run });
        runs.insert(s, run);
    }
}

/// The runs of `first..=last`, split at both ends and every hole filled
/// by a fresh run, so that they cover the span exactly.
pub(crate) fn cover(runs: &mut Runs, first: u64, last: u64) -> btree_map::RangeMut<'_, u64, Run> {
    split_at(runs, first);
    if let Some(end) = last.checked_add(1) {
        split_at(runs, end);
    }
    let mut holes = Vec::new();
    let mut next = Some(first);
    for (&start, run) in runs.range(first..=last) {
        holes.extend(next.filter(|&n| n < start).map(|n| (n, start - 1)));
        next = run.last.checked_add(1);
    }
    holes.extend(next.filter(|&n| n <= last).map(|n| (n, last)));
    for (start, last) in holes {
        let run = Run {
            last,
            ..Run::default()
        };
        runs.insert(start, run);
    }
    runs.range_mut(first..=last)
}

/// Take `s` out of the table; the state of the run it was in.
pub(crate) fn take(runs: &mut Runs, s: u64) -> Option<Run> {
    let (first, run) = run_of(runs, s)?;
    runs.remove(&first);
    if first < s {
        runs.insert(first, Run { last: s - 1, ..run });
    }
    if s < run.last {
        runs.insert(s + 1, run);
    }
    Some(run)
}

/// Drop every run within `first..=last`.
pub(crate) fn remove(runs: &mut Runs, first: u64, last: u64) {
    let gone: Vec<u64> = runs.range(first..=last).map(|(&f, _)| f).collect();
    for first in gone {
        runs.remove(&first);
    }
}

/// When the earliest round that named a run matching `pick` ran.
pub(crate) fn earliest(runs: &Runs, pick: impl Fn(&Run) -> bool) -> Option<Time> {
    runs.values()
        .filter(|run| pick(run))
        .map(|run| run.asked)
        .min()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans(runs: &Runs) -> Vec<(u64, u64, u32)> {
        runs.iter().map(|(&f, r)| (f, r.last, r.asks)).collect()
    }

    #[test]
    fn cover_fills_holes_and_splits_at_both_ends() {
        let mut runs = Runs::new();
        cover(&mut runs, 10, 19).for_each(|(_, r)| r.asks = 1);
        cover(&mut runs, 15, 30).for_each(|(_, r)| r.asks += 1);
        assert_eq!(spans(&runs), [(10, 14, 1), (15, 19, 2), (20, 30, 1)]);
        // The whole sequence space is one run, and its ends still split.
        let mut runs = Runs::new();
        assert_eq!(cover(&mut runs, 0, u64::MAX).count(), 1);
        assert_eq!(cover(&mut runs, u64::MAX, u64::MAX).count(), 1);
        assert_eq!(
            spans(&runs),
            [(0, u64::MAX - 1, 0), (u64::MAX, u64::MAX, 0)]
        );
    }

    #[test]
    fn take_splits_the_run_it_lands_in() {
        let mut runs = Runs::new();
        cover(&mut runs, 1, 5).for_each(|(_, r)| r.asks = 3);
        assert_eq!(take(&mut runs, 3).map(|r| r.asks), Some(3));
        assert_eq!(take(&mut runs, 3).map(|r| r.asks), None);
        assert_eq!(take(&mut runs, 1).map(|r| r.asks), Some(3));
        assert_eq!(take(&mut runs, 5).map(|r| r.asks), Some(3));
        assert_eq!(spans(&runs), [(2, 2, 3), (4, 4, 3)]);
        remove(&mut runs, 0, 10);
        assert!(runs.is_empty());
    }
}
