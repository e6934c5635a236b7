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

/// The run holding `s`: its first sequence and state. The last run is
/// read first, so only a sequence below its start searches the tree: an
/// in-order arrival lands at or above it.
pub(crate) fn run_of(runs: &Runs, s: u64) -> Option<(u64, Run)> {
    let (&first, &run) = match runs.last_key_value()? {
        (&first, _) if first > s => runs.range(..=s).next_back()?,
        last => last,
    };
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
    use mmt_netsim::SimRng;

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

    /// A run's state without its extent.
    type State = (Option<Time>, Time, u32, bool, bool, bool);

    fn state(run: &Run) -> State {
        (run.seen, run.asked, run.asks, run.skip, run.tail, run.probe)
    }

    /// One of the changes a round makes to every run it covers.
    fn touch(run: &mut Run, change: u64, now: Time) {
        match change {
            0 => {
                run.asked = if run.asks == 0 { now } else { run.asked };
                run.asks += 1;
            }
            1 => run.skip = !run.skip,
            2 => (run.tail, run.probe) = (!run.probe, !run.tail),
            _ => run.seen = run.seen.or(Some(now)),
        }
    }

    /// Every sequence the table holds, with its run's state; the runs
    /// must be disjoint and ascending.
    fn expand(runs: &Runs) -> Vec<(u64, State)> {
        let mut out = Vec::new();
        let mut next = Some(0);
        for (&first, run) in runs {
            assert!(next.is_some_and(|n| n <= first) && first <= run.last);
            out.extend((first..=run.last).map(|s| (s, state(run))));
            next = run.last.checked_add(1);
        }
        out
    }

    /// A lookup at, inside, just above or far above the last run, or
    /// anywhere in `lo..=hi`.
    fn lookup(runs: &Runs, rng: &mut SimRng, lo: u64, hi: u64) -> u64 {
        let anywhere = lo + rng.next_bounded(hi - lo + 1);
        let Some((&first, run)) = runs.last_key_value() else {
            return anywhere;
        };
        match rng.next_bounded(6) {
            0 => first,
            1 => first + rng.next_bounded(run.last - first + 1),
            2 => run.last,
            3 => run.last.saturating_add(1 + rng.next_bounded(3)),
            4 => u64::MAX,
            _ => anywhere,
        }
    }

    /// `cover`, `take`, `run_of` and `remove` agree with a table that
    /// keeps one state per missing sequence, on a window at the bottom or
    /// the top of the sequence space, with most lookups at, inside or
    /// above the last run.
    #[test]
    fn ask_table_matches_a_per_sequence_model() {
        let mut rng = SimRng::new(0xA5C5_0001);
        for case in 0..64u64 {
            let lo = if case % 2 == 0 { 0 } else { u64::MAX - 299 };
            let hi = lo + 299;
            let mut runs = Runs::new();
            let mut model: BTreeMap<u64, Run> = BTreeMap::new();
            for step in 0..200 {
                let now = Time::from_nanos(step);
                match rng.next_bounded(100) {
                    // A round covers a span and changes every run in it.
                    0..=34 => {
                        let first = lo + rng.next_bounded(300);
                        let last = first.saturating_add(rng.next_bounded(24)).min(hi);
                        let change = rng.next_bounded(4);
                        let mut next = Some(first);
                        for (&start, run) in cover(&mut runs, first, last) {
                            assert_eq!(Some(start), next, "case {case} step {step}: cover");
                            touch(run, change, now);
                            next = run.last.checked_add(1);
                        }
                        assert_eq!(next, last.checked_add(1), "case {case} step {step}");
                        for s in first..=last {
                            touch(model.entry(s).or_default(), change, now);
                        }
                    }
                    // An arrival takes its sequence out.
                    35..=59 => {
                        let s = lookup(&runs, &mut rng, lo, hi);
                        let got = take(&mut runs, s).map(|r| state(&r));
                        let want = model.remove(&s).map(|r| state(&r));
                        assert_eq!(got, want, "case {case} step {step}: take({s})");
                    }
                    // A lookup: the run holds `s` and shares its state.
                    60..=84 => {
                        let s = lookup(&runs, &mut rng, lo, hi);
                        let got = run_of(&runs, s);
                        let want = model.get(&s).map(state);
                        assert_eq!(got.map(|(_, r)| state(&r)), want, "run_of({s})");
                        if let Some((first, run)) = got {
                            assert!((first..=run.last).contains(&s), "run_of({s})");
                            assert!(runs.get(&first).is_some_and(|r| r.last == run.last));
                        }
                    }
                    // A pseudo-fill drops whole runs, from one run's
                    // first sequence to another's last.
                    _ => {
                        let firsts: Vec<u64> = runs.keys().copied().collect();
                        let Some(n) = (firsts.len() as u64).checked_sub(1) else {
                            continue;
                        };
                        let a = rng.next_bounded(n + 1) as usize;
                        let b = a + rng.next_bounded(n + 1 - a as u64) as usize;
                        let (first, last) = (firsts[a], runs[&firsts[b]].last);
                        remove(&mut runs, first, last);
                        model.retain(|&s, _| !(first..=last).contains(&s));
                    }
                }
                let want: Vec<_> = model.iter().map(|(&s, r)| (s, state(r))).collect();
                assert_eq!(expand(&runs), want, "case {case} step {step}");
            }
        }
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
