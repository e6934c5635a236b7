//! Physics event generation: what makes the detector light up.
//!
//! The pilot's synthetic source "simulates the neutrino generation by
//! different physical events" \[69\]. We model four populations with very
//! different signatures — the mix determines the DAQ traffic shape:
//!
//! * **Beam** events: accelerator spills at a fixed cadence, large
//!   multi-channel energy deposits.
//! * **Cosmic** rays: Poisson arrivals, long straight tracks across many
//!   channels.
//! * **Radiological** background: constant low-amplitude singles (Ar-39
//!   decays), the reason DAQ rates are dominated by noise suppression.
//! * **Supernova** neutrinos: a burst of low-energy events whose *rate*
//!   spikes for ~10 s — the trigger for the multi-domain alert (§3).

use mmt_netsim::{SimRng, Time};

/// One localized energy deposit on a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hit {
    /// Channel the charge arrives on.
    pub channel: u16,
    /// Arrival time, in ADC samples from the window start.
    pub time_sample: u32,
    /// Pulse peak amplitude, ADC counts above pedestal.
    pub amplitude: u16,
    /// Pulse width in samples.
    pub duration_samples: u32,
}

/// The population an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Accelerator beam spill.
    Beam,
    /// Cosmic-ray track.
    Cosmic,
    /// Radiological background single.
    Radiological,
    /// Supernova-burst neutrino interaction.
    Supernova,
}

/// A generated physics event: its kind, time, and hits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Population.
    pub kind: EventKind,
    /// Event time (experiment time).
    pub at: Time,
    /// Energy deposits.
    pub hits: Vec<Hit>,
}

/// Rates for each population, in events per second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventRates {
    /// Beam spill rate (Hz). Fermilab beam: ~0.8 Hz spill cadence.
    pub beam_hz: f64,
    /// Cosmic-ray rate (Hz).
    pub cosmic_hz: f64,
    /// Radiological singles rate (Hz).
    pub radiological_hz: f64,
    /// Supernova-neutrino interaction rate during a burst (Hz); zero
    /// outside bursts.
    pub supernova_hz: f64,
}

impl EventRates {
    /// A quiet detector: background only.
    pub fn background() -> EventRates {
        EventRates {
            beam_hz: 0.0,
            cosmic_hz: 10.0,
            radiological_hz: 100.0,
            supernova_hz: 0.0,
        }
    }

    /// During a supernova burst: background plus a large neutrino rate
    /// (a 10 kpc core collapse yields thousands of interactions in ~10 s).
    pub fn supernova_burst() -> EventRates {
        EventRates {
            supernova_hz: 300.0,
            ..EventRates::background()
        }
    }

    fn total(&self) -> f64 {
        self.beam_hz + self.cosmic_hz + self.radiological_hz + self.supernova_hz
    }
}

/// A Poisson event generator over a channel range.
#[derive(Debug, Clone)]
pub struct EventGenerator {
    rates: EventRates,
    channels: u16,
    rng: SimRng,
    now: Time,
}

impl EventGenerator {
    /// Create a generator for a detector with `channels` channels.
    pub fn new(rates: EventRates, channels: u16, seed: u64) -> EventGenerator {
        assert!(channels > 0, "detector needs channels");
        assert!(rates.total() > 0.0, "at least one population must fire");
        EventGenerator {
            rates,
            channels,
            rng: SimRng::new(seed),
            now: Time::ZERO,
        }
    }

    /// Generate the next event (advances internal time).
    pub fn next_event(&mut self) -> Event {
        let total = self.rates.total();
        let gap = self.rng.exponential(1.0 / total);
        self.now += Time::from_secs_f64(gap);
        // Pick the population proportionally to its rate.
        let pick = self.rng.next_f64() * total;
        let kind = if pick < self.rates.beam_hz {
            EventKind::Beam
        } else if pick < self.rates.beam_hz + self.rates.cosmic_hz {
            EventKind::Cosmic
        } else if pick < self.rates.beam_hz + self.rates.cosmic_hz + self.rates.radiological_hz {
            EventKind::Radiological
        } else {
            EventKind::Supernova
        };
        let hits = self.hits_for(kind);
        Event {
            kind,
            at: self.now,
            hits,
        }
    }

    /// Generate all events up to `until` (experiment time).
    pub fn events_until(&mut self, until: Time) -> Vec<Event> {
        let mut out = Vec::new();
        loop {
            let ev = self.next_event();
            if ev.at > until {
                break;
            }
            out.push(ev);
        }
        out
    }

    fn hits_for(&mut self, kind: EventKind) -> Vec<Hit> {
        match kind {
            EventKind::Beam => {
                // Large deposit: a shower across a contiguous channel block.
                let n = 40 + self.rng.next_bounded(40) as usize;
                let start_ch = self.rng.next_bounded(u64::from(self.channels)) as u16;
                (0..n)
                    .map(|i| Hit {
                        channel: (start_ch + i as u16) % self.channels,
                        time_sample: 100 + self.rng.next_bounded(50) as u32,
                        amplitude: 400 + self.rng.next_bounded(600) as u16,
                        duration_samples: 12 + self.rng.next_bounded(12) as u32,
                    })
                    .collect()
            }
            EventKind::Cosmic => {
                // Straight track: one hit per channel over a span, linearly
                // advancing arrival time (the drift-time image of a track).
                let span = 20 + self.rng.next_bounded(60) as usize;
                let start_ch = self.rng.next_bounded(u64::from(self.channels)) as u16;
                let t0 = self.rng.next_bounded(500) as u32;
                (0..span)
                    .map(|i| Hit {
                        channel: (start_ch + i as u16) % self.channels,
                        time_sample: t0 + (i as u32) * 2,
                        amplitude: 150 + self.rng.next_bounded(150) as u16,
                        duration_samples: 8,
                    })
                    .collect()
            }
            EventKind::Radiological => {
                // A single low-amplitude blip.
                vec![Hit {
                    channel: self.rng.next_bounded(u64::from(self.channels)) as u16,
                    time_sample: self.rng.next_bounded(1000) as u32,
                    amplitude: 60 + self.rng.next_bounded(60) as u16,
                    duration_samples: 4,
                }]
            }
            EventKind::Supernova => {
                // Low-energy neutrino: a compact cluster of a few hits.
                let n = 3 + self.rng.next_bounded(5) as usize;
                let ch = self.rng.next_bounded(u64::from(self.channels)) as u16;
                let t0 = self.rng.next_bounded(800) as u32;
                (0..n)
                    .map(|i| Hit {
                        channel: (ch + i as u16) % self.channels,
                        time_sample: t0 + self.rng.next_bounded(10) as u32,
                        amplitude: 100 + self.rng.next_bounded(120) as u16,
                        duration_samples: 6,
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_times_increase_monotonically() {
        let mut generator = EventGenerator::new(EventRates::background(), 1280, 1);
        let mut last = Time::ZERO;
        for _ in 0..100 {
            let ev = generator.next_event();
            assert!(ev.at > last);
            last = ev.at;
            assert!(!ev.hits.is_empty());
            assert!(ev.hits.iter().all(|h| h.channel < 1280));
        }
    }

    #[test]
    fn rate_mix_respected() {
        let mut generator = EventGenerator::new(EventRates::background(), 1280, 2);
        let events = generator.events_until(Time::from_secs(20));
        let radiological = events
            .iter()
            .filter(|e| e.kind == EventKind::Radiological)
            .count();
        let cosmic = events
            .iter()
            .filter(|e| e.kind == EventKind::Cosmic)
            .count();
        // 100 Hz vs 10 Hz over 20 s: ~2000 vs ~200.
        assert!((1700..2300).contains(&radiological), "{radiological}");
        assert!((120..280).contains(&cosmic), "{cosmic}");
        assert_eq!(
            events.iter().filter(|e| e.kind == EventKind::Beam).count(),
            0
        );
        assert_eq!(
            events
                .iter()
                .filter(|e| e.kind == EventKind::Supernova)
                .count(),
            0
        );
    }

    #[test]
    fn total_rate_close_to_nominal() {
        let mut generator = EventGenerator::new(EventRates::background(), 128, 3);
        let events = generator.events_until(Time::from_secs(30));
        // 110 Hz nominal.
        let rate = events.len() as f64 / 30.0;
        assert!((95.0..125.0).contains(&rate), "{rate}");
    }

    #[test]
    fn supernova_burst_floods_the_detector() {
        let mut quiet = EventGenerator::new(EventRates::background(), 1280, 4);
        let mut burst = EventGenerator::new(EventRates::supernova_burst(), 1280, 4);
        let q = quiet.events_until(Time::from_secs(5)).len();
        let b = burst.events_until(Time::from_secs(5)).len();
        assert!(b > q * 3, "burst {b} vs quiet {q}");
    }

    #[test]
    fn population_signatures_differ() {
        let mut generator = EventGenerator::new(
            EventRates {
                beam_hz: 1.0,
                cosmic_hz: 1.0,
                radiological_hz: 1.0,
                supernova_hz: 1.0,
            },
            1280,
            6,
        );
        let events = generator.events_until(Time::from_secs(60));
        let mean_hits = |kind: EventKind| {
            let selected: Vec<_> = events.iter().filter(|e| e.kind == kind).collect();
            assert!(!selected.is_empty(), "{kind:?} missing");
            selected.iter().map(|e| e.hits.len()).sum::<usize>() as f64 / selected.len() as f64
        };
        assert_eq!(mean_hits(EventKind::Radiological), 1.0);
        assert!(mean_hits(EventKind::Beam) > mean_hits(EventKind::Supernova));
        assert!(mean_hits(EventKind::Cosmic) > mean_hits(EventKind::Radiological));
    }

    #[test]
    #[should_panic(expected = "at least one population")]
    fn zero_rates_rejected() {
        let _ = EventGenerator::new(
            EventRates {
                beam_hz: 0.0,
                cosmic_hz: 0.0,
                radiological_hz: 0.0,
                supernova_hz: 0.0,
            },
            8,
            0,
        );
    }
}
