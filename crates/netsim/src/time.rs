//! Virtual time and bandwidth arithmetic.
//!
//! Everything is integer nanoseconds / bits-per-second so simulations are
//! exactly reproducible — no floating-point drift between platforms.

/// A point in (or span of) virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

impl Time {
    /// Time zero — the start of every simulation.
    pub const ZERO: Time = Time(0);
    /// The greatest representable time (used as an "infinite" horizon).
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Time {
        Time(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Time {
        Time(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Time {
        Time(ms * 1_000_000)
    }

    /// Construct from seconds.
    pub const fn from_secs(s: u64) -> Time {
        Time(s * 1_000_000_000)
    }

    /// Construct from a floating-point second count (for human-friendly
    /// configuration; rounded to the nearest nanosecond).
    pub fn from_secs_f64(s: f64) -> Time {
        // mmt-lint: allow(F1, "config-boundary helper: one IEEE-exact multiply, rounded to integer ns before entering the sim")
        Time((s * 1e9).round() as u64)
    }

    /// The value in nanoseconds.
    pub const fn as_nanos(&self) -> u64 {
        self.0
    }

    /// The value in (truncated) microseconds.
    pub const fn as_micros(&self) -> u64 {
        self.0 / 1_000
    }

    /// The value in (truncated) milliseconds.
    pub const fn as_millis(&self) -> u64 {
        self.0 / 1_000_000
    }

    /// The value in seconds, as a float (for reporting only).
    pub fn as_secs_f64(&self) -> f64 {
        // mmt-lint: allow(F1, "reporting-only view; the value never re-enters the sim or its digests")
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition (None on overflow).
    pub fn checked_add(self, rhs: Time) -> Option<Time> {
        self.0.checked_add(rhs.0).map(Time)
    }
}

impl core::ops::Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl core::ops::AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl core::ops::Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl core::ops::Mul<u64> for Time {
    type Output = Time;
    fn mul(self, rhs: u64) -> Time {
        Time(self.0 * rhs)
    }
}

impl core::ops::Div<u64> for Time {
    type Output = Time;
    fn div(self, rhs: u64) -> Time {
        Time(self.0 / rhs)
    }
}

impl core::fmt::Display for Time {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Pure integer formatting (truncated to three decimals) so even
        // human-readable output is platform-independent.
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(
                f,
                "{}.{:03}s",
                ns / 1_000_000_000,
                ns % 1_000_000_000 / 1_000_000
            )
        } else if ns >= 1_000_000 {
            write!(f, "{}.{:03}ms", ns / 1_000_000, ns % 1_000_000 / 1_000)
        } else if ns >= 1_000 {
            write!(f, "{}.{:03}µs", ns / 1_000, ns % 1_000)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// A link or pacing rate, in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth(pub u64);

impl Bandwidth {
    /// Construct from bits per second.
    pub const fn bps(v: u64) -> Bandwidth {
        Bandwidth(v)
    }

    /// Construct from megabits per second.
    pub const fn mbps(v: u64) -> Bandwidth {
        Bandwidth(v * 1_000_000)
    }

    /// Construct from gigabits per second.
    pub const fn gbps(v: u64) -> Bandwidth {
        Bandwidth(v * 1_000_000_000)
    }

    /// Construct from terabits per second.
    pub const fn tbps(v: u64) -> Bandwidth {
        Bandwidth(v * 1_000_000_000_000)
    }

    /// The rate in bits per second.
    pub const fn as_bps(&self) -> u64 {
        self.0
    }

    /// The rate in Gbit/s as a float (for reporting).
    pub fn as_gbps_f64(&self) -> f64 {
        // mmt-lint: allow(F1, "reporting-only view; the value never re-enters the sim or its digests")
        self.0 as f64 / 1e9
    }

    /// Time to serialize `bytes` onto a link of this rate.
    ///
    /// Exact integer arithmetic: `bytes * 8 * 1e9 / rate`, rounded up so a
    /// transmission never finishes early. The dividend fits a `u64` up to
    /// ~2.3 GB, which covers every packet, so the per-packet divide is a
    /// `u64` one; only a larger count widens to `u128`. Both give the
    /// same quotient.
    #[inline]
    pub fn tx_time(&self, bytes: usize) -> Time {
        assert!(self.0 > 0, "zero-rate link");
        match u64::try_from(bytes)
            .ok()
            .and_then(|b| b.checked_mul(8 * 1_000_000_000))
        {
            Some(dividend) => Time(dividend.div_ceil(self.0)),
            None => {
                let bits = (bytes as u128) * 8;
                let ns = (bits * 1_000_000_000).div_ceil(self.0 as u128);
                Time(ns as u64)
            }
        }
    }
}

impl core::fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Integer formatting (truncated to two decimals), matching Time.
        let bps = self.0;
        if bps >= 1_000_000_000_000 {
            write!(
                f,
                "{}.{:02}Tbps",
                bps / 1_000_000_000_000,
                bps % 1_000_000_000_000 / 10_000_000_000
            )
        } else if bps >= 1_000_000_000 {
            write!(
                f,
                "{}.{:02}Gbps",
                bps / 1_000_000_000,
                bps % 1_000_000_000 / 10_000_000
            )
        } else if bps >= 1_000_000 {
            write!(f, "{}.{:02}Mbps", bps / 1_000_000, bps % 1_000_000 / 10_000)
        } else {
            write!(f, "{bps}bps")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Time::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(Time::from_millis(3).as_micros(), 3_000);
        assert_eq!(Time::from_micros(5).as_nanos(), 5_000);
        assert_eq!(Time::from_secs_f64(0.5).as_millis(), 500);
        assert!((Time::from_secs(1).as_secs_f64() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_millis(10) + Time::from_millis(5);
        assert_eq!(t.as_millis(), 15);
        assert_eq!((t - Time::from_millis(5)).as_millis(), 10);
        assert_eq!((t * 2).as_millis(), 30);
        assert_eq!((t / 3).as_millis(), 5);
        assert_eq!(
            Time::from_millis(1).saturating_sub(Time::from_millis(2)),
            Time::ZERO
        );
        let mut u = Time::ZERO;
        u += Time::from_nanos(7);
        assert_eq!(u.as_nanos(), 7);
        assert_eq!(Time::MAX.checked_add(Time(1)), None);
    }

    #[test]
    fn display_units() {
        assert_eq!(Time::from_nanos(500).to_string(), "500ns");
        assert_eq!(Time::from_micros(2).to_string(), "2.000µs");
        assert_eq!(Time::from_millis(2).to_string(), "2.000ms");
        assert_eq!(Time::from_secs(2).to_string(), "2.000s");
        assert_eq!(Bandwidth::gbps(100).to_string(), "100.00Gbps");
        assert_eq!(Bandwidth::tbps(1).to_string(), "1.00Tbps");
        assert_eq!(Bandwidth::mbps(10).to_string(), "10.00Mbps");
        assert_eq!(Bandwidth::bps(42).to_string(), "42bps");
    }

    #[test]
    fn tx_time_exact() {
        // 1500 bytes at 1 Gb/s = 12 µs exactly.
        assert_eq!(Bandwidth::gbps(1).tx_time(1500), Time::from_micros(12));
        // 9000-byte jumbo at 100 Gb/s = 720 ns.
        assert_eq!(Bandwidth::gbps(100).tx_time(9000), Time::from_nanos(720));
        // Rounds up: 1 byte at 3 bps = ceil(8e9/3) ns.
        assert_eq!(
            Bandwidth::bps(3).tx_time(1),
            Time::from_nanos(2_666_666_667)
        );
    }

    #[test]
    fn tx_time_u64_path_matches_the_u128_formula() {
        fn wide(rate: Bandwidth, bytes: usize) -> Time {
            let ns = ((bytes as u128) * 8 * 1_000_000_000).div_ceil(u128::from(rate.as_bps()));
            Time(ns as u64)
        }
        let rates = [
            Bandwidth::bps(1),
            Bandwidth::bps(3),
            Bandwidth::gbps(1),
            Bandwidth::gbps(10),
            Bandwidth::gbps(100),
            Bandwidth::bps(u64::MAX),
        ];
        // The largest count whose dividend fits a u64, one above it (the
        // first that takes the u128 fallback), and the largest count.
        let last_narrow = (u64::MAX / 8_000_000_000) as usize;
        let edges = [last_narrow, last_narrow + 1, usize::MAX];
        for rate in rates {
            for bytes in (0..=65_536).chain(edges) {
                assert_eq!(rate.tx_time(bytes), wide(rate, bytes), "{rate} {bytes} B");
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero-rate")]
    fn zero_rate_panics() {
        let _ = Bandwidth::bps(0).tx_time(1);
    }

    #[test]
    fn table1_rates_representable() {
        // The paper's Table 1 DAQ rates all fit comfortably.
        for (bw, gbps) in [
            (Bandwidth::tbps(63), 63_000.0),   // CMS L1
            (Bandwidth::tbps(120), 120_000.0), // DUNE
            (Bandwidth::tbps(100), 100_000.0), // ECCE
            (Bandwidth::gbps(160), 160.0),     // Mu2e
            (Bandwidth::gbps(400), 400.0),     // Vera Rubin
        ] {
            assert!((bw.as_gbps_f64() - gbps).abs() < 1e-6);
        }
    }
}
