//! Discrete time model: 5-minute ticks.
//!
//! The Google trace reports task usage as one summarized window per
//! 5 minutes, so the whole reproduction runs on a discrete clock of
//! 5-minute ticks: 12 per hour, 288 per day, 2016 per week. Within a tick
//! the generator draws [`SUBSAMPLES_PER_TICK`] instantaneous usage points
//! per task, mirroring the within-window CPU histogram of trace v3.

/// Ticks per hour (5-minute ticks).
pub const TICKS_PER_HOUR: u64 = 12;

/// Ticks per day.
pub const TICKS_PER_DAY: u64 = 24 * TICKS_PER_HOUR;

/// Ticks per week.
pub const TICKS_PER_WEEK: u64 = 7 * TICKS_PER_DAY;

/// Instantaneous usage points drawn per task per tick. The within-tick
/// machine-level peak is the max over these instants of the *sum* of task
/// usage, which is what makes the pooling effect (Figure 1 / Figure 6)
/// observable.
pub const SUBSAMPLES_PER_TICK: usize = 15;

/// A point on the discrete 5-minute clock, measured from the trace start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tick(pub u64);

impl Tick {
    /// The trace origin.
    pub const ZERO: Tick = Tick(0);

    /// The raw tick index.
    pub fn index(self) -> u64 {
        self.0
    }

    /// Fraction of the day in `[0, 1)` this tick falls at (for diurnal
    /// patterns).
    pub fn day_fraction(self) -> f64 {
        (self.0 % TICKS_PER_DAY) as f64 / TICKS_PER_DAY as f64
    }

    /// Tick advanced by `n` ticks.
    pub fn plus(self, n: u64) -> Tick {
        Tick(self.0 + n)
    }

    /// Tick moved back by `n` ticks, saturating at zero.
    pub fn minus(self, n: u64) -> Tick {
        Tick(self.0.saturating_sub(n))
    }
}

impl std::fmt::Display for Tick {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A half-open range of ticks `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TickRange {
    /// First tick in the range.
    pub start: Tick,
    /// One past the last tick in the range.
    pub end: Tick,
}

impl TickRange {
    /// Creates `[start, end)`; an inverted range collapses to empty.
    pub fn new(start: Tick, end: Tick) -> TickRange {
        if end < start {
            TickRange { start, end: start }
        } else {
            TickRange { start, end }
        }
    }

    /// Range covering `[0, n)`.
    pub fn from_len(n: u64) -> TickRange {
        TickRange::new(Tick::ZERO, Tick(n))
    }

    /// Number of ticks in the range.
    pub fn len(self) -> u64 {
        self.end.0 - self.start.0
    }

    /// Returns `true` for an empty range.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Whether `t` lies inside the half-open range.
    pub fn contains(self, t: Tick) -> bool {
        self.start <= t && t < self.end
    }

    /// Iterates over the ticks of the range in order.
    pub fn iter(self) -> impl Iterator<Item = Tick> {
        (self.start.0..self.end.0).map(Tick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(TICKS_PER_WEEK, 2016);
    }

    #[test]
    fn day_fraction_wraps() {
        assert_eq!(Tick(0).day_fraction(), 0.0);
        assert_eq!(Tick(144).day_fraction(), 0.5);
        assert_eq!(Tick(288).day_fraction(), 0.0);
        assert_eq!(Tick(288 + 72).day_fraction(), 0.25);
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(Tick(5).plus(3), Tick(8));
        assert_eq!(Tick(5).minus(3), Tick(2));
        assert_eq!(Tick(2).minus(10), Tick(0));
    }

    #[test]
    fn range_basics() {
        let r = TickRange::new(Tick(2), Tick(5));
        assert_eq!(r.len(), 3);
        assert!(r.contains(Tick(2)));
        assert!(r.contains(Tick(4)));
        assert!(!r.contains(Tick(5)));
        let ticks: Vec<_> = r.iter().collect();
        assert_eq!(ticks, vec![Tick(2), Tick(3), Tick(4)]);
    }

    #[test]
    fn inverted_range_is_empty() {
        let r = TickRange::new(Tick(5), Tick(2));
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn display() {
        assert_eq!(Tick(42).to_string(), "t42");
    }
}
