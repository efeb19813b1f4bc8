//! Exact binary encoding of window state.
//!
//! A window's state moves between processes as bytes, never as text:
//! every `f64` travels as its bit pattern and every integer as a
//! little-endian `u64`, so a decoded window is bit-identical to the
//! encoded one — including the running accumulators whose rounding
//! history a replay of the samples would have to reproduce. The encoders
//! append to a caller's buffer; [`StateReader`] decodes.
//!
//! Decoding reads untrusted bytes. Every read is bounds-checked, every
//! length is checked against a bound the *reader* supplies before
//! anything is pushed, and nothing is preallocated from a count found in
//! the input: malformed input is a [`StatsError::Corrupt`], never a panic
//! and never an allocation the input chose.

use crate::error::StatsError;

/// Largest lifetime counter (pushes, ages, generations) a decoder
/// accepts: far beyond any real history, far enough below `u64::MAX` that
/// the counter can keep counting without overflow.
pub const COUNTER_MAX: u64 = 1 << 62;

/// Appends `v` as 8 little-endian bytes.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v`'s bit pattern as 8 little-endian bytes.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends `v` as one byte, `0` or `1`.
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// The error for a record that fails a decoding check.
pub fn corrupt(what: &'static str) -> StatsError {
    StatsError::Corrupt { what }
}

/// A bounds-checked cursor over an encoded state record.
///
/// # Examples
///
/// ```
/// use oc_stats::state::{put_f64, put_u64, StateReader};
///
/// let mut bytes = Vec::new();
/// put_u64(&mut bytes, 3);
/// put_f64(&mut bytes, -0.0);
/// let mut r = StateReader::new(&bytes);
/// assert_eq!(r.count(10).unwrap(), 3);
/// assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
/// r.finish().unwrap();
/// // A truncated record is an error, not a panic.
/// assert!(StateReader::new(&bytes[..5]).u64().is_err());
/// ```
#[derive(Debug)]
pub struct StateReader<'a> {
    rest: &'a [u8],
}

impl<'a> StateReader<'a> {
    /// A reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> StateReader<'a> {
        StateReader { rest: bytes }
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// [`StatsError::Corrupt`] when fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, StatsError> {
        let Some((head, rest)) = self.rest.split_first_chunk::<8>() else {
            return Err(corrupt("record truncated"));
        };
        self.rest = rest;
        Ok(u64::from_le_bytes(*head))
    }

    /// Reads an `f64` bit pattern, whatever it is.
    ///
    /// # Errors
    ///
    /// [`StatsError::Corrupt`] when fewer than 8 bytes remain.
    pub fn f64(&mut self) -> Result<f64, StatsError> {
        self.u64().map(f64::from_bits)
    }

    /// Reads an `f64` that must be finite (a sample, a limit).
    ///
    /// # Errors
    ///
    /// [`StatsError::Corrupt`] for a truncated record or a NaN/infinity.
    pub fn finite(&mut self) -> Result<f64, StatsError> {
        let v = self.f64()?;
        if !v.is_finite() {
            return Err(corrupt("non-finite value"));
        }
        Ok(v)
    }

    /// Reads an `f64` that must be finite and not below zero (a limit, a
    /// sum of limits): the domain an ingest path admits, and the one
    /// the readers downstream rely on (a negative or NaN limit sum would
    /// make a clamp to `[0, Σ limits]` meaningless).
    ///
    /// # Errors
    ///
    /// [`StatsError::Corrupt`] for a truncated record, a NaN/infinity or
    /// a negative value.
    pub fn non_negative(&mut self) -> Result<f64, StatsError> {
        let v = self.finite()?;
        if v < 0.0 {
            return Err(corrupt("negative value"));
        }
        Ok(v)
    }

    /// Reads a flag byte.
    ///
    /// # Errors
    ///
    /// [`StatsError::Corrupt`] for a truncated record or a byte other
    /// than `0`/`1`.
    pub fn bool(&mut self) -> Result<bool, StatsError> {
        let Some((&b, rest)) = self.rest.split_first() else {
            return Err(corrupt("record truncated"));
        };
        self.rest = rest;
        match b {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(corrupt("flag byte is neither 0 nor 1")),
        }
    }

    /// Reads an element count that must not exceed `max`.
    ///
    /// # Errors
    ///
    /// [`StatsError::Corrupt`] for a truncated record or a count above
    /// `max`.
    pub fn count(&mut self, max: usize) -> Result<usize, StatsError> {
        match usize::try_from(self.u64()?) {
            Ok(n) if n <= max => Ok(n),
            _ => Err(corrupt("length beyond its bound")),
        }
    }

    /// Reads a lifetime counter (at most [`COUNTER_MAX`]).
    ///
    /// # Errors
    ///
    /// [`StatsError::Corrupt`] for a truncated record or a counter above
    /// [`COUNTER_MAX`].
    pub fn counter(&mut self) -> Result<u64, StatsError> {
        let v = self.u64()?;
        if v > COUNTER_MAX {
            return Err(corrupt("counter out of range"));
        }
        Ok(v)
    }

    /// Checks that the record was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`StatsError::Corrupt`] when bytes are left over.
    pub fn finish(self) -> Result<(), StatsError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(corrupt("trailing bytes after the record"))
        }
    }
}

/// Reads a window's capacity field, which must equal the capacity the
/// reader is configured for (a record is refused, never coerced into a
/// differently sized window).
pub(crate) fn expect_capacity(r: &mut StateReader<'_>, capacity: usize) -> Result<(), StatsError> {
    if r.u64()? != capacity as u64 {
        return Err(corrupt("window capacity differs from the configured one"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MovingWindow, OrderStatWindow, PeakWindow, TopKWindow};

    const CAP: usize = 6;
    /// The depth of the top-k windows under test: below [`CAP`], so
    /// entries leave by domination as well as by age.
    const DEPTH: usize = 2;

    fn decode_top_k(r: &mut StateReader<'_>, cap: usize) -> Result<TopKWindow, StatsError> {
        TopKWindow::decode(r, cap, DEPTH)
    }

    /// Duplicates, both signed zeros, and enough pushes to wrap a window
    /// of [`CAP`] several times.
    fn stream() -> Vec<f64> {
        (0..40u64)
            .map(|i| match i % 5 {
                0 => -0.0,
                1 => 0.0,
                _ => ((i * 7) % 4) as f64 / 4.0,
            })
            .collect()
    }

    fn bits(xs: impl IntoIterator<Item = f64>) -> Vec<u64> {
        xs.into_iter().map(f64::to_bits).collect()
    }

    /// Encodes `w`, checks that every strict prefix and a capacity
    /// mismatch fail to decode, and returns the decoded copy.
    fn round_trip<W>(
        w: &W,
        encode: impl Fn(&W, &mut Vec<u8>),
        decode: impl Fn(&mut StateReader<'_>, usize) -> Result<W, StatsError>,
    ) -> W {
        let mut bytes = Vec::new();
        encode(w, &mut bytes);
        for cut in 0..bytes.len() {
            let mut r = StateReader::new(&bytes[..cut]);
            assert!(
                decode(&mut r, CAP).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        assert!(decode(&mut StateReader::new(&bytes), CAP + 1).is_err());
        let mut r = StateReader::new(&bytes);
        let back = decode(&mut r, CAP).expect("a full record decodes");
        r.finish().expect("the record is consumed exactly");
        let mut again = Vec::new();
        encode(&back, &mut again);
        assert_eq!(again, bytes, "encode(decode(b)) == b");
        back
    }

    /// A decoded window is the window: cut anywhere, it answers and keeps
    /// evolving bit-identically to the original (a top-k window at a
    /// shallow depth and at full depth).
    #[test]
    fn windows_round_trip_and_evolve_identically() {
        let stream = stream();
        for cut in [0, 1, 3, CAP, 17, stream.len()] {
            let (head, tail) = stream.split_at(cut);
            let mut order = OrderStatWindow::new(CAP).unwrap();
            let mut moving = MovingWindow::new(CAP).unwrap();
            let mut peak = PeakWindow::new(CAP).unwrap();
            let mut top = TopKWindow::new(CAP, DEPTH).unwrap();
            let mut full = TopKWindow::new(CAP, CAP).unwrap();
            for &x in head {
                order.push(x);
                moving.push(x);
                peak.push(x);
                top.push(x);
                full.push(x);
            }
            let mut order2 = round_trip(&order, OrderStatWindow::encode, OrderStatWindow::decode);
            let mut moving2 = round_trip(&moving, MovingWindow::encode, MovingWindow::decode);
            let mut peak2 = round_trip(&peak, PeakWindow::encode, PeakWindow::decode);
            let mut top2 = round_trip(&top, TopKWindow::encode, decode_top_k);
            assert!(TopKWindow::decode(&mut StateReader::new(&encoded(&top)), CAP, 1).is_err());
            let mut full2 = round_trip(&full, TopKWindow::encode, |r, cap| {
                TopKWindow::decode(r, cap, CAP)
            });
            for &x in tail {
                order.push(x);
                order2.push(x);
                moving.push(x);
                moving2.push(x);
                peak.push(x);
                peak2.push(x);
                top.push(x);
                top2.push(x);
                assert_eq!(encoded(&top), encoded(&top2));
                assert_eq!(top.percentile(100.0), top2.percentile(100.0));
                full.push(x);
                full2.push(x);
                assert_eq!(encoded(&full), encoded(&full2));
                assert_eq!(
                    full2.percentile(0.0).map(f64::to_bits),
                    order.percentile(0.0).map(f64::to_bits)
                );
                assert_eq!(
                    bits(order.sorted().iter().copied()),
                    bits(order2.sorted().iter().copied())
                );
                assert_eq!(bits(order.iter()), bits(order2.iter()));
                assert_eq!(moving.mean().to_bits(), moving2.mean().to_bits());
                assert_eq!(
                    moving.population_std().to_bits(),
                    moving2.population_std().to_bits()
                );
                assert_eq!(bits(peak.max()), bits(peak2.max()));
                assert_eq!(peak.len(), peak2.len());
            }
        }
    }

    fn encoded(w: &TopKWindow) -> Vec<u8> {
        let mut out = Vec::new();
        w.encode(&mut out);
        out
    }

    /// Each invariant a top-k record must keep, broken one at a time in a
    /// record that decodes when intact.
    #[test]
    fn broken_top_k_invariants_are_refused() {
        let mut top = TopKWindow::new(CAP, DEPTH).unwrap();
        for x in [3.0, 1.0, 2.0, 1.0, 0.5, 2.5, 1.5, 1.0, 1.0] {
            top.push(x);
        }
        let good = encoded(&top);
        let decodes = |b: &[u8]| TopKWindow::decode(&mut StateReader::new(b), CAP, DEPTH).is_ok();
        assert!(decodes(&good));
        // Layout: capacity, depth, pushed, len, then (index, bits) pairs.
        // Nine pushes into six slots leave indices 3..=8 in the window, of
        // which 2.5@5, 1.5@6, 1.0@8 and 1.0@7 are retained.
        let entry = |i: usize, field: usize| 4 + 2 * i + field;
        let words: Vec<u64> = good
            .chunks(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(
            (0..words[3] as usize)
                .map(|i| words[entry(i, 0)])
                .collect::<Vec<_>>(),
            [5, 6, 8, 7]
        );
        for (what, word, v) in [
            ("capacity", 0, CAP as u64 + 1),
            ("depth", 1, DEPTH as u64 + 1),
            ("push count past the counter bound", 2, COUNTER_MAX + 1),
            ("push count with the newest missing", 2, 10),
            ("fewer entries than the depth", 3, 1),
            ("index before the window", entry(0, 0), 2),
            ("index not yet pushed", entry(0, 0), 9),
            ("repeated index", entry(1, 0), 5),
            ("values not descending", entry(0, 1), 1.25f64.to_bits()),
            ("equal values oldest first", entry(2, 0), 4),
            ("non-finite value", entry(1, 1), f64::INFINITY.to_bits()),
            // 1.0@3 would have 2.5@5, 1.5@6 and 1.0@8 newer and `≥` it.
            ("newer entries at the depth", entry(3, 0), 3),
        ] {
            let mut bad = good.clone();
            bad[8 * word..8 * word + 8].copy_from_slice(&v.to_le_bytes());
            assert!(!decodes(&bad), "{what} decoded");
        }
    }

    /// A record whose entries no stream of pushes leaves behind, but which
    /// keeps every invariant decode checks, stays readable to its depth
    /// through later pushes: the counts are rebuilt from the entries, not
    /// taken from the record, so no push can drop more than it should.
    #[test]
    fn decoded_top_k_windows_keep_their_depth() {
        let (cap, depth) = (120, 3);
        let mut rec = Vec::new();
        for word in [cap as u64, depth as u64, 200, 3] {
            put_u64(&mut rec, word);
        }
        for (seq, x) in [(150, 3.0), (160, 2.0), (199, 1.0)] {
            put_u64(&mut rec, seq);
            put_f64(&mut rec, x);
        }
        let mut w = TopKWindow::decode(&mut StateReader::new(&rec), cap, depth).unwrap();
        for x in [5.0, 0.5, 4.0, 6.0] {
            w.push(x);
            assert!(w.retained() >= depth, "{} entries after {x}", w.retained());
            assert!(w.percentile(99.0).is_ok());
        }
        assert_eq!(w.percentile(100.0), Ok(6.0));
    }

    #[test]
    fn inconsistent_peak_stamps_are_refused() {
        let mut peak = PeakWindow::new(CAP).unwrap();
        for x in [3.0, 1.0, 2.0] {
            peak.push(x);
        }
        let mut good = Vec::new();
        peak.encode(&mut good);
        // Layout: capacity, pushed, len, then (stamp, value) pairs.
        let word = |i: usize| 8 * i..8 * i + 8;
        for (i, v) in [
            (1, 9u64),               // pushed disagrees with the newest stamp
            (3, 2),                  // first stamp equal to the second
            (5, 0),                  // second stamp before the first
            (6, 5.0f64.to_bits()),   // values not decreasing
            (4, f64::NAN.to_bits()), // non-finite value
        ] {
            let mut bad = good.clone();
            bad[word(i)].copy_from_slice(&v.to_le_bytes());
            assert!(
                PeakWindow::decode(&mut StateReader::new(&bad), CAP).is_err(),
                "word {i} = {v:#x} decoded"
            );
        }
    }
}
