//! Property tests for the per-connection read state machine
//! ([`LineAccumulator`]): however the transport segments the byte
//! stream, complete lines come out byte-identical, a truncated final
//! line is never delivered, and an unterminated over-long accumulation
//! is reported instead of buffered without bound.
//!
//! The newline scan under it, `find_newline`, is checked at every
//! offset and alignment against a byte-by-byte search.
//!
//! These invariants are what make the reactor frontend's arbitrary
//! wakeup boundaries safe: an epoll read can end anywhere — mid-line,
//! mid-frame, one byte at a time — and the protocol layer above must
//! never notice.

use oc_serve::conn::{Feed, LineAccumulator};
use oc_serve::proto::{find_newline, MAX_LINE_BYTES};
use proptest::prelude::*;

/// Joins generated line bodies into a wire payload: every body gets its
/// terminator, then `partial` trails with none. Bodies arrive as `u32`
/// (the vendored proptest only generates the wider int types); each
/// value is truncated to a byte and `\n` is remapped so each body stays
/// exactly one line.
fn build_payload(lines: &[Vec<u32>], partial: &[u32]) -> (Vec<u8>, Vec<Vec<u8>>) {
    let as_byte = |v: u32| match v as u8 {
        b'\n' => b' ',
        b => b,
    };
    let mut payload = Vec::new();
    let mut expected = Vec::new();
    for body in lines {
        let mut line: Vec<u8> = body.iter().map(|&v| as_byte(v)).collect();
        line.push(b'\n');
        payload.extend_from_slice(&line);
        expected.push(line);
    }
    payload.extend(partial.iter().map(|&v| as_byte(v)));
    (payload, expected)
}

/// Splits `payload` at pseudo-arbitrary boundaries derived from `cuts`.
fn split_chunks<'a>(payload: &'a [u8], cuts: &[u64]) -> Vec<&'a [u8]> {
    let mut chunks = Vec::new();
    let mut rest = payload;
    for &c in cuts {
        if rest.is_empty() {
            break;
        }
        // +1 keeps progress; modulo keeps the cut in range.
        let at = (c as usize % rest.len()) + 1;
        let (head, tail) = rest.split_at(at.min(rest.len()));
        chunks.push(head);
        rest = tail;
    }
    if !rest.is_empty() {
        chunks.push(rest);
    }
    chunks
}

proptest! {
    /// Complete lines are delivered byte-identically no matter where the
    /// chunk boundaries fall, and the trailing partial is retained (not
    /// delivered) with its exact length.
    #[test]
    fn lines_survive_arbitrary_split_boundaries(
        lines in proptest::collection::vec(
            proptest::collection::vec(0u32..=255, 0..60), 0..8),
        partial in proptest::collection::vec(0u32..=255, 0..60),
        cuts in proptest::collection::vec(0u64..=u64::MAX, 0..24),
    ) {
        let (payload, expected) = build_payload(&lines, &partial);
        let mut acc = LineAccumulator::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        for chunk in split_chunks(&payload, &cuts) {
            let fed = acc.feed(chunk, |line| {
                got.push(line.to_vec());
                Ok(true)
            }).expect("callback never errors");
            prop_assert_eq!(fed, Feed::More, "all lines fit under the cap");
        }
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(acc.partial_len(), partial.len());
        // EOF contract: the truncated tail is discarded, never delivered.
        prop_assert_eq!(acc.discard_partial(), partial.len());
        prop_assert_eq!(acc.partial_len(), 0);
        prop_assert_eq!(&got, &expected, "discard delivered nothing");
    }

    /// An unterminated accumulation past `MAX_LINE_BYTES` reports
    /// `Oversize` (with the buffer reset) instead of growing without
    /// bound — however the oversize run was segmented.
    #[test]
    fn unterminated_overlong_line_reports_oversize(
        extra in 0usize..300,
        cuts in proptest::collection::vec(0u64..=u64::MAX, 0..16),
    ) {
        let payload = vec![b'x'; MAX_LINE_BYTES + 1 + extra];
        let mut acc = LineAccumulator::new();
        let mut delivered = 0usize;
        let mut oversize = false;
        for chunk in split_chunks(&payload, &cuts) {
            match acc.feed(chunk, |_| { delivered += 1; Ok(true) }).unwrap() {
                Feed::More => {}
                Feed::Oversize => { oversize = true; break; }
                Feed::Close => unreachable!("callback never closes"),
            }
        }
        prop_assert!(oversize, "cap never tripped");
        prop_assert_eq!(delivered, 0, "no newline ever arrived");
        prop_assert_eq!(acc.partial_len(), 0, "oversize resets the buffer");
    }

    /// A *terminated* line of any length is delivered exactly once —
    /// the newline proves the stream is in sync, so an over-long line is
    /// the parser's problem (recoverable `ERR parse`), not the
    /// accumulator's.
    #[test]
    fn terminated_line_is_always_delivered(
        len in 0usize..(MAX_LINE_BYTES + 200),
        cuts in proptest::collection::vec(0u64..=u64::MAX, 0..16),
    ) {
        let mut payload = vec![b'y'; len];
        payload.push(b'\n');
        let mut acc = LineAccumulator::new();
        let mut got: Vec<usize> = Vec::new();
        for chunk in split_chunks(&payload, &cuts) {
            // Oversize fires only if the cap is exceeded *before* the
            // terminator arrives in a later chunk; with the terminator
            // in the payload that can only happen when a cut strands
            // > MAX_LINE_BYTES unterminated — rule it out by checking.
            let fed = acc.feed(chunk, |line| { got.push(line.len()); Ok(true) }).unwrap();
            if len <= MAX_LINE_BYTES {
                prop_assert_eq!(fed, Feed::More);
            } else if fed == Feed::Oversize {
                // Legitimately tripped mid-stream; nothing delivered.
                prop_assert_eq!(got.len(), 0);
                return Ok(());
            }
        }
        prop_assert_eq!(got.as_slice(), &[len + 1][..], "one line, terminator included");
    }

    /// `Ok(false)` from the handler closes: the line that asked to close
    /// is the last one delivered and the rest of the chunk is discarded.
    #[test]
    fn close_discards_the_rest_of_the_feed(
        n_lines in 1usize..8,
        close_at in 0usize..8,
    ) {
        let close_at = close_at % n_lines;
        let mut payload = Vec::new();
        for i in 0..n_lines {
            payload.extend_from_slice(format!("line {i}\n").as_bytes());
        }
        let mut acc = LineAccumulator::new();
        let mut seen = 0usize;
        let fed = acc.feed(&payload, |_| {
            let keep = seen != close_at;
            seen += 1;
            Ok(keep)
        }).unwrap();
        prop_assert_eq!(fed, Feed::Close);
        prop_assert_eq!(seen, close_at + 1, "delivery stops at the close");
    }
}

/// Bytes one bit or one borrow away from a newline, which the
/// eight-bytes-at-a-time scan must not take for one.
const NEAR_NEWLINE: [u8; 8] = [0x0b, 0x09, 0x8a, 0x0a ^ 0x80, 0x01, 0x00, 0xff, b'x'];

/// `find_newline` answers the first `\n` wherever it sits: at every
/// offset of every length up to five words, behind every start
/// alignment, with or without a later newline, among bytes next to a
/// newline's bit pattern.
#[test]
fn find_newline_finds_the_first_newline_at_every_offset_and_alignment() {
    let mut buf = [0u8; 48];
    for align in 0..8 {
        for len in 0..=40 {
            for first in (0..len).map(Some).chain([None]) {
                for (k, b) in buf.iter_mut().enumerate() {
                    *b = NEAR_NEWLINE[(k * 5 + len + align) % NEAR_NEWLINE.len()];
                }
                let bytes = &mut buf[align..align + len];
                if let Some(at) = first {
                    bytes[at] = b'\n';
                    if let Some(later) = bytes.get_mut(at + 1 + len % 9) {
                        *later = b'\n';
                    }
                }
                assert_eq!(
                    find_newline(bytes),
                    first,
                    "align {align}, len {len}: {bytes:?}"
                );
            }
        }
    }
}

proptest! {
    /// On any bytes, `find_newline` agrees with a byte-by-byte search.
    #[test]
    fn find_newline_agrees_with_a_bytewise_search(
        bytes in proptest::collection::vec(0u32..=255, 0..80),
        skip in 0usize..8,
    ) {
        let bytes: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        let bytes = &bytes[skip.min(bytes.len())..];
        prop_assert_eq!(find_newline(bytes), bytes.iter().position(|&b| b == b'\n'));
    }
}
