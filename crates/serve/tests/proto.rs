//! Property tests for the wire protocol: `parse(encode(x)) == x` for every
//! request and response, and malformed input always yields a typed
//! [`ProtoError`] — never a panic.

use oc_serve::proto::{
    encode_batch_into, encode_batchr_header_into, parse_batch_header, parse_batchr_header,
    push_f64, push_u64, ErrCode, ProtoError, ProtoScratch, Request, Response, StatsSnapshot,
    MAX_BATCH, MAX_LINE_BYTES,
};
use oc_trace::ids::{CellId, JobId, MachineId, TaskId};
use proptest::prelude::*;

/// Cell names exercised on the wire: plain, dashed, underscored, long.
const CELLS: [&str; 4] = ["a", "cell-b", "prod_c", "x123456789"];

/// Builds a request from flat sampled scalars (the vendored proptest has no
/// `prop_oneof`/`prop_map`, so variants are chosen by a selector integer).
#[allow(clippy::too_many_arguments)] // one flat scalar per proptest strategy
fn make_request(
    selector: u32,
    cell_idx: usize,
    machine: u32,
    job: u64,
    index: u32,
    usage: f64,
    limit: f64,
    tick: u64,
) -> Request {
    let cell = CellId::new(CELLS[cell_idx % CELLS.len()]);
    let machine = MachineId(machine);
    match selector % 8 {
        0 => Request::Observe {
            cell,
            machine,
            task: TaskId::new(JobId(job), index),
            usage,
            limit,
            mem: None,
            tick,
        },
        1 => Request::Predict {
            cell,
            machine,
            vector: false,
        },
        2 => Request::Admit {
            cell,
            machine,
            limit,
        },
        // Multi-resource forms: OBSERVE with a `cpu,mem` pair in both the
        // usage and limit slots, PREDICT with the trailing `*`.
        3 => Request::Observe {
            cell,
            machine,
            task: TaskId::new(JobId(job), index),
            usage,
            limit,
            // Reuse the float strategies crosswise so the memory lane
            // exercises the same value space as the CPU lane.
            mem: Some((limit, usage)),
            tick,
        },
        4 => Request::Predict {
            cell,
            machine,
            vector: true,
        },
        5 => Request::Stats,
        6 => Request::Restore {
            lines: 1 + machine.0 as usize % MAX_BATCH,
        },
        _ => Request::Shutdown,
    }
}

proptest! {
    /// Round trip: every encodable request parses back to itself, bit-exact
    /// floats included.
    #[test]
    fn request_round_trips(
        selector in 0u32..8,
        cell_idx in 0usize..4,
        machine in 0u32..=u32::MAX,
        job in 0u64..=u64::MAX,
        index in 0u32..=u32::MAX,
        usage in 0.0f64..1e12,
        limit in 0.0f64..1e12,
        tick in 0u64..=u64::MAX,
    ) {
        let req = make_request(selector, cell_idx, machine, job, index, usage, limit, tick);
        let line = req.encode();
        prop_assert!(line.len() <= MAX_LINE_BYTES, "encoded line too long: {line}");
        let back = Request::parse(&line);
        prop_assert_eq!(back, Ok(req));
    }

    /// Round trip for responses, including the 15-field STATS snapshot.
    #[test]
    fn response_round_trips(
        selector in 0u32..8,
        flag in 0u32..2,
        peak in 0.0f64..1e9,
        counters in proptest::collection::vec(0u64..=u64::MAX, 11),
        lats in proptest::collection::vec(0.0f64..1e7, 4),
        code_idx in 0u32..9,
    ) {
        let code = [
            ErrCode::Parse,
            ErrCode::Stale,
            ErrCode::Gap,
            ErrCode::UnknownMachine,
            ErrCode::Shutdown,
            ErrCode::Internal,
            ErrCode::Timeout,
            ErrCode::ConnLimit,
            ErrCode::NotMine,
        ][code_idx as usize];
        let resp = match selector % 8 {
            0 => Response::Ok,
            1 => {
                // `BUSY` is not a response: a line carrying it is malformed.
                prop_assert!(matches!(
                    Response::parse("BUSY"),
                    Err(ProtoError::BadResponse { .. })
                ));
                return Ok(());
            }
            2 => Response::Pred { peak, mem: None },
            6 => Response::Pred { peak, mem: Some(lats[0]) },
            7 => Response::Restored {
                machines: counters[0],
                samples: counters[1],
                rejected: counters[2],
            },
            3 => Response::Admitted { admit: flag == 1, projected: peak },
            4 => Response::Stats(StatsSnapshot {
                observes: counters[0],
                predicts: counters[1],
                admits: counters[2],
                busy: counters[3],
                stale: counters[4],
                errors: counters[5],
                machines: counters[6],
                faults: counters[7],
                timeouts: counters[8],
                conn_rejects: counters[9],
                epoch: counters[10],
                p50_us: lats[0],
                p99_us: lats[1],
                mean_us: lats[2],
                max_us: lats[3],
            }),
            _ => Response::Err { code, detail: "some detail text".into() },
        };
        let back = Response::parse(&resp.encode());
        prop_assert_eq!(back, Ok(resp));
    }

    /// Float fields survive the wire bit-for-bit (shortest-round-trip
    /// formatting) — the property the serve-vs-offline smoke test rests on.
    #[test]
    fn floats_are_bit_exact_on_the_wire(mantissa in 0u64..=u64::MAX) {
        // Map arbitrary bits into a finite non-negative f64.
        let value = f64::from_bits(mantissa & !(1u64 << 63));
        if !value.is_finite() {
            return Ok(());
        }
        let resp = Response::Pred { peak: value, mem: None };
        let Ok(Response::Pred { peak, mem: None }) = Response::parse(&resp.encode()) else {
            return Err("PRED did not parse back".to_string());
        };
        prop_assert_eq!(peak.to_bits(), value.to_bits());
        // The pair form is bit-exact in both lanes.
        let half = f64::from_bits(value.to_bits() ^ 1); // a nearby distinct value
        let resp = Response::Pred { peak: value, mem: Some(half) };
        let Ok(Response::Pred { peak, mem: Some(mem) }) = Response::parse(&resp.encode()) else {
            return Err("PRED cpu,mem did not parse back".to_string());
        };
        prop_assert_eq!(peak.to_bits(), value.to_bits());
        prop_assert_eq!(mem.to_bits(), half.to_bits());
    }

    /// The multi-resource OBSERVE form round-trips with both lanes
    /// bit-exact, and a lane pair in only one of usage/limit is the typed
    /// lane-mismatch error — never a half-vector sample.
    #[test]
    fn vector_observe_round_trips_and_rejects_half_pairs(
        cell_idx in 0usize..4,
        machine in 0u32..=u32::MAX,
        usage in 0.0f64..1e12,
        limit in 0.0f64..1e12,
        mem_usage in 0.0f64..1e12,
        mem_limit in 0.0f64..1e12,
        tick in 0u64..=u64::MAX,
    ) {
        let req = Request::Observe {
            cell: CellId::new(CELLS[cell_idx % CELLS.len()]),
            machine: MachineId(machine),
            task: TaskId::new(JobId(3), 1),
            usage,
            limit,
            mem: Some((mem_usage, mem_limit)),
            tick,
        };
        let line = req.encode();
        prop_assert!(line.len() <= MAX_LINE_BYTES, "encoded line too long: {line}");
        let back = Request::parse(&line);
        prop_assert_eq!(back, Ok(req.clone()));
        if let Ok(Request::Observe { usage: u, limit: l, mem: Some((mu, ml)), .. })
            = Request::parse(&line)
        {
            prop_assert_eq!(u.to_bits(), usage.to_bits());
            prop_assert_eq!(l.to_bits(), limit.to_bits());
            prop_assert_eq!(mu.to_bits(), mem_usage.to_bits());
            prop_assert_eq!(ml.to_bits(), mem_limit.to_bits());
        }
        // Strip the pair from exactly one slot: LaneMismatch, both ways.
        let tokens: Vec<&str> = line.split_ascii_whitespace().collect();
        for slot in [4usize, 5] {
            let mut mixed: Vec<String> = tokens.iter().map(|t| (*t).to_string()).collect();
            mixed[slot] = mixed[slot].split(',').next().unwrap().to_string();
            prop_assert_eq!(
                Request::parse(&mixed.join(" ")),
                Err(ProtoError::LaneMismatch),
                "slot {} scalar + other slot pair must be rejected", slot
            );
        }
    }

    /// Arbitrary byte soup never panics the parser: it either parses or
    /// returns a typed error.
    #[test]
    fn arbitrary_lines_never_panic(bytes in proptest::collection::vec(0u32..128, 0..80)) {
        let line: String = bytes
            .iter()
            .map(|&b| char::from_u32(b).unwrap_or('?'))
            .collect();
        let _ = Request::parse(&line);
        let _ = Response::parse(&line);
    }

    /// BATCH framing round-trips: the encoded frame's header announces
    /// the sub-request count and every sub-line parses back bit-exact.
    #[test]
    fn batch_frame_round_trips(
        n in 1usize..40,
        selector in 0u32..3, // data-plane verbs only
        cell_idx in 0usize..4,
        machine in 0u32..1_000_000,
        usage in 0.0f64..1e9,
        limit in 0.0f64..1e9,
        tick in 0u64..=u64::MAX,
    ) {
        let reqs: Vec<Request> = (0..n)
            .map(|i| make_request(
                selector,
                cell_idx,
                machine.wrapping_add(i as u32),
                i as u64,
                i as u32,
                usage,
                limit,
                tick.wrapping_add(i as u64),
            ))
            .collect();
        let mut frame = Vec::new();
        encode_batch_into(&reqs, &mut frame);
        let text = std::str::from_utf8(&frame).expect("frames are UTF-8");
        let mut lines = text.lines();
        let mut scratch = ProtoScratch::new();
        let header = lines.next().expect("frame has a header");
        prop_assert_eq!(parse_batch_header(header, &mut scratch), Ok(Some(n)));
        let mut parsed = 0usize;
        for (line, want) in lines.zip(&reqs) {
            prop_assert!(line.len() <= MAX_LINE_BYTES);
            prop_assert_eq!(Request::parse(line), Ok(want.clone()));
            parsed += 1;
        }
        prop_assert_eq!(parsed, n, "frame must carry exactly n sub-lines");
    }

    /// BATCHR headers round-trip through the header codec for every legal
    /// count, and the count cap is enforced on both header verbs.
    #[test]
    fn batchr_header_round_trips(n in 1usize..=MAX_BATCH) {
        let mut out = Vec::new();
        encode_batchr_header_into(n, &mut out);
        let line = std::str::from_utf8(&out).unwrap();
        let mut scratch = ProtoScratch::new();
        prop_assert_eq!(parse_batchr_header(line, &mut scratch), Ok(Some(n)));
        // A BATCHR header is not a BATCH header and vice versa.
        prop_assert_eq!(parse_batch_header(line, &mut scratch), Ok(None));
    }

    /// A BATCH header truncated mid-token, oversized, or with an
    /// out-of-range count is a typed error or a non-header — never a
    /// panic, never a bogus frame.
    #[test]
    fn batch_header_abuse_is_typed(count in 0u64..=u64::MAX, pad in 0usize..16) {
        let mut scratch = ProtoScratch::new();
        let line = format!("BATCH {count}");
        match parse_batch_header(&line, &mut scratch) {
            Ok(Some(n)) => {
                prop_assert!(n as u64 == count && (1..=MAX_BATCH as u64).contains(&count));
            }
            Err(ProtoError::BatchSize { got }) => prop_assert_eq!(got, count),
            other => return Err(format!("unexpected: {other:?}")),
        }
        // Truncation at the 512-byte cap: any header line longer than
        // MAX_LINE_BYTES is rejected before the count is even looked at.
        let long = format!("BATCH {}{}", "9".repeat(MAX_LINE_BYTES), " ".repeat(pad));
        prop_assert!(matches!(
            parse_batch_header(&long, &mut scratch),
            Err(ProtoError::LineTooLong { .. })
        ));
    }

    /// Manual float formatting is byte-identical to `format!("{v}")` for
    /// every finite input — the property the zero-allocation encoder's
    /// bit-exactness rests on.
    #[test]
    fn push_f64_matches_display(bits in 0u64..=u64::MAX) {
        let v = f64::from_bits(bits);
        if !v.is_finite() {
            return Ok(());
        }
        let mut out = Vec::new();
        push_f64(&mut out, v);
        prop_assert_eq!(String::from_utf8(out).unwrap(), format!("{v}"));
    }

    /// Same for the integer formatter.
    #[test]
    fn push_u64_matches_display(v in 0u64..=u64::MAX) {
        let mut out = Vec::new();
        push_u64(&mut out, v);
        prop_assert_eq!(String::from_utf8(out).unwrap(), format!("{v}"));
    }

    /// Corrupting any one STATS field yields the typed [`ProtoError`]
    /// naming the expected key — never a silent default or a panic.
    #[test]
    fn corrupted_stats_fields_are_typed(victim in 0usize..15, mode in 0u32..2) {
        let snapshot = StatsSnapshot {
            observes: 1,
            predicts: 2,
            admits: 3,
            busy: 4,
            stale: 5,
            errors: 6,
            machines: 7,
            faults: 8,
            timeouts: 9,
            conn_rejects: 10,
            epoch: 11,
            p50_us: 1.5,
            p99_us: 9.5,
            mean_us: 2.25,
            max_us: 99.0,
        };
        let encoded = snapshot.encode_fields();
        let mut operands: Vec<String> =
            encoded.split_ascii_whitespace().map(str::to_string).collect();
        match mode {
            0 => operands[victim] = operands[victim].replace('=', ":"), // no '='
            _ => operands[victim] = format!("bogus{}", &operands[victim]), // wrong key
        }
        let refs: Vec<&str> = operands.iter().map(String::as_str).collect();
        match StatsSnapshot::parse_fields(&refs) {
            Err(ProtoError::StatsField { expected, got }) => {
                prop_assert_eq!(expected, encoded.split_ascii_whitespace()
                    .nth(victim).unwrap().split('=').next().unwrap());
                prop_assert_eq!(got, operands[victim].clone());
            }
            other => return Err(format!("expected StatsField, got {other:?}")),
        }
    }

    /// Truncating a valid OBSERVE line at any token boundary yields a typed
    /// arity (or empty) error, never a panic or a bogus parse.
    #[test]
    fn truncated_observe_is_typed_error(
        machine in 0u32..1000,
        tick in 0u64..1_000_000,
        cut in 0usize..6,
    ) {
        let full = Request::Observe {
            cell: CellId::new("a"),
            machine: MachineId(machine),
            task: TaskId::new(JobId(7), 0),
            usage: 0.25,
            limit: 0.5,
            mem: None,
            tick,
        }
        .encode();
        let tokens: Vec<&str> = full.split_ascii_whitespace().collect();
        let truncated = tokens[..=cut].join(" ");
        match Request::parse(&truncated) {
            Err(ProtoError::Arity { verb: "OBSERVE", expected: 6, got }) => {
                prop_assert_eq!(got, cut);
            }
            other => return Err(format!("expected arity error, got {other:?}")),
        }
    }
}

#[test]
fn malformed_numbers_are_typed_errors() {
    for (line, field) in [
        ("OBSERVE a 1 2:0 NaN 0.5 7", "usage"),
        ("OBSERVE a 1 2:0 inf 0.5 7", "usage"),
        ("OBSERVE a 1 2:0 0.5 -1 7", "limit"),
        ("ADMIT a 1 NaN", "limit"),
    ] {
        match Request::parse(line) {
            Err(ProtoError::OutOfDomain { field: f, .. }) => assert_eq!(f, field, "{line}"),
            other => panic!("{line}: expected OutOfDomain, got {other:?}"),
        }
    }
    assert!(matches!(
        Request::parse("OBSERVE a 1 2:0 zero 0.5 7"),
        Err(ProtoError::BadNumber { field: "usage", .. })
    ));
    assert!(matches!(
        Request::parse("OBSERVE a 99999999999 2:0 0.1 0.5 7"),
        Err(ProtoError::BadNumber {
            field: "machine",
            ..
        })
    ));
}

#[test]
fn unknown_verbs_and_junk_are_typed_errors() {
    assert!(matches!(
        Request::parse("FROBNICATE"),
        Err(ProtoError::UnknownVerb { .. })
    ));
    assert!(matches!(
        Request::parse("observe a 1 2:0 0.1 0.5 7"), // verbs are case-sensitive
        Err(ProtoError::UnknownVerb { .. })
    ));
    assert_eq!(Request::parse(""), Err(ProtoError::Empty));
    assert!(matches!(
        Request::parse(&"A".repeat(MAX_LINE_BYTES + 1)),
        Err(ProtoError::LineTooLong { .. })
    ));
    assert!(matches!(
        Request::parse("OBSERVE a 1 no-colon 0.1 0.5 7"),
        Err(ProtoError::BadTaskId { .. })
    ));
}

/// Satellite regression for the cluster-1m "mean 18x above p99" report:
/// merging member snapshots must keep the merged mean inside the merged
/// distribution's min/max (and at or below the merged p99, since every
/// member's own snapshot now holds mean <= p99 after the overflow-aware
/// quantile fix). The merge blends p50/p99/mean with the *same*
/// operation-count weights, so per-member orderings survive the fold.
#[test]
fn merged_stats_mean_stays_within_merged_min_max() {
    let member = |observes: u64, p50: f64, p99: f64, mean: f64, max: f64| StatsSnapshot {
        observes,
        p50_us: p50,
        p99_us: p99,
        mean_us: mean,
        max_us: max,
        ..StatsSnapshot::default()
    };
    // Shapes like a post-fix cluster-1m: heavy overflow tails, p99
    // substituted with the exact max, mean dominated by the tail.
    let a = member(700_000, 9_000.0, 410_000.0, 130_000.0, 410_000.0);
    let b = member(650_000, 11_000.0, 380_000.0, 125_000.0, 380_000.0);
    let c = member(680_000, 8_500.0, 500_000.0, 140_000.0, 500_000.0);
    let mut merged = a.clone();
    merged.merge(&b);
    merged.merge(&c);
    assert!(
        merged.mean_us >= merged.p50_us.min(a.p50_us.min(b.p50_us.min(c.p50_us))),
        "merged mean {} fell below every member's p50",
        merged.mean_us
    );
    assert!(
        merged.mean_us <= merged.p99_us,
        "merged mean {} above merged p99 {} — the pre-fix impossibility",
        merged.mean_us,
        merged.p99_us
    );
    assert!(
        merged.mean_us <= merged.max_us,
        "merged mean {} above merged max {}",
        merged.mean_us,
        merged.max_us
    );
    assert_eq!(merged.max_us, 500_000.0, "max of maxes is exact");
}
