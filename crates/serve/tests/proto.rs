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

    /// Round trip for responses, including the 14-field STATS snapshot.
    #[test]
    fn response_round_trips(
        selector in 0u32..8,
        flag in 0u32..2,
        peak in 0.0f64..1e9,
        counters in proptest::collection::vec(0u64..=u64::MAX, 10),
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
                timeouts: counters[7],
                conn_rejects: counters[8],
                epoch: counters[9],
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
        let header = lines.next().expect("frame has a header");
        prop_assert_eq!(parse_batch_header(header), Ok(Some(n)));
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
        prop_assert_eq!(parse_batchr_header(line), Ok(Some(n)));
        // A BATCHR header is not a BATCH header and vice versa.
        prop_assert_eq!(parse_batch_header(line), Ok(None));
    }

    /// A BATCH header truncated mid-token, oversized, or with an
    /// out-of-range count is a typed error or a non-header — never a
    /// panic, never a bogus frame.
    #[test]
    fn batch_header_abuse_is_typed(count in 0u64..=u64::MAX, pad in 0usize..16) {
        let line = format!("BATCH {count}");
        match parse_batch_header(&line) {
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
            parse_batch_header(&long),
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
    fn corrupted_stats_fields_are_typed(victim in 0usize..14, mode in 0u32..2) {
        let snapshot = StatsSnapshot {
            observes: 1,
            predicts: 2,
            admits: 3,
            busy: 4,
            stale: 5,
            errors: 6,
            machines: 7,
            timeouts: 8,
            conn_rejects: 9,
            epoch: 10,
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

/// SplitMix64: the seeded, deterministic source of the sweeps below.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The `usage`/`limit` values (both lanes) of one generated cell-A
/// machine, as the benchmark's ingest puts them on the wire.
fn cell_a_machine_values() -> Vec<f64> {
    use oc_trace::{CellConfig, CellPreset, MemoryModel, WorkloadGenerator};
    let mut cfg = CellConfig::preset(CellPreset::A).with_machines(1);
    cfg.duration_ticks = 288;
    let trace = WorkloadGenerator::new(cfg)
        .unwrap()
        .generate_machine(MachineId(0))
        .unwrap();
    let metric = oc_core::SimConfig::default().metric;
    let memory = MemoryModel::default();
    let mut values = Vec::new();
    for t in trace.horizon.iter() {
        for task in trace.tasks_at(t) {
            let usage = task.sample_at(t).map(|s| metric.of(s)).unwrap_or(0.0);
            values.extend([
                usage,
                task.spec.limit,
                memory.usage(&task.spec, t, usage),
                task.spec.memory_limit,
            ]);
        }
    }
    values
}

/// At least a million values, aimed where the traffic lives as well as
/// at the writer's edges: uniform bits; dyadic fractions `k/2^j`
/// (exact midpoints between short decimals live there); `u·10^e` for
/// `e` in `[-12, 6]`; a generated cell-A machine; every power of ten
/// with its neighbouring floats; subnormals and the named extremes.
fn float_sweep() -> Vec<f64> {
    let mut rng = SplitMix(0x5EED_F10A7);
    let mut values = Vec::with_capacity(1_100_000);
    values.extend((0..320_000).map(|_| f64::from_bits(rng.next())));
    for j in 0..=64 {
        let scale = 0.5f64.powi(j);
        values.extend((1..=600u64).map(|k| k as f64 * scale));
        values.extend((0..1_400).map(|_| {
            let bits = 1 + rng.below(53);
            (rng.next() >> (64 - bits)) as f64 * scale
        }));
    }
    for e in -12..=6 {
        let scale = 10f64.powi(e);
        values.extend((0..20_000).map(|_| rng.unit() * scale));
        values.extend((0..2_000).map(|_| rng.below(1_000_000) as f64 * scale));
    }
    values.extend(cell_a_machine_values());
    for k in -323..=308 {
        let p: f64 = format!("1e{k}").parse().unwrap();
        values.extend([p, p.next_down(), p.next_up()]);
    }
    values.extend((0..20_000).map(|_| f64::from_bits(rng.below(1 << 52))));
    values.extend([
        5e-324,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE.next_down(),
        f64::MAX,
        f64::MAX.next_down(),
        -0.0,
        0.0,
    ]);
    let two53 = 9_007_199_254_740_992.0f64;
    values.extend([two53 - 1.0, two53, two53 + 2.0, two53 + 4.0]);
    values.extend(values.clone().iter().take(200_000).map(|v| -v));
    values
}

/// Every float the writer emits is the text `Display` gives it, byte for
/// byte, and parses back to the same bits: the wire bytes of a float
/// field are exactly those of `format!("{v}")`.
#[test]
fn push_f64_matches_display_across_the_sweep() {
    let values = float_sweep();
    assert!(values.len() >= 1_000_000, "{} values", values.len());
    // Two halves on two threads keep the debug build near a second.
    std::thread::scope(|s| {
        for half in values.chunks(values.len().div_ceil(2)) {
            s.spawn(move || check_against_display(half));
        }
    });
}

fn check_against_display(values: &[f64]) {
    use std::fmt::Write as _;
    let mut out = Vec::with_capacity(400);
    let mut want = String::with_capacity(400);
    for &v in values {
        out.clear();
        push_f64(&mut out, v);
        want.clear();
        write!(want, "{v}").unwrap();
        if out != want.as_bytes() {
            panic!(
                "{v:e} (bits {:#018x}): wrote {:?}, Display {want:?}",
                v.to_bits(),
                String::from_utf8_lossy(&out)
            );
        }
        if v.is_finite() {
            let back: f64 = want.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{want} did not round-trip");
        }
    }
}

/// The parse oracle's reference: `split_ascii_whitespace` + `str::parse`
/// over the data-plane grammar, answering the value or the name of the
/// error variant.
type Ref<T> = Result<T, &'static str>;

fn ref_num<T: std::str::FromStr>(t: &str) -> Ref<T> {
    t.parse().map_err(|_| "BadNumber")
}

fn ref_f64(t: &str) -> Ref<f64> {
    let v: f64 = ref_num(t)?;
    if v.is_finite() && v >= 0.0 {
        Ok(v)
    } else {
        Err("OutOfDomain")
    }
}

fn ref_lanes(t: &str) -> Ref<(f64, Option<f64>)> {
    match t.split_once(',') {
        None => Ok((ref_f64(t)?, None)),
        Some((cpu, mem)) => Ok((ref_f64(cpu)?, Some(ref_f64(mem)?))),
    }
}

fn ref_request(line: &str) -> Ref<Request> {
    let t: Vec<&str> = line.split_ascii_whitespace().collect();
    let (cell, machine) = (|| CellId::new(t[1]), || ref_num(t[2]).map(MachineId));
    match (t.first().copied(), t.len().saturating_sub(1)) {
        (None, _) => Err("Empty"),
        (Some("OBSERVE"), 6) => {
            let machine = machine()?;
            let task = (t[3].split_once(':'))
                .and_then(|(j, i)| Some(TaskId::new(JobId(j.parse().ok()?), i.parse().ok()?)))
                .ok_or("BadTaskId")?;
            let ((usage, mu), (limit, ml)) = (ref_lanes(t[4])?, ref_lanes(t[5])?);
            let tick = ref_num(t[6])?;
            let mem = match (mu, ml) {
                (Some(u), Some(l)) => Some((u, l)),
                (None, None) => None,
                _ => return Err("LaneMismatch"),
            };
            let cell = cell();
            Ok(Request::Observe {
                cell,
                machine,
                task,
                usage,
                limit,
                mem,
                tick,
            })
        }
        (Some("PREDICT"), n @ (2 | 3)) if n == 2 || t[3] == "*" => Ok(Request::Predict {
            machine: machine()?,
            cell: cell(),
            vector: n == 3,
        }),
        (Some("ADMIT"), 3) => Ok(Request::Admit {
            machine: machine()?,
            limit: ref_f64(t[3])?,
            cell: cell(),
        }),
        (Some("OBSERVE" | "PREDICT" | "ADMIT"), _) => Err("Arity"),
        _ => Err("UnknownVerb"),
    }
}

fn ref_header(verb: &str, line: &str) -> Ref<Option<usize>> {
    let t: Vec<&str> = line.split_ascii_whitespace().collect();
    match (t.first() == Some(&verb), t.len()) {
        (false, _) => Ok(None),
        (true, 2) => match ref_num::<u64>(t[1])? {
            n if (1..=MAX_BATCH as u64).contains(&n) => Ok(Some(n as usize)),
            _ => Err("BatchSize"),
        },
        (true, _) => Err("Arity"),
    }
}

fn ref_response(line: &str) -> Ref<Response> {
    let t: Vec<&str> = line.split_ascii_whitespace().collect();
    match (t.first().copied(), t.len().saturating_sub(1)) {
        (None, _) => Err("Empty"),
        (Some("OK"), 0) => Ok(Response::Ok),
        (Some("PRED"), 1) => ref_lanes(t[1]).map(|(peak, mem)| Response::Pred { peak, mem }),
        (Some("ADMITTED"), 2) => match t[1] {
            "yes" | "no" => Ok(Response::Admitted {
                admit: t[1] == "yes",
                projected: ref_f64(t[2])?,
            }),
            _ => Err("BadResponse"),
        },
        (Some("PRED" | "ADMITTED"), _) => Err("Arity"),
        (Some("ERR"), n) if n > 0 => (ErrCode::parse(t[1]))
            .map(|code| Response::Err {
                code,
                detail: t[2..].join(" "),
            })
            .ok_or("BadResponse"),
        _ => Err("BadResponse"),
    }
}

/// Same value (floats by their exact spelling, `-0` included) or the
/// same error variant.
fn agree<T: std::fmt::Debug>(got: &Result<T, ProtoError>, want: &Ref<T>) -> bool {
    match (got, want) {
        (Ok(g), Ok(w)) => format!("{g:?}") == format!("{w:?}"),
        (Err(e), Err(variant)) => format!("{e:?}").split([' ', '{']).next() == Some(variant),
        _ => false,
    }
}

/// A float token: mostly the wire's own spelling, sometimes another
/// spelling `str::parse` accepts, sometimes one it refuses or that
/// leaves the domain.
fn float_token(rng: &mut SplitMix) -> String {
    const OTHER: [&str; 12] = [
        "+0.5", "5e-1", ".5", "5.", "1E3", "-0", "inf", "NaN", "1e400", "0x10", "-.5", "1e-400",
    ];
    match rng.below(3) {
        0 => OTHER[rng.below(OTHER.len() as u64) as usize].to_string(),
        _ => {
            let mut out = Vec::new();
            push_f64(&mut out, rng.unit() * 10f64.powi(rng.below(9) as i32 - 5));
            String::from_utf8(out).unwrap()
        }
    }
}

fn request_tokens(rng: &mut SplitMix) -> Vec<String> {
    let cell = ["a", "cell-b", "BATCH"][rng.below(3) as usize].to_string();
    let machine = rng.below(100).to_string();
    let vector = rng.below(2) == 0;
    let lane = |rng: &mut SplitMix| match vector {
        true => format!("{},{}", float_token(rng), float_token(rng)),
        false => float_token(rng),
    };
    match rng.below(6) {
        0 | 1 => {
            let task = format!("{}:{}", rng.below(1 << 40), rng.below(300));
            let (usage, limit) = (lane(rng), lane(rng));
            let tick = rng.below(1 << 20).to_string();
            ["OBSERVE".into(), cell, machine, task, usage, limit, tick].into()
        }
        2 if vector => ["PREDICT".into(), cell, machine, "*".into()].into(),
        2 => ["PREDICT".into(), cell, machine].into(),
        3 => ["ADMIT".into(), cell, machine, float_token(rng)].into(),
        4 => {
            let n = ["0", "1", "7", "1024", "1025", "x", "+3"][rng.below(7) as usize];
            ["BATCH".into(), n.into()].into()
        }
        _ => {
            let verb = ["OBSERVEX", "observe", "BATCHR", "PREDICT*"][rng.below(4) as usize];
            [verb.into(), cell, machine].into()
        }
    }
}

fn response_tokens(rng: &mut SplitMix) -> Vec<String> {
    let lanes = |rng: &mut SplitMix| match rng.below(2) {
        0 => float_token(rng),
        _ => format!("{},{}", float_token(rng), float_token(rng)),
    };
    match rng.below(6) {
        0 => ["OK".into()].into(),
        1 => ["PRED".into(), lanes(rng)].into(),
        2 => {
            let verdict = ["yes", "no", "maybe"][rng.below(3) as usize];
            ["ADMITTED".into(), verdict.into(), float_token(rng)].into()
        }
        3 => {
            let code = ["parse", "stale", "not-mine", "unknown-machine", "bogus"];
            let mut t = vec!["ERR".to_string(), code[rng.below(5) as usize].into()];
            t.extend((0..rng.below(4)).map(|i| format!("word{i}")));
            t
        }
        4 => ["BATCHR".into(), rng.below(1_100).to_string()].into(),
        _ => ["BUSY".into()].into(),
    }
}

/// Drops a token, adds one, turns one into a non-number, strips the
/// memory lane from one `cpu,mem` token, or puts a control byte that is
/// not whitespace into one — or leaves the line alone.
fn corrupt(rng: &mut SplitMix, tokens: &mut Vec<String>) {
    let at = rng.below(tokens.len() as u64) as usize;
    match rng.below(7) {
        6 => {
            let t = &mut tokens[at];
            let cut = rng.below(t.len() as u64 + 1) as usize;
            t.insert(
                cut,
                ['\x0b', '\x01', '\x1f', '\u{a0}'][rng.below(4) as usize],
            );
        }
        0 => {
            tokens.remove(at);
        }
        1 => tokens.insert(at + 1, ["7", "x", "*", "0.5"][rng.below(4) as usize].into()),
        2 if at > 0 => tokens[at] = "zz".into(),
        3 => {
            if let Some(pair) = tokens.iter_mut().find(|t| t.contains(',')) {
                pair.truncate(pair.find(',').unwrap());
            }
        }
        _ => {}
    }
}

/// Joins tokens the way a sloppy peer might: runs of spaces and tabs,
/// leading and trailing whitespace, a trailing `\r`.
fn render(rng: &mut SplitMix, tokens: &[String]) -> String {
    const LEAD: [&str; 4] = ["", "", " ", "\t "];
    const SEP: [&str; 5] = [" ", " ", "  ", "\t", " \t "];
    let pick =
        |rng: &mut SplitMix, from: &[&'static str]| from[rng.below(from.len() as u64) as usize];
    let mut line = pick(rng, &LEAD).to_string();
    for (i, t) in tokens.iter().enumerate() {
        if i > 0 {
            line.push_str(pick(rng, &SEP));
        }
        line.push_str(t);
    }
    line.push_str(pick(rng, &["", "", " ", "\t", "\r", " \r"]));
    line
}

proptest! {
    /// The one-pass parsers agree with the reference on data-plane
    /// lines, corrupted ones and replies: the same value or the same
    /// error variant, for every line.
    #[test]
    fn one_pass_parsers_agree_with_the_reference(seed in 0u64..=u64::MAX) {
        let mut rng = SplitMix(seed);
        let mut scratch = ProtoScratch::new();
        for _ in 0..64 {
            let mut tokens = request_tokens(&mut rng);
            corrupt(&mut rng, &mut tokens);
            let line = render(&mut rng, &tokens);
            let got = Request::parse_in(&line, &mut scratch);
            prop_assert!(agree(&got, &ref_request(&line)), "{line:?}: {got:?}");
            let got = parse_batch_header(&line);
            prop_assert!(agree(&got, &ref_header("BATCH", &line)), "{line:?}: {got:?}");

            let mut tokens = response_tokens(&mut rng);
            corrupt(&mut rng, &mut tokens);
            let line = render(&mut rng, &tokens);
            let got = Response::parse(&line);
            prop_assert!(agree(&got, &ref_response(&line)), "{line:?}: {got:?}");
            let got = parse_batchr_header(&line);
            prop_assert!(agree(&got, &ref_header("BATCHR", &line)), "{line:?}: {got:?}");

            // Byte soup over the grammar's own pieces and separators.
            const SOUP: [&str; 14] = [
                "OBSERVE", "PREDICT", "ADMIT", "BATCH", "OK", "PRED", "a", "7", "1:2",
                "0.5", "0.25,0.5", " ", "\t", "\x0b",
            ];
            let line: String = (0..rng.below(12))
                .map(|_| SOUP[rng.below(SOUP.len() as u64) as usize])
                .collect();
            let got = Request::parse_in(&line, &mut scratch);
            prop_assert!(agree(&got, &ref_request(&line)), "{line:?}: {got:?}");
            let got = Response::parse(&line);
            prop_assert!(agree(&got, &ref_response(&line)), "{line:?}: {got:?}");
        }
    }
}
