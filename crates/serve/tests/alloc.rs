//! The data-plane codec allocates nothing in the steady state: encoding
//! and parsing `OBSERVE` (both forms), `PREDICT` and `ADMIT`, and
//! encoding and parsing the `OK`/`PRED`/`ADMITTED` replies, once the
//! buffers and the parse scratch are warm. A counting global allocator
//! (this test binary's own) pins it.

use oc_serve::proto::{ProtoScratch, Request, Response};
use oc_trace::ids::{CellId, JobId, MachineId, TaskId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's allocations (and reallocations) on top of the
/// system allocator; other threads of the test harness are not counted.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn the_hot_codec_paths_allocate_nothing_when_warm() {
    let cell = CellId::new("cell-a");
    let observe = |usage: f64, mem: Option<(f64, f64)>| Request::Observe {
        cell: cell.clone(),
        machine: MachineId(17),
        task: TaskId::new(JobId(123_456_789), 3),
        usage,
        limit: 0.062_5 + usage,
        mem,
        tick: 8_640,
    };
    let requests = [
        observe(0.013_937_51, None),
        observe(1e-7, Some((0.000_123_4, 0.25))),
        Request::Predict {
            cell: cell.clone(),
            machine: MachineId(17),
            vector: true,
        },
        Request::Predict {
            cell: cell.clone(),
            machine: MachineId(18),
            vector: false,
        },
        Request::Admit {
            cell: cell.clone(),
            machine: MachineId(17),
            limit: 0.731_234_567_891,
        },
    ];
    let responses = [
        Response::Ok,
        Response::Pred {
            peak: 0.731_234_567_891,
            mem: None,
        },
        Response::Pred {
            peak: 0.1 + 0.2,
            mem: Some(1e-9),
        },
        Response::Admitted {
            admit: true,
            projected: 12_345.678_9,
        },
        Response::Admitted {
            admit: false,
            projected: 0.0,
        },
    ];
    let mut out = Vec::with_capacity(4_096);
    let mut scratch = ProtoScratch::new();
    let lines: Vec<String> = requests.iter().map(Request::encode).collect();
    let replies: Vec<String> = responses.iter().map(Response::encode).collect();
    // Warm up: the scratch interns the cell name once.
    for line in &lines {
        Request::parse_in(line, &mut scratch).unwrap();
    }

    for (req, line) in requests.iter().zip(&lines) {
        let n = allocations(|| {
            out.clear();
            req.encode_into(&mut out);
        });
        assert_eq!(n, 0, "encode_into of {line}");
        assert_eq!(out, line.as_bytes());
        let mut parsed = None;
        let n = allocations(|| parsed = Some(Request::parse_in(line, &mut scratch)));
        assert_eq!(n, 0, "parse_in of {line}");
        // The comparison clones nothing; the parsed value is dropped after.
        assert_eq!(parsed.unwrap().as_ref(), Ok(req));
    }
    for (resp, line) in responses.iter().zip(&replies) {
        let n = allocations(|| {
            out.clear();
            resp.encode_into(&mut out);
        });
        assert_eq!(n, 0, "encode_into of {line}");
        assert_eq!(out, line.as_bytes());
        let mut parsed = None;
        let n = allocations(|| parsed = Some(Response::parse(line)));
        assert_eq!(n, 0, "Response::parse of {line}");
        assert_eq!(parsed.unwrap().as_ref(), Ok(resp));
    }
    // The counter counts: a reply that carries text allocates it.
    assert!(allocations(|| drop(Response::parse("ERR stale tick 5"))) > 0);
}
