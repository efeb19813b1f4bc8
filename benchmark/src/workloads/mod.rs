//! The four workloads and what the served ones share.

pub mod ingest_stream;
pub mod offline_cell;
pub mod predict_admit;
pub mod ring_replace;

use crate::gates;
use crate::inputs;
use oc_client::Client;
use oc_serve::Server;
use oc_trace::ids::{CellId, MachineId};
use std::collections::BTreeMap;

/// Starts the in-process server of the single-node workloads.
pub fn start_server() -> Result<Server, String> {
    Server::start(inputs::serve_config()).map_err(|e| format!("server start: {e}"))
}

/// Raw counters of a single-node served session: the server's `METRICS`
/// registry and `STATS` ledger plus the client's retry counters, through
/// the public verbs only. Names starting with `gauge.` are point-in-time
/// values, the rest are monotonic.
pub fn scrape_served(client: &mut Client) -> Result<BTreeMap<String, f64>, String> {
    let mut out = client
        .server_metrics()
        .map_err(|e| format!("METRICS: {e}"))?;
    let stats = client.stats().map_err(|e| format!("STATS: {e}"))?;
    out.insert("stats.busy".to_string(), stats.busy as f64);
    out.insert("gauge.stats.mean_us".to_string(), stats.mean_us);
    let m = client.metrics();
    out.insert("client.retries".to_string(), m.retries as f64);
    out.insert("client.reconnects".to_string(), m.reconnects as f64);
    Ok(out)
}

/// Gate: what the server answers for `machine` is bit-identical to the
/// offline recompute — the scalar `PREDICT` when `want_mem` is `None`,
/// both lanes of `PREDICT ... *` otherwise.
pub fn served_identity(
    client: &mut Client,
    cell: &CellId,
    machine: MachineId,
    want_cpu: f64,
    want_mem: Option<f64>,
) -> Result<(), String> {
    let what = format!("{cell}/{machine}");
    match want_mem {
        None => {
            let got = client
                .predict(cell, machine)
                .map_err(|e| format!("identity: PREDICT {what}: {e}"))?;
            gates::bits(&what, got, want_cpu)
        }
        Some(want_mem) => {
            let (cpu, mem) = client
                .predict_vec(cell, machine)
                .map_err(|e| format!("identity: PREDICT {what} *: {e}"))?;
            gates::bits(&format!("{what} cpu"), cpu, want_cpu)?;
            gates::bits(&format!("{what} mem"), mem, want_mem)
        }
    }
}
