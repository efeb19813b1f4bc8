//! Online serving quickstart: an in-process server and one typed client.
//!
//! ```text
//! cargo run --release --example serve_quickstart
//! ```
//!
//! Starts `oc-serve` on an ephemeral loopback port, streams a morning's
//! worth of usage samples for two tasks on one machine through the
//! retrying `oc-client` (which reconnects and re-sends across transient
//! disconnects transparently), and then asks the questions a scheduler
//! would ask: "what will this machine's peak be?" and "does another
//! 0.3-core task fit?". Finishes with the service-wide `STATS` snapshot
//! and a graceful drain.

use overcommit_repro::client::{Client, ClientConfig};
use overcommit_repro::serve::{ServeConfig, Server};
use overcommit_repro::trace::ids::{CellId, JobId, MachineId, TaskId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 2-shard server with the paper's default predictor
    // (max(borg-default, n-sigma)) and node-agent parameters.
    let server = Server::start(ServeConfig::default().with_shards(2))?;
    println!("serving on {}", server.addr());

    let mut client = Client::connect(server.addr(), ClientConfig::default())?;

    let cell = CellId::new("demo");
    let machine = MachineId(0);
    let web = TaskId::new(JobId(1), 0); // diurnal web serving task
    let batch = TaskId::new(JobId(2), 0); // flat batch task

    // Stream 48 five-minute ticks (four hours) of samples. The web task
    // ramps with the morning; the batch task hums along at a constant
    // rate. Both run far below their limits — the usage-to-limit gap the
    // paper's overcommit reclaims.
    for t in 0..48u64 {
        let ramp = 0.08 + 0.10 * (t as f64 / 48.0);
        for (task, usage, limit) in [(web, ramp, 0.6), (batch, 0.05, 0.3)] {
            client.observe(&cell, machine, task, usage, limit, t)?;
        }
    }

    // The scheduler's first question: the machine's predicted peak.
    let peak = client.predict(&cell, machine)?;
    println!("predicted machine peak: {peak:.3} (Σ limits would say 0.900)");

    // The second question: does one more 0.3-core task fit?
    let (admit, projected) = client.admit(&cell, machine, 0.3)?;
    println!(
        "admit a 0.3-limit task? {} (projected peak {projected:.3} vs capacity 1.0)",
        if admit { "yes" } else { "no" }
    );

    let s = client.stats()?;
    println!(
        "server counters: {} observes, {} predicts, {} admits across {} machine(s), \
         mean service latency {:.0} µs",
        s.observes, s.predicts, s.admits, s.machines, s.mean_us
    );

    drop(client);
    let final_stats = server.shutdown();
    println!(
        "drained: final snapshot has {} observes across {} machine(s)",
        final_stats.observes, final_stats.machines
    );
    Ok(())
}
