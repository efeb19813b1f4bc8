//! The reproduction harness: one module per paper table/figure, and one
//! driver that runs them.
//!
//! An experiment is a plain function from [`Opts`] to a [`Report`] (a
//! [`Run`]): it computes and returns its output as a value — ordered blocks
//! (headings, CDF panels, tables, claims comparing measured values against
//! the paper's) and the CSV files it wants written — and prints or writes
//! nothing itself. The driver owns the registry ([`ALL`], [`EXTRA`]) of
//! ids, aliases and banners; [`run`] prints an experiment's banner, renders
//! its blocks in order (plotting every CDF panel under `--plot`), writes
//! its CSVs under `results/` and returns its claims, each with its verdict.
//! The `repro` binary resolves every argument with [`resolve`] before it
//! runs any, and writes the run's claims to `claims.md` in the results dir.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
mod diag;
mod ext;
mod fig1;
mod fig10;
mod fig11;
mod fig12;
mod fig13;
mod fig3;
mod fig4;
mod fig6;
mod fig7;
mod fig8;
pub mod output;
mod plot;
mod powercap;
mod table1;
mod workload;

use common::Opts;
use output::{Claim, Report};
use std::error::Error;

/// An experiment's body: computes its report, printing and writing
/// nothing, and propagates generation and simulation errors.
pub type Run = fn(&Opts) -> Result<Report, Box<dyn Error>>;

/// One registered experiment.
#[derive(Debug)]
pub struct Experiment {
    /// The id `repro` takes.
    pub id: &'static str,
    /// Other ids that name the same experiment.
    pub aliases: &'static [&'static str],
    /// The banner printed above its output.
    pub banner: &'static str,
    /// Its body.
    pub run: Run,
}

const fn exp(id: &'static str, banner: &'static str, run: Run) -> Experiment {
    let aliases = &[];
    Experiment {
        id,
        aliases,
        banner,
        run,
    }
}

/// The experiments `all` runs, in run order.
pub static ALL: [Experiment; 17] = [
    exp(
        "fig1",
        "fig1: CDF of cell-level future peak: Σ task peaks vs Σ machine peaks",
        fig1::run,
    ),
    exp(
        "table1",
        "table1: production-cell inventory (machines, tasks)",
        table1::run,
    ),
    exp(
        "fig3",
        "fig3: per-machine violation rate vs CPU scheduling latency (prod cells)",
        fig3::run,
    ),
    exp(
        "fig4",
        "fig4: CDF of task submission rate (tasks / 5 min) per cell",
        fig4::run,
    ),
    exp(
        "fig6",
        "fig6: Σ per-task k%ile vs actual machine peak (cell a)",
        fig6::run,
    ),
    exp("fig7a", "fig7a: task runtime CDFs per cell", fig7::run_a),
    exp(
        "fig7b",
        "fig7b: oracle horizon comparison (normalized difference to 72h)",
        fig7::run_b,
    ),
    exp(
        "fig7c",
        "fig7c: task usage-to-limit ratio CDFs per cell",
        fig7::run_c,
    ),
    exp(
        "fig8",
        "fig8: N-sigma predictor parameter sweeps (cell a)",
        fig8::run_n_sigma,
    ),
    exp(
        "fig9",
        "fig9: RC-like predictor parameter sweeps (cell a)",
        fig8::run_rc_like,
    ),
    exp("fig10", "fig10: predictor comparison on cell a", fig10::run),
    exp(
        "fig11",
        "fig11: max predictor across cells a..h",
        fig11::run,
    ),
    exp(
        "fig12",
        "fig12: max predictor across four weeks of cell a",
        fig12::run,
    ),
    Experiment {
        id: "fig13",
        aliases: &["fig14", "ab"],
        banner: "fig13+fig14: production A/B: borg-default (control) vs max predictor (exp)",
        run: fig13::run,
    },
    exp(
        "autopilot",
        "ext-autopilot: per-task limit tuning vs machine-level overcommit headroom",
        ext::run_autopilot,
    ),
    exp(
        "seasonal",
        "ext-seasonal: seasonal daily-peak predictor vs the paper's max predictor (cell a)",
        ext::run_seasonal,
    ),
    exp(
        "powercap",
        "powercap: node power from the CPU lane: cap frontier + worst-lane admission demo",
        powercap::run,
    ),
];

/// The experiments outside `all`.
pub static EXTRA: [Experiment; 2] = [
    exp(
        "workload",
        "workload: generator characterization across cells a..h",
        workload::run,
    ),
    exp(
        "diag",
        "diag: oracle-to-limit and usage-to-limit ratios (cell a)",
        diag::run,
    ),
];

/// Every registered experiment: [`ALL`], then [`EXTRA`].
pub fn registry() -> impl Iterator<Item = &'static Experiment> {
    ALL.iter().chain(&EXTRA)
}

/// The ids `repro` accepts, aliases in parentheses, then `all`.
pub fn known_ids() -> String {
    let mut ids: Vec<String> = registry()
        .map(|e| match e.aliases {
            [] => e.id.to_string(),
            aliases => format!("{} (= {})", e.id, aliases.join(", ")),
        })
        .collect();
    ids.push("all".into());
    ids.join(", ")
}

/// Resolves every id (`all` expands to [`ALL`]) before anything runs.
///
/// # Errors
///
/// Names the first unknown id and lists the known ones.
pub fn resolve<S: AsRef<str>>(ids: &[S]) -> Result<Vec<&'static Experiment>, String> {
    let mut plan = Vec::new();
    for id in ids.iter().map(AsRef::as_ref) {
        if id == "all" {
            plan.extend(&ALL);
        } else if let Some(e) = registry().find(|e| e.id == id || e.aliases.contains(&id)) {
            plan.push(e);
        } else {
            return Err(format!("unknown experiment '{id}'; known: {}", known_ids()));
        }
    }
    Ok(plan)
}

/// Runs one experiment: prints its banner and its rendered report (with
/// every CDF panel plotted under `--plot`), writes its CSVs under
/// [`Opts::results`] and returns its claims, for the run's `claims.md`.
///
/// # Errors
///
/// Propagates experiment and I/O failures.
pub fn run(exp: &Experiment, opts: &Opts) -> Result<Vec<Claim>, Box<dyn Error>> {
    println!("\n=== {} ===", exp.banner);
    let report = (exp.run)(opts)?;
    print!("{}", report.render(opts.plot));
    report.write_csvs(&opts.results)?;
    Ok(report.claims().cloned().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(plan: &[&Experiment]) -> Vec<&'static str> {
        plan.iter().map(|e| e.id).collect()
    }

    /// Every argument is resolved before any experiment runs: one unknown
    /// id fails the whole list, whatever its position.
    #[test]
    fn resolve_checks_every_id_first() {
        let err = resolve(&["fig13", "nope"]).unwrap_err();
        assert!(
            err.starts_with("unknown experiment 'nope'; known: fig1, "),
            "{err}"
        );
        assert!(resolve(&["nope", "fig1"]).unwrap_err().contains("'nope'"));
        let plan = resolve(&["fig14", "ab", "workload", "fig1"]).unwrap();
        assert_eq!(ids(&plan), ["fig13", "fig13", "workload", "fig1"]);
        assert_eq!(resolve(&["all"]).unwrap().len(), ALL.len());
        assert!(resolve::<&str>(&[]).unwrap().is_empty());
    }

    #[test]
    fn known_ids_come_from_the_registry() {
        let known = known_ids();
        for e in registry() {
            assert!(known.contains(e.id), "{known}");
            for a in e.aliases {
                assert!(known.contains(a), "{known}");
            }
        }
        assert!(known.contains("fig13 (= fig14, ab)"), "{known}");
        assert!(known.ends_with(", workload, diag, all"), "{known}");
    }
}
