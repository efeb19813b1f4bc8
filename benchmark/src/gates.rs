//! Correctness gates: every run checks, outside the timed region, that
//! the program's outputs are right. Each gate is a pure function from
//! what was observed to `Err(why)`, so a test can trip it on purpose.

use oc_serve::proto::StatsSnapshot;

/// The `STATS` ledger of a served workload: every acknowledged sample
/// was applied, none was stale, nothing errored.
pub fn ledger(stats: &StatsSnapshot, acknowledged: u64) -> Result<(), String> {
    if stats.observes != acknowledged {
        return Err(format!(
            "ledger: server applied {} observes, client had {acknowledged} acknowledged",
            stats.observes
        ));
    }
    if stats.stale != 0 || stats.errors != 0 {
        return Err(format!(
            "ledger: stale {} errors {} (both must be 0)",
            stats.stale, stats.errors
        ));
    }
    Ok(())
}

/// A served prediction must be bit-identical to the offline recompute.
pub fn bits(what: &str, served: f64, offline: f64) -> Result<(), String> {
    if served.to_bits() == offline.to_bits() {
        Ok(())
    } else {
        Err(format!(
            "identity: {what} served {served:?} ({:#018x}) offline {offline:?} ({:#018x})",
            served.to_bits(),
            offline.to_bits()
        ))
    }
}

/// End state of `ring-replace`: no served-vs-offline mismatch, the stale
/// client adopted the pushed ring, every machine sits on owner + replica.
pub fn ring(mismatches: u64, adoptions: u64, machines_held: u64, fleet: u64) -> Result<(), String> {
    if mismatches != 0 {
        return Err(format!(
            "ring: {mismatches} machines differ from the offline recompute"
        ));
    }
    if adoptions < 1 {
        return Err("ring: the generation-0 client never adopted the pushed ring".to_string());
    }
    if machines_held != 2 * fleet {
        return Err(format!(
            "ring: members hold {machines_held} machine views, expected 2 x {fleet}"
        ));
    }
    Ok(())
}

/// One predictor's cell-level result as bit patterns: name, violation
/// rate and mean savings, each averaged over machines in machine order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictorBits {
    /// Predictor name.
    pub name: String,
    /// Bits of the mean per-machine violation rate.
    pub violation_rate: u64,
    /// Bits of the mean per-machine savings.
    pub savings: u64,
}

/// `offline-cell` results must equal the expected ones bit for bit.
pub fn cell_bits(got: &[PredictorBits], expected: &[PredictorBits]) -> Result<(), String> {
    if got == expected {
        return Ok(());
    }
    let fmt = |v: &[PredictorBits]| {
        v.iter()
            .map(|p| format!("{} {:#018x} {:#018x}", p.name, p.violation_rate, p.savings))
            .collect::<Vec<_>>()
            .join("; ")
    };
    Err(format!(
        "cell: results differ from reference: got [{}] expected [{}]",
        fmt(got),
        fmt(expected)
    ))
}

/// `predict-admit` must run with a cache that is neither idle nor total.
pub fn cache_hit_share(share: f64) -> Result<(), String> {
    if (0.3..=0.8).contains(&share) {
        Ok(())
    } else {
        Err(format!(
            "cache: hit share {share:.3} outside [0.3, 0.8]; the workload no longer exercises both paths"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(observes: u64, stale: u64, errors: u64) -> StatsSnapshot {
        StatsSnapshot {
            observes,
            stale,
            errors,
            ..StatsSnapshot::default()
        }
    }

    #[test]
    fn ledger_trips_on_a_wrong_expectation() {
        assert!(ledger(&stats(100, 0, 0), 100).is_ok());
        assert!(ledger(&stats(100, 0, 0), 101).is_err());
        assert!(ledger(&stats(100, 1, 0), 100).is_err());
        assert!(ledger(&stats(100, 0, 1), 100).is_err());
    }

    #[test]
    fn bits_trips_on_one_ulp() {
        let x = 0.731_f64;
        assert!(bits("m0", x, x).is_ok());
        assert!(bits("m0", x, f64::from_bits(x.to_bits() + 1)).is_err());
        assert!(bits("m0", 0.0, -0.0).is_err());
    }

    #[test]
    fn ring_trips_on_each_condition() {
        assert!(ring(0, 1, 200, 100).is_ok());
        assert!(ring(1, 1, 200, 100).is_err());
        assert!(ring(0, 0, 200, 100).is_err());
        assert!(ring(0, 1, 199, 100).is_err());
    }

    #[test]
    fn cell_bits_trips_on_a_flipped_bit() {
        let good = vec![PredictorBits {
            name: "max".to_string(),
            violation_rate: 1,
            savings: 2,
        }];
        let mut bad = good.clone();
        bad[0].savings ^= 1;
        assert!(cell_bits(&good, &good).is_ok());
        assert!(cell_bits(&bad, &good).is_err());
        assert!(cell_bits(&[], &good).is_err());
    }

    #[test]
    fn cache_share_trips_outside_the_band() {
        assert!(cache_hit_share(0.7).is_ok());
        assert!(cache_hit_share(0.95).is_err());
        assert!(cache_hit_share(0.1).is_err());
    }
}
