//! Simulation configuration.

use crate::error::CoreError;
use oc_trace::sample::UsageMetric;
use oc_trace::time::TICKS_PER_HOUR;

/// Configuration of one fortune-teller simulation run.
///
/// These are the knobs Section 4 and Section 5 of the paper expose:
///
/// * `metric` — which field of the 5-minute usage summary predictors and
///   oracles consume (the artifact's "choose the metric"; the paper uses
///   the 90th percentile as a conservative machine-peak estimator).
/// * `min_num_samples` — the warm-up: a task with fewer samples contributes
///   its *limit* rather than a prediction.
/// * `max_num_samples` — the per-task history window retained by the node
///   agent.
/// * `oracle_horizon_ticks` — how far into the future the peak oracle looks
///   (24 h by default, following the paper's Figure 7(b) analysis).
///
/// # Examples
///
/// ```
/// use oc_core::config::SimConfig;
///
/// let cfg = SimConfig::default().with_warmup_hours(2.0).with_history_hours(10.0);
/// assert_eq!(cfg.min_num_samples, 24);
/// assert_eq!(cfg.max_num_samples, 120);
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Usage summary field consumed by predictors and ground truth.
    pub metric: UsageMetric,
    /// Warm-up threshold in samples (the paper's `min_num_samples`).
    pub min_num_samples: usize,
    /// Per-task history window in samples (the paper's `max_num_samples`).
    pub max_num_samples: usize,
    /// Oracle forecast horizon in ticks.
    pub oracle_horizon_ticks: u64,
    /// Record full per-tick series (predictions, limits) in reports.
    ///
    /// Cell-level savings (Figure 10(d)) and several figures need the
    /// per-tick series; per-machine summary metrics do not. Recording costs
    /// one `f64` per machine-tick per predictor.
    pub record_series: bool,
}

impl Default for SimConfig {
    /// The paper's simulation defaults: p90 metric, 2 h warm-up, 10 h
    /// history, 24 h oracle horizon.
    fn default() -> Self {
        SimConfig {
            metric: UsageMetric::P90,
            min_num_samples: (2 * TICKS_PER_HOUR) as usize,
            max_num_samples: (10 * TICKS_PER_HOUR) as usize,
            oracle_horizon_ticks: 24 * TICKS_PER_HOUR,
            record_series: false,
        }
    }
}

impl SimConfig {
    /// Sets the warm-up period in hours.
    pub fn with_warmup_hours(mut self, hours: f64) -> SimConfig {
        self.min_num_samples = (hours * TICKS_PER_HOUR as f64).round() as usize;
        self
    }

    /// Sets the history window in hours.
    pub fn with_history_hours(mut self, hours: f64) -> SimConfig {
        self.max_num_samples = ((hours * TICKS_PER_HOUR as f64).round() as usize).max(1);
        self
    }

    /// Sets the oracle horizon in hours.
    pub fn with_horizon_hours(mut self, hours: f64) -> SimConfig {
        self.oracle_horizon_ticks = (hours * TICKS_PER_HOUR as f64).round() as u64;
        self
    }

    /// Sets the usage metric.
    pub fn with_metric(mut self, metric: UsageMetric) -> SimConfig {
        self.metric = metric;
        self
    }

    /// Enables per-tick series recording.
    pub fn with_series(mut self) -> SimConfig {
        self.record_series = true;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the history window is empty,
    /// longer than `u32::MAX` samples, smaller than the warm-up, or the
    /// oracle horizon is zero.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.max_num_samples == 0 || u32::try_from(self.max_num_samples).is_err() {
            return Err(CoreError::InvalidConfig {
                what: "max_num_samples must be in 1..=u32::MAX".into(),
            });
        }
        if self.min_num_samples > self.max_num_samples {
            return Err(CoreError::InvalidConfig {
                what: format!(
                    "min_num_samples ({}) exceeds max_num_samples ({})",
                    self.min_num_samples, self.max_num_samples
                ),
            });
        }
        if self.oracle_horizon_ticks == 0 {
            return Err(CoreError::InvalidConfig {
                what: "oracle horizon must be positive".into(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SimConfig::default();
        assert_eq!(c.metric, UsageMetric::P90);
        assert_eq!(c.min_num_samples, 24); // 2 h.
        assert_eq!(c.max_num_samples, 120); // 10 h.
        assert_eq!(c.oracle_horizon_ticks, 288); // 24 h.
        c.validate().unwrap();
    }

    #[test]
    fn builders() {
        let c = SimConfig::default()
            .with_warmup_hours(1.0)
            .with_history_hours(5.0)
            .with_horizon_hours(48.0)
            .with_metric(UsageMetric::Max)
            .with_series();
        assert_eq!(c.min_num_samples, 12);
        assert_eq!(c.max_num_samples, 60);
        assert_eq!(c.oracle_horizon_ticks, 576);
        assert!(c.record_series);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = SimConfig::default();
        c.max_num_samples = 0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::default();
        c.min_num_samples = c.max_num_samples + 1;
        assert!(c.validate().is_err());

        let mut c = SimConfig::default();
        c.oracle_horizon_ticks = 0;
        assert!(c.validate().is_err());
    }
}
