//! A seasonality-aware peak predictor (extension beyond the paper).
//!
//! The paper's node-local predictors see only a `max_num_samples` window
//! (10 h by default) — less than one diurnal cycle. During the daily
//! trough both N-sigma and RC-like forget the peak that reliably returns
//! a few hours later, which is exactly when an admission-gating scheduler
//! overfills the machine. The paper lists "data-driven predictors" as
//! future work; this predictor is the smallest such step: it maintains a
//! per-slot-of-day exponentially decayed peak profile of the machine
//! aggregate and predicts the maximum profile value over the slots the
//! oracle horizon covers.
//!
//! State is O(slots) per machine — still comfortably within the paper's
//! lightweight-node-agent budget.

use crate::predictor::{clamp_prediction, PeakPredictor};
use crate::view::MachineView;
use oc_trace::time::TICKS_PER_DAY;
use std::sync::Mutex;

/// Per-slot-of-day decayed peak profile over the machine aggregate.
///
/// Unlike the built-in policies this predictor is stateful: it folds each
/// observed tick into its profile. State lives behind a mutex so the
/// predictor still satisfies the `Send + Sync` bound the parallel runner
/// requires (each machine owns its predictor, so the lock is uncontended).
#[derive(Debug)]
pub struct Seasonal {
    /// Number of day slots (e.g. 24 → hourly).
    slots: usize,
    /// Per-update decay toward the running maximum in `[0, 1)`; higher
    /// forgets old peaks faster.
    decay: f64,
    /// Horizon in ticks the prediction must cover.
    horizon_ticks: u64,
    /// Interior state: per-slot decayed peaks and the last tick folded.
    state: Mutex<SeasonalState>,
}

#[derive(Debug, Default)]
struct SeasonalState {
    profile: Vec<f64>,
    /// Tick of the last folded observation (`u64::MAX` = none yet).
    last_tick: Option<u64>,
}

impl Seasonal {
    /// Creates the predictor with `slots` day slots, per-observation
    /// `decay`, and a forecast coverage of `horizon_ticks`.
    pub fn new(slots: usize, decay: f64, horizon_ticks: u64) -> Seasonal {
        Seasonal {
            slots: slots.max(1),
            decay: decay.clamp(0.0, 1.0),
            horizon_ticks: horizon_ticks.max(1),
            state: Mutex::new(SeasonalState::default()),
        }
    }

    /// Slot index for a tick.
    fn slot_of(&self, tick_index: u64) -> usize {
        let ticks_per_slot = (TICKS_PER_DAY as usize / self.slots).max(1) as u64;
        ((tick_index % TICKS_PER_DAY) / ticks_per_slot) as usize % self.slots
    }
}

impl PeakPredictor for Seasonal {
    fn name(&self) -> String {
        format!(
            "seasonal({}x,d={},h={})",
            self.slots, self.decay, self.horizon_ticks
        )
    }

    fn predict(&self, view: &MachineView) -> f64 {
        let mut state = self.state.lock().expect("seasonal state lock");
        if state.profile.len() != self.slots {
            state.profile = vec![0.0; self.slots];
            state.last_tick = None;
        }
        // Fold the newest aggregate observation into its slot, once per
        // tick (predict may be called several times between observations,
        // e.g. inside a max composite).
        let now = view.now().index();
        if !view.warm_aggregate().is_empty() && state.last_tick != Some(now) {
            let slot = self.slot_of(now);
            let x = view.warm_aggregate().last().unwrap_or(0.0);
            let current = state.profile[slot];
            state.profile[slot] = if x >= current {
                x
            } else {
                current * (1.0 - self.decay) + x * self.decay
            };
            state.last_tick = Some(now);
        }

        // Max profile over the slots the horizon covers, starting now.
        let ticks_per_slot = (TICKS_PER_DAY as usize / self.slots).max(1) as u64;
        let covered = (self.horizon_ticks / ticks_per_slot + 2).min(self.slots as u64);
        let start = self.slot_of(view.now().index());
        let mut peak = 0.0f64;
        for k in 0..covered {
            peak = peak.max(state.profile[(start + k as usize) % self.slots]);
        }
        clamp_prediction(peak + view.cold_limit_sum(), view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use oc_trace::ids::{JobId, TaskId};
    use oc_trace::time::Tick;

    fn view() -> MachineView {
        let mut cfg = SimConfig::default();
        cfg.min_num_samples = 2;
        cfg.max_num_samples = 8;
        MachineView::new(1.0, &cfg)
    }

    /// Feeds a square-wave day: high usage in slots 0..half, low after.
    fn feed_square_days(view: &mut MachineView, p: &Seasonal, days: u64, hi: f64, lo: f64) {
        let id = TaskId::new(JobId(1), 0);
        for t in 0..days * TICKS_PER_DAY {
            let day_frac = (t % TICKS_PER_DAY) as f64 / TICKS_PER_DAY as f64;
            let u = if day_frac < 0.5 { hi } else { lo };
            view.observe(Tick(t), [(id, 1.0, u)]);
            // Predict every tick so the profile folds every observation.
            let _ = p.predict(view);
        }
    }

    #[test]
    fn remembers_the_daily_peak_through_the_trough() {
        let p = Seasonal::new(24, 0.1, 288);
        let mut v = view();
        feed_square_days(&mut v, &p, 2, 0.8, 0.2);
        // It is now the trough (end of day 2); a 24h-horizon prediction
        // must still carry the 0.8 peak.
        let pred = p.predict(&v);
        assert!(pred >= 0.75, "forgot the daily peak: {pred}");
    }

    #[test]
    fn short_horizon_in_trough_predicts_trough() {
        // Covering only ~2 hours ahead from the middle of the trough, the
        // profile max over those slots is the trough level.
        let p = Seasonal::new(24, 0.1, 12);
        let mut v = view();
        // End feeding mid-trough: 1.75 days.
        let id = TaskId::new(JobId(1), 0);
        for t in 0..(TICKS_PER_DAY * 7 / 4) {
            let day_frac = (t % TICKS_PER_DAY) as f64 / TICKS_PER_DAY as f64;
            let u = if day_frac < 0.5 { 0.8 } else { 0.2 };
            v.observe(Tick(t), [(id, 1.0, u)]);
            let _ = p.predict(&v);
        }
        let pred = p.predict(&v);
        assert!(
            pred < 0.5,
            "2h horizon mid-trough should not carry the peak: {pred}"
        );
    }

    #[test]
    fn decays_stale_peaks() {
        let p = Seasonal::new(24, 0.2, 288);
        let mut v = view();
        // One hot day followed by five calm days.
        feed_square_days(&mut v, &p, 1, 0.9, 0.9);
        feed_square_days(&mut v, &p, 5, 0.1, 0.1);
        let pred = p.predict(&v);
        assert!(pred < 0.4, "stale peak never decayed: {pred}");
    }

    #[test]
    fn clamped_and_cold_aware() {
        let p = Seasonal::new(24, 0.1, 288);
        let v = view();
        assert_eq!(p.predict(&v), 0.0); // Empty machine.
        let mut v = view();
        let id = TaskId::new(JobId(1), 0);
        v.observe(Tick(0), [(id, 0.4, 0.1)]);
        // One sample: task cold, prediction includes its limit.
        let pred = p.predict(&v);
        assert!((pred - 0.4).abs() < 1e-9, "cold limit missing: {pred}");
    }
}
