//! The peak-predictor abstraction and config-driven construction.

use crate::error::CoreError;
use crate::view::MachineView;
use oc_stats::resource::{Res2, CPU, NUM_RESOURCES};

/// A machine-level peak predictor (Section 4 of the paper).
///
/// Implementations estimate, from node-agent state only, the machine's peak
/// total usage over the forecast horizon. They must be lightweight — they
/// run on every machine, inside the node agent, once per polling interval —
/// which is why every built-in predictor is O(tasks · window) or better.
///
/// Implementations should return a value in `[0, Σ limits]`; the framework
/// additionally clamps via [`clamp_prediction`] wherever it consumes raw
/// predictions, because a prediction above the sum of limits is never
/// actionable (usage is capped per-task at the limit) and a negative one is
/// meaningless.
pub trait PeakPredictor: Send + Sync {
    /// A short stable name for tables and CSV headers.
    ///
    /// The name identifies the policy, parameters included: two
    /// predictors with equal names predict equal values from the same
    /// sequence of views. The simulator relies on it to evaluate a max
    /// composite's components once (see [`PeakPredictor::components`]).
    fn name(&self) -> String;

    /// The components whose pointwise maximum this predictor returns, in
    /// the order it folds them: `predict` (and each lane of `predict_vec`)
    /// is `fold(0.0, f64::max)` over their values. Empty — the default —
    /// for any predictor that is not such a composite.
    ///
    /// [`crate::sim::simulate_machine`] folds a composite from the values
    /// of set members named like its components instead of evaluating
    /// those components a second time.
    fn components(&self) -> &[Box<dyn PeakPredictor>] {
        &[]
    }

    /// How many of the largest samples of a `w`-sample per-task window
    /// this predictor's reads reach: the depth a view built for it keeps
    /// (see [`MachineView::with_depth`]). A read deeper than this panics,
    /// so an override must cover every window fill `1..=w`. The default,
    /// `w`, keeps the full window, exact for any read; a predictor that
    /// reads no per-task window returns 0, and a max composite takes the
    /// largest depth of its components.
    ///
    /// # Examples
    ///
    /// ```
    /// use oc_core::predictor::PredictorSpec;
    ///
    /// let depth = |spec: PredictorSpec| spec.build().unwrap().window_depth(120);
    /// assert_eq!(depth(PredictorSpec::paper_max()), 3);
    /// assert_eq!(depth(PredictorSpec::production_max()), 25);
    /// assert_eq!(depth(PredictorSpec::NSigma { n: 5.0 }), 0);
    /// ```
    fn window_depth(&self, w: usize) -> usize {
        w
    }

    /// Predicts the machine's future peak CPU usage from its current view.
    fn predict(&self, view: &MachineView) -> f64;

    /// Predicts the machine's future peak usage in resource lane `lane`.
    ///
    /// Lane 0 (CPU) is [`PeakPredictor::predict`]'s answer bit for bit,
    /// so the CPU lane of a vectorized caller is the scalar API. The
    /// default routes lane 0 to `predict` and answers other lanes with
    /// the conservative no-overcommit value (that lane's Σ limits). A
    /// built-in predictor with one formula for every lane overrides this
    /// method with it and implements `predict` as `predict_lane(view,
    /// CPU)`, so the formula is written once.
    ///
    /// # Examples
    ///
    /// ```
    /// use oc_core::config::SimConfig;
    /// use oc_core::predictor::{PeakPredictor, PredictorSpec};
    /// use oc_core::view::MachineView;
    /// use oc_stats::resource::{Res2, CPU, MEM};
    /// use oc_trace::ids::{JobId, TaskId};
    /// use oc_trace::time::Tick;
    ///
    /// let cfg = SimConfig::default();
    /// let mut view = MachineView::new(1.0, &cfg);
    /// let task = TaskId::new(JobId(1), 0);
    /// view.observe_vec(
    ///     Tick(0),
    ///     [(task, Res2::from_lanes([0.4, 0.2]), Res2::from_lanes([0.1, 0.08]))],
    /// );
    /// let p = PredictorSpec::paper_max().build().unwrap();
    /// // One cold task: every lane predicts that lane's limit sum.
    /// assert_eq!(p.predict_lane(&view, CPU), 0.4);
    /// assert_eq!(p.predict_lane(&view, MEM), 0.2);
    /// let v = p.predict_vec(&view);
    /// assert_eq!(v.lanes(), &[0.4, 0.2]);
    /// ```
    fn predict_lane(&self, view: &MachineView, lane: usize) -> f64 {
        if lane == CPU {
            self.predict(view)
        } else {
            view.total_limit_lane(lane)
        }
    }

    /// Predicts every resource lane at once. Lane 0 equals
    /// [`PeakPredictor::predict`] bit-for-bit.
    fn predict_vec(&self, view: &MachineView) -> Res2 {
        Res2::from_lanes(std::array::from_fn(|lane| self.predict_lane(view, lane)))
    }
}

/// Clamps a raw CPU prediction into the actionable range `[0, Σ limits]`:
/// [`clamp_prediction_lane`] on lane 0.
pub fn clamp_prediction(raw: f64, view: &MachineView) -> f64 {
    clamp_prediction_lane(raw, view, CPU)
}

/// Clamps a raw per-lane prediction into `[0, Σ limits]` of that lane.
pub fn clamp_prediction_lane(raw: f64, view: &MachineView, lane: usize) -> f64 {
    raw.clamp(0.0, view.total_limit_lane(lane))
}

/// Clamps a per-lane prediction vector into each lane's actionable range.
pub fn clamp_prediction_vec(raw: Res2, view: &MachineView) -> Res2 {
    Res2::from_lanes(std::array::from_fn::<_, NUM_RESOURCES, _>(|lane| {
        clamp_prediction_lane(raw.lane(lane), view, lane)
    }))
}

/// Declarative predictor description: buildable, comparable, printable.
///
/// Experiments are configured with specs rather than trait objects so
/// that parallel runners can cheaply re-instantiate predictors per thread
/// and reports can be labelled consistently.
///
/// # Examples
///
/// ```
/// use oc_core::predictor::PredictorSpec;
///
/// let spec = PredictorSpec::paper_max();
/// assert_eq!(spec.name(), "max(n-sigma(5),rc-like(p99))");
/// let predictor = spec.build().unwrap();
/// assert_eq!(predictor.name(), spec.name());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum PredictorSpec {
    /// Σ limits — the conservative no-overcommit baseline.
    LimitSum,
    /// `φ · Σ limits` — Borg's static default policy.
    BorgDefault {
        /// The static overcommit fraction (0.9 in the paper).
        phi: f64,
    },
    /// `Σ percᵏ(task usage)` — Resource-Central-style per-task percentiles.
    RcLike {
        /// The per-task percentile in `(0, 100]` (99 in simulation, 80 in
        /// the production deployment).
        percentile: f64,
    },
    /// `mean(U) + N·std(U)` over the machine-level aggregate usage.
    NSigma {
        /// The sigma multiplier (5 in simulation, 3 in production).
        n: f64,
    },
    /// Per-slot-of-day decayed peak profile (extension; see
    /// [`crate::predictors::Seasonal`]).
    Seasonal {
        /// Day slots (24 → hourly).
        slots: usize,
        /// Per-observation decay in `[0, 1)`.
        decay: f64,
        /// Forecast coverage in ticks.
        horizon_ticks: u64,
    },
    /// Pointwise maximum over a set of predictors.
    Max(
        /// The component predictor specs.
        Vec<PredictorSpec>,
    ),
}

impl PredictorSpec {
    /// The paper's simulation-tuned max predictor:
    /// `max(N-sigma(5), RC-like(p99))`.
    pub fn paper_max() -> PredictorSpec {
        PredictorSpec::Max(vec![
            PredictorSpec::NSigma { n: 5.0 },
            PredictorSpec::RcLike { percentile: 99.0 },
        ])
    }

    /// The production-deployed max predictor:
    /// `max(N-sigma(3), RC-like(p80))` (Section 6.1).
    pub fn production_max() -> PredictorSpec {
        PredictorSpec::Max(vec![
            PredictorSpec::NSigma { n: 3.0 },
            PredictorSpec::RcLike { percentile: 80.0 },
        ])
    }

    /// An extension policy: the deployed max composite guarded by the
    /// seasonal daily-peak profile, which closes the predictors'
    /// diurnal-trough blind spot (tasks admitted during the trough of a
    /// 10 h window co-peak a few hours later).
    pub fn seasonal_max() -> PredictorSpec {
        PredictorSpec::Max(vec![
            PredictorSpec::NSigma { n: 5.0 },
            PredictorSpec::RcLike { percentile: 99.0 },
            PredictorSpec::Seasonal {
                slots: 24,
                decay: 0.05,
                horizon_ticks: 24 * oc_trace::time::TICKS_PER_HOUR,
            },
        ])
    }

    /// The Borg default with the paper's φ = 0.9.
    pub fn borg_default() -> PredictorSpec {
        PredictorSpec::BorgDefault { phi: 0.9 }
    }

    /// The four-policy comparison set of Figure 10.
    pub fn comparison_set() -> Vec<PredictorSpec> {
        vec![
            PredictorSpec::borg_default(),
            PredictorSpec::RcLike { percentile: 99.0 },
            PredictorSpec::NSigma { n: 5.0 },
            PredictorSpec::paper_max(),
        ]
    }

    /// A short stable display name.
    pub fn name(&self) -> String {
        match self {
            PredictorSpec::LimitSum => "limit-sum".into(),
            PredictorSpec::BorgDefault { phi } => format!("borg-default({phi})"),
            PredictorSpec::RcLike { percentile } => format!("rc-like(p{percentile})"),
            PredictorSpec::NSigma { n } => format!("n-sigma({n})"),
            PredictorSpec::Seasonal {
                slots,
                decay,
                horizon_ticks,
            } => format!("seasonal({slots}x,d={decay},h={horizon_ticks})"),
            PredictorSpec::Max(children) => {
                let inner: Vec<String> = children.iter().map(|c| c.name()).collect();
                format!("max({})", inner.join(","))
            }
        }
    }

    /// Validates parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for out-of-domain parameters or
    /// an empty `Max` composite.
    pub fn validate(&self) -> Result<(), CoreError> {
        let fail = |what: String| Err(CoreError::InvalidConfig { what });
        match self {
            PredictorSpec::LimitSum => Ok(()),
            PredictorSpec::BorgDefault { phi } => {
                if !(0.0 < *phi && *phi <= 1.0) {
                    return fail(format!("borg-default phi {phi} must be in (0, 1]"));
                }
                Ok(())
            }
            PredictorSpec::RcLike { percentile } => {
                if !(0.0 < *percentile && *percentile <= 100.0) {
                    return fail(format!("rc-like percentile {percentile} out of (0, 100]"));
                }
                Ok(())
            }
            PredictorSpec::NSigma { n } => {
                if !n.is_finite() || *n < 0.0 {
                    return fail(format!("n-sigma multiplier {n} must be finite and >= 0"));
                }
                Ok(())
            }
            PredictorSpec::Seasonal {
                slots,
                decay,
                horizon_ticks,
            } => {
                if *slots == 0 {
                    return fail("seasonal slots must be positive".into());
                }
                if !(0.0..1.0).contains(decay) {
                    return fail(format!("seasonal decay {decay} out of [0, 1)"));
                }
                if *horizon_ticks == 0 {
                    return fail("seasonal horizon must be positive".into());
                }
                Ok(())
            }
            PredictorSpec::Max(children) => {
                if children.is_empty() {
                    return fail("max predictor needs at least one component".into());
                }
                children.iter().try_for_each(PredictorSpec::validate)
            }
        }
    }

    /// Builds the predictor.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] as [`PredictorSpec::validate`].
    pub fn build(&self) -> Result<Box<dyn PeakPredictor>, CoreError> {
        use crate::predictors::{BorgDefault, LimitSum, MaxPeak, NSigma, RcLike, Seasonal};
        self.validate()?;
        Ok(match self {
            PredictorSpec::LimitSum => Box::new(LimitSum),
            PredictorSpec::BorgDefault { phi } => Box::new(BorgDefault::new(*phi)),
            PredictorSpec::RcLike { percentile } => Box::new(RcLike::new(*percentile)),
            PredictorSpec::NSigma { n } => Box::new(NSigma::new(*n)),
            PredictorSpec::Seasonal {
                slots,
                decay,
                horizon_ticks,
            } => Box::new(Seasonal::new(*slots, *decay, *horizon_ticks)),
            PredictorSpec::Max(children) => {
                let built = children
                    .iter()
                    .map(PredictorSpec::build)
                    .collect::<Result<Vec<_>, _>>()?;
                Box::new(MaxPeak::new(built))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(PredictorSpec::LimitSum.name(), "limit-sum");
        assert_eq!(PredictorSpec::borg_default().name(), "borg-default(0.9)");
        assert_eq!(
            PredictorSpec::RcLike { percentile: 95.0 }.name(),
            "rc-like(p95)"
        );
        assert_eq!(PredictorSpec::NSigma { n: 2.0 }.name(), "n-sigma(2)");
        assert_eq!(
            PredictorSpec::production_max().name(),
            "max(n-sigma(3),rc-like(p80))"
        );
        // The horizon is part of the seasonal policy, so of its name.
        let seasonal = PredictorSpec::seasonal_max();
        assert_eq!(
            seasonal.name(),
            "max(n-sigma(5),rc-like(p99),seasonal(24x,d=0.05,h=288))"
        );
        assert_eq!(seasonal.build().unwrap().name(), seasonal.name());
    }

    #[test]
    fn validation() {
        assert!(PredictorSpec::BorgDefault { phi: 0.0 }.validate().is_err());
        assert!(PredictorSpec::BorgDefault { phi: 1.1 }.validate().is_err());
        assert!(PredictorSpec::RcLike { percentile: 0.0 }
            .validate()
            .is_err());
        assert!(PredictorSpec::RcLike { percentile: 101.0 }
            .validate()
            .is_err());
        assert!(PredictorSpec::NSigma { n: -1.0 }.validate().is_err());
        assert!(PredictorSpec::NSigma { n: f64::NAN }.validate().is_err());
        assert!(PredictorSpec::Max(vec![]).validate().is_err());
        // A bad nested component fails the composite.
        assert!(PredictorSpec::Max(vec![PredictorSpec::NSigma { n: -2.0 }])
            .validate()
            .is_err());
        for spec in PredictorSpec::comparison_set() {
            spec.validate().unwrap();
        }
    }

    /// Every spec's derived depth: 0 for the predictors that read no task
    /// window, the percentile's own depth for RC-like, the deepest
    /// component for a max composite, nested ones included, and the full
    /// window for a predictor that does not override the method.
    #[test]
    fn window_depth_of_every_spec() {
        let depth = |spec: &PredictorSpec| spec.build().unwrap().window_depth(120);
        let rc = |percentile| PredictorSpec::RcLike { percentile };
        let seasonal = PredictorSpec::Seasonal {
            slots: 24,
            decay: 0.05,
            horizon_ticks: 288,
        };
        for (spec, want) in [
            (PredictorSpec::LimitSum, 0),
            (PredictorSpec::borg_default(), 0),
            (PredictorSpec::NSigma { n: 5.0 }, 0),
            (seasonal.clone(), 0),
            (rc(100.0), 1),
            (rc(99.0), 3),
            (rc(95.0), 7),
            (rc(80.0), 25),
            (rc(50.0), 61),
            (PredictorSpec::paper_max(), 3),
            (PredictorSpec::production_max(), 25),
            (PredictorSpec::seasonal_max(), 3),
            (
                PredictorSpec::Max(vec![seasonal, PredictorSpec::LimitSum]),
                0,
            ),
            (
                PredictorSpec::Max(vec![PredictorSpec::paper_max(), rc(80.0)]),
                25,
            ),
        ] {
            assert_eq!(depth(&spec), want, "{}", spec.name());
        }
        for spec in PredictorSpec::comparison_set() {
            assert!(depth(&spec) <= 3, "{}", spec.name());
        }
        // The depth follows the window: a short one caps it.
        assert_eq!(rc(80.0).build().unwrap().window_depth(5), 2);
        assert_eq!(rc(80.0).build().unwrap().window_depth(0), 0);
        // A predictor that does not say keeps the full window.
        struct Unsaid;
        impl PeakPredictor for Unsaid {
            fn name(&self) -> String {
                "unsaid".into()
            }
            fn predict(&self, view: &MachineView) -> f64 {
                view.total_limit()
            }
        }
        assert_eq!(Unsaid.window_depth(120), 120);
    }

    /// A view built to a predictor's derived depth predicts, tick by tick,
    /// the bits a full-window view predicts, across warm-up, window fill,
    /// eviction and a task leaving.
    #[test]
    fn derived_depth_views_predict_full_window_bits() {
        use oc_trace::ids::{JobId, TaskId};
        use oc_trace::time::Tick;
        let cfg = crate::config::SimConfig::default();
        let mut specs = PredictorSpec::comparison_set();
        specs.extend([
            PredictorSpec::production_max(),
            PredictorSpec::RcLike { percentile: 50.0 },
        ]);
        for spec in specs {
            let p = spec.build().unwrap();
            let mut full = MachineView::new(1.0, &cfg);
            let mut shallow =
                MachineView::with_depth(1.0, &cfg, p.window_depth(cfg.max_num_samples));
            for t in 0..400u64 {
                let obs = (0..4u64).filter(|&j| j != 3 || t < 250).map(|j| {
                    let h = (t * 7 + j * 13).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                    (TaskId::new(JobId(j), 0), 0.3, (h % 1000) as f64 / 4000.0)
                });
                full.observe(Tick(t), obs.clone());
                shallow.observe(Tick(t), obs);
                assert_eq!(
                    p.predict(&full).to_bits(),
                    p.predict(&shallow).to_bits(),
                    "{} at tick {t}",
                    spec.name()
                );
            }
        }
    }

    #[test]
    fn build_produces_matching_names() {
        for spec in PredictorSpec::comparison_set() {
            assert_eq!(spec.build().unwrap().name(), spec.name());
        }
    }
}
