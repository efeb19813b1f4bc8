//! The paper's admission rule, `P(J_s, t) + L_J ≤ M`, applied to every
//! resource lane, and the load it is applied to. Both have one copy,
//! [`Gate`]: the simulated scheduler (`SimMachine`) and the served `ADMIT`
//! (`Shard::admit`) each keep one per machine, so the two cannot disagree.

use oc_stats::resource::{Res2, CPU, NUM_RESOURCES};
use oc_trace::time::Tick;

/// Normalized machine memory capacity: one machine-memory unit, the same
/// normalization the trace generator uses for `memory_limit`.
pub const MEM_CAPACITY: f64 = 1.0;

/// How far a lane's projection may exceed its capacity and still admit:
/// it absorbs the rounding of summed limits, not a policy margin.
pub const ADMIT_SLACK: f64 = 1e-9;

/// A machine's capacity on every lane: `cpu` and [`MEM_CAPACITY`].
pub fn capacity(cpu: f64) -> Res2 {
    Res2::from_lanes([cpu, MEM_CAPACITY])
}

/// One machine's admission gate: its load is the clamped prediction as of
/// the last observed tick plus every request reserved since. A request
/// fits only if every lane of `load + request` stays within its capacity
/// plus [`ADMIT_SLACK`]: a machine is as admittable as its tightest lane.
///
/// # Examples
///
/// ```
/// use oc_core::admission::Gate;
/// use oc_stats::resource::Res2;
/// use oc_trace::time::Tick;
///
/// let (mut gate, task) = (Gate::new(1.0), Res2::from_lanes([0.3, 0.0]));
/// for _ in 0..3 {
///     assert!(gate.check(task).0);
///     gate.reserve(task);
/// }
/// assert!(!gate.check(task).0, "reservations accumulate");
/// gate.observed(Some(Tick(0)), Res2::from_lanes([0.5, 0.75]));
/// assert!(gate.check(task).0, "observing a tick clears them");
/// // CPU headroom does not save a request the memory lane cannot hold.
/// let hog = Res2::from_lanes([0.0, 0.5]);
/// assert_eq!(gate.check(hog), (false, Res2::from_lanes([0.5, 1.25])));
/// ```
#[derive(Debug)]
pub struct Gate {
    capacity: Res2,
    prediction: Res2,
    tick: Option<Tick>,
    reserved: Res2,
}

impl Gate {
    /// An idle machine of `cpu_capacity`: nothing observed or reserved.
    pub fn new(cpu_capacity: f64) -> Gate {
        Gate {
            capacity: capacity(cpu_capacity),
            prediction: Res2::ZERO,
            tick: None,
            reserved: Res2::ZERO,
        }
    }

    /// Whether `request` fits, and the projection `prediction + reserved + request`.
    pub fn check(&self, request: Res2) -> (bool, Res2) {
        let projected = self.prediction + self.reserved + request;
        let fits =
            (0..NUM_RESOURCES).all(|l| projected.lane(l) <= self.capacity.lane(l) + ADMIT_SLACK);
        (fits, projected)
    }

    /// Counts `request` in the load until the next [`Gate::observed`].
    pub fn reserve(&mut self, request: Res2) {
        self.reserved = self.reserved + request;
    }

    /// The CPU capacity left after the prediction and the reservations.
    pub fn advertised_free(&self) -> f64 {
        self.capacity.lane(CPU) - self.prediction.lane(CPU) - self.reserved.lane(CPU)
    }

    /// Sets the clamped `prediction` as of `tick` and clears the reservations.
    pub fn observed(&mut self, tick: Option<Tick>, prediction: Res2) -> &mut Gate {
        (self.tick, self.prediction, self.reserved) = (tick, prediction, Res2::ZERO);
        self
    }

    /// The tick of the last [`Gate::observed`] (`None` before any).
    pub fn tick(&self) -> Option<Tick> {
        self.tick
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gate sums in `SimMachine`'s order — prediction plus the
    /// reservations (each added to the running sum), then the request —
    /// reserves whether or not a request fits, and `observed` replaces
    /// the prediction and clears the reservations.
    #[test]
    fn gate_sums_prediction_then_reservations_and_observed_clears_them() {
        let mut gate = Gate::new(0.875);
        assert_eq!(gate.tick(), None);
        let prediction = Res2::from_lanes([0.1, 0.7]);
        gate.observed(Some(Tick(3)), prediction);
        let (a, b) = (Res2::from_lanes([0.3, 0.2]), Res2::from_lanes([0.5, 0.05]));
        assert!(gate.check(a).0 && gate.check(b).0);
        gate.reserve(a);
        assert!(!gate.check(b).0, "a's reservation counts");
        gate.reserve(b);
        let request = Res2::from_lanes([0.01, 0.0]);
        let load = prediction + (Res2::ZERO + a + b);
        let (fits, projected) = gate.check(request);
        assert!(!fits, "reserved past the CPU capacity");
        for lane in 0..NUM_RESOURCES {
            let want = (load + request).lane(lane);
            assert_eq!(projected.lane(lane).to_bits(), want.to_bits());
        }
        let free = 0.875 - prediction.lane(CPU) - (a + b).lane(CPU);
        assert_eq!(gate.advertised_free().to_bits(), free.to_bits());
        gate.observed(Some(Tick(4)), prediction);
        assert_eq!(gate.tick(), Some(Tick(4)));
        assert_eq!(gate.check(request), (true, prediction + request));
    }

    /// Every lane admits at its capacity and inside the slack, and not
    /// beyond it.
    #[test]
    fn every_lane_admits_to_within_the_slack() {
        let mut gate = Gate::new(0.875);
        gate.observed(None, Res2::from_lanes([0.75, 0.5]));
        for lane in 0..NUM_RESOURCES {
            let fits = |over: f64| {
                let mut request = [0.125, 0.5]; // fills both lanes exactly
                request[lane] += over;
                gate.check(Res2::from_lanes(request)).0
            };
            assert!(fits(0.0) && fits(ADMIT_SLACK / 2.0) && !fits(2.0 * ADMIT_SLACK));
        }
    }
}
