//! The paper's admission rule, `P(J_s, t) + L_J ≤ M`, applied to every
//! resource lane. This is its one copy: the simulated scheduler
//! (`SimMachine::fits`) and the served `ADMIT` (`Shard::admit`) both call
//! [`admit`], so the two gates cannot disagree.

use oc_stats::resource::{Res2, NUM_RESOURCES};

/// Normalized machine memory capacity: one machine-memory unit, the same
/// normalization the trace generator uses for `memory_limit`.
pub const MEM_CAPACITY: f64 = 1.0;

/// How far a lane's projection may exceed its capacity and still admit:
/// it absorbs the rounding of summed limits, not a policy margin.
pub const ADMIT_SLACK: f64 = 1e-9;

/// Admits `request` onto a machine whose lanes already carry `load`
/// (prediction plus limits not yet observed) only if every lane of
/// `load + request` stays within `capacity + ADMIT_SLACK`. A machine is
/// only as admittable as its most constrained lane. Returns the verdict
/// and the projection `load + request`.
///
/// # Examples
///
/// ```
/// use oc_core::admission::{admit, ADMIT_SLACK, MEM_CAPACITY};
/// use oc_stats::resource::Res2;
///
/// let load = Res2::from_lanes([0.75, 0.5]);
/// let capacity = Res2::from_lanes([0.875, MEM_CAPACITY]);
/// for lane in 0..2 {
///     let fits = |over: f64| {
///         let mut request = [0.125, 0.5]; // fills both lanes exactly
///         request[lane] += over;
///         admit(load, Res2::from_lanes(request), capacity).0
///     };
///     // At capacity and inside the slack admit; beyond it does not.
///     assert!(fits(0.0) && fits(ADMIT_SLACK / 2.0) && !fits(2.0 * ADMIT_SLACK));
/// }
/// // CPU headroom does not save a request the memory lane cannot hold.
/// let hog = Res2::from_lanes([0.0, 0.75]);
/// assert_eq!(admit(load, hog, capacity), (false, Res2::from_lanes([0.75, 1.25])));
/// ```
pub fn admit(load: Res2, request: Res2, capacity: Res2) -> (bool, Res2) {
    let projected = load + request;
    let fits = (0..NUM_RESOURCES).all(|l| projected.lane(l) <= capacity.lane(l) + ADMIT_SLACK);
    (fits, projected)
}
