//! Fixed-arity resource vectors.
//!
//! The overcommit machinery is resource-agnostic: a predictor that bounds
//! the peak of a sum of CPU series bounds the peak of a sum of memory
//! series just as well. [`ResourceVec`] is the small fixed-arity value
//! type that carries one sample per tracked resource (lane).
//!
//! Lane 0 is CPU by convention ([`CPU`]); lane 1 is memory ([`MEM`]).
//! Windowed state is not vectorized here: a consumer keeps one scalar
//! window per lane (`oc_core::view` does), so the CPU lane runs exactly
//! the scalar code the goldens were recorded against.

/// Lane index of the CPU resource (always lane 0).
pub const CPU: usize = 0;

/// Lane index of the memory resource.
pub const MEM: usize = 1;

/// Number of resource lanes tracked by the stack today.
pub const NUM_RESOURCES: usize = 2;

/// Human-readable lane names, indexed by lane (`["cpu", "mem"]`).
///
/// Used for metric names (`sim.violations.cpu`), CSV headers, and the
/// wire protocol's multi-resource form.
pub const RESOURCE_NAMES: [&str; NUM_RESOURCES] = ["cpu", "mem"];

/// A fixed-arity vector of per-resource values: one `f64` lane per
/// tracked resource.
///
/// Arithmetic is elementwise and lane count is a compile-time constant,
/// so the compiler can keep the whole value in registers — there is no
/// heap indirection and no dynamic dispatch on the hot path.
///
/// # Examples
///
/// ```
/// use oc_stats::resource::{ResourceVec, Res2, CPU, MEM};
///
/// let usage = Res2::from_lanes([0.5, 0.25]);
/// assert_eq!(usage.lane(CPU), 0.5);
/// assert_eq!(usage.lane(MEM), 0.25);
///
/// // Elementwise max is how per-lane peaks combine.
/// let peak = usage.max(Res2::from_lanes([0.4, 0.4]));
/// assert_eq!(peak.lanes(), &[0.5, 0.4]);
///
/// // A scalar sample promotes to a vector with zeroed other lanes.
/// let scalar = ResourceVec::<2>::cpu_only(0.7);
/// assert_eq!(scalar.lanes(), &[0.7, 0.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceVec<const N: usize> {
    lanes: [f64; N],
}

/// The two-lane (CPU + memory) vector used throughout the stack.
pub type Res2 = ResourceVec<NUM_RESOURCES>;

impl<const N: usize> ResourceVec<N> {
    /// All lanes zero.
    pub const ZERO: Self = Self { lanes: [0.0; N] };

    /// Builds a vector from explicit per-lane values.
    pub const fn from_lanes(lanes: [f64; N]) -> Self {
        Self { lanes }
    }

    /// A CPU-only vector: lane 0 set to `x`, all other lanes zero.
    ///
    /// This is the canonical promotion of a scalar sample into the
    /// vector world and keeps lane 0 bit-identical to scalar code.
    pub const fn cpu_only(x: f64) -> Self {
        let mut lanes = [0.0; N];
        lanes[CPU] = x;
        Self { lanes }
    }

    /// Value of lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= N`.
    pub fn lane(&self, i: usize) -> f64 {
        self.lanes[i]
    }

    /// Sets lane `i` to `x`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= N`.
    pub fn set_lane(&mut self, i: usize, x: f64) {
        self.lanes[i] = x;
    }

    /// All lanes as a slice (lane order).
    pub fn lanes(&self) -> &[f64; N] {
        &self.lanes
    }

    /// Elementwise maximum.
    pub fn max(self, other: Self) -> Self {
        let mut lanes = self.lanes;
        for (a, b) in lanes.iter_mut().zip(other.lanes) {
            *a = a.max(b);
        }
        Self { lanes }
    }

    /// Every lane scaled by `k`.
    pub fn scale(self, k: f64) -> Self {
        let mut lanes = self.lanes;
        for a in lanes.iter_mut() {
            *a *= k;
        }
        Self { lanes }
    }

    /// The largest lane value (the "worst" lane for headroom purposes).
    pub fn worst(&self) -> f64 {
        self.lanes.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// `true` when every lane is finite.
    pub fn is_finite(&self) -> bool {
        self.lanes.iter().all(|x| x.is_finite())
    }
}

impl<const N: usize> Default for ResourceVec<N> {
    fn default() -> Self {
        Self::ZERO
    }
}

/// Elementwise sum.
impl<const N: usize> std::ops::Add for ResourceVec<N> {
    type Output = Self;
    fn add(mut self, other: Self) -> Self {
        for (a, b) in self.lanes.iter_mut().zip(other.lanes) {
            *a += b;
        }
        self
    }
}

/// Elementwise difference.
impl<const N: usize> std::ops::Sub for ResourceVec<N> {
    type Output = Self;
    fn sub(mut self, other: Self) -> Self {
        for (a, b) in self.lanes.iter_mut().zip(other.lanes) {
            *a -= b;
        }
        self
    }
}

impl<const N: usize> std::ops::Index<usize> for ResourceVec<N> {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.lanes[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_only_zeroes_other_lanes() {
        let v = Res2::cpu_only(0.7);
        assert_eq!(v.lane(CPU), 0.7);
        assert_eq!(v.lane(MEM), 0.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = Res2::from_lanes([1.0, 4.0]);
        let b = Res2::from_lanes([3.0, 2.0]);
        assert_eq!(a.max(b).lanes(), &[3.0, 4.0]);
        assert_eq!((a + b).lanes(), &[4.0, 6.0]);
        assert_eq!((b - a).lanes(), &[2.0, -2.0]);
        assert_eq!(a.scale(2.0).lanes(), &[2.0, 8.0]);
        assert_eq!(a.worst(), 4.0);
    }
}
