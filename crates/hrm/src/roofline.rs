//! The classical (single-level) Roofline Model of Williams, Waterman and Patterson,
//! as summarized in §3.1 of the paper.
//!
//! A roofline bounds the attainable performance `P` of a kernel with operational
//! intensity `I` (FLOPs per byte) by
//!
//! ```text
//! P ≤ min(P_peak, B_peak · I)
//! ```
//!
//! The intersection `Ī = P_peak / B_peak` is the *ridge point*: kernels with
//! `I < Ī` are memory-bound, kernels with `I ≥ Ī` are compute-bound.

use moe_hardware::{Bandwidth, ComputeRate};

/// A single compute-roof / memory-roof pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    /// Peak compute rate (`P_peak`).
    pub peak_compute: ComputeRate,
    /// Peak memory bandwidth (`B_peak`).
    pub peak_bandwidth: Bandwidth,
}

impl Roofline {
    /// Creates a roofline from a peak compute rate and bandwidth.
    pub fn new(peak_compute: ComputeRate, peak_bandwidth: Bandwidth) -> Self {
        Roofline {
            peak_compute,
            peak_bandwidth,
        }
    }

    /// Attainable performance (FLOPs/s) at operational intensity `intensity`
    /// (FLOPs/byte): `min(P_peak, B_peak · I)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use moe_hrm::roofline::Roofline;
    /// use moe_hardware::{Bandwidth, ComputeRate};
    ///
    /// let r = Roofline::new(
    ///     ComputeRate::from_tflops_per_sec(100.0),
    ///     Bandwidth::from_gb_per_sec(1000.0),
    /// );
    /// // Ridge point at I = 100 FLOPs/byte.
    /// assert!(r.attainable(10.0).as_tflops_per_sec() < 100.0);
    /// assert_eq!(r.attainable(1e6).as_tflops_per_sec(), 100.0);
    /// ```
    pub fn attainable(&self, intensity: f64) -> ComputeRate {
        let memory_bound = self.peak_bandwidth.as_bytes_per_sec() * intensity.max(0.0);
        ComputeRate::from_flops_per_sec(memory_bound.min(self.peak_compute.as_flops_per_sec()))
    }
}

/// Generates `n` log-spaced sample points between `lo` and `hi` (inclusive), the
/// usual x-axis grid of a roofline plot.
///
/// # Panics
///
/// Panics if `lo` or `hi` is not positive, `lo >= hi`, or `n < 2`.
pub fn log_space(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > lo, "log_space requires 0 < lo < hi");
    assert!(n >= 2, "log_space requires at least two points");
    let log_lo = lo.ln();
    let log_hi = hi.ln();
    (0..n)
        .map(|i| (log_lo + (log_hi - log_lo) * i as f64 / (n - 1) as f64).exp())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roof() -> Roofline {
        Roofline::new(
            ComputeRate::from_tflops_per_sec(100.0),
            Bandwidth::from_gb_per_sec(1000.0),
        )
    }

    #[test]
    fn attainable_follows_memory_roof_below_ridge() {
        let r = roof();
        let p = r.attainable(10.0);
        assert!((p.as_tflops_per_sec() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn attainable_clamps_to_compute_roof_above_ridge() {
        let r = roof();
        assert_eq!(r.attainable(500.0).as_tflops_per_sec(), 100.0);
        assert_eq!(
            r.attainable(100.0).as_tflops_per_sec(),
            100.0,
            "the ridge itself"
        );
    }

    #[test]
    fn attainable_is_monotone_in_intensity() {
        let r = roof();
        let mut prev = 0.0;
        for i in [0.01, 0.1, 1.0, 10.0, 100.0, 1000.0] {
            let p = r.attainable(i).as_flops_per_sec();
            assert!(p >= prev);
            prev = p;
        }
    }

    #[test]
    fn negative_intensity_is_clamped() {
        assert_eq!(roof().attainable(-5.0).as_flops_per_sec(), 0.0);
    }

    #[test]
    fn log_space_endpoints_and_monotonicity() {
        let g = log_space(0.1, 1000.0, 9);
        assert_eq!(g.len(), 9);
        assert!((g[0] - 0.1).abs() < 1e-12);
        assert!((g[8] - 1000.0).abs() < 1e-9);
        for w in g.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    #[should_panic(expected = "log_space requires")]
    fn log_space_rejects_bad_range() {
        log_space(10.0, 1.0, 5);
    }
}
