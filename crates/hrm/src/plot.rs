//! Generation of roofline plot series (the data behind Figs. 4 and 5 of the paper).
//!
//! The benchmark binaries print these series as aligned text tables / CSV so the
//! plots can be regenerated with any plotting tool; nothing in the workspace depends
//! on a graphics stack.

use crate::hierarchical::HierarchicalRoofline;
use crate::roofline::log_space;

/// A named line on a roofline plot: performance (GFLOPS/s) as a function of
/// operational intensity (FLOPs/byte).
#[derive(Debug, Clone, PartialEq)]
pub struct RoofSeries {
    /// Legend label, e.g. `"CPU-GPU Mem Bdw"`.
    pub name: String,
    /// `(intensity, gflops_per_sec)` samples.
    pub points: Vec<(f64, f64)>,
}

/// A vertical marker: the operational intensity of a specific computation or a
/// turning point.
#[derive(Debug, Clone, PartialEq)]
pub struct IntensityMarker {
    /// Label, e.g. `"Attention f16"` or `"P1"`.
    pub name: String,
    /// Operational intensity in FLOPs/byte.
    pub intensity: f64,
}

/// The complete data of a hierarchical roofline plot.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflinePlot {
    /// Title of the plot.
    pub title: String,
    /// Roof lines.
    pub series: Vec<RoofSeries>,
    /// Vertical markers (kernel intensities, turning points).
    pub markers: Vec<IntensityMarker>,
}

impl RooflinePlot {
    /// Adds a vertical marker.
    pub fn add_marker(&mut self, name: impl Into<String>, intensity: f64) {
        self.markers.push(IntensityMarker {
            name: name.into(),
            intensity,
        });
    }

    /// Looks up a series by name.
    pub fn series_named(&self, name: &str) -> Option<&RoofSeries> {
        self.series.iter().find(|s| s.name == name)
    }
}

/// Builds the five-roof HRM plot of the paper (GPU/CPU memory roofs, CPU→GPU link
/// roof and both compute roofs) over a log-spaced intensity grid.
///
/// # Panics
///
/// Panics if the grid parameters are invalid (see [`log_space`]).
pub fn hrm_plot(
    hrm: &HierarchicalRoofline,
    title: impl Into<String>,
    intensity_lo: f64,
    intensity_hi: f64,
    samples: usize,
) -> RooflinePlot {
    let HierarchicalRoofline { gpu, cpu, link } = *hrm;
    let grid = log_space(intensity_lo, intensity_hi, samples);

    let ramp = |bw_bytes_per_sec: f64| -> Vec<(f64, f64)> {
        grid.iter()
            .map(|&i| (i, bw_bytes_per_sec * i / 1e9))
            .collect()
    };
    let flat = |flops_per_sec: f64| -> Vec<(f64, f64)> {
        grid.iter().map(|&i| (i, flops_per_sec / 1e9)).collect()
    };

    let series = vec![
        RoofSeries {
            name: format!("{} Mem Bdw", cpu.name),
            points: ramp(cpu.bandwidth.as_bytes_per_sec()),
        },
        RoofSeries {
            name: format!("{} Mem Bdw", gpu.name),
            points: ramp(gpu.bandwidth.as_bytes_per_sec()),
        },
        RoofSeries {
            name: format!("{}-{} Mem Bdw", cpu.name, gpu.name),
            points: ramp(link.as_bytes_per_sec()),
        },
        RoofSeries {
            name: format!("{} Peak FLOPS", cpu.name),
            points: flat(cpu.peak_compute.as_flops_per_sec()),
        },
        RoofSeries {
            name: format!("{} Peak FLOPS", gpu.name),
            points: flat(gpu.peak_compute.as_flops_per_sec()),
        },
    ];

    RooflinePlot {
        title: title.into(),
        series,
        markers: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_hardware::{DType, NodeSpec};

    fn plot() -> RooflinePlot {
        let hrm = HierarchicalRoofline::from_node(&NodeSpec::l4_single(), DType::F16);
        hrm_plot(&hrm, "L4", 0.1, 10_000.0, 64)
    }

    #[test]
    fn plot_contains_five_roofs() {
        let p = plot();
        assert_eq!(p.series.len(), 5);
        assert!(p.series_named("CPU-GPU Mem Bdw").is_some());
        assert!(p.series_named("GPU Peak FLOPS").is_some());
        assert!(p.series_named("nonexistent").is_none());
    }

    #[test]
    fn memory_roofs_scale_linearly_with_intensity() {
        let p = plot();
        let roof = p.series_named("GPU Mem Bdw").unwrap();
        let lo = roof.points.first().unwrap();
        let hi = roof.points.last().unwrap();
        let slope_lo = lo.1 / lo.0;
        let slope_hi = hi.1 / hi.0;
        assert!(
            (slope_lo - slope_hi).abs() / slope_lo < 1e-9,
            "memory roof must be a line through the origin"
        );
    }

    #[test]
    fn compute_roofs_are_flat_and_ordered() {
        let p = plot();
        let gpu = p.series_named("GPU Peak FLOPS").unwrap();
        let cpu = p.series_named("CPU Peak FLOPS").unwrap();
        let gpu_vals: Vec<f64> = gpu.points.iter().map(|x| x.1).collect();
        assert!(gpu_vals.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-9));
        assert!(gpu.points[0].1 > cpu.points[0].1);
    }

    #[test]
    fn link_roof_below_both_memory_roofs() {
        let p = plot();
        let link = p.series_named("CPU-GPU Mem Bdw").unwrap();
        let cpu = p.series_named("CPU Mem Bdw").unwrap();
        for (l, c) in link.points.iter().zip(&cpu.points) {
            assert!(l.1 <= c.1 + 1e-9);
        }
    }

    #[test]
    fn markers_can_be_added_and_serialized() {
        let mut p = plot();
        p.add_marker("P1", 55.0);
        p.add_marker("Attention f16", 4.0);
        assert_eq!(p.markers.len(), 2);
        assert!(p.markers.iter().any(|m| m.name == "P1"));
    }
}
