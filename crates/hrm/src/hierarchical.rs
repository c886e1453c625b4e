//! The Hierarchical Roofline Model (HRM) of §3.2 of the paper, at the two levels
//! the paper uses: the GPU (HBM + SMs) executes, the CPU (DRAM + cores) holds the
//! offloaded data, and the CPU→GPU link joins them.
//!
//! Besides each level's local roofline there is the *cross-level* memory roof
//! `P ≤ B^{cpu,gpu}_peak · I^cpu` for a computation executed on the GPU whose data
//! lives in CPU memory. It introduces the turning points P1 and P2 and the balance
//! point that drive MoE-Lightning's policy decisions.

use crate::roofline::Roofline;
use moe_hardware::{Bandwidth, ByteSize, ComputeRate, DType, FlopCount, NodeSpec, Seconds};

/// One level of the memory hierarchy together with its coupled processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryLevel {
    /// Human-readable name, `"GPU"` or `"CPU"`.
    pub name: &'static str,
    /// Peak bandwidth between the level's processor and its own memory (`B^i_peak`).
    pub bandwidth: Bandwidth,
    /// Peak compute rate of the processor coupled to this level (`P^i_peak`).
    pub peak_compute: ComputeRate,
}

impl MemoryLevel {
    /// The level's local roofline (Eq. 8 of the paper).
    pub fn roofline(&self) -> Roofline {
        Roofline::new(self.peak_compute, self.bandwidth)
    }

    /// Duration of a task with `flops` FLOPs touching `bytes` bytes of this level's
    /// memory: `max(comp, comm)` (Eq. 14), the larger of its compute time at the
    /// peak rate and its memory time at the peak bandwidth.
    pub fn time(&self, flops: FlopCount, bytes: ByteSize) -> Seconds {
        (flops / self.peak_compute).max(bytes / self.bandwidth)
    }
}

/// The paper's two-level HRM: the GPU executes, the CPU holds the offloaded data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchicalRoofline {
    /// The GPU level (HBM + SMs).
    pub gpu: MemoryLevel,
    /// The CPU level (DRAM + cores).
    pub cpu: MemoryLevel,
    /// CPU→GPU link bandwidth (`B^{cpu,gpu}_peak`).
    pub link: Bandwidth,
}

impl HierarchicalRoofline {
    /// Builds the HRM of a hardware node from its *effective* (derated) rates. The
    /// GPU peak is the f32 one for f32 weights and the f16 one for every other
    /// weight dtype.
    pub fn from_node(node: &NodeSpec, weight_dtype: DType) -> Self {
        let gpu_flops = match weight_dtype {
            DType::F32 => node.total_gpu_flops_f32(),
            _ => node.total_gpu_flops_f16(),
        };
        HierarchicalRoofline {
            gpu: MemoryLevel {
                name: "GPU",
                bandwidth: node.total_gpu_memory_bandwidth(),
                peak_compute: gpu_flops,
            },
            cpu: MemoryLevel {
                name: "CPU",
                bandwidth: node.cpu_memory_bandwidth(),
                peak_compute: node.cpu_flops(),
            },
            link: node.total_h2d_bandwidth(),
        }
    }

    /// `flops_per_sec / B^{cpu,gpu}`: the cross-level intensity at which the link
    /// roof reaches `flops_per_sec` (infinite over a zero-bandwidth link).
    fn over_link(&self, flops_per_sec: f64) -> f64 {
        if self.link.is_zero() {
            return f64::INFINITY;
        }
        flops_per_sec / self.link.as_bytes_per_sec()
    }

    /// Attainable performance of a GPU computation that streams its data from CPU
    /// memory — Eq. (7): `min(P^gpu, B^gpu · I^gpu, B^{cpu,gpu} · I^cpu)`.
    ///
    /// * `local_intensity` — FLOPs per byte accessed in GPU memory.
    /// * `cross_intensity` — FLOPs per byte transferred from CPU memory.
    pub fn attainable_cross(&self, local_intensity: f64, cross_intensity: f64) -> ComputeRate {
        let local = self.gpu.roofline().attainable(local_intensity);
        let cross_bound = self.link.as_bytes_per_sec() * cross_intensity.max(0.0);
        ComputeRate::from_flops_per_sec(local.as_flops_per_sec().min(cross_bound))
    }

    /// Turning point **P1** (Eq. 9): the cross-level operational intensity `Ī^cpu`
    /// below which moving the data to the GPU does not pay — executing on the CPU
    /// is at least as fast.
    ///
    /// For intensities below the CPU's own ridge point both sides scale linearly and
    /// the comparison is decided purely by bandwidths; the interesting crossover is
    /// where the link roof meets the CPU compute roof, `Ī^cpu = P^cpu / B^{cpu,gpu}`.
    pub fn turning_point_p1(&self) -> f64 {
        self.over_link(self.cpu.peak_compute.as_flops_per_sec())
    }

    /// Turning point **P2** (Eq. 10): the cross-level operational intensity `Ī^cpu`
    /// below which the computation is bound by the CPU→GPU link, given the
    /// performance the kernel reaches on the GPU (`min(P^gpu, B^gpu · I^gpu)`, set by
    /// its *local* intensity, e.g. by the micro-batch size `μ` for the MoE FFN).
    pub fn turning_point_p2(&self, local_intensity: f64) -> f64 {
        self.over_link(
            self.gpu
                .roofline()
                .attainable(local_intensity)
                .as_flops_per_sec(),
        )
    }

    /// Balance point (Eq. 11): given a kernel's local intensity on the GPU, the
    /// cross-level intensity `I^cpu` at which the GPU memory roof and the link roof
    /// meet (`B^gpu · I^gpu = B^{cpu,gpu} · I^cpu`). Beyond this point increasing
    /// `I^cpu` (e.g. by enlarging the batch `N`) no longer helps.
    pub fn balance_point(&self, local_intensity: f64) -> f64 {
        self.over_link(self.gpu.bandwidth.as_bytes_per_sec() * local_intensity)
    }

    /// Classifies which roof binds a GPU computation streaming from CPU memory.
    pub fn binding_roof(&self, local_intensity: f64, cross_intensity: f64) -> BindingRoof {
        let compute = self.gpu.peak_compute.as_flops_per_sec();
        let local_mem = self.gpu.bandwidth.as_bytes_per_sec() * local_intensity;
        let cross_mem = self.link.as_bytes_per_sec() * cross_intensity;
        let min = compute.min(local_mem).min(cross_mem);
        if (min - cross_mem).abs() < f64::EPSILON * min.max(1.0) {
            BindingRoof::CrossLevelBandwidth
        } else if (min - local_mem).abs() < f64::EPSILON * min.max(1.0) {
            BindingRoof::LocalBandwidth
        } else {
            BindingRoof::Compute
        }
    }
}

/// The roof that limits a cross-level computation (see [`HierarchicalRoofline::binding_roof`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BindingRoof {
    /// Bounded by the GPU's peak compute.
    Compute,
    /// Bounded by the GPU's own memory bandwidth.
    LocalBandwidth,
    /// Bounded by the CPU→GPU (PCIe) bandwidth.
    CrossLevelBandwidth,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l4_hrm() -> HierarchicalRoofline {
        HierarchicalRoofline::from_node(&NodeSpec::l4_single(), DType::F16)
    }

    #[test]
    fn from_node_builds_two_levels_with_gpu_faster() {
        let hrm = l4_hrm();
        assert!(hrm.gpu.peak_compute.as_flops_per_sec() > hrm.cpu.peak_compute.as_flops_per_sec());
        assert!(hrm.gpu.bandwidth.as_bytes_per_sec() > hrm.cpu.bandwidth.as_bytes_per_sec());
    }

    #[test]
    fn from_node_takes_the_f32_peak_only_for_f32_weights() {
        let node = NodeSpec::l4_single();
        let f32 = HierarchicalRoofline::from_node(&node, DType::F32);
        assert_eq!(f32.gpu.peak_compute, node.total_gpu_flops_f32());
        for dtype in [DType::F16, DType::Int8, DType::Int4] {
            let hrm = HierarchicalRoofline::from_node(&node, dtype);
            assert_eq!(hrm.gpu.peak_compute, node.total_gpu_flops_f16());
            assert_eq!(hrm.cpu, f32.cpu);
            assert_eq!(hrm.link, f32.link);
        }
    }

    #[test]
    fn attainable_cross_never_exceeds_local() {
        let hrm = l4_hrm();
        for i in [0.1, 1.0, 10.0, 100.0, 1000.0] {
            let local = hrm.gpu.roofline().attainable(i);
            let cross = hrm.attainable_cross(i, i);
            assert!(cross.as_flops_per_sec() <= local.as_flops_per_sec() + 1e-6);
        }
    }

    #[test]
    fn low_cross_intensity_is_link_bound() {
        let hrm = l4_hrm();
        assert_eq!(
            hrm.binding_roof(1000.0, 1.0),
            BindingRoof::CrossLevelBandwidth
        );
        assert_eq!(hrm.binding_roof(1.0, 1e9), BindingRoof::LocalBandwidth);
        assert_eq!(hrm.binding_roof(1e9, 1e9), BindingRoof::Compute);
    }

    #[test]
    fn p1_below_p2_for_realistic_ffn_intensity() {
        // For the L4 case study (Fig. 5): P1 = P_cpu / B_link is far below
        // P2 = P_gpu(μ=128) / B_link because the GPU kernel at μ=128 is much faster
        // than the CPU peak.
        let hrm = l4_hrm();
        // MoE FFN at μ=128 has local intensity ≈ 128/element-size; large enough to be
        // near the GPU compute roof region — use a representative value.
        let p1 = hrm.turning_point_p1();
        let p2 = hrm.turning_point_p2(64.0);
        assert!(p1 < p2, "P1 ({p1}) must be below P2 ({p2})");
        assert!(
            p1 > 10.0 && p1 < 200.0,
            "P1 should be tens of FLOPs/byte, got {p1}"
        );
    }

    #[test]
    fn attention_intensity_sits_below_p1_on_l4() {
        // §3.3: GQA attention (f16) has I ≈ 4 FLOPs/byte, well below P1 on the L4
        // instance — i.e. it is better to run attention on the CPU.
        let p1 = l4_hrm().turning_point_p1();
        assert!(4.0 < p1, "attention intensity 4 should be below P1 = {p1}");
    }

    #[test]
    fn balance_point_scales_with_local_intensity() {
        let hrm = l4_hrm();
        let b1 = hrm.balance_point(8.0);
        let b2 = hrm.balance_point(16.0);
        assert!((b2 / b1 - 2.0).abs() < 1e-9);
        assert!(
            b1 > 8.0,
            "GPU HBM is faster than the link, so balance point exceeds local intensity"
        );
    }

    #[test]
    fn turning_points_increase_with_slower_links() {
        let fast = l4_hrm();
        let slow = HierarchicalRoofline::from_node(&NodeSpec::t4_single(), DType::F16);
        // T4 has a slower PCIe link than L4, so both turning points move right.
        assert!(slow.turning_point_p1() > fast.turning_point_p1() * 0.9);
        assert!(slow.turning_point_p2(64.0) > fast.turning_point_p2(64.0) * 0.4);
    }

    #[test]
    fn zero_link_bandwidth_gives_infinite_turning_points() {
        let hrm = HierarchicalRoofline {
            link: Bandwidth::ZERO,
            ..l4_hrm()
        };
        assert!(hrm.turning_point_p1().is_infinite());
        assert!(hrm.turning_point_p2(10.0).is_infinite());
        assert!(hrm.balance_point(10.0).is_infinite());
    }
}
