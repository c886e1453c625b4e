//! Device specifications: GPUs, host CPUs and the CPU↔GPU interconnect.
//!
//! The Hierarchical Roofline Model (paper §3.2) characterizes each memory level `i`
//! by a capacity, a same-level bandwidth `B^i_peak` and a processor peak `P^i_peak`,
//! plus cross-level bandwidths `B^{j,i}_peak`. [`GpuSpec`], [`CpuSpec`] and
//! [`LinkSpec`] carry exactly those numbers, together with *efficiency* factors that
//! derate theoretical peaks to achievable rates (the paper profiles peaks instead of
//! fitting kernels; a constant derating plays the same role here).

use crate::units::{Bandwidth, ByteSize, ComputeRate};

/// Specification of a single GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Human-readable device name, e.g. `"NVIDIA T4"`.
    pub name: String,
    /// HBM/GDDR capacity.
    pub memory: ByteSize,
    /// Peak device-memory bandwidth.
    pub memory_bandwidth: Bandwidth,
    /// Peak half-precision tensor throughput.
    pub peak_flops_f16: ComputeRate,
    /// Peak single-precision throughput.
    pub peak_flops_f32: ComputeRate,
    /// Fraction of peak FLOPS achievable by real kernels (model FLOPS utilization).
    pub compute_efficiency: f64,
    /// Fraction of peak memory bandwidth achievable by real kernels.
    pub bandwidth_efficiency: f64,
}

impl GpuSpec {
    /// NVIDIA T4 (16 GB GDDR6), the main GPU of evaluation settings S1, S6–S9.
    pub fn t4() -> Self {
        GpuSpec {
            name: "NVIDIA T4".to_owned(),
            memory: ByteSize::from_gib(16.0),
            memory_bandwidth: Bandwidth::from_gb_per_sec(300.0),
            peak_flops_f16: ComputeRate::from_tflops_per_sec(65.0),
            peak_flops_f32: ComputeRate::from_tflops_per_sec(8.1),
            compute_efficiency: 0.55,
            bandwidth_efficiency: 0.80,
        }
    }

    /// NVIDIA L4 (24 GB GDDR6), evaluation setting S2 and the Fig. 3 case study.
    pub fn l4() -> Self {
        GpuSpec {
            name: "NVIDIA L4".to_owned(),
            memory: ByteSize::from_gib(24.0),
            memory_bandwidth: Bandwidth::from_gb_per_sec(300.0),
            peak_flops_f16: ComputeRate::from_tflops_per_sec(242.0),
            peak_flops_f32: ComputeRate::from_tflops_per_sec(30.3),
            compute_efficiency: 0.55,
            bandwidth_efficiency: 0.80,
        }
    }

    /// NVIDIA A100 80 GB (SXM), used by the §6.3 hardware case study.
    pub fn a100_80g() -> Self {
        GpuSpec {
            name: "NVIDIA A100-80G".to_owned(),
            memory: ByteSize::from_gib(80.0),
            memory_bandwidth: Bandwidth::from_gb_per_sec(2039.0),
            peak_flops_f16: ComputeRate::from_tflops_per_sec(312.0),
            peak_flops_f32: ComputeRate::from_tflops_per_sec(19.5),
            compute_efficiency: 0.6,
            bandwidth_efficiency: 0.85,
        }
    }

    /// Achievable (derated) compute throughput for f16 GEMM-like kernels.
    pub fn effective_flops_f16(&self) -> ComputeRate {
        self.peak_flops_f16.scale(self.compute_efficiency)
    }

    /// Achievable (derated) compute throughput for f32 kernels.
    pub fn effective_flops_f32(&self) -> ComputeRate {
        self.peak_flops_f32.scale(self.compute_efficiency)
    }

    /// Achievable (derated) device-memory bandwidth.
    pub fn effective_memory_bandwidth(&self) -> Bandwidth {
        self.memory_bandwidth.scale(self.bandwidth_efficiency)
    }
}

/// Specification of the host CPU and its DRAM.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSpec {
    /// Human-readable name, e.g. `"Intel Xeon 2.30GHz 24-core"`.
    pub name: String,
    /// DRAM capacity available to the inference process.
    pub memory: ByteSize,
    /// Peak DRAM bandwidth.
    pub memory_bandwidth: Bandwidth,
    /// Peak (vectorized, all-core) floating-point throughput.
    pub peak_flops: ComputeRate,
    /// Number of physical cores.
    pub cores: u32,
    /// Fraction of peak FLOPS achievable by real kernels.
    pub compute_efficiency: f64,
    /// Fraction of peak DRAM bandwidth achievable by real kernels.
    pub bandwidth_efficiency: f64,
}

impl CpuSpec {
    /// Intel Xeon @ 2.30 GHz, 24 cores, 192 GB — host of setting S1.
    pub fn xeon_24core_192gb() -> Self {
        CpuSpec {
            name: "Intel Xeon 2.30GHz 24-core".to_owned(),
            memory: ByteSize::from_gib(192.0),
            memory_bandwidth: Bandwidth::from_gb_per_sec(100.0),
            peak_flops: ComputeRate::from_tflops_per_sec(1.4),
            cores: 24,
            compute_efficiency: 0.60,
            bandwidth_efficiency: 0.75,
        }
    }

    /// Intel Xeon @ 2.20 GHz, 24 cores, 192 GB — host of setting S2 (Fig. 3 numbers).
    pub fn xeon_24core_192gb_2_2ghz() -> Self {
        CpuSpec {
            name: "Intel Xeon 2.20GHz 24-core".to_owned(),
            memory: ByteSize::from_gib(192.0),
            memory_bandwidth: Bandwidth::from_gb_per_sec(100.0),
            peak_flops: ComputeRate::from_tflops_per_sec(1.3),
            cores: 24,
            compute_efficiency: 0.60,
            bandwidth_efficiency: 0.75,
        }
    }

    /// Intel Xeon @ 2.30 GHz, 32 cores, 416 GB — host of settings S6–S9.
    pub fn xeon_32core_416gb() -> Self {
        CpuSpec {
            name: "Intel Xeon 2.30GHz 32-core".to_owned(),
            memory: ByteSize::from_gib(416.0),
            memory_bandwidth: Bandwidth::from_gb_per_sec(130.0),
            peak_flops: ComputeRate::from_tflops_per_sec(1.9),
            cores: 32,
            compute_efficiency: 0.60,
            bandwidth_efficiency: 0.75,
        }
    }

    /// Baseline synthetic CPU used by the §6.3 hardware case study
    /// (memory bandwidth 100 GB/s, 200 GB DRAM, 1.6 TFLOPS), before scaling.
    pub fn case_study_base() -> Self {
        CpuSpec {
            name: "case-study base CPU".to_owned(),
            memory: ByteSize::from_gib(200.0),
            memory_bandwidth: Bandwidth::from_gb_per_sec(100.0),
            peak_flops: ComputeRate::from_tflops_per_sec(1.6),
            cores: 32,
            compute_efficiency: 0.60,
            bandwidth_efficiency: 0.75,
        }
    }

    /// Returns a copy with memory bandwidth, capacity and peak FLOPS multiplied by
    /// `ratio` — the "CPU scaling ratio" axis of the paper's Fig. 10.
    pub fn scaled(&self, ratio: f64) -> CpuSpec {
        CpuSpec {
            name: format!("{} (x{ratio:.1})", self.name),
            memory: self.memory.scale(ratio),
            memory_bandwidth: self.memory_bandwidth.scale(ratio),
            peak_flops: self.peak_flops.scale(ratio),
            ..self.clone()
        }
    }

    /// Achievable (derated) compute throughput.
    pub fn effective_flops(&self) -> ComputeRate {
        self.peak_flops.scale(self.compute_efficiency)
    }

    /// Achievable (derated) DRAM bandwidth.
    pub fn effective_memory_bandwidth(&self) -> Bandwidth {
        self.memory_bandwidth.scale(self.bandwidth_efficiency)
    }
}

/// Specification of the CPU↔GPU interconnect (PCIe).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// Human-readable name, e.g. `"PCIe 3.0 x16"`.
    pub name: String,
    /// Peak unidirectional host-to-device bandwidth.
    pub h2d_bandwidth: Bandwidth,
    /// Peak unidirectional device-to-host bandwidth.
    pub d2h_bandwidth: Bandwidth,
    /// Fraction of peak link bandwidth achievable with pinned-memory transfers.
    pub efficiency: f64,
    /// Fixed per-transfer launch latency (kernel/copy launch overhead).
    pub latency_us: f64,
}

impl LinkSpec {
    /// PCIe 3.0 x16 — ~16 GB/s per direction (T4 platforms).
    pub fn pcie_gen3_x16() -> Self {
        LinkSpec {
            name: "PCIe 3.0 x16".to_owned(),
            h2d_bandwidth: Bandwidth::from_gb_per_sec(16.0),
            d2h_bandwidth: Bandwidth::from_gb_per_sec(16.0),
            efficiency: 0.80,
            latency_us: 10.0,
        }
    }

    /// PCIe 4.0 x16 — ~32 GB/s per direction (L4/A100 platforms, Fig. 3).
    pub fn pcie_gen4_x16() -> Self {
        LinkSpec {
            name: "PCIe 4.0 x16".to_owned(),
            h2d_bandwidth: Bandwidth::from_gb_per_sec(32.0),
            d2h_bandwidth: Bandwidth::from_gb_per_sec(32.0),
            efficiency: 0.80,
            latency_us: 10.0,
        }
    }

    /// Synthetic link with a custom symmetric bandwidth, used by the Fig. 10 sweep.
    pub fn custom_symmetric(gb_per_sec: f64) -> Self {
        LinkSpec {
            name: format!("custom {gb_per_sec:.0} GB/s"),
            h2d_bandwidth: Bandwidth::from_gb_per_sec(gb_per_sec),
            d2h_bandwidth: Bandwidth::from_gb_per_sec(gb_per_sec),
            efficiency: 0.85,
            latency_us: 10.0,
        }
    }

    /// Achievable host-to-device bandwidth (derated by `efficiency`).
    pub fn effective_h2d(&self) -> Bandwidth {
        self.h2d_bandwidth.scale(self.efficiency)
    }

    /// Achievable device-to-host bandwidth (derated by `efficiency`).
    pub fn effective_d2h(&self) -> Bandwidth {
        self.d2h_bandwidth.scale(self.efficiency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t4_matches_published_capacity_and_peaks() {
        let t4 = GpuSpec::t4();
        assert_eq!(t4.memory, ByteSize::from_gib(16.0));
        assert!((t4.peak_flops_f16.as_tflops_per_sec() - 65.0).abs() < 1e-9);
        assert!(t4.effective_flops_f16().as_flops_per_sec() < t4.peak_flops_f16.as_flops_per_sec());
    }

    #[test]
    fn l4_matches_figure3_numbers() {
        let l4 = GpuSpec::l4();
        assert_eq!(l4.memory, ByteSize::from_gib(24.0));
        assert!((l4.memory_bandwidth.as_gb_per_sec() - 300.0).abs() < 1e-9);
        assert!((l4.peak_flops_f16.as_tflops_per_sec() - 242.0).abs() < 1e-9);
    }

    #[test]
    fn s2_host_matches_figure3_numbers() {
        let cpu = CpuSpec::xeon_24core_192gb_2_2ghz();
        assert_eq!(cpu.memory, ByteSize::from_gib(192.0));
        assert!((cpu.memory_bandwidth.as_gb_per_sec() - 100.0).abs() < 1e-9);
        assert!((cpu.peak_flops.as_tflops_per_sec() - 1.3).abs() < 1e-9);
    }

    #[test]
    fn gpu_faster_than_cpu_in_all_presets() {
        for gpu in [GpuSpec::t4(), GpuSpec::l4(), GpuSpec::a100_80g()] {
            for cpu in [CpuSpec::xeon_24core_192gb(), CpuSpec::xeon_32core_416gb()] {
                assert!(
                    gpu.peak_flops_f16.as_flops_per_sec() > cpu.peak_flops.as_flops_per_sec(),
                    "HRM assumption P^i >= P^j for i<j violated by {} vs {}",
                    gpu.name,
                    cpu.name
                );
                assert!(
                    gpu.memory_bandwidth.as_bytes_per_sec()
                        > cpu.memory_bandwidth.as_bytes_per_sec()
                );
            }
        }
    }

    #[test]
    fn cpu_scaling_multiplies_all_three_resources() {
        let base = CpuSpec::case_study_base();
        let scaled = base.scaled(4.0);
        assert_eq!(scaled.memory, base.memory.scale(4.0));
        assert!((scaled.memory_bandwidth.as_gb_per_sec() - 400.0).abs() < 1e-9);
        assert!((scaled.peak_flops.as_tflops_per_sec() - 6.4).abs() < 1e-9);
        assert_eq!(scaled.cores, base.cores);
    }

    #[test]
    fn link_presets_are_ordered_by_generation() {
        let g3 = LinkSpec::pcie_gen3_x16();
        let g4 = LinkSpec::pcie_gen4_x16();
        assert!(g4.h2d_bandwidth.as_gb_per_sec() > g3.h2d_bandwidth.as_gb_per_sec());
        assert!(g3.effective_h2d().as_gb_per_sec() < g3.h2d_bandwidth.as_gb_per_sec());
    }

    #[test]
    fn custom_link_is_symmetric() {
        let l = LinkSpec::custom_symmetric(250.0);
        assert_eq!(l.h2d_bandwidth, l.d2h_bandwidth);
        assert!((l.h2d_bandwidth.as_gb_per_sec() - 250.0).abs() < 1e-9);
    }
}
