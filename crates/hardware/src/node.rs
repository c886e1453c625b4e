//! Node-level hardware configuration: one host CPU plus one or more identical GPUs.
//!
//! The paper's evaluation settings (Tab. 2) combine a GPU type and count with a host
//! CPU. Tensor parallelism (§4.3) aggregates the GPUs of a node: `tp_size` times more
//! GPU memory capacity and GPU memory bandwidth. Host DRAM capacity/bandwidth are
//! shared by all GPUs, while each GPU normally has its own PCIe link (subject to a
//! configurable contention factor when several devices hang off the same root
//! complex).

use crate::devices::{CpuSpec, GpuSpec, LinkSpec};
use crate::units::{Bandwidth, ByteSize, ComputeRate};

/// A single-host hardware configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// The (identical) GPU model installed in the node.
    pub gpu: GpuSpec,
    /// Number of GPUs used for tensor parallelism.
    pub gpu_count: u32,
    /// Host CPU and DRAM.
    pub cpu: CpuSpec,
    /// CPU↔GPU interconnect of a single GPU.
    pub link: LinkSpec,
    /// Scaling factor applied to the aggregate PCIe bandwidth when several GPUs share
    /// the host's PCIe lanes. `1.0` means every GPU gets a dedicated full-rate link.
    pub link_contention: f64,
}

impl NodeSpec {
    /// Creates a node with a single GPU and a dedicated link.
    pub fn single_gpu(gpu: GpuSpec, cpu: CpuSpec, link: LinkSpec) -> Self {
        NodeSpec {
            gpu,
            gpu_count: 1,
            cpu,
            link,
            link_contention: 1.0,
        }
    }

    /// Creates a node with `gpu_count` identical GPUs.
    ///
    /// # Panics
    ///
    /// Panics if `gpu_count` is zero.
    pub fn multi_gpu(gpu: GpuSpec, gpu_count: u32, cpu: CpuSpec, link: LinkSpec) -> Self {
        assert!(gpu_count > 0, "a node needs at least one GPU");
        // Multiple accelerators behind one root complex rarely sustain the full sum of
        // their link rates when streaming from the same DRAM pool.
        let link_contention = if gpu_count <= 1 { 1.0 } else { 0.85 };
        NodeSpec {
            gpu,
            gpu_count,
            cpu,
            link,
            link_contention,
        }
    }

    /// Single T4 GPU node (evaluation setting S1 hardware).
    pub fn t4_single() -> Self {
        NodeSpec::single_gpu(
            GpuSpec::t4(),
            CpuSpec::xeon_24core_192gb(),
            LinkSpec::pcie_gen3_x16(),
        )
    }

    /// Single L4 GPU node (evaluation setting S2 hardware; Fig. 3).
    pub fn l4_single() -> Self {
        NodeSpec::single_gpu(
            GpuSpec::l4(),
            CpuSpec::xeon_24core_192gb_2_2ghz(),
            LinkSpec::pcie_gen4_x16(),
        )
    }

    /// Multi-T4 node with the 32-core, 416 GB host (settings S6–S9 hardware).
    ///
    /// # Panics
    ///
    /// Panics if `gpu_count` is zero.
    pub fn t4_multi(gpu_count: u32) -> Self {
        NodeSpec::multi_gpu(
            GpuSpec::t4(),
            gpu_count,
            CpuSpec::xeon_32core_416gb(),
            LinkSpec::pcie_gen3_x16(),
        )
    }

    /// 2×A100-80G node with synthetic CPU/link characteristics, used by the §6.3
    /// hardware case study (Fig. 10).
    pub fn a100_case_study(cpu_gpu_bandwidth_gb: f64, cpu_scaling_ratio: f64) -> Self {
        NodeSpec {
            gpu: GpuSpec::a100_80g(),
            gpu_count: 2,
            cpu: CpuSpec::case_study_base().scaled(cpu_scaling_ratio),
            link: LinkSpec::custom_symmetric(cpu_gpu_bandwidth_gb),
            link_contention: 1.0,
        }
    }

    /// Total GPU memory capacity across all GPUs of the node.
    pub fn total_gpu_memory(&self) -> ByteSize {
        self.gpu.memory * u64::from(self.gpu_count)
    }

    /// Aggregate achievable GPU memory bandwidth (tensor parallelism multiplies the
    /// per-GPU bandwidth by the device count).
    pub fn total_gpu_memory_bandwidth(&self) -> Bandwidth {
        self.gpu
            .effective_memory_bandwidth()
            .scale(f64::from(self.gpu_count))
    }

    /// Aggregate achievable f16 compute rate across all GPUs.
    pub fn total_gpu_flops_f16(&self) -> ComputeRate {
        self.gpu
            .effective_flops_f16()
            .scale(f64::from(self.gpu_count))
    }

    /// Aggregate achievable f32 compute rate across all GPUs.
    pub fn total_gpu_flops_f32(&self) -> ComputeRate {
        self.gpu
            .effective_flops_f32()
            .scale(f64::from(self.gpu_count))
    }

    /// Aggregate achievable host-to-device bandwidth, accounting for link contention.
    pub fn total_h2d_bandwidth(&self) -> Bandwidth {
        self.link
            .effective_h2d()
            .scale(f64::from(self.gpu_count) * self.contention_factor())
    }

    /// Aggregate achievable device-to-host bandwidth, accounting for link contention.
    pub fn total_d2h_bandwidth(&self) -> Bandwidth {
        self.link
            .effective_d2h()
            .scale(f64::from(self.gpu_count) * self.contention_factor())
    }

    /// Achievable host DRAM bandwidth (shared by all GPUs and the CPU kernels).
    pub fn cpu_memory_bandwidth(&self) -> Bandwidth {
        self.cpu.effective_memory_bandwidth()
    }

    /// Achievable host compute rate.
    pub fn cpu_flops(&self) -> ComputeRate {
        self.cpu.effective_flops()
    }

    /// Host DRAM capacity.
    pub fn cpu_memory(&self) -> ByteSize {
        self.cpu.memory
    }

    /// Returns a copy of this node with the host DRAM capacity overridden — used by
    /// the Fig. 1 CPU-memory sweep.
    pub fn with_cpu_memory(&self, memory: ByteSize) -> NodeSpec {
        let mut node = self.clone();
        node.cpu.memory = memory;
        node
    }

    /// A homogeneous fleet: `n` identical copies of this node, for cluster
    /// serving (one replica per copy).
    pub fn replicated(&self, n: usize) -> Vec<NodeSpec> {
        vec![self.clone(); n]
    }

    fn contention_factor(&self) -> f64 {
        if self.gpu_count <= 1 {
            1.0
        } else {
            self.link_contention
        }
    }

    /// Short description such as `"2xNVIDIA T4 + Intel Xeon 2.30GHz 32-core"`.
    pub fn describe(&self) -> String {
        format!("{}x{} + {}", self.gpu_count, self.gpu.name, self.cpu.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_gpu_aggregates_equal_per_gpu_values() {
        let node = NodeSpec::t4_single();
        assert_eq!(node.total_gpu_memory(), node.gpu.memory);
        assert_eq!(node.total_h2d_bandwidth(), node.link.effective_h2d());
        assert_eq!(node.total_gpu_flops_f16(), node.gpu.effective_flops_f16());
    }

    #[test]
    fn multi_gpu_scales_memory_linearly() {
        let two = NodeSpec::t4_multi(2);
        let four = NodeSpec::t4_multi(4);
        assert_eq!(two.total_gpu_memory(), ByteSize::from_gib(32.0));
        assert_eq!(four.total_gpu_memory(), ByteSize::from_gib(64.0));
        assert!(
            four.total_gpu_memory_bandwidth().as_bytes_per_sec()
                > 1.9 * two.total_gpu_memory_bandwidth().as_bytes_per_sec()
        );
    }

    #[test]
    fn multi_gpu_link_bandwidth_scales_sublinearly() {
        let one = NodeSpec::t4_multi(1);
        let four = NodeSpec::t4_multi(4);
        let ratio = four.total_h2d_bandwidth().as_bytes_per_sec()
            / one.total_h2d_bandwidth().as_bytes_per_sec();
        assert!(
            ratio > 3.0 && ratio < 4.0,
            "contention should shave the 4x link aggregate, got {ratio}"
        );
    }

    #[test]
    fn cpu_memory_override_preserves_everything_else() {
        let node = NodeSpec::t4_single();
        let shrunk = node.with_cpu_memory(ByteSize::from_gib(64.0));
        assert_eq!(shrunk.cpu_memory(), ByteSize::from_gib(64.0));
        assert_eq!(shrunk.gpu, node.gpu);
        assert_eq!(shrunk.cpu.memory_bandwidth, node.cpu.memory_bandwidth);
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn zero_gpu_count_panics() {
        NodeSpec::t4_multi(0);
    }

    #[test]
    fn t4_multi_scales_aggregates_linearly_with_shared_host() {
        let one = NodeSpec::t4_multi(1);
        for count in [2u32, 4, 8] {
            let node = NodeSpec::t4_multi(count);
            assert_eq!(
                node.total_gpu_memory().as_bytes(),
                one.total_gpu_memory().as_bytes() * u64::from(count)
            );
            let bw_ratio = node.total_gpu_memory_bandwidth().as_bytes_per_sec()
                / one.total_gpu_memory_bandwidth().as_bytes_per_sec();
            assert!((bw_ratio - f64::from(count)).abs() < 1e-9);
            let flops_ratio = node.total_gpu_flops_f16().as_flops_per_sec()
                / one.total_gpu_flops_f16().as_flops_per_sec();
            assert!((flops_ratio - f64::from(count)).abs() < 1e-9);
            let f32_ratio = node.total_gpu_flops_f32().as_flops_per_sec()
                / one.total_gpu_flops_f32().as_flops_per_sec();
            assert!((f32_ratio - f64::from(count)).abs() < 1e-9);
            // Host DRAM is shared: capacity and bandwidth do not multiply.
            assert_eq!(node.cpu_memory(), one.cpu_memory());
            assert_eq!(node.cpu_memory_bandwidth(), one.cpu_memory_bandwidth());
        }
    }

    #[test]
    fn replicated_builds_identical_copies() {
        let fleet = NodeSpec::t4_single().replicated(3);
        assert_eq!(fleet.len(), 3);
        assert!(fleet.iter().all(|n| n == &NodeSpec::t4_single()));
    }

    #[test]
    fn case_study_node_applies_scaling() {
        let node = NodeSpec::a100_case_study(300.0, 5.0);
        assert_eq!(node.gpu_count, 2);
        assert!((node.link.h2d_bandwidth.as_gb_per_sec() - 300.0).abs() < 1e-9);
        assert!((node.cpu.peak_flops.as_tflops_per_sec() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn describe_mentions_gpu_count_and_names() {
        let d = NodeSpec::t4_multi(4).describe();
        assert!(d.contains("4x") && d.contains("T4") && d.contains("Xeon"));
    }
}
