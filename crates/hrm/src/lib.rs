//! Classical and Hierarchical Roofline Models (HRM) — §3 of the MoE-Lightning paper.
//!
//! * [`roofline`] — the classical single-level roofline: compute roof and memory
//!   roof.
//! * [`hierarchical`] — the paper's two-level HRM: the GPU and CPU levels, the
//!   CPU→GPU link roof, the turning points **P1** (Eq. 9) and **P2** (Eq. 10), the
//!   balance point (Eq. 11), and [`MemoryLevel::time`], the `max(comp, comm)` task
//!   time (Eq. 14) that `moe-policy`'s cost model prices every compute task with.
//! * [`plot`] — roofline plot series generation (the data behind Figs. 4 and 5).
//!
//! # Examples
//!
//! ```
//! use moe_hardware::{ByteSize, DType, FlopCount, NodeSpec};
//! use moe_hrm::HierarchicalRoofline;
//!
//! let hrm = HierarchicalRoofline::from_node(&NodeSpec::l4_single(), DType::F16);
//! // GQA attention in f16 has an operational intensity of ≈4 FLOPs/byte, far below
//! // the P1 turning point on an L4 node — so the paper runs attention on the CPU.
//! assert!(4.0 < hrm.turning_point_p1());
//! // At 4 FLOPs/byte the CPU is memory-bound: the task takes bytes / B^cpu.
//! let bytes = ByteSize::from_bytes(1 << 20);
//! let flops = FlopCount::from_flops(4.0 * (1 << 20) as f64);
//! assert_eq!(hrm.cpu.time(flops, bytes), bytes / hrm.cpu.bandwidth);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hierarchical;
pub mod plot;
pub mod roofline;

pub use hierarchical::{BindingRoof, HierarchicalRoofline, MemoryLevel};
pub use plot::{IntensityMarker, RoofSeries, RooflinePlot};
pub use roofline::Roofline;

#[cfg(test)]
mod proptests {
    use super::*;
    use moe_hardware::{Bandwidth, ByteSize, ComputeRate, DType, FlopCount, NodeSpec};
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn level_time_is_the_larger_roof_bit_for_bit(
            tflops in 0.01f64..400.0,
            gbps in 0.1f64..3000.0,
            flops in 0.0f64..1e15,
            bytes in 0u64..1 << 40,
        ) {
            let level = MemoryLevel {
                name: "L",
                bandwidth: Bandwidth::from_gb_per_sec(gbps),
                peak_compute: ComputeRate::from_tflops_per_sec(tflops),
            };
            let (flops, bytes) = (FlopCount::from_flops(flops), ByteSize::from_bytes(bytes));
            let comp = flops / level.peak_compute;
            let comm = bytes / level.bandwidth;
            let t = level.time(flops, bytes);
            prop_assert!(t >= comp && t >= comm);
            let bits = t.as_secs().to_bits();
            prop_assert!(bits == comp.as_secs().to_bits() || bits == comm.as_secs().to_bits());
        }

        #[test]
        fn attainable_is_monotone_in_intensity(i1 in 0.01f64..1e5, i2 in 0.01f64..1e5) {
            let hrm = HierarchicalRoofline::from_node(&NodeSpec::t4_single(), DType::F16);
            let (lo, hi) = if i1 <= i2 { (i1, i2) } else { (i2, i1) };
            let a = hrm.gpu.roofline().attainable(lo).as_flops_per_sec();
            let b = hrm.gpu.roofline().attainable(hi).as_flops_per_sec();
            prop_assert!(b >= a);
        }

        #[test]
        fn cross_attainable_bounded_by_all_three_roofs(
            local in 0.01f64..1e5,
            cross in 0.01f64..1e5,
        ) {
            let hrm = HierarchicalRoofline::from_node(&NodeSpec::l4_single(), DType::F16);
            let p = hrm.attainable_cross(local, cross).as_flops_per_sec();
            prop_assert!(p <= hrm.gpu.peak_compute.as_flops_per_sec() + 1.0);
            prop_assert!(p <= hrm.gpu.bandwidth.as_bytes_per_sec() * local + 1.0);
            prop_assert!(p <= hrm.link.as_bytes_per_sec() * cross + 1.0);
        }

        #[test]
        fn p2_never_exceeds_compute_roof_over_link(local in 0.01f64..1e6) {
            let hrm = HierarchicalRoofline::from_node(&NodeSpec::l4_single(), DType::F16);
            let p2 = hrm.turning_point_p2(local);
            let ceiling = hrm.gpu.peak_compute.as_flops_per_sec() / hrm.link.as_bytes_per_sec();
            prop_assert!(p2 <= ceiling + 1e-9);
        }

        #[test]
        fn balance_point_at_least_local_intensity_when_hbm_faster_than_link(
            local in 0.01f64..1e4,
        ) {
            let hrm = HierarchicalRoofline::from_node(&NodeSpec::t4_single(), DType::F16);
            let b = hrm.balance_point(local);
            prop_assert!(b >= local, "HBM bandwidth exceeds PCIe, so I^cpu must exceed I^gpu at balance");
        }
    }
}
