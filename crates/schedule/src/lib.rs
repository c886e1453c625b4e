//! Pipeline schedules for the decode stage: CGOPipe (Algorithm 1) and the baseline
//! orderings of Fig. 6. Each schedule kind describes one layer once, as a
//! `moe_sim::LayerTemplate`, which the discrete-event simulator unrolls into a
//! full task graph or plays straight from the template.
//!
//! # Examples
//!
//! ```
//! use moe_hardware::NodeSpec;
//! use moe_model::MoeModelConfig;
//! use moe_policy::{CostModel, Policy, WorkloadShape};
//! use moe_schedule::{DecodeScheduleBuilder, ScheduleKind, StepBuffers};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cost = CostModel::new(NodeSpec::t4_single(), MoeModelConfig::mixtral_8x7b());
//! let builder = DecodeScheduleBuilder::new(
//!     &cost,
//!     Policy::offload_default(256, 32),
//!     WorkloadShape::new(77, 128),
//! )
//! .with_layers(2);
//! let cgo = builder.decode_step_makespan(ScheduleKind::CgoPipe)?;
//! let flexgen = builder.decode_step_makespan(ScheduleKind::FlexGenGpuAttention)?;
//! assert!(cgo.as_secs() <= flexgen.as_secs());
//!
//! // Pricing step after step in one set of buffers allocates nothing once
//! // they are warm, and gives the same bits.
//! let mut buffers = StepBuffers::default();
//! for _ in 0..3 {
//!     let again = builder.decode_step_makespan_in(ScheduleKind::CgoPipe, &mut buffers)?;
//!     assert_eq!(again, cgo);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;

pub use builder::{cgopipe_weight_buffers, DecodeScheduleBuilder, ScheduleKind, StepBuffers};

#[cfg(test)]
mod proptests {
    use super::*;
    use moe_hardware::NodeSpec;
    use moe_model::MoeModelConfig;
    use moe_policy::{CostModel, Policy, WorkloadShape};
    use moe_sim::{simulate, Lane};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn every_schedule_completes_for_arbitrary_policies(
            mu in 1u64..96,
            n_ub in 1u64..12,
            prompt in 1u64..1024,
            gen in 1u64..256,
            layers in 1u32..5,
        ) {
            let cost = CostModel::new(NodeSpec::t4_single(), MoeModelConfig::mixtral_8x7b());
            let policy = Policy::offload_default(mu * n_ub, mu);
            let workload = WorkloadShape::new(prompt, gen);
            let builder = DecodeScheduleBuilder::new(&cost, policy, workload).with_layers(layers);
            for kind in ScheduleKind::all() {
                let graph = builder.build(kind).unwrap();
                let result = simulate(&graph);
                prop_assert!(result.makespan.as_secs() > 0.0);
                prop_assert_eq!(result.timeline.len(), graph.len());
            }
        }

        #[test]
        fn cgopipe_never_loses_to_unpaged_cpu_attention_schedules(
            mu in 8u64..64,
            n_ub in 2u64..10,
            prompt in 16u64..512,
        ) {
            let cost = CostModel::new(NodeSpec::t4_single(), MoeModelConfig::mixtral_8x7b());
            let policy = Policy::offload_default(mu * n_ub, mu);
            let workload = WorkloadShape::new(prompt, 64);
            let builder = DecodeScheduleBuilder::new(&cost, policy, workload).with_layers(3);
            let cgo = builder.decode_step_makespan(ScheduleKind::CgoPipe).unwrap();
            let s2 = builder.decode_step_makespan(ScheduleKind::FastDecodeOverlap).unwrap();
            let s3 = builder.decode_step_makespan(ScheduleKind::FlexGenCpuAttention).unwrap();
            prop_assert!(cgo.as_secs() <= s2.as_secs() * 1.01);
            prop_assert!(cgo.as_secs() <= s3.as_secs() * 1.01);
        }

        #[test]
        fn makespan_at_least_busiest_lane(
            mu in 4u64..64,
            n_ub in 1u64..8,
            layers in 1u32..4,
        ) {
            let cost = CostModel::new(NodeSpec::l4_single(), MoeModelConfig::mixtral_8x7b());
            let policy = Policy::offload_default(mu * n_ub, mu);
            let workload = WorkloadShape::new(242, 50);
            let builder = DecodeScheduleBuilder::new(&cost, policy, workload).with_layers(layers);
            for kind in ScheduleKind::all() {
                let graph = builder.build(kind).unwrap();
                let result = simulate(&graph);
                for lane in Lane::all() {
                    prop_assert!(result.lane(lane).busy.as_secs() <= result.makespan.as_secs() + 1e-9);
                }
            }
        }
    }
}
