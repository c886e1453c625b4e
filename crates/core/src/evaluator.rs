//! The end-to-end evaluator: combines policy generation, the HRM cost model and the
//! simulated pipeline schedules into the generation-throughput numbers reported in
//! the paper's evaluation (Fig. 7, Fig. 8, Tab. 4, Tab. 5).
//!
//! This module holds the *costing* side of the stack — [`SystemEvaluator`]
//! prices policies, prefills and decode steps. The *serving* side (the
//! per-replica event machine that turns those costs into request latencies)
//! lives in [`crate::engine`].

use crate::cluster::ClusterSpecError;
use crate::system::SystemKind;
use moe_hardware::{NodeSpec, Seconds};
use moe_model::MoeModelConfig;
use moe_policy::{
    CostModel, DeepSpeedPolicy, FlexGenPolicy, Policy, PolicyGenerator, PolicyOptimizer,
    WorkloadShape,
};
use moe_schedule::{DecodeScheduleBuilder, ScheduleKind, StepBuffers};
use moe_workload::{BatchRunReport, BatchingConfigError, WorkloadSpec};
use std::cell::RefCell;
use std::fmt;

/// Number of layers actually simulated by the discrete-event engine (or the full
/// model if shallower); the step makespan is extrapolated linearly to full depth,
/// which recounts the pipeline fill and overstates the step by 7.1–22.5% for
/// MoE-Lightning and 0.6–2.6% for the baselines (ROADMAP item 1).
pub const SIMULATED_LAYERS: u32 = 4;

/// Errors produced by the evaluator.
///
/// Marked `#[non_exhaustive]`: new serving layers add typed variants (the
/// cluster layer added [`EngineError::InvalidClusterSpec`]), so downstream
/// matches must keep a wildcard arm.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EngineError {
    /// No feasible policy exists for the system on this node/workload.
    NoFeasiblePolicy {
        /// The system being evaluated.
        system: SystemKind,
    },
    /// The schedule simulation failed (indicates an internal bug).
    Simulation {
        /// Formatted simulator error.
        message: String,
    },
    /// A serving session was configured with batching limits that can never
    /// schedule a request (zero micro-batches, capacity, or cache budget).
    InvalidBatchingConfig {
        /// The violated constraint.
        reason: BatchingConfigError,
    },
    /// A cluster scenario was configured with an unusable fleet (see
    /// [`crate::cluster::ClusterSpec::validate`]).
    InvalidClusterSpec {
        /// The violated constraint.
        reason: ClusterSpecError,
    },
    /// A positive decode step does not advance the simulated clock at the
    /// instant decode starts: `at` is so large (an arrival stamp far in the
    /// future) that `at + step == at` in `f64`, so serving could never
    /// finish the batch.
    ClockStalled {
        /// The instant decode would start.
        at: Seconds,
        /// The decode-step latency the clock cannot resolve there.
        step: Seconds,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NoFeasiblePolicy { system } => {
                write!(
                    f,
                    "no feasible policy for {system} on this node and workload"
                )
            }
            EngineError::Simulation { message } => {
                write!(f, "schedule simulation failed: {message}")
            }
            EngineError::InvalidBatchingConfig { reason } => {
                write!(f, "invalid batching configuration: {reason}")
            }
            EngineError::InvalidClusterSpec { reason } => {
                write!(f, "invalid cluster specification: {reason}")
            }
            EngineError::ClockStalled { at, step } => write!(
                f,
                "a {step} decode step does not advance the clock at {:e} s",
                at.as_secs()
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Result of evaluating one system on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemEvaluation {
    /// The system evaluated.
    pub system: SystemKind,
    /// The policy it ran with.
    pub policy: Policy,
    /// The schedule it used.
    pub schedule: ScheduleKind,
    /// Prefill/decode time and token accounting for one batch.
    pub report: BatchRunReport,
    /// Generation throughput in tokens/s (the paper's metric).
    pub throughput: f64,
}

/// Evaluates inference systems on a (model, node) pair.
#[derive(Debug, Clone)]
pub struct SystemEvaluator {
    /// MoE-Lightning's policy search; its cost model prices every system.
    optimizer: PolicyOptimizer,
    flexgen: FlexGenPolicy,
    flexgen_cpu_attention: FlexGenPolicy,
    deepspeed: DeepSpeedPolicy,
}

impl SystemEvaluator {
    /// Creates an evaluator and the policy generator of every system. The
    /// discrete-event simulation covers [`SIMULATED_LAYERS`] layers (or the
    /// full model if shallower) and is extrapolated linearly to the model's
    /// depth, overstating the step (ROADMAP item 1 measures the bias).
    pub fn new(node: NodeSpec, model: MoeModelConfig) -> Self {
        SystemEvaluator {
            flexgen: FlexGenPolicy::new(node.clone(), model.clone()),
            flexgen_cpu_attention: FlexGenPolicy::with_cpu_attention(node.clone(), model.clone()),
            deepspeed: DeepSpeedPolicy::new(node.clone(), model.clone()),
            optimizer: PolicyOptimizer::new(node, model),
        }
    }

    /// Number of layers the discrete-event engine simulates before extrapolation.
    pub fn simulated_layers(&self) -> u32 {
        SIMULATED_LAYERS.min(self.model().num_layers)
    }

    /// The underlying cost model.
    pub fn cost_model(&self) -> &CostModel {
        self.optimizer.cost_model()
    }

    /// The node this evaluator targets.
    pub fn node(&self) -> &NodeSpec {
        self.cost_model().node()
    }

    /// The model this evaluator targets.
    pub fn model(&self) -> &MoeModelConfig {
        self.cost_model().model()
    }

    /// The workload shape a system sees for a given workload spec: padded systems
    /// process every prompt at the maximum length, the others at the average length.
    pub fn workload_shape(
        &self,
        system: SystemKind,
        spec: &WorkloadSpec,
        gen_len: u64,
    ) -> WorkloadShape {
        if system.pads_requests() {
            WorkloadShape::new(spec.max_prompt_len, gen_len)
        } else {
            WorkloadShape::new(spec.avg_prompt_len, gen_len)
        }
    }

    /// The [`PolicyGenerator`] a system searches policies with: the HRM
    /// optimizer for MoE-Lightning, the mimicking baseline generators for
    /// FlexGen / FlexGen(c) / DeepSpeed. Returned as a trait object so callers
    /// (e.g. the Tab. 4 binary) iterate over systems generically.
    pub fn policy_generator(&self, system: SystemKind) -> &dyn PolicyGenerator {
        match system {
            SystemKind::MoeLightning | SystemKind::MoeLightningPadded => &self.optimizer,
            SystemKind::FlexGen => &self.flexgen,
            SystemKind::FlexGenCpuAttention => &self.flexgen_cpu_attention,
            SystemKind::DeepSpeedZero => &self.deepspeed,
        }
    }

    /// Generates the policy a system would use for a workload.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NoFeasiblePolicy`] if the system cannot run at all.
    pub fn policy_for(
        &self,
        system: SystemKind,
        workload: &WorkloadShape,
    ) -> Result<Policy, EngineError> {
        self.policy_generator(system)
            .generate(workload)
            .ok_or(EngineError::NoFeasiblePolicy { system })
    }

    /// Simulated decode-step latency (all layers, one token per sequence) of a policy
    /// under a schedule.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Simulation`] if the schedule cannot be simulated.
    pub fn decode_step_latency(
        &self,
        schedule: ScheduleKind,
        policy: &Policy,
        workload: &WorkloadShape,
    ) -> Result<Seconds, EngineError> {
        self.decode_step_latency_with_loads(schedule, policy, workload, None, None)
    }

    /// Simulated decode-step latency with explicit per-micro-batch occupancies
    /// *and* mean decode contexts (KV tokens each active sequence reads), so the
    /// pipeline sees both kinds of imbalance a batch-formation strategy can
    /// produce: sequence-count skew and token-load skew. `None` falls back to
    /// the policy's uniform split and the workload's uniform average context.
    /// It prices in one [`StepBuffers`] kept per thread, so it allocates
    /// nothing once they are warm. There a step prices its operators into a
    /// flat duration table and plays the layer template of its shape (the
    /// kind, the micro-batch count, the weight transfers and S4's KV
    /// prefetches and write-backs), kept per micro-batch count modulo the
    /// buffers' few template slots: the layer emitter runs only when the
    /// shape there changes. The template compiles itself on the shape's
    /// second pricing and runs that program from the third on: a serving
    /// engine's steps repeat a few shapes with new loads.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Simulation`] if `occupancy` is empty or holds a
    /// zero, or if `contexts` holds a zero or does not have one entry per
    /// micro-batch.
    pub fn decode_step_latency_with_loads(
        &self,
        schedule: ScheduleKind,
        policy: &Policy,
        workload: &WorkloadShape,
        occupancy: Option<&[u64]>,
        contexts: Option<&[u64]>,
    ) -> Result<Seconds, EngineError> {
        thread_local! {
            static BUFFERS: RefCell<StepBuffers> = RefCell::default();
        }
        let layers = self.simulated_layers();
        let mut builder =
            DecodeScheduleBuilder::new(self.cost_model(), *policy, *workload).with_layers(layers);
        if let Some(tokens) = occupancy {
            builder = builder.with_micro_batch_tokens(tokens);
        }
        if let Some(ctx) = contexts {
            builder = builder.with_micro_batch_contexts(ctx);
        }
        let makespan = BUFFERS
            .with_borrow_mut(|buffers| builder.decode_step_makespan_in(schedule, buffers))
            .map_err(|e| EngineError::Simulation {
                message: e.to_string(),
            })?;
        let scale = f64::from(self.model().num_layers) / f64::from(layers);
        Ok(makespan.scale(scale))
    }

    /// Evaluates a system on a workload with an explicit policy (used by the Tab. 5
    /// ablation, which mixes FlexGen's schedule with MoE-Lightning's policy).
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn evaluate_with_policy(
        &self,
        system: SystemKind,
        policy: Policy,
        spec: &WorkloadSpec,
        gen_len: u64,
    ) -> Result<SystemEvaluation, EngineError> {
        let workload = self.workload_shape(system, spec, gen_len);
        let schedule = system.schedule();
        let step = self.decode_step_latency(schedule, &policy, &workload)?;
        let decode_time = step.scale(gen_len as f64);
        let prefill_time = self.cost_model().prefill_time(&policy, &workload);
        let report = BatchRunReport::uniform_round(
            policy.batch_size,
            policy.batch_size * workload.prompt_len,
            policy.batch_size * gen_len,
            prefill_time,
            decode_time,
        );
        Ok(SystemEvaluation {
            system,
            policy,
            schedule,
            throughput: report.generation_throughput(),
            report,
        })
    }

    /// Evaluates a system end to end: policy generation, prefill estimate and the
    /// simulated decode pipeline.
    ///
    /// # Errors
    ///
    /// Returns an error if no policy fits or the simulation fails.
    pub fn evaluate(
        &self,
        system: SystemKind,
        spec: &WorkloadSpec,
        gen_len: u64,
    ) -> Result<SystemEvaluation, EngineError> {
        let workload = self.workload_shape(system, spec, gen_len);
        let policy = self.policy_for(system, &workload)?;
        self.evaluate_with_policy(system, policy, spec, gen_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::settings::EvalSetting;
    use proptest::prelude::*;

    fn s1() -> SystemEvaluator {
        SystemEvaluator::new(EvalSetting::S1.node(), EvalSetting::S1.model())
    }

    #[test]
    fn moe_lightning_beats_all_baselines_on_s1_mtbench() {
        // The headline Fig. 7 comparison at generation length 128.
        let eval = s1();
        let spec = WorkloadSpec::mtbench();
        let ml = eval
            .evaluate(SystemKind::MoeLightningPadded, &spec, 128)
            .unwrap();
        for baseline in [
            SystemKind::FlexGen,
            SystemKind::FlexGenCpuAttention,
            SystemKind::DeepSpeedZero,
        ] {
            let b = eval.evaluate(baseline, &spec, 128).unwrap();
            assert!(
                ml.throughput > b.throughput,
                "MoE-Lightning(p) ({:.1} tok/s) must beat {} ({:.1} tok/s)",
                ml.throughput,
                baseline,
                b.throughput
            );
        }
    }

    #[test]
    fn unpadded_moe_lightning_beats_padded_variant() {
        let eval = s1();
        let spec = WorkloadSpec::mtbench();
        let padded = eval
            .evaluate(SystemKind::MoeLightningPadded, &spec, 64)
            .unwrap();
        let unpadded = eval.evaluate(SystemKind::MoeLightning, &spec, 64).unwrap();
        assert!(
            unpadded.throughput > padded.throughput,
            "padding wastes memory and attention compute: {} vs {}",
            unpadded.throughput,
            padded.throughput
        );
    }

    #[test]
    fn workload_shape_depends_on_padding() {
        let eval = s1();
        let spec = WorkloadSpec::mtbench();
        assert_eq!(
            eval.workload_shape(SystemKind::MoeLightning, &spec, 32)
                .prompt_len,
            77
        );
        assert_eq!(
            eval.workload_shape(SystemKind::FlexGen, &spec, 32)
                .prompt_len,
            418
        );
    }

    #[test]
    fn evaluation_report_is_internally_consistent() {
        let eval = s1();
        let spec = WorkloadSpec::synthetic_reasoning();
        let e = eval
            .evaluate(SystemKind::MoeLightningPadded, &spec, 50)
            .unwrap();
        assert_eq!(e.report.generated_tokens, e.policy.batch_size * 50);
        assert_eq!(e.report.prompt_tokens, e.policy.batch_size * 256);
        assert!(e.report.prefill_time.as_secs() > 0.0);
        assert!(e.report.decode_time.as_secs() > 0.0);
        assert!((e.throughput - e.report.generation_throughput()).abs() < 1e-9);
        assert_eq!(e.schedule, ScheduleKind::CgoPipe);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// A clone of an evaluator evaluates like it. The policy search
        /// builds its tables on its first search, so a clone taken before
        /// that search and one taken after evaluate like the original, bit
        /// for bit.
        #[test]
        fn clones_before_and_after_the_first_search_evaluate_alike(
            setting in 0usize..6,
            cells in collection::vec((0usize..3, 1u64..300), 1..4),
        ) {
            let setting = EvalSetting::all()[setting];
            let eval = SystemEvaluator::new(setting.node(), setting.model());
            let before = eval.clone();
            eval.evaluate(SystemKind::MoeLightning, &WorkloadSpec::mtbench(), 32).ok();
            let after = eval.clone();
            let specs = WorkloadSpec::all();
            for (spec, gen) in cells {
                for system in [SystemKind::MoeLightning, SystemKind::MoeLightningPadded] {
                    let reference = eval.evaluate(system, &specs[spec], gen);
                    for clone in [&before, &after] {
                        let evaluation = clone.evaluate(system, &specs[spec], gen);
                        prop_assert_eq!(&evaluation, &reference);
                        if let (Ok(a), Ok(b)) = (&evaluation, &reference) {
                            prop_assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn policy_generators_are_named_and_consistent_with_policy_for() {
        let eval = s1();
        let names: Vec<&str> = [
            SystemKind::MoeLightning,
            SystemKind::FlexGen,
            SystemKind::FlexGenCpuAttention,
            SystemKind::DeepSpeedZero,
        ]
        .iter()
        .map(|&s| eval.policy_generator(s).name())
        .collect();
        assert_eq!(names, vec!["hrm", "flexgen", "flexgen(c)", "deepspeed"]);
        // policy_for is exactly the generator's output for every system.
        let workload = WorkloadShape::new(418, 128);
        for system in SystemKind::all() {
            let direct = eval.policy_generator(system).generate(&workload);
            assert_eq!(direct, eval.policy_for(system, &workload).ok());
        }
    }

    #[test]
    fn contexts_without_matching_occupancy_is_a_typed_error() {
        let eval = s1();
        let spec = WorkloadSpec::mtbench();
        let workload = eval.workload_shape(SystemKind::MoeLightning, &spec, 64);
        let policy = eval
            .policy_for(SystemKind::MoeLightning, &workload)
            .unwrap();
        for occupancy in [None, Some([8u64, 8].as_slice())] {
            let err = eval
                .decode_step_latency_with_loads(
                    ScheduleKind::CgoPipe,
                    &policy,
                    &workload,
                    occupancy,
                    Some(&[100, 100, 100]),
                )
                .unwrap_err();
            assert!(matches!(err, EngineError::Simulation { .. }));
            assert!(err.to_string().contains("same length"));
        }
    }

    /// A CGOPipe step on S1 with explicit loads: its error message, if any.
    fn step_error(occupancy: &[u64], contexts: Option<&[u64]>) -> Option<String> {
        let err = s1()
            .decode_step_latency_with_loads(
                ScheduleKind::CgoPipe,
                &Policy::offload_default(64, 16),
                &WorkloadShape::new(77, 64),
                Some(occupancy),
                contexts,
            )
            .err()?;
        assert!(matches!(err, EngineError::Simulation { .. }), "{err}");
        Some(err.to_string())
    }

    #[test]
    fn an_empty_occupancy_is_a_typed_error() {
        assert_eq!(step_error(&[16, 16], Some(&[100, 100])), None);
        let err = step_error(&[], None).unwrap();
        assert!(err.contains("at least one micro-batch"), "{err}");
    }

    #[test]
    fn a_zero_occupancy_entry_is_a_typed_error() {
        let err = step_error(&[16, 0, 16], None).unwrap();
        assert!(err.contains("occupancies must be positive"), "{err}");
    }

    #[test]
    fn a_zero_context_is_a_typed_error() {
        let err = step_error(&[16, 16], Some(&[100, 0])).unwrap();
        assert!(err.contains("contexts must be positive"), "{err}");
    }

    #[test]
    fn no_feasible_policy_is_reported_for_impossible_nodes() {
        let node = NodeSpec::t4_single().with_cpu_memory(moe_hardware::ByteSize::from_gib(4.0));
        let eval = SystemEvaluator::new(node, MoeModelConfig::mixtral_8x7b());
        let err = eval
            .evaluate(SystemKind::FlexGen, &WorkloadSpec::mtbench(), 32)
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::NoFeasiblePolicy {
                system: SystemKind::FlexGen
            }
        ));
        assert!(err.to_string().contains("FlexGen"));
    }

    #[test]
    fn tab5_ablation_ordering_holds() {
        // Tab. 5: FlexGen w/ our policy > FlexGen w/ their policy, and
        // MoE-Lightning(p) > FlexGen w/ our policy (same policy, better schedule).
        let eval = s1();
        let spec = WorkloadSpec::mtbench();
        let gen = 128;
        let flexgen_theirs = eval.evaluate(SystemKind::FlexGen, &spec, gen).unwrap();
        let our_policy = eval
            .policy_for(
                SystemKind::MoeLightningPadded,
                &eval.workload_shape(SystemKind::MoeLightningPadded, &spec, gen),
            )
            .unwrap();
        let flexgen_ours = eval
            .evaluate_with_policy(SystemKind::FlexGen, our_policy, &spec, gen)
            .unwrap();
        let ml = eval
            .evaluate_with_policy(SystemKind::MoeLightningPadded, our_policy, &spec, gen)
            .unwrap();
        assert!(
            flexgen_ours.throughput >= flexgen_theirs.throughput * 0.95,
            "our policy should not hurt FlexGen: {} vs {}",
            flexgen_ours.throughput,
            flexgen_theirs.throughput
        );
        assert!(
            ml.throughput > flexgen_ours.throughput,
            "CGOPipe must beat FlexGen's schedule under the same policy: {} vs {}",
            ml.throughput,
            flexgen_ours.throughput
        );
    }

    #[test]
    fn simulated_layers_extrapolate_stably_to_full_depth() {
        let eval = s1();
        assert_eq!(eval.simulated_layers(), SIMULATED_LAYERS);
        // More simulated layers shrink the extrapolated prologue share, so the
        // 4-layer estimate can only move by a bounded amount against 8 layers.
        let spec = WorkloadSpec::mtbench();
        let workload = eval.workload_shape(SystemKind::MoeLightningPadded, &spec, 64);
        let policy = eval
            .policy_for(SystemKind::MoeLightningPadded, &workload)
            .unwrap();
        let coarse = eval
            .decode_step_latency(ScheduleKind::CgoPipe, &policy, &workload)
            .unwrap();
        let fine = DecodeScheduleBuilder::new(eval.cost_model(), policy, workload)
            .with_layers(8)
            .decode_step_makespan(ScheduleKind::CgoPipe)
            .unwrap()
            .scale(f64::from(eval.model().num_layers) / 8.0);
        let rel = (coarse.as_secs() - fine.as_secs()).abs() / fine.as_secs();
        assert!(
            rel < 0.35,
            "extrapolation should be stable: {coarse} vs {fine}"
        );
    }

    #[test]
    fn a_model_shallower_than_the_simulated_depth_is_simulated_in_full() {
        let model = MoeModelConfig {
            num_layers: 2,
            ..MoeModelConfig::tiny()
        };
        let eval = SystemEvaluator::new(EvalSetting::S1.node(), model);
        assert_eq!(eval.simulated_layers(), 2);
        let policy = Policy::offload_default(8, 4);
        let workload = WorkloadShape::new(64, 16);
        let latency = eval
            .decode_step_latency(ScheduleKind::CgoPipe, &policy, &workload)
            .unwrap();
        let full = DecodeScheduleBuilder::new(eval.cost_model(), policy, workload)
            .with_layers(2)
            .decode_step_makespan(ScheduleKind::CgoPipe)
            .unwrap();
        assert_eq!(latency.as_secs().to_bits(), full.as_secs().to_bits());
    }

    #[test]
    fn tensor_parallelism_scales_throughput_s6_to_s7() {
        // Fig. 7 right: Mixtral 8x22B throughput grows strongly from 2×T4 to 4×T4.
        let spec = WorkloadSpec::mtbench();
        let s6 = SystemEvaluator::new(EvalSetting::S6.node(), EvalSetting::S6.model())
            .evaluate(SystemKind::MoeLightningPadded, &spec, 64)
            .unwrap();
        let s7 = SystemEvaluator::new(EvalSetting::S7.node(), EvalSetting::S7.model())
            .evaluate(SystemKind::MoeLightningPadded, &spec, 64)
            .unwrap();
        assert!(
            s7.throughput > 1.5 * s6.throughput,
            "4xT4 ({:.2}) should be well above 2xT4 ({:.2})",
            s7.throughput,
            s6.throughput
        );
    }
}
