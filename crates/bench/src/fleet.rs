//! The pinned seed-11 MTBench fleet-dynamics scenario shared by the
//! `fig09_fleet_dynamics` binary, the `fleet_dynamics` example and the
//! `tests/fleet_dynamics.rs` acceptance test.
//!
//! The scenario is a 4-replica homogeneous T4 fleet (setting S1) under online
//! Poisson load at the fleet's measured aggregate service rate, with a
//! capacity-bound policy so queueing — not raw capacity — decides tail
//! latency. The SLO is calibrated from an *unloaded* single-replica run
//! (one admission wave), exactly like the fig07 router ablation, so
//! attainment measures queueing rather than service time. A mid-run failure
//! kills one replica at 25% of the expected span; recovery is judged on SLO
//! goodput against the no-failure run.
//!
//! [`calibrate`] is the one service-rate and SLO calibration the pinned
//! scenario, the fig07 router ablation and the fig12 disaggregation sweep
//! share; each passes its own workload, policy and SLO multipliers.

use moe_lightning::{
    ClusterSpec, EngineError, EvalSetting, FleetTimeline, Policy, ReplicaId, ReplicaSpec,
    ScaleBounds, Seconds, ServeSpec, ServingMode, SloAttainmentScaler, SloSpec, SystemEvaluator,
    SystemKind,
};
use moe_workload::{ArrivalProcess, WorkloadSpec};
use std::sync::Arc;

/// Queue-synthesis seed of the pinned scenario.
pub const SEED: u64 = 11;
/// Uniform generation length of the pinned scenario.
pub const GEN_LEN: u64 = 64;
/// Baseline fleet size.
pub const REPLICAS: usize = 4;
/// The capacity-bound per-replica policy: 64 concurrent requests in 4
/// micro-batches, small enough that admission control genuinely queues at the
/// offered load.
pub fn pinned_policy() -> Policy {
    Policy::offload_default(64, 16)
}

/// One S1 replica's measured service rate and the SLO scaled from its
/// unloaded latency (see [`calibrate`]).
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Measured single-replica service rate (requests/s) under the policy.
    pub per_replica_rate: f64,
    /// TTFT + per-token deadlines scaled from an unloaded replica.
    pub slo: SloSpec,
}

/// Calibrates one S1 replica serving `workload` with `gen_len`-token
/// generations under `policy` in continuous mode. The service rate comes
/// from a saturating offline run of `count.min(300)` requests. The SLO comes
/// from an *unloaded* run of one batch (a queue that fits one admission
/// wave), so attainment measures queueing rather than raw service time: its
/// TTFT p50 scaled by `ttft_scale` and its mean per-token latency by
/// `per_token_scale`.
///
/// # Errors
///
/// Propagates engine errors from the two calibration runs.
pub fn calibrate(
    workload: &WorkloadSpec,
    gen_len: u64,
    seed: u64,
    policy: Policy,
    count: usize,
    (ttft_scale, per_token_scale): (f64, f64),
) -> Result<Calibration, EngineError> {
    let setting = EvalSetting::S1;
    let evaluator = SystemEvaluator::new(setting.node(), setting.model());
    let run = |count: usize| {
        evaluator.run(
            &ServeSpec::new(SystemKind::MoeLightning, workload.clone())
                .with_count(count)
                .with_gen_len(gen_len)
                .with_seed(seed)
                .with_policy(policy)
                .with_mode(ServingMode::Continuous),
        )
    };
    let offline = run(count.min(300))?;
    let per_replica_rate =
        offline.served_requests() as f64 / offline.total_time().as_secs().max(1e-9);
    let unloaded = run(policy.batch_size as usize)?;
    Ok(Calibration {
        per_replica_rate,
        slo: SloSpec {
            ttft: unloaded.ttft().p50.scale(ttft_scale),
            per_token: Seconds::from_secs(unloaded.per_token().mean.as_secs() * per_token_scale),
        },
    })
}

/// The pinned scenario with its calibrated service rate, SLO and failure
/// instant.
#[derive(Debug, Clone)]
pub struct FleetScenario {
    /// Requests in the fleet-wide queue.
    pub count: usize,
    /// The capacity-bound policy every replica runs.
    pub policy: Policy,
    /// Measured single-replica service rate (requests/s) under the policy.
    pub per_replica_rate: f64,
    /// TTFT + per-token deadlines calibrated from an unloaded replica.
    pub slo: SloSpec,
    /// When the injected failure kills replica 1 (25% of the expected span).
    pub fail_time: Seconds,
    /// How long a join takes to come up.
    pub provisioning_delay: Seconds,
}

impl FleetScenario {
    /// Calibrates the pinned scenario for a `count`-request queue: measures
    /// the single-replica service rate on a saturating offline run and
    /// derives the SLO from an unloaded (single-admission-wave) run.
    ///
    /// # Errors
    ///
    /// Propagates engine errors from the two calibration runs.
    pub fn pinned(count: usize) -> Result<Self, EngineError> {
        let policy = pinned_policy();
        let Calibration {
            per_replica_rate,
            slo,
        } = calibrate(
            &WorkloadSpec::mtbench(),
            GEN_LEN,
            SEED,
            policy,
            count,
            (12.0, 3.0),
        )?;
        // Expected span of the no-failure run: count requests at the
        // fleet-wide rate; the failure lands a quarter of the way in.
        let expected_span = count as f64 / (REPLICAS as f64 * per_replica_rate);
        Ok(FleetScenario {
            count,
            policy,
            per_replica_rate,
            slo,
            fail_time: Seconds::from_secs(0.25 * expected_span),
            provisioning_delay: Seconds::from_secs(0.03 * expected_span),
        })
    }

    /// The churn-free baseline: `REPLICAS` T4 replicas, Poisson arrivals at
    /// the fleet's aggregate service rate, least-outstanding-tokens routing,
    /// the calibrated SLO.
    pub fn base_spec(&self) -> ClusterSpec {
        let node = EvalSetting::S1.node();
        let mut spec = ClusterSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
            .with_count(self.count)
            .with_gen_len(GEN_LEN)
            .with_seed(SEED)
            .with_mode(ServingMode::Continuous)
            .with_arrivals(
                ArrivalProcess::Poisson {
                    rate_per_sec: self.per_replica_rate,
                }
                .scaled(REPLICAS as f64),
            )
            .with_router(Arc::new(moe_lightning::LeastOutstandingTokens))
            .with_slo(self.slo);
        for _ in 0..REPLICAS {
            spec = spec.with_replica(ReplicaSpec::new(node.clone()).with_policy(self.policy));
        }
        spec
    }

    /// The timeline that kills replica 1 at [`FleetScenario::fail_time`].
    pub fn failure_timeline(&self) -> FleetTimeline {
        FleetTimeline::new()
            .fail_at(self.fail_time, ReplicaId(1))
            .with_provisioning_delay(self.provisioning_delay)
    }

    /// Baseline plus the mid-run failure, no autoscaler: the static fleet
    /// rides out the rest of the run one replica short.
    pub fn static_failure_spec(&self) -> ClusterSpec {
        self.base_spec().with_timeline(self.failure_timeline())
    }

    /// Baseline plus the failure and an [`SloAttainmentScaler`] allowed to
    /// grow the fleet back (and beyond, to drain the backlog).
    pub fn autoscaled_failure_spec(&self) -> ClusterSpec {
        self.static_failure_spec().with_autoscaler(
            Arc::new(SloAttainmentScaler::new(self.slo, 95.0)),
            self.scale_bounds(),
        )
    }

    /// The bounds the autoscaled scenario runs under: between `REPLICAS` and
    /// `2 × REPLICAS` replicas, cooldown of one provisioning delay.
    pub fn scale_bounds(&self) -> ScaleBounds {
        ScaleBounds::new(REPLICAS, 2 * REPLICAS, self.provisioning_delay)
    }
}
