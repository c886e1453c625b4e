//! The benchmark's five pinned workloads.
//!
//! Every scenario is defined here rather than imported from the figure
//! binaries, so a later edit to a figure cannot move the benchmark. Each
//! workload generates its inputs from the seed during set-up and hands the
//! simulator only the finished inputs (a sampled workload grid, or a
//! pre-stamped request queue via `with_queue` / `replay_into_cluster`), so
//! queue synthesis, calibration and trace round-trips count as set-up, not
//! as measured work. The four serving workloads are open loops in simulated
//! time: arrivals are stamped before the run, so the generator is never
//! late.

use crate::timed::{TimedAdmission, TimedAutoscaler, TimedRouter, TimedScheduler};
use moe_lightning::{
    ClusterEvaluator, ClusterReport, ClusterSpec, EngineError, EvalSetting, FleetTimeline,
    LeastOutstandingTokens, NodeSpec, Policy, PrefixAware, Recorder, ReplicaId, ReplicaRole,
    ReplicaSpec, Router, ScaleBounds, Seconds, Section, ServeSpec, ServingMode, ServingReport,
    SloAdmission, SloAttainmentScaler, SloSpec, SystemEvaluation, SystemEvaluator, SystemKind,
};
use moe_trace::{DaySpec, Trace};
use moe_workload::{
    Algorithm2, ArrivalProcess, GenLens, LatencySummary, RequestLatency, Scheduler, WorkloadSpec,
};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload names, in the order the benchmark runs them.
pub const NAMES: [&str; 5] = [
    "paper-sweep",
    "node-online",
    "fleet-scale",
    "fleet-day",
    "fleet-disagg",
];

/// Seed of the calibration runs. The service rate and SLO describe the
/// modelled system, not the traffic, so they stay fixed while `--seed`
/// varies the offered requests.
const CALIBRATION_SEED: u64 = 11;

/// The capacity-bound serving policy of the pinned serving scenarios: 64
/// concurrent requests in 4 micro-batches.
fn serving_policy() -> Policy {
    Policy::offload_default(64, 16)
}

/// The comparable result of one pass: two passes over the same inputs must
/// produce `==` reports.
#[derive(Debug, Clone, PartialEq)]
pub enum Report {
    Sweep(Vec<Result<SystemEvaluation, EngineError>>),
    Node(ServingReport),
    Fleet(ClusterReport),
}

/// What a pass modelled, reduced to the benchmark's numbers.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Work items the pass attempted: sweep cells or offered requests.
    pub offered: u64,
    /// Sweep cells that returned an error.
    pub errors: u64,
    pub served: u64,
    pub aborted: u64,
    pub rejected: u64,
    pub rerouted: u64,
    pub failures: u64,
    pub drains: u64,
    pub joins: u64,
    pub generated: u64,
    /// Modelled generation throughput: fleet tokens over the makespan, or
    /// the MoE-Lightning geometric mean over the sweep's cells.
    pub gen_tok_s: f64,
    pub ttft_p50_s: f64,
    pub ttft_p99_s: f64,
    pub tpot_p50_s: f64,
}

impl Summary {
    /// Invariants every pass must keep, whatever its cells returned; each
    /// message is one broken invariant.
    pub fn check(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let accounted = self.served + self.aborted + self.rejected + self.errors;
        if accounted != self.offered {
            problems.push(format!(
                "conservation: served {} + aborted {} + rejected {} + failed {} != offered {}",
                self.served, self.aborted, self.rejected, self.errors, self.offered
            ));
        }
        if !(self.gen_tok_s.is_finite() && self.gen_tok_s > 0.0) {
            problems.push(format!(
                "modelled throughput {} is not positive",
                self.gen_tok_s
            ));
        }
        problems
    }

    /// One line in the `tests/self_check.rs` digest format, for diffing a
    /// workload's modelled outcome across commits.
    pub fn digest(&self, label: &str) -> String {
        format!(
            "{label}|served={}|aborted={}|rejected={}|rerouted={}|failures={}|drains={}|joins={}|generated={}|throughput={:.9}|ttft_p50={:.9}",
            self.served,
            self.aborted + self.errors,
            self.rejected,
            self.rerouted,
            self.failures,
            self.drains,
            self.joins,
            self.generated,
            self.gen_tok_s,
            self.ttft_p50_s,
        )
    }
}

/// One pass: the report plus its summary.
pub struct Outcome {
    pub report: Report,
    pub summary: Summary,
}

/// Per-layer numbers from the traced pass, keyed by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Where set-up time went, for the set-up layer metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub calibrate: Duration,
    pub synth: Duration,
    pub render: Duration,
    pub parse: Duration,
    pub trace_bytes: u64,
}

/// The traced pass: its outcome, per-layer numbers and wall time (the
/// exports read after the run are not part of it).
pub struct Traced {
    pub outcome: Outcome,
    pub layers: Layers,
    pub wall_s: f64,
}

/// A workload whose inputs are built: it runs passes over them.
pub trait Workload {
    /// Work items one pass attempts (sweep cells or offered requests).
    fn items(&self) -> u64;
    /// One untraced pass.
    fn pass(&self) -> Result<Outcome, String>;
    /// One traced pass: the same work with every layer timed from outside.
    fn traced_pass(&self) -> Result<Traced, String>;
}

/// Builds workload `name`'s inputs from `seed`, with every size divided by
/// `divisor` (1 for the benchmark, 1000 for the smoke run).
pub fn setup(
    name: &str,
    seed: u64,
    divisor: usize,
) -> Result<(Box<dyn Workload>, SetupTimes), String> {
    let scaled = |n: usize| (n / divisor).max(1);
    let mut times = SetupTimes::default();
    let workload: Box<dyn Workload> = match name {
        "paper-sweep" => Box::new(PaperSweep::new(seed, divisor, &mut times)),
        "node-online" => Box::new(NodeOnline::new(seed, scaled(20_000), &mut times)?),
        "fleet-scale" => Box::new(fleet_scale(seed, scaled(200_000), &mut times)),
        "fleet-day" => Box::new(fleet_day(seed, scaled(60_000), &mut times)?),
        "fleet-disagg" => Box::new(fleet_disagg(seed, scaled(150_000), &mut times)?),
        other => return Err(format!("unknown workload `{other}`")),
    };
    Ok((workload, times))
}

fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed();
    out
}

/// `part / whole`, or 0 for a layer that never ran.
fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

// ---------------------------------------------------------------------------
// paper-sweep: the paper's closed-loop policy experiment.

/// Tab. 3 statistics measured on a seeded sample of the workload's prompts,
/// the way the paper measures them on its datasets: the seed moves s_avg and
/// s_max within sampling error.
fn sampled_spec(base: &WorkloadSpec, seed: u64) -> WorkloadSpec {
    let sample = base.sample_requests(4096, 1, seed);
    let total: u64 = sample.iter().map(|r| r.input_len).sum();
    WorkloadSpec {
        avg_prompt_len: (total as f64 / sample.len() as f64).round() as u64,
        max_prompt_len: sample.iter().map(|r| r.input_len).max().unwrap_or(1),
        ..base.clone()
    }
}

struct Cell {
    evaluator: usize,
    spec: usize,
    system: SystemKind,
    gen: u64,
}

/// 6 settings × 4 host-memory scales × 3 workloads × 4 generation lengths ×
/// 5 systems = 1,440 cells, each one `SystemEvaluator::evaluate`: policy
/// search, HRM, schedule build and the discrete-event simulation do all the
/// work, and the serving stack none.
struct PaperSweep {
    evaluators: Vec<SystemEvaluator>,
    specs: Vec<WorkloadSpec>,
    cells: Vec<Cell>,
}

impl PaperSweep {
    fn new(seed: u64, divisor: usize, times: &mut SetupTimes) -> Self {
        let specs: Vec<WorkloadSpec> = timed(&mut times.synth, || {
            WorkloadSpec::all()
                .iter()
                .map(|base| sampled_spec(base, seed))
                .collect()
        });
        let mut evaluators = Vec::new();
        let mut cells = Vec::new();
        for setting in EvalSetting::all() {
            for memory_scale in [1.0, 1.25, 1.5, 2.0] {
                let node = setting.node();
                let node = node.with_cpu_memory(node.cpu_memory().scale(memory_scale));
                evaluators.push(SystemEvaluator::new(node, setting.model()));
                for spec in 0..specs.len() {
                    for gen in [32, 64, 128, 256] {
                        for system in SystemKind::all() {
                            cells.push(Cell {
                                evaluator: evaluators.len() - 1,
                                spec,
                                system,
                                gen,
                            });
                        }
                    }
                }
            }
        }
        // The smoke run keeps every divisor-th cell; the offset keeps an
        // MoE-Lightning cell (the last system of each group) in the sample.
        let cells = cells
            .into_iter()
            .skip(divisor - 1)
            .step_by(divisor)
            .collect();
        PaperSweep {
            evaluators,
            specs,
            cells,
        }
    }

    fn summarize(&self, results: &[Result<SystemEvaluation, EngineError>]) -> Summary {
        // Throughput is the geometric mean over the MoE-Lightning cells.
        // Each cell's offline batch arrives at once: every request in it
        // waits prefill plus one decode step for its first token and one
        // step per token after, so the latency percentiles run over the
        // modelled requests of those cells.
        let mut log_tok = Vec::new();
        let mut ttft = Vec::new();
        let mut tpot = Vec::new();
        let mut generated = 0;
        for (cell, result) in self.cells.iter().zip(results) {
            let Ok(eval) = result else { continue };
            generated += eval.report.generated_tokens;
            if cell.system == SystemKind::MoeLightning {
                let step = eval.report.decode_time.as_secs() / cell.gen as f64;
                let requests = eval.report.requests;
                log_tok.push(eval.throughput.ln());
                ttft.push((eval.report.prefill_time.as_secs() + step, requests));
                tpot.push((step, requests));
            }
        }
        let geomean = if log_tok.is_empty() {
            0.0
        } else {
            (log_tok.iter().sum::<f64>() / log_tok.len() as f64).exp()
        };
        let errors = results.iter().filter(|r| r.is_err()).count() as u64;
        Summary {
            offered: self.cells.len() as u64,
            errors,
            served: self.cells.len() as u64 - errors,
            aborted: 0,
            rejected: 0,
            rerouted: 0,
            failures: 0,
            drains: 0,
            joins: 0,
            generated,
            gen_tok_s: geomean,
            ttft_p50_s: weighted_percentile(&mut ttft, 0.50),
            ttft_p99_s: weighted_percentile(&mut ttft, 0.99),
            tpot_p50_s: weighted_percentile(&mut tpot, 0.50),
        }
    }
}

/// Nearest-rank percentile of values each carrying a request count.
fn weighted_percentile(samples: &mut [(f64, u64)], p: f64) -> f64 {
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = samples.iter().map(|s| s.1).sum();
    let rank = ((p * total as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for &(value, weight) in samples.iter() {
        seen += weight;
        if seen >= rank {
            return value;
        }
    }
    0.0
}

impl Workload for PaperSweep {
    fn items(&self) -> u64 {
        self.cells.len() as u64
    }

    fn pass(&self) -> Result<Outcome, String> {
        let results: Vec<_> = self
            .cells
            .iter()
            .map(|c| self.evaluators[c.evaluator].evaluate(c.system, &self.specs[c.spec], c.gen))
            .collect();
        let summary = self.summarize(&results);
        Ok(Outcome {
            report: Report::Sweep(results),
            summary,
        })
    }

    /// `evaluate` split at its layer boundaries: the workload shape, the
    /// policy search (`policy_for`, moe-policy + moe-hrm) and the costing of
    /// that policy (`evaluate_with_policy`: schedule build + simulation).
    fn traced_pass(&self) -> Result<Traced, String> {
        let started = Instant::now();
        let (mut policy_ns, mut policy_calls) = (0u64, 0u64);
        let (mut cost_ns, mut cost_calls) = (0u64, 0u64);
        let results: Vec<_> = self
            .cells
            .iter()
            .map(|c| {
                let evaluator = &self.evaluators[c.evaluator];
                let spec = &self.specs[c.spec];
                let shape = evaluator.workload_shape(c.system, spec, c.gen);
                let t0 = Instant::now();
                let policy = evaluator.policy_for(c.system, &shape);
                policy_ns += t0.elapsed().as_nanos() as u64;
                policy_calls += 1;
                let policy = policy?;
                let t0 = Instant::now();
                let eval = evaluator.evaluate_with_policy(c.system, policy, spec, c.gen);
                cost_ns += t0.elapsed().as_nanos() as u64;
                cost_calls += 1;
                eval
            })
            .collect();
        let wall = started.elapsed().as_nanos() as f64;
        let summary = self.summarize(&results);
        let mut layers = Layers::new();
        layers.insert("policy.calls", policy_calls as f64);
        layers.insert("policy.wall_pct", pct(policy_ns as f64, wall));
        layers.insert("policy.us_per_call", ratio(policy_ns, policy_calls) / 1e3);
        layers.insert("stepcost.calls", cost_calls as f64);
        layers.insert("stepcost.wall_pct", pct(cost_ns as f64, wall));
        layers.insert("stepcost.us_per_call", ratio(cost_ns, cost_calls) / 1e3);
        Ok(Traced {
            outcome: Outcome {
                report: Report::Sweep(results),
                summary,
            },
            layers,
            wall_s: wall / 1e9,
        })
    }
}

// ---------------------------------------------------------------------------
// Serving workloads.

/// A serving mix's service rate and SLO, measured fig09-style: a saturating
/// offline single-replica run gives the rate, an unloaded run of one
/// admission wave gives the SLO as multiples of its TTFT median and mean
/// per-token latency.
struct Calibration {
    per_replica_rate: f64,
    slo: SloSpec,
}

fn calibrate(
    workload: &WorkloadSpec,
    gen: GenLens,
    count: usize,
    ttft_x: f64,
    per_token_x: f64,
    times: &mut SetupTimes,
) -> Result<Calibration, String> {
    timed(&mut times.calibrate, || {
        let setting = EvalSetting::S1;
        let evaluator = SystemEvaluator::new(setting.node(), setting.model());
        let spec = |n: usize| {
            let spec = ServeSpec::new(SystemKind::MoeLightning, workload.clone())
                .with_count(n)
                .with_seed(CALIBRATION_SEED)
                .with_policy(serving_policy())
                .with_mode(ServingMode::Continuous);
            match gen {
                GenLens::Uniform(g) => spec.with_gen_len(g),
                GenLens::MixedDefaults => spec.with_mixed_gen_lens(),
            }
        };
        let offline = evaluator
            .run(&spec(count.min(300)))
            .map_err(|e| format!("calibration: {e}"))?;
        let unloaded = evaluator
            .run(&spec(serving_policy().batch_size as usize))
            .map_err(|e| format!("calibration: {e}"))?;
        Ok(Calibration {
            per_replica_rate: offline.served_requests() as f64
                / offline.total_time().as_secs().max(1e-9),
            slo: SloSpec {
                ttft: unloaded.ttft().p50.scale(ttft_x),
                per_token: Seconds::from_secs(unloaded.per_token().mean.as_secs() * per_token_x),
            },
        })
    })
}

/// Modelled outcome of a set of served requests: throughput over the global
/// makespan and the latency percentiles.
fn served_summary(latencies: &[RequestLatency]) -> (u64, f64, LatencySummary, LatencySummary) {
    let generated: u64 = latencies.iter().map(|l| l.request.gen_len).sum();
    let makespan = latencies
        .iter()
        .map(|l| (l.request.arrival + l.completion_time).as_secs())
        .fold(0.0, f64::max);
    let throughput = if makespan > 0.0 {
        generated as f64 / makespan
    } else {
        0.0
    };
    (
        generated,
        throughput,
        LatencySummary::ttft(latencies),
        LatencySummary::per_token(latencies),
    )
}

/// One S1 T4 replica serving an MTBench queue with mixed generation lengths
/// through the single-node API (`ServeSpec`), Poisson at 0.7 of its
/// calibrated rate: every request goes through one engine, so scheduler
/// backfill and step-cost memo misses dominate while the router and fleet
/// loop are idle. Nearer saturation the TTFT p99 of a 20k-request queue
/// swings by half from one seed to the next (0.8 and 0.9 both do), so the
/// tail would measure the seed rather than the system.
struct NodeOnline {
    evaluator: SystemEvaluator,
    spec: ServeSpec,
    offered: u64,
}

impl NodeOnline {
    fn new(seed: u64, count: usize, times: &mut SetupTimes) -> Result<Self, String> {
        let workload = WorkloadSpec::mtbench();
        let cal = calibrate(&workload, GenLens::MixedDefaults, count, 12.0, 3.0, times)?;
        let queue = timed(&mut times.synth, || {
            workload.synthesize_queue(
                count,
                GenLens::MixedDefaults,
                seed,
                false,
                &ArrivalProcess::Poisson {
                    rate_per_sec: 0.7 * cal.per_replica_rate,
                },
            )
        });
        let setting = EvalSetting::S1;
        Ok(NodeOnline {
            evaluator: SystemEvaluator::new(setting.node(), setting.model()),
            spec: ServeSpec::new(SystemKind::MoeLightning, workload)
                .with_mixed_gen_lens()
                .with_policy(serving_policy())
                .with_mode(ServingMode::Continuous)
                .with_queue(queue),
            offered: count as u64,
        })
    }

    fn summarize(&self, report: &ServingReport) -> Summary {
        let (generated, gen_tok_s, ttft, tpot) = served_summary(&report.latencies);
        Summary {
            offered: self.offered,
            errors: 0,
            served: report.served_requests() as u64,
            aborted: report.aborted.len() as u64,
            rejected: 0,
            rerouted: 0,
            failures: 0,
            drains: 0,
            joins: 0,
            generated,
            gen_tok_s,
            ttft_p50_s: ttft.p50.as_secs(),
            ttft_p99_s: ttft.p99.as_secs(),
            tpot_p50_s: tpot.p50.as_secs(),
        }
    }

    fn outcome(&self, report: ServingReport) -> Outcome {
        Outcome {
            summary: self.summarize(&report),
            report: Report::Node(report),
        }
    }
}

impl Workload for NodeOnline {
    fn items(&self) -> u64 {
        self.offered
    }

    fn pass(&self) -> Result<Outcome, String> {
        let report = self.evaluator.run(&self.spec).map_err(|e| e.to_string())?;
        Ok(self.outcome(report))
    }

    fn traced_pass(&self) -> Result<Traced, String> {
        let scheduler = Arc::new(TimedScheduler::new(Arc::new(Algorithm2)));
        let recorder = Arc::new(Recorder::new());
        let spec = self
            .spec
            .clone()
            .with_scheduler(scheduler.clone())
            .with_telemetry(recorder.clone());
        let started = Instant::now();
        let report = self.evaluator.run(&spec).map_err(|e| e.to_string())?;
        let wall = started.elapsed().as_nanos() as f64;
        let mut layers = Layers::new();
        scheduler_layers(&mut layers, &scheduler, wall);
        engine_layers(&mut layers, report.rounds.len(), report.served_requests());
        telemetry_layers(&mut layers, &recorder);
        Ok(Traced {
            outcome: self.outcome(report),
            layers,
            wall_s: wall / 1e9,
        })
    }
}

/// The strategy objects a fleet pass installs, built fresh for every pass:
/// stateful routers (prefix-aware session homes) must not carry state from
/// one pass into the next.
struct FleetParts {
    router: Arc<dyn Router>,
    scheduler: Arc<dyn Scheduler>,
    autoscaler: Option<Arc<dyn moe_lightning::Autoscaler>>,
    admission: Option<Arc<dyn moe_lightning::AdmissionController>>,
}

/// A fleet workload: every cluster axis but the replicas and the strategy
/// objects (queue attached), the replicas, and the constructors of the
/// strategy objects.
struct Fleet {
    base: ClusterSpec,
    replicas: Vec<ReplicaSpec>,
    offered: u64,
    router: fn() -> Arc<dyn Router>,
    /// The autoscaler and its bounds, when the scenario scales.
    autoscaler: Option<(SloAttainmentScaler, ScaleBounds)>,
    admission: Option<SloAdmission>,
}

impl Fleet {
    fn new(
        base: ClusterSpec,
        replicas: Vec<ReplicaSpec>,
        offered: usize,
        router: fn() -> Arc<dyn Router>,
    ) -> Self {
        Fleet {
            offered: offered as u64,
            base,
            replicas,
            router,
            autoscaler: None,
            admission: None,
        }
    }

    fn evaluator() -> ClusterEvaluator {
        ClusterEvaluator::new(EvalSetting::S1.model())
    }

    /// The full spec with `parts` installed; every replica (and so the
    /// default scale template) runs `parts.scheduler`.
    fn spec_with(&self, parts: &FleetParts) -> ClusterSpec {
        let mut spec = self.base.clone().with_router(Arc::clone(&parts.router));
        for replica in &self.replicas {
            spec = spec.with_replica(replica.clone().with_scheduler(Arc::clone(&parts.scheduler)));
        }
        if let (Some(scaler), Some((_, bounds))) = (&parts.autoscaler, &self.autoscaler) {
            spec = spec.with_autoscaler(Arc::clone(scaler), *bounds);
        }
        if let Some(admission) = &parts.admission {
            spec = spec.with_admission(Arc::clone(admission));
        }
        spec
    }

    fn parts(&self) -> FleetParts {
        FleetParts {
            router: (self.router)(),
            scheduler: Arc::new(Algorithm2),
            autoscaler: self
                .autoscaler
                .map(|(scaler, _)| Arc::new(scaler) as Arc<dyn moe_lightning::Autoscaler>),
            admission: self
                .admission
                .map(|a| Arc::new(a) as Arc<dyn moe_lightning::AdmissionController>),
        }
    }

    fn summarize(&self, report: &ClusterReport) -> Summary {
        let (generated, gen_tok_s, ttft, tpot) = served_summary(&report.latencies());
        Summary {
            offered: self.offered,
            errors: 0,
            served: report.served_requests() as u64,
            aborted: report.aborted_requests() as u64,
            rejected: report.rejected_requests() as u64,
            rerouted: report.availability.rerouted.len() as u64,
            failures: report.availability.failures.len() as u64,
            drains: report.availability.drains.len() as u64,
            joins: report.availability.joins.len() as u64,
            generated,
            gen_tok_s,
            ttft_p50_s: ttft.p50.as_secs(),
            ttft_p99_s: ttft.p99.as_secs(),
            tpot_p50_s: tpot.p50.as_secs(),
        }
    }

    fn outcome(&self, report: ClusterReport) -> Outcome {
        Outcome {
            summary: self.summarize(&report),
            report: Report::Fleet(report),
        }
    }
}

impl Workload for Fleet {
    fn items(&self) -> u64 {
        self.offered
    }

    fn pass(&self) -> Result<Outcome, String> {
        let report = Self::evaluator()
            .run(&self.spec_with(&self.parts()))
            .map_err(|e| e.to_string())?;
        Ok(self.outcome(report))
    }

    fn traced_pass(&self) -> Result<Traced, String> {
        let bare = self.parts();
        let router = Arc::new(TimedRouter::new(bare.router));
        let scheduler = Arc::new(TimedScheduler::new(bare.scheduler));
        let autoscaler = bare.autoscaler.map(|a| Arc::new(TimedAutoscaler::new(a)));
        let admission = bare.admission.map(|a| Arc::new(TimedAdmission::new(a)));
        let parts = FleetParts {
            router: router.clone(),
            scheduler: scheduler.clone(),
            autoscaler: autoscaler.clone().map(|a| a as _),
            admission: admission.clone().map(|a| a as _),
        };
        let recorder = Arc::new(Recorder::new());
        let spec = self.spec_with(&parts).with_telemetry(recorder.clone());
        let started = Instant::now();
        let report = Self::evaluator().run(&spec).map_err(|e| e.to_string())?;
        let wall = started.elapsed().as_nanos() as f64;

        let mut layers = Layers::new();
        scheduler_layers(&mut layers, &scheduler, wall);
        let calls = router.clock.calls();
        layers.insert("router.calls", calls as f64);
        layers.insert("router.wall_pct", pct(router.clock.nanos() as f64, wall));
        layers.insert("router.ns_per_call", ratio(router.clock.nanos(), calls));
        layers.insert(
            "router.indexed_pct",
            pct(router.indexed.load(Relaxed) as f64, calls as f64),
        );
        layers.insert(
            "router.views_mean",
            ratio(router.views.load(Relaxed), calls),
        );
        if let Some(a) = &autoscaler {
            layers.insert("autoscaler.calls", a.clock.calls() as f64);
            layers.insert("autoscaler.wall_pct", pct(a.clock.nanos() as f64, wall));
        }
        if let Some(a) = &admission {
            layers.insert("admission.calls", a.clock.calls() as f64);
            layers.insert("admission.wall_pct", pct(a.clock.nanos() as f64, wall));
            layers.insert(
                "admission.reject_pct",
                pct(a.rejected.load(Relaxed) as f64, a.clock.calls() as f64),
            );
        }
        layers.insert(
            "dynamics.rerouted",
            report.availability.rerouted.len() as f64,
        );
        layers.insert("dynamics.joins", report.availability.joins.len() as f64);

        let span = |section: Section| {
            recorder
                .profile()
                .into_iter()
                .find(|(s, _)| *s == section)
                .map(|(_, r)| r)
                .unwrap_or_default()
        };
        let select = span(Section::EventSelection);
        let routing = span(Section::Routing);
        let step = span(Section::ShardStep);
        layers.insert(
            "cluster.event_selection_pct",
            pct(select.nanos as f64, wall),
        );
        layers.insert("cluster.routing_pct", pct(routing.nanos as f64, wall));
        layers.insert("cluster.shard_step_pct", pct(step.nanos as f64, wall));
        layers.insert("cluster.shard_step_calls", step.calls as f64);
        layers.insert("cluster.events_per_window", ratio(select.calls, step.calls));
        layers.insert(
            "cluster.unattributed_pct",
            pct(
                wall - (select.nanos + routing.nanos + step.nanos) as f64,
                wall,
            ),
        );
        let rounds: usize = report.replicas.iter().map(|r| r.report.rounds.len()).sum();
        engine_layers(&mut layers, rounds, report.served_requests());
        let counters = recorder.counters();
        layers.insert("disagg.migrations", counters.migrations_started as f64);
        layers.insert("disagg.migrations_lost", counters.migrations_lost as f64);
        let (hits, lookups) = report
            .replicas
            .iter()
            .filter_map(|r| r.cache)
            .fold((0, 0), |(h, l), c| (h + c.hits, l + c.lookups()));
        layers.insert("cache.hit_pct", pct(hits as f64, lookups as f64));
        telemetry_layers(&mut layers, &recorder);
        Ok(Traced {
            outcome: self.outcome(report),
            layers,
            wall_s: wall / 1e9,
        })
    }
}

fn scheduler_layers(layers: &mut Layers, scheduler: &TimedScheduler, wall: f64) {
    let calls = scheduler.clock.calls();
    let offered = scheduler.offered.load(Relaxed);
    layers.insert("scheduler.calls", calls as f64);
    layers.insert(
        "scheduler.wall_pct",
        pct(scheduler.clock.nanos() as f64, wall),
    );
    layers.insert(
        "scheduler.ns_per_call",
        ratio(scheduler.clock.nanos(), calls),
    );
    layers.insert("scheduler.queue_mean", ratio(offered, calls));
    layers.insert(
        "scheduler.placed_pct",
        pct(scheduler.placed.load(Relaxed) as f64, offered as f64),
    );
}

fn engine_layers(layers: &mut Layers, rounds: usize, served: usize) {
    layers.insert("engine.rounds", rounds as f64);
    layers.insert("engine.reqs_per_round", ratio(served as u64, rounds as u64));
}

fn telemetry_layers(layers: &mut Layers, recorder: &Recorder) {
    let dropped = recorder.events_dropped();
    layers.insert(
        "telemetry.events",
        (recorder.events().len() as u64 + dropped) as f64,
    );
    layers.insert("telemetry.events_dropped", dropped as f64);
}

/// `n` S1 T4 replicas running `policy` (searched when `None`).
fn t4_replicas(n: usize, policy: Option<Policy>) -> Vec<ReplicaSpec> {
    let mut replica = ReplicaSpec::new(NodeSpec::t4_single());
    if let Some(policy) = policy {
        replica = replica.with_policy(policy);
    }
    vec![replica; n]
}

/// 1000 S1 replicas with searched policies, gen 16, Poisson at 4 req/s per
/// replica, least-outstanding routing: the event heap, the router index fast
/// path and the shard windows dominate; queues are shallow and the uniform
/// generation length keeps the step memo hot.
fn fleet_scale(seed: u64, count: usize, times: &mut SetupTimes) -> Fleet {
    const REPLICAS: usize = 1000;
    let workload = WorkloadSpec::mtbench();
    let queue = timed(&mut times.synth, || {
        workload.synthesize_queue(
            count,
            GenLens::Uniform(16),
            seed,
            false,
            &ArrivalProcess::Poisson {
                rate_per_sec: 4.0 * REPLICAS as f64,
            },
        )
    });
    let base = ClusterSpec::new(SystemKind::MoeLightning, workload)
        .with_gen_len(16)
        .with_seed(seed)
        .with_mode(ServingMode::Continuous)
        .with_queue(queue);
    Fleet::new(base, t4_replicas(REPLICAS, None), count, || {
        Arc::new(LeastOutstandingTokens)
    })
}

/// 32 replicas replaying a synthetic day through the whole control plane:
/// prefix-aware routing over 8192-token prefix caches, SLO admission, two
/// injected failures and an SLO-attainment autoscaler. Control events and
/// prefix lookups run beside dispatch and force per-event stepping, so a
/// windowed-path gain that costs the control path shows up here.
fn fleet_day(seed: u64, arrivals: usize, times: &mut SetupTimes) -> Result<Fleet, String> {
    const REPLICAS: usize = 32;
    let mut workload = WorkloadSpec::mtbench();
    workload.default_gen_lens = vec![64];
    let cal = calibrate(&workload, GenLens::Uniform(64), arrivals, 12.0, 3.0, times)?;
    let base_rate = 0.8 * REPLICAS as f64 * cal.per_replica_rate;
    let day_secs = arrivals as f64 / base_rate;
    let at = |share: f64| Seconds::from_secs(share * day_secs);
    let day = timed(&mut times.synth, || {
        DaySpec::new(workload.clone(), at(1.0), base_rate, seed)
            .with_segment(at(0.5), at(0.05), 2.0)
            .with_session_stickiness(0.7)
            .synthesize()
    });
    let text = timed(&mut times.render, || day.render());
    times.trace_bytes = text.len() as u64;
    let parsed = timed(&mut times.parse, || Trace::parse(&text)).map_err(|e| e.to_string())?;
    if parsed != day {
        return Err("the rendered trace did not parse back to the same day".into());
    }
    let offered = parsed.len();
    let base = parsed.replay_into_cluster(
        ClusterSpec::new(SystemKind::MoeLightning, workload)
            .with_gen_len(64)
            .with_seed(seed)
            .with_mode(ServingMode::Continuous)
            .with_prefix_cache(8192)
            .with_slo(cal.slo)
            .with_timeline(
                FleetTimeline::new()
                    .fail_at(at(0.3), ReplicaId(1))
                    .fail_at(at(0.6), ReplicaId(2))
                    .with_provisioning_delay(at(0.01)),
            ),
    );
    let mut fleet = Fleet::new(
        base,
        t4_replicas(REPLICAS, Some(serving_policy())),
        offered,
        || Arc::new(PrefixAware::new()),
    );
    fleet.autoscaler = Some((
        SloAttainmentScaler::new(cal.slo, 95.0),
        ScaleBounds::new(REPLICAS, 2 * REPLICAS, Seconds::from_secs(30.0)),
    ));
    fleet.admission = Some(SloAdmission::new(cal.slo));
    Ok(fleet)
}

/// 16 replicas as 4 × (2 prefill + 2 decode) on summarization prompts with
/// gen 8, Poisson at 0.8 of the unified calibrated rate: every request takes
/// the scan-only disaggregated dispatch, a KV migration and a decode-pool
/// admission, bypassing the indexed router. At 0.9 the TTFT p99 varied
/// twice as much between seeds.
fn fleet_disagg(seed: u64, count: usize, times: &mut SetupTimes) -> Result<Fleet, String> {
    const REPLICAS: usize = 16;
    let workload = WorkloadSpec::summarization();
    let cal = calibrate(&workload, GenLens::Uniform(8), count, 1.5, 1.25, times)?;
    let queue = timed(&mut times.synth, || {
        workload.synthesize_queue(
            count,
            GenLens::Uniform(8),
            seed,
            false,
            &ArrivalProcess::Poisson {
                rate_per_sec: 0.8 * cal.per_replica_rate * REPLICAS as f64,
            },
        )
    });
    let base = ClusterSpec::new(SystemKind::MoeLightning, workload)
        .with_gen_len(8)
        .with_seed(seed)
        .with_mode(ServingMode::Continuous)
        .with_slo(cal.slo)
        .with_queue(queue);
    let replicas = (0..REPLICAS)
        .map(|i| {
            let role = if i % 4 < 2 {
                ReplicaRole::Prefill
            } else {
                ReplicaRole::Decode
            };
            ReplicaSpec::new(NodeSpec::t4_single())
                .with_policy(serving_policy())
                .with_role(role)
        })
        .collect();
    Ok(Fleet::new(base, replicas, count, || {
        Arc::new(LeastOutstandingTokens)
    }))
}
