//! Workload specifications and synthetic request generation.
//!
//! The paper evaluates three workloads (Tab. 3): MTBench (replicated to thousands of
//! requests), HELM synthetic reasoning and HELM summarization (CNN/DailyMail). Only
//! the prompt-length statistics matter for throughput, so each workload is described
//! by its average and maximum prompt length and requests are sampled from a
//! truncated distribution matching those statistics.
//!
//! For online serving, every [`Request`] additionally carries an arrival time
//! stamped by an [`ArrivalProcess`] (all-at-once, Poisson, or bursty), so the
//! serving scheduler is exercised under load instead of a pre-filled queue and
//! latency metrics are measured from each request's arrival (queue-aware TTFT).

use moe_hardware::Seconds;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// The service-level-objective class a request is judged (and, in later
/// scheduling work, prioritized) under. Trace files carry the class per
/// request; reports can break SLO attainment down by class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SloClass {
    /// Latency-critical interactive traffic (chat front-ends).
    Interactive,
    /// The default tier for unclassified traffic.
    #[default]
    Standard,
    /// Throughput-oriented background traffic (batch pipelines, evals).
    Batch,
}

impl SloClass {
    /// Every class, in a stable order (the per-class report/array order).
    pub const ALL: [SloClass; 3] = [SloClass::Interactive, SloClass::Standard, SloClass::Batch];

    /// Stable short label, also the on-disk trace-format token.
    pub fn label(&self) -> &'static str {
        match self {
            SloClass::Interactive => "interactive",
            SloClass::Standard => "standard",
            SloClass::Batch => "batch",
        }
    }

    /// Parses a [`Self::label`] back into the class.
    pub fn from_label(label: &str) -> Option<SloClass> {
        SloClass::ALL.into_iter().find(|c| c.label() == label)
    }

    /// The class's position in [`Self::ALL`] (for per-class accumulators).
    pub fn index(&self) -> usize {
        match self {
            SloClass::Interactive => 0,
            SloClass::Standard => 1,
            SloClass::Batch => 2,
        }
    }
}

impl fmt::Display for SloClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A single inference request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Unique id within a generated batch.
    pub id: u64,
    /// Prompt length in tokens.
    pub input_len: u64,
    /// Number of tokens to generate.
    pub gen_len: u64,
    /// Time the request entered the serving queue (zero for offline batches).
    pub arrival: Seconds,
    /// The session (conversation) this request belongs to. Defaults to the
    /// request's own id — the one-shot case; multi-turn traffic shares one
    /// session id across turns (the sticky-routing axis of ROADMAP item 3).
    pub session_id: u64,
    /// The SLO class the request is judged under (defaults to
    /// [`SloClass::Standard`]).
    pub slo_class: SloClass,
}

impl Request {
    /// A request arriving at time zero (the offline, pre-filled-queue case),
    /// in its own one-shot session, under the standard SLO class.
    pub fn new(id: u64, input_len: u64, gen_len: u64) -> Self {
        Request {
            id,
            input_len,
            gen_len,
            arrival: Seconds::ZERO,
            session_id: id,
            slo_class: SloClass::Standard,
        }
    }

    /// Assigns the request to a multi-turn session (builder style).
    pub fn with_session(mut self, session_id: u64) -> Self {
        self.session_id = session_id;
        self
    }

    /// Sets the request's SLO class (builder style).
    pub fn with_slo_class(mut self, slo_class: SloClass) -> Self {
        self.slo_class = slo_class;
        self
    }

    /// Total context length once generation finishes.
    pub fn max_context(&self) -> u64 {
        self.input_len + self.gen_len
    }
}

/// How requests arrive at the serving queue over time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Every request is queued at time zero (offline batch serving, the paper's
    /// evaluation setup).
    Immediate,
    /// Memoryless arrivals: exponential inter-arrival gaps at `rate_per_sec`
    /// requests per second.
    Poisson {
        /// Mean arrival rate in requests per second (must be positive).
        rate_per_sec: f64,
    },
    /// Bursty arrivals: groups of `size` requests land together every
    /// `period_secs` seconds (the first burst at time zero).
    Burst {
        /// Requests per burst (must be positive).
        size: usize,
        /// Seconds between consecutive bursts.
        period_secs: f64,
    },
}

impl ArrivalProcess {
    /// Scales the offered load by `factor` — the fleet-wide arrival sampling
    /// used by cluster serving, where an N-replica fleet is driven at N times
    /// the single-replica rate from *one* shared arrival stream: Poisson rates
    /// multiply, burst periods divide, and immediate arrivals are unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    pub fn scaled(&self, factor: f64) -> ArrivalProcess {
        assert!(factor > 0.0, "load scale factor must be positive");
        match *self {
            ArrivalProcess::Immediate => ArrivalProcess::Immediate,
            ArrivalProcess::Poisson { rate_per_sec } => ArrivalProcess::Poisson {
                rate_per_sec: rate_per_sec * factor,
            },
            ArrivalProcess::Burst { size, period_secs } => ArrivalProcess::Burst {
                size,
                period_secs: period_secs / factor,
            },
        }
    }

    /// Stamps `requests` (in id order) with arrival times drawn from this process.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive Poisson rate or a zero burst size.
    pub fn stamp(&self, requests: &mut [Request], seed: u64) {
        match *self {
            ArrivalProcess::Immediate => {
                for r in requests.iter_mut() {
                    r.arrival = Seconds::ZERO;
                }
            }
            ArrivalProcess::Poisson { rate_per_sec } => {
                assert!(rate_per_sec > 0.0, "Poisson rate must be positive");
                let mut rng = StdRng::seed_from_u64(seed);
                let mut t = 0.0f64;
                for r in requests.iter_mut() {
                    // Inverse-CDF sampling of the exponential gap; 1-u keeps the
                    // argument of ln strictly positive.
                    let u: f64 = rng.gen_range(0.0..1.0);
                    t += -(1.0 - u).ln() / rate_per_sec;
                    r.arrival = Seconds::from_secs(t);
                }
            }
            ArrivalProcess::Burst { size, period_secs } => {
                assert!(size > 0, "burst size must be positive");
                for (i, r) in requests.iter_mut().enumerate() {
                    r.arrival = Seconds::from_secs((i / size) as f64 * period_secs.max(0.0));
                }
            }
        }
    }
}

/// How generation lengths are assigned when synthesizing a request queue
/// (the `gen_len` axis of a serving scenario).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GenLens {
    /// Every request generates exactly this many tokens.
    Uniform(u64),
    /// Generation lengths drawn uniformly from the workload's
    /// `default_gen_lens` — the heterogeneous queue continuous batching is
    /// designed for, where short requests free KV capacity mid-flight.
    MixedDefaults,
}

impl GenLens {
    /// The generation length capacity plans (policies, KV budgets) are sized
    /// for: the uniform length, or the *mean* of the workload defaults for
    /// mixed queues. Provisioning a mixed queue for its expected load admits a
    /// far larger batch than worst-case sizing; keeping the tail within budget
    /// is the batch scheduler's admission-control job.
    pub fn policy_gen_for(&self, spec: &WorkloadSpec) -> u64 {
        match *self {
            GenLens::Uniform(gen) => gen,
            GenLens::MixedDefaults => {
                let lens = &spec.default_gen_lens;
                if lens.is_empty() {
                    1
                } else {
                    (lens.iter().sum::<u64>() as f64 / lens.len() as f64).round() as u64
                }
            }
        }
    }
}

/// A benchmark workload description (Tab. 3 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Workload name, e.g. `"MTBench"`.
    pub name: String,
    /// Average prompt length `s_avg`.
    pub avg_prompt_len: u64,
    /// Maximum prompt length `s_max`.
    pub max_prompt_len: u64,
    /// Default generation length(s) evaluated by the paper.
    pub default_gen_lens: Vec<u64>,
}

impl WorkloadSpec {
    /// MTBench: 80 multi-turn questions replicated for batch inference
    /// (`s_avg` = 77, `s_max` = 418, gen ∈ {32, 64, 128, 256}).
    pub fn mtbench() -> Self {
        WorkloadSpec {
            name: "MTBench".to_owned(),
            avg_prompt_len: 77,
            max_prompt_len: 418,
            default_gen_lens: vec![32, 64, 128, 256],
        }
    }

    /// HELM synthetic reasoning (`s_avg` = 242, `s_max` = 256, gen = 50).
    pub fn synthetic_reasoning() -> Self {
        WorkloadSpec {
            name: "Synthetic Reasoning".to_owned(),
            avg_prompt_len: 242,
            max_prompt_len: 256,
            default_gen_lens: vec![50],
        }
    }

    /// HELM summarization (`s_avg` = 1693, `s_max` = 1984, gen = 64).
    pub fn summarization() -> Self {
        WorkloadSpec {
            name: "Summarization".to_owned(),
            avg_prompt_len: 1693,
            max_prompt_len: 1984,
            default_gen_lens: vec![64],
        }
    }

    /// All three paper workloads.
    pub fn all() -> Vec<WorkloadSpec> {
        vec![
            Self::mtbench(),
            Self::synthetic_reasoning(),
            Self::summarization(),
        ]
    }

    /// Samples `count` requests with the given generation length.
    ///
    /// Prompt lengths are drawn so the sample mean matches `avg_prompt_len` and
    /// the support spans up to `max_prompt_len` (Tab. 3's `s_max`). Workloads
    /// whose maximum sits close to the average (the HELM pair) use a symmetric
    /// uniform spread around the average; workloads with a long tail (MTBench:
    /// `s_avg` = 77 but `s_max` = 418) use a two-component mixture — most
    /// prompts short (uniform in `[1, s_avg]`), a mean-preserving fraction long
    /// (uniform in `[s_avg, s_max]`) — so batch formation actually faces the
    /// length imbalance the paper's Algorithm 2 is designed for.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn sample_requests(&self, count: usize, gen_len: u64, seed: u64) -> Vec<Request> {
        assert!(count > 0, "cannot sample an empty workload");
        let mut rng = StdRng::seed_from_u64(seed);
        let avg = self.avg_prompt_len as f64;
        let up = (self.max_prompt_len - self.avg_prompt_len) as f64;
        let down = (self.avg_prompt_len - 1) as f64;
        // Probability of drawing from the long component; E[uniform(avg, max)]
        // exceeds the average by up/2 and E[uniform(1, avg)] undershoots by
        // down/2, so this weight makes the two offsets cancel exactly.
        let long_fraction = if up + down > 0.0 {
            down / (up + down)
        } else {
            0.0
        };
        (0..count)
            .map(|i| {
                let len = if up <= down {
                    // Narrow spread: symmetric uniform around the average.
                    rng.gen_range((avg - up)..=(avg + up))
                } else if rng.gen_range(0.0..1.0) < long_fraction {
                    rng.gen_range(avg..=(avg + up))
                } else {
                    rng.gen_range((avg - down)..=avg)
                };
                Request::new(
                    i as u64,
                    (len.round().max(1.0) as u64).min(self.max_prompt_len),
                    gen_len,
                )
            })
            .collect()
    }

    /// Samples `count` requests whose generation lengths are drawn uniformly from
    /// the workload's `default_gen_lens` (prompts as in [`Self::sample_requests`]).
    /// This is the heterogeneous-`gen_len` queue continuous batching is designed
    /// for: short requests complete and free KV capacity while long ones decode on.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or the workload has no default generation lengths.
    pub fn sample_requests_mixed_gen(&self, count: usize, seed: u64) -> Vec<Request> {
        assert!(
            !self.default_gen_lens.is_empty(),
            "workload has no default generation lengths"
        );
        let mut requests = self.sample_requests(count, self.default_gen_lens[0], seed);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x9e37_79b9));
        for r in &mut requests {
            r.gen_len = self.default_gen_lens[rng.gen_range(0..self.default_gen_lens.len())];
        }
        requests
    }

    /// Synthesizes the full request queue of a serving scenario: prompt lengths
    /// per the workload (padded systems see every prompt at `max_prompt_len`,
    /// the way FlexGen and MoE-Lightning(p) handle variable-length batches),
    /// generation lengths per `gen` ([`GenLens::Uniform`] or the mixed default
    /// lengths), and arrival times stamped by `arrivals`. This is the
    /// queue-synthesis entry point behind the core crate's `ServeSpec`.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero, if `gen` is [`GenLens::MixedDefaults`] on a
    /// workload without default generation lengths, or if the arrival process
    /// parameters are invalid.
    pub fn synthesize_queue(
        &self,
        count: usize,
        gen: GenLens,
        seed: u64,
        padded: bool,
        arrivals: &ArrivalProcess,
    ) -> Vec<Request> {
        let mut queue = match gen {
            GenLens::Uniform(gen_len) if padded => {
                assert!(count > 0, "cannot sample an empty workload");
                (0..count as u64)
                    .map(|i| Request::new(i, self.max_prompt_len, gen_len))
                    .collect()
            }
            GenLens::Uniform(gen_len) => self.sample_requests(count, gen_len, seed),
            GenLens::MixedDefaults => {
                let mut queue = self.sample_requests_mixed_gen(count, seed);
                if padded {
                    for r in &mut queue {
                        r.input_len = self.max_prompt_len;
                    }
                }
                queue
            }
        };
        arrivals.stamp(&mut queue, seed.wrapping_add(0x51_7c_c1_b7));
        queue
    }

    /// Average prompt length of a request list (tokens).
    pub fn mean_prompt(requests: &[Request]) -> f64 {
        if requests.is_empty() {
            return 0.0;
        }
        requests.iter().map(|r| r.input_len as f64).sum::<f64>() / requests.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table_3() {
        let mt = WorkloadSpec::mtbench();
        assert_eq!((mt.avg_prompt_len, mt.max_prompt_len), (77, 418));
        assert_eq!(mt.default_gen_lens, vec![32, 64, 128, 256]);
        let sr = WorkloadSpec::synthetic_reasoning();
        assert_eq!((sr.avg_prompt_len, sr.max_prompt_len), (242, 256));
        let sum = WorkloadSpec::summarization();
        assert_eq!((sum.avg_prompt_len, sum.max_prompt_len), (1693, 1984));
        assert_eq!(WorkloadSpec::all().len(), 3);
    }

    #[test]
    fn sampled_requests_respect_bounds_and_mean() {
        for spec in WorkloadSpec::all() {
            let reqs = spec.sample_requests(2000, 64, 7);
            assert_eq!(reqs.len(), 2000);
            assert!(reqs
                .iter()
                .all(|r| r.input_len >= 1 && r.input_len <= spec.max_prompt_len));
            assert!(reqs.iter().all(|r| r.gen_len == 64));
            let mean = WorkloadSpec::mean_prompt(&reqs);
            let rel = (mean - spec.avg_prompt_len as f64).abs() / spec.avg_prompt_len as f64;
            assert!(
                rel < 0.25,
                "{}: mean {mean} too far from {}",
                spec.name,
                spec.avg_prompt_len
            );
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let spec = WorkloadSpec::mtbench();
        assert_eq!(
            spec.sample_requests(50, 32, 1),
            spec.sample_requests(50, 32, 1)
        );
        assert_ne!(
            spec.sample_requests(50, 32, 1),
            spec.sample_requests(50, 32, 2)
        );
    }

    #[test]
    fn padded_uniform_queues_use_the_max_prompt() {
        let spec = WorkloadSpec::mtbench();
        let reqs = spec.synthesize_queue(
            10,
            GenLens::Uniform(128),
            5,
            true,
            &ArrivalProcess::Immediate,
        );
        assert!(reqs.iter().all(|r| r.input_len == 418));
        assert_eq!(reqs[3].max_context(), 418 + 128);
        assert!(reqs.iter().enumerate().all(|(i, r)| r.id == i as u64));
    }

    #[test]
    fn request_ids_are_unique_and_sequential() {
        let reqs = WorkloadSpec::synthetic_reasoning().sample_requests(100, 50, 3);
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id, i as u64);
        }
    }

    #[test]
    fn requests_default_to_one_shot_standard_class() {
        let r = Request::new(7, 100, 32);
        assert_eq!(r.session_id, 7, "default session is the request's own id");
        assert_eq!(r.slo_class, SloClass::Standard);
        let r = r.with_session(3).with_slo_class(SloClass::Batch);
        assert_eq!((r.session_id, r.slo_class), (3, SloClass::Batch));
        for class in SloClass::ALL {
            assert_eq!(SloClass::from_label(class.label()), Some(class));
            assert_eq!(SloClass::ALL[class.index()], class);
        }
        assert_eq!(SloClass::from_label("gold"), None);
        assert_eq!(SloClass::Interactive.to_string(), "interactive");
        assert_eq!(SloClass::default(), SloClass::Standard);
    }

    #[test]
    fn mean_prompt_of_empty_slice_is_zero() {
        assert_eq!(WorkloadSpec::mean_prompt(&[]), 0.0);
    }

    #[test]
    fn poisson_arrivals_are_increasing_and_match_the_rate() {
        let spec = WorkloadSpec::mtbench();
        let queue = spec.synthesize_queue(
            2000,
            GenLens::Uniform(64),
            11,
            false,
            &ArrivalProcess::Poisson { rate_per_sec: 4.0 },
        );
        let mut last = Seconds::ZERO;
        for r in &queue {
            assert!(r.arrival >= last, "arrival times must be non-decreasing");
            last = r.arrival;
        }
        // 2000 arrivals at 4 rps take ~500 s; the sample mean gap is within 15%.
        let span = queue.last().unwrap().arrival.as_secs();
        assert!(
            (span - 500.0).abs() / 500.0 < 0.15,
            "2000 arrivals at 4 rps should span ~500 s, got {span}"
        );
    }

    #[test]
    fn scaled_arrivals_multiply_the_offered_load() {
        let poisson = ArrivalProcess::Poisson { rate_per_sec: 2.0 };
        assert_eq!(
            poisson.scaled(4.0),
            ArrivalProcess::Poisson { rate_per_sec: 8.0 }
        );
        let burst = ArrivalProcess::Burst {
            size: 10,
            period_secs: 8.0,
        };
        assert_eq!(
            burst.scaled(4.0),
            ArrivalProcess::Burst {
                size: 10,
                period_secs: 2.0,
            }
        );
        assert_eq!(
            ArrivalProcess::Immediate.scaled(4.0),
            ArrivalProcess::Immediate
        );
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn scaling_by_zero_panics() {
        let _ = ArrivalProcess::Poisson { rate_per_sec: 1.0 }.scaled(0.0);
    }

    #[test]
    fn burst_arrivals_land_in_groups() {
        let mut queue = WorkloadSpec::mtbench().sample_requests(10, 32, 1);
        ArrivalProcess::Burst {
            size: 4,
            period_secs: 10.0,
        }
        .stamp(&mut queue, 0);
        let times: Vec<f64> = queue.iter().map(|r| r.arrival.as_secs()).collect();
        assert_eq!(
            times,
            vec![0.0, 0.0, 0.0, 0.0, 10.0, 10.0, 10.0, 10.0, 20.0, 20.0]
        );
    }

    #[test]
    fn immediate_arrivals_reset_to_zero() {
        let mut queue = WorkloadSpec::mtbench().sample_requests(5, 32, 1);
        ArrivalProcess::Poisson { rate_per_sec: 1.0 }.stamp(&mut queue, 3);
        assert!(queue.iter().any(|r| r.arrival > Seconds::ZERO));
        ArrivalProcess::Immediate.stamp(&mut queue, 3);
        assert!(queue.iter().all(|r| r.arrival == Seconds::ZERO));
    }

    #[test]
    fn mixed_gen_sampling_uses_the_workload_gen_lens() {
        let spec = WorkloadSpec::mtbench();
        let queue = spec.sample_requests_mixed_gen(500, 7);
        assert_eq!(queue.len(), 500);
        for r in &queue {
            assert!(spec.default_gen_lens.contains(&r.gen_len));
        }
        // With 4 candidate lengths and 500 draws, every length shows up.
        for gen in &spec.default_gen_lens {
            assert!(
                queue.iter().any(|r| r.gen_len == *gen),
                "gen_len {gen} never sampled"
            );
        }
        assert_eq!(
            spec.sample_requests_mixed_gen(500, 7),
            spec.sample_requests_mixed_gen(500, 7)
        );
    }

    #[test]
    fn synthesize_queue_covers_every_scenario_axis() {
        let spec = WorkloadSpec::mtbench();
        // Uniform gen, unpadded, immediate: the plain sample.
        let uniform = spec.synthesize_queue(
            30,
            GenLens::Uniform(64),
            5,
            false,
            &ArrivalProcess::Immediate,
        );
        assert_eq!(uniform, spec.sample_requests(30, 64, 5));
        // Mixed gen draws from the workload defaults.
        let mixed = spec.synthesize_queue(
            200,
            GenLens::MixedDefaults,
            5,
            false,
            &ArrivalProcess::Immediate,
        );
        assert!(mixed
            .iter()
            .all(|r| spec.default_gen_lens.contains(&r.gen_len)));
        assert!(mixed.iter().any(|r| r.gen_len != mixed[0].gen_len));
        // Padded + mixed: prompts at the maximum, gen lengths still mixed.
        let padded = spec.synthesize_queue(
            200,
            GenLens::MixedDefaults,
            5,
            true,
            &ArrivalProcess::Immediate,
        );
        assert!(padded.iter().all(|r| r.input_len == spec.max_prompt_len));
        assert!(padded.iter().any(|r| r.gen_len != padded[0].gen_len));
        // Arrivals are stamped.
        let online = spec.synthesize_queue(
            50,
            GenLens::Uniform(32),
            5,
            false,
            &ArrivalProcess::Poisson { rate_per_sec: 2.0 },
        );
        assert!(online.iter().any(|r| r.arrival > Seconds::ZERO));
    }

    #[test]
    fn policy_sizing_uses_the_expected_generation_length() {
        let spec = WorkloadSpec::mtbench();
        assert_eq!(GenLens::Uniform(96).policy_gen_for(&spec), 96);
        // Mean of {32, 64, 128, 256}.
        assert_eq!(GenLens::MixedDefaults.policy_gen_for(&spec), 120);
        assert_eq!(
            GenLens::MixedDefaults.policy_gen_for(&WorkloadSpec::summarization()),
            64
        );
    }

    #[test]
    #[should_panic(expected = "empty workload")]
    fn sampling_zero_requests_panics() {
        WorkloadSpec::mtbench().sample_requests(0, 32, 1);
    }
}
