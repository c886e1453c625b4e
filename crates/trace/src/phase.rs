//! Phase sampling: compress a day-long trace into K representative slices.
//!
//! A million-user day is far too much traffic to simulate end to end, but it
//! is also highly redundant: traffic moves through a handful of *phases*
//! (overnight trough, morning ramp, lunchtime plateau, an incident burst …)
//! and windows within one phase are statistically interchangeable. The
//! sampler exploits that:
//!
//! 1. cut the trace into fixed-duration windows,
//! 2. featurize each window (arrival rate, prompt/generation mix, session
//!    churn, SLO-class mix),
//! 3. k-means the feature vectors into K phases (seeded k-means++, so the
//!    plan is deterministic),
//! 4. simulate only each phase's most central window and weight its report
//!    by the phase's total duration.
//!
//! [`estimate_day`] reconstitutes whole-day estimates (throughput, goodput,
//! SLO attainment, TTFT percentiles) from the weighted per-slice reports.

use crate::format::Trace;
use moe_hardware::Seconds;
use moe_lightning::{ClusterReport, SloSpec};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Number of features describing one window.
pub const FEATURES: usize = 6;

/// Lloyd-iteration cap of the k-means clustering.
const MAX_ITERS: usize = 50;

/// How to window and cluster a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseConfig {
    /// Window duration (must be positive).
    pub window: Seconds,
    /// Number of phases to cluster into (clamped to the window count).
    pub k: usize,
    /// Seed for k-means++ initialization (the plan is deterministic in it).
    pub seed: u64,
}

impl PhaseConfig {
    /// A config windowing the trace by `window` into `k` phases.
    pub fn new(window: Seconds, k: usize, seed: u64) -> Self {
        PhaseConfig { window, k, seed }
    }
}

/// One fixed-duration window of the trace, featurized.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseWindow {
    /// Window index (window `i` covers `[i*window, (i+1)*window)`).
    pub index: usize,
    /// Number of requests arriving in the window.
    pub requests: usize,
    /// Raw (un-normalized) features: `[arrival_rate, mean_input_len,
    /// mean_gen_len, session_churn, frac_interactive, frac_batch]`.
    pub features: [f64; FEATURES],
}

/// One phase: a set of interchangeable windows represented by the most
/// central one.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSlice {
    /// Phase (cluster) index.
    pub cluster: usize,
    /// Index of the representative window (simulate this one).
    pub representative: usize,
    /// Indices of every window assigned to the phase (the representative
    /// included).
    pub members: Vec<usize>,
    /// Total duration this phase stands for: `members.len() × window`.
    pub weight: Seconds,
}

/// The output of [`sample_phases`]: the windowing plus the phase clustering.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasePlan {
    /// The window duration the plan was built with.
    pub window: Seconds,
    /// Every window, in time order.
    pub windows: Vec<PhaseWindow>,
    /// The phases, in cluster-index order. Every window belongs to exactly
    /// one phase, so the slice weights sum to the windowed duration.
    pub slices: Vec<PhaseSlice>,
}

impl PhasePlan {
    /// The duration the windows tile: `windows.len() × window`.
    pub fn windowed_duration(&self) -> Seconds {
        self.window.scale(self.windows.len() as f64)
    }

    /// Number of requests that would be simulated under the plan (the
    /// representatives' request counts).
    pub fn simulated_requests(&self) -> usize {
        self.slices
            .iter()
            .map(|s| self.windows[s.representative].requests)
            .sum()
    }

    /// Cuts `trace` down to one slice's representative window, rebased to
    /// time zero.
    pub fn slice_trace(&self, trace: &Trace, slice: &PhaseSlice) -> Trace {
        let start = self.window.scale(slice.representative as f64);
        trace.slice(start, start + self.window)
    }
}

/// Windows, featurizes and clusters `trace` into at most `config.k` phases.
///
/// # Panics
///
/// Panics if the trace is empty, the window is not positive, or `k` is zero.
pub fn sample_phases(trace: &Trace, config: &PhaseConfig) -> PhasePlan {
    assert!(!trace.is_empty(), "cannot phase-sample an empty trace");
    assert!(config.window.as_secs() > 0.0, "window must be positive");
    assert!(config.k > 0, "need at least one phase");

    let windows = featurize(trace, config.window);
    let points = normalize(&windows);
    let k = config.k.min(points.len());
    let assignment = kmeans(&points, k, config.seed);

    let mut slices = Vec::with_capacity(k);
    for cluster in 0..k {
        let members: Vec<usize> = (0..points.len())
            .filter(|&w| assignment.labels[w] == cluster)
            .collect();
        if members.is_empty() {
            continue;
        }
        let representative = members
            .iter()
            .copied()
            .min_by(|&a, &b| {
                distance2(&points[a], &assignment.centroids[cluster])
                    .total_cmp(&distance2(&points[b], &assignment.centroids[cluster]))
            })
            .expect("non-empty member list");
        slices.push(PhaseSlice {
            cluster,
            representative,
            weight: config.window.scale(members.len() as f64),
            members,
        });
    }
    PhasePlan {
        window: config.window,
        windows,
        slices,
    }
}

/// Cuts the trace into windows and computes each window's raw features.
fn featurize(trace: &Trace, window: Seconds) -> Vec<PhaseWindow> {
    let span = trace.duration().as_secs();
    let count = (span / window.as_secs()).floor() as usize + 1;
    let mut per_window: Vec<Vec<&moe_workload::Request>> = vec![Vec::new(); count];
    for r in trace.requests() {
        let w = ((r.arrival.as_secs() / window.as_secs()).floor() as usize).min(count - 1);
        per_window[w].push(r);
    }
    let mut seen_sessions = std::collections::BTreeSet::new();
    per_window
        .into_iter()
        .enumerate()
        .map(|(index, requests)| {
            let n = requests.len();
            let mut new_sessions = 0usize;
            let (mut input_sum, mut gen_sum) = (0u64, 0u64);
            let (mut interactive, mut batch) = (0usize, 0usize);
            for r in &requests {
                if seen_sessions.insert(r.session_id) {
                    new_sessions += 1;
                }
                input_sum += r.input_len;
                gen_sum += r.gen_len;
                match r.slo_class {
                    moe_workload::SloClass::Interactive => interactive += 1,
                    moe_workload::SloClass::Batch => batch += 1,
                    moe_workload::SloClass::Standard => {}
                }
            }
            let nf = n as f64;
            let features = if n == 0 {
                [0.0; FEATURES]
            } else {
                [
                    nf / window.as_secs(),
                    input_sum as f64 / nf,
                    gen_sum as f64 / nf,
                    new_sessions as f64 / nf,
                    interactive as f64 / nf,
                    batch as f64 / nf,
                ]
            };
            PhaseWindow {
                index,
                requests: n,
                features,
            }
        })
        .collect()
}

/// Min-max normalizes each feature dimension across windows (constant
/// dimensions collapse to zero so they do not dominate distances).
fn normalize(windows: &[PhaseWindow]) -> Vec<[f64; FEATURES]> {
    let mut lo = [f64::INFINITY; FEATURES];
    let mut hi = [f64::NEG_INFINITY; FEATURES];
    for w in windows {
        for d in 0..FEATURES {
            lo[d] = lo[d].min(w.features[d]);
            hi[d] = hi[d].max(w.features[d]);
        }
    }
    windows
        .iter()
        .map(|w| {
            let mut p = [0.0; FEATURES];
            for d in 0..FEATURES {
                let range = hi[d] - lo[d];
                if range > 0.0 {
                    p[d] = (w.features[d] - lo[d]) / range;
                }
            }
            p
        })
        .collect()
}

fn distance2(a: &[f64; FEATURES], b: &[f64; FEATURES]) -> f64 {
    (0..FEATURES).map(|d| (a[d] - b[d]) * (a[d] - b[d])).sum()
}

struct KmeansResult {
    labels: Vec<usize>,
    centroids: Vec<[f64; FEATURES]>,
}

/// Seeded k-means++ initialization followed by Lloyd iterations. Ties break
/// toward the lowest index everywhere, so the result is deterministic.
fn kmeans(points: &[[f64; FEATURES]], k: usize, seed: u64) -> KmeansResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut centroids: Vec<[f64; FEATURES]> = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..points.len())]);
    while centroids.len() < k {
        let dists: Vec<f64> = points
            .iter()
            .map(|p| {
                centroids
                    .iter()
                    .map(|c| distance2(p, c))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let total: f64 = dists.iter().sum();
        let next = if total > 0.0 {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = points.len() - 1;
            for (i, d) in dists.iter().enumerate() {
                if target < *d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            chosen
        } else {
            // All points coincide with a centroid; any pick is equivalent.
            rng.gen_range(0..points.len())
        };
        centroids.push(points[next]);
    }

    let mut labels = vec![0usize; points.len()];
    for _ in 0..MAX_ITERS {
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let nearest = (0..k)
                .min_by(|&a, &b| {
                    distance2(p, &centroids[a]).total_cmp(&distance2(p, &centroids[b]))
                })
                .expect("k > 0");
            if labels[i] != nearest {
                labels[i] = nearest;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        for (cluster, centroid) in centroids.iter_mut().enumerate() {
            let mut sum = [0.0; FEATURES];
            let mut count = 0usize;
            for (i, p) in points.iter().enumerate() {
                if labels[i] == cluster {
                    for (acc, value) in sum.iter_mut().zip(p.iter()) {
                        *acc += value;
                    }
                    count += 1;
                }
            }
            if count > 0 {
                for acc in &mut sum {
                    *acc /= count as f64;
                }
                *centroid = sum;
            }
        }
    }
    KmeansResult { labels, centroids }
}

/// A whole-day estimate reconstituted from weighted per-slice runs.
#[derive(Debug, Clone, PartialEq)]
pub struct DayEstimate {
    /// Arrival span of the full trace.
    pub full_duration: Seconds,
    /// Requests actually simulated (the representatives only).
    pub simulated_requests: usize,
    /// Requests the estimate stands for (members-weighted).
    pub estimated_requests: usize,
    /// Estimated fleet generation throughput in tokens/s over the windowed
    /// duration.
    pub throughput: f64,
    /// Estimated goodput in tokens/s (SLO-attaining tokens over the windowed
    /// duration).
    pub goodput: f64,
    /// Estimated percentage (0–100) of all requests meeting the SLO.
    pub slo_attainment_pct: f64,
    /// Weighted TTFT percentiles across the slice runs.
    pub ttft_p50: Seconds,
    /// 90th-percentile TTFT.
    pub ttft_p90: Seconds,
    /// 99th-percentile TTFT.
    pub ttft_p99: Seconds,
}

/// Runs each phase's representative slice through `run_slice` and
/// reconstitutes whole-day estimates, weighting every slice report by its
/// phase's window count. Slices whose representative window is empty are
/// skipped (they stand for idle time).
///
/// # Errors
///
/// Propagates the first error `run_slice` returns.
pub fn estimate_day<E>(
    trace: &Trace,
    plan: &PhasePlan,
    slo: &SloSpec,
    mut run_slice: impl FnMut(&Trace) -> Result<ClusterReport, E>,
) -> Result<DayEstimate, E> {
    let mut simulated = 0usize;
    let mut estimated = 0usize;
    let mut attained_weighted = 0usize;
    let mut gen_tokens = 0.0f64;
    let mut attained_tokens = 0.0f64;
    let mut ttft_samples: Vec<(Seconds, f64)> = Vec::new();

    for slice in &plan.slices {
        let rep = plan.slice_trace(trace, slice);
        if rep.is_empty() {
            continue;
        }
        let report = run_slice(&rep)?;
        let weight = slice.members.len();
        simulated += report.total_requests();
        estimated += weight * report.total_requests();
        gen_tokens += weight as f64 * report.totals.generated_tokens as f64;
        for latency in report.latencies() {
            ttft_samples.push((latency.ttft, weight as f64));
            if slo.attained(&latency) {
                attained_weighted += weight;
                attained_tokens += weight as f64 * latency.request.gen_len as f64;
            }
        }
    }

    let span = plan.windowed_duration().as_secs();
    Ok(DayEstimate {
        full_duration: trace.duration(),
        simulated_requests: simulated,
        estimated_requests: estimated,
        throughput: if span > 0.0 { gen_tokens / span } else { 0.0 },
        goodput: if span > 0.0 {
            attained_tokens / span
        } else {
            0.0
        },
        slo_attainment_pct: if estimated > 0 {
            100.0 * attained_weighted as f64 / estimated as f64
        } else {
            0.0
        },
        ttft_p50: weighted_percentile(&mut ttft_samples, 50.0),
        ttft_p90: weighted_percentile(&mut ttft_samples, 90.0),
        ttft_p99: weighted_percentile(&mut ttft_samples, 99.0),
    })
}

/// Weighted nearest-rank percentile: the smallest sample whose cumulative
/// weight reaches `pct`% of the total.
fn weighted_percentile(samples: &mut [(Seconds, f64)], pct: f64) -> Seconds {
    if samples.is_empty() {
        return Seconds::ZERO;
    }
    samples.sort_by_key(|(t, _)| t.key());
    let total: f64 = samples.iter().map(|(_, w)| w).sum();
    let target = total * pct / 100.0;
    let mut cumulative = 0.0;
    for (t, w) in samples.iter() {
        cumulative += w;
        if cumulative >= target {
            return *t;
        }
    }
    samples[samples.len() - 1].0
}
