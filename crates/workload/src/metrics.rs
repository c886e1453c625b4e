//! Throughput and latency metrics.
//!
//! The paper's evaluation reports *generation throughput* — generated tokens
//! divided by total time (prefill + decode) — per batch ([`BatchRunReport`]).
//! Request-level serving additionally tracks per-request latency
//! ([`RequestLatency`]): time to first token, average per-token time and
//! completion time, summarized as percentiles ([`LatencySummary`]).

use crate::spec::Request;
use moe_hardware::Seconds;

/// Outcome of running (or simulating) one batch of requests. `Default` is the
/// all-zero report, the identity of [`BatchRunReport::combine`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchRunReport {
    /// Number of requests in the batch.
    pub requests: u64,
    /// Prompt tokens processed during prefill.
    pub prompt_tokens: u64,
    /// Tokens generated during decode.
    pub generated_tokens: u64,
    /// Time spent in the prefill stage.
    pub prefill_time: Seconds,
    /// Time spent in the decode stage.
    pub decode_time: Seconds,
    /// Sum over requests of each request's mean per-token decode latency. Its
    /// request-weighted mean stays correct under [`Self::combine`] even when
    /// rounds have different request counts (dividing the combined decode time
    /// by the *global* mean tokens-per-request does not).
    pub per_token_sum: Seconds,
}

impl BatchRunReport {
    /// Builds the report of one uniform round: every request decodes
    /// `generated_tokens / requests` tokens in lock-step over `decode_time`, so
    /// each request's mean per-token latency is `decode_time · requests /
    /// generated_tokens`.
    pub fn uniform_round(
        requests: u64,
        prompt_tokens: u64,
        generated_tokens: u64,
        prefill_time: Seconds,
        decode_time: Seconds,
    ) -> Self {
        let per_token_sum = if generated_tokens == 0 {
            Seconds::ZERO
        } else {
            decode_time.scale(requests as f64 * requests as f64 / generated_tokens as f64)
        };
        BatchRunReport {
            requests,
            prompt_tokens,
            generated_tokens,
            prefill_time,
            decode_time,
            per_token_sum,
        }
    }
    /// Total wall-clock time.
    pub fn total_time(&self) -> Seconds {
        self.prefill_time + self.decode_time
    }

    /// Generation throughput in tokens/s (the paper's headline metric):
    /// generated tokens / (prefill time + decode time).
    pub fn generation_throughput(&self) -> f64 {
        let t = self.total_time().as_secs();
        if t <= 0.0 {
            return 0.0;
        }
        self.generated_tokens as f64 / t
    }

    /// Decode-only throughput in tokens/s.
    pub fn decode_throughput(&self) -> f64 {
        let t = self.decode_time.as_secs();
        if t <= 0.0 {
            return 0.0;
        }
        self.generated_tokens as f64 / t
    }

    /// Combines two reports (e.g. successive batches of one long run).
    pub fn combine(&self, other: &BatchRunReport) -> BatchRunReport {
        BatchRunReport {
            requests: self.requests + other.requests,
            prompt_tokens: self.prompt_tokens + other.prompt_tokens,
            generated_tokens: self.generated_tokens + other.generated_tokens,
            prefill_time: self.prefill_time + other.prefill_time,
            decode_time: self.decode_time + other.decode_time,
            per_token_sum: self.per_token_sum + other.per_token_sum,
        }
    }
}

/// Per-request latency record produced by the serving loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestLatency {
    /// The request this record describes.
    pub request: Request,
    /// Zero-based index of the serving round (round-to-completion mode) or
    /// admission wave (continuous mode) the request was admitted in.
    pub round: usize,
    /// Time from the request's *arrival* to its first generated token — the
    /// queue-aware TTFT: it includes waiting behind earlier work plus the
    /// admitting round's prefill and first decode step.
    pub ttft: Seconds,
    /// Average latency of one generated token once decoding has started
    /// (including any mid-flight prefill stalls from later admission waves).
    pub per_token: Seconds,
    /// Time from the request's arrival to its last generated token.
    pub completion_time: Seconds,
}

/// Summary statistics over a set of latency samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: Seconds,
    /// 50th percentile (median).
    pub p50: Seconds,
    /// 90th percentile.
    pub p90: Seconds,
    /// 99th percentile.
    pub p99: Seconds,
    /// Largest sample.
    pub max: Seconds,
}

impl LatencySummary {
    /// Summarizes `samples` (percentiles by nearest-rank; all-zero for an empty
    /// slice).
    pub fn from_samples(samples: &[Seconds]) -> Self {
        if samples.is_empty() {
            return LatencySummary {
                count: 0,
                mean: Seconds::ZERO,
                p50: Seconds::ZERO,
                p90: Seconds::ZERO,
                p99: Seconds::ZERO,
                max: Seconds::ZERO,
            };
        }
        let mut sorted: Vec<f64> = samples.iter().map(|s| s.as_secs()).collect();
        sorted.sort_by(f64::total_cmp);
        let pct = |p: f64| {
            let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
            Seconds::from_secs(sorted[rank.clamp(1, sorted.len()) - 1])
        };
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        LatencySummary {
            count: sorted.len(),
            mean: Seconds::from_secs(mean),
            p50: pct(50.0),
            p90: pct(90.0),
            p99: pct(99.0),
            max: Seconds::from_secs(*sorted.last().expect("non-empty")),
        }
    }

    /// Summarizes the time-to-first-token of `latencies`.
    pub fn ttft(latencies: &[RequestLatency]) -> Self {
        Self::from_samples(&latencies.iter().map(|l| l.ttft).collect::<Vec<_>>())
    }

    /// Summarizes the average per-token latency of `latencies`.
    pub fn per_token(latencies: &[RequestLatency]) -> Self {
        Self::from_samples(&latencies.iter().map(|l| l.per_token).collect::<Vec<_>>())
    }

    /// Summarizes the completion time of `latencies`.
    pub fn completion(latencies: &[RequestLatency]) -> Self {
        Self::from_samples(
            &latencies
                .iter()
                .map(|l| l.completion_time)
                .collect::<Vec<_>>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> BatchRunReport {
        BatchRunReport::uniform_round(
            500,
            500 * 77,
            500 * 128,
            Seconds::from_secs(100.0),
            Seconds::from_secs(1900.0),
        )
    }

    #[test]
    fn generation_throughput_divides_by_total_time() {
        let r = report();
        assert!((r.generation_throughput() - 32.0).abs() < 1e-9);
        assert!((r.decode_throughput() - 64000.0 / 1900.0).abs() < 1e-9);
        assert!(r.decode_throughput() > r.generation_throughput());
    }

    #[test]
    fn degenerate_reports_do_not_divide_by_zero() {
        let zero = BatchRunReport::default();
        assert_eq!(zero.generation_throughput(), 0.0);
        assert_eq!(zero.decode_throughput(), 0.0);
    }

    #[test]
    fn per_token_sum_is_request_weighted_after_combine() {
        // Round A: 2 requests × 32 tokens over 64 s of decode → 2 s/token each.
        // Round B: 1 request × 128 tokens over 128 s of decode → 1 s/token.
        // The request-weighted mean is (2·2 + 1·1)/3 = 5/3 s/token; dividing the
        // combined decode time by the global mean tokens-per-request (the old
        // formula) gives 192/(192/3) = 3 s/token, overstating it by 80%.
        let a = BatchRunReport::uniform_round(2, 0, 64, Seconds::ZERO, Seconds::from_secs(64.0));
        let b = BatchRunReport::uniform_round(1, 0, 128, Seconds::ZERO, Seconds::from_secs(128.0));
        let mean = |r: &BatchRunReport| r.per_token_sum.as_secs() / r.requests as f64;
        assert!((mean(&a) - 2.0).abs() < 1e-9);
        assert!((mean(&b) - 1.0).abs() < 1e-9);
        let combined = a.combine(&b);
        assert!(
            (mean(&combined) - 5.0 / 3.0).abs() < 1e-9,
            "combined per-token latency must be the request-weighted mean, got {}",
            mean(&combined)
        );
        // Combining in the other order gives the same answer.
        assert_eq!(mean(&b.combine(&a)), mean(&combined));
    }

    #[test]
    fn combine_adds_all_fields() {
        let r = report();
        let double = r.combine(&r);
        assert_eq!(double.requests, 1000);
        assert_eq!(double.generated_tokens, 128_000);
        assert!((double.total_time().as_secs() - 4000.0).abs() < 1e-9);
        assert!((double.generation_throughput() - r.generation_throughput()).abs() < 1e-9);
    }

    #[test]
    fn latency_summary_percentiles_use_nearest_rank() {
        let samples: Vec<Seconds> = (1..=100)
            .map(|i| Seconds::from_secs(f64::from(i)))
            .collect();
        let s = LatencySummary::from_samples(&samples);
        assert_eq!(s.count, 100);
        assert!((s.p50.as_secs() - 50.0).abs() < 1e-9);
        assert!((s.p90.as_secs() - 90.0).abs() < 1e-9);
        assert!((s.p99.as_secs() - 99.0).abs() < 1e-9);
        assert!((s.max.as_secs() - 100.0).abs() < 1e-9);
        assert!((s.mean.as_secs() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn latency_summary_of_empty_slice_is_zero() {
        let s = LatencySummary::from_samples(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, Seconds::ZERO);
        assert_eq!(s.p99, Seconds::ZERO);
    }

    #[test]
    fn latency_summary_selectors_pick_the_right_field() {
        let req = Request::new(0, 10, 4);
        let latencies = [
            RequestLatency {
                request: req,
                round: 0,
                ttft: Seconds::from_secs(1.0),
                per_token: Seconds::from_secs(0.5),
                completion_time: Seconds::from_secs(3.0),
            },
            RequestLatency {
                request: Request { id: 1, ..req },
                round: 1,
                ttft: Seconds::from_secs(3.0),
                per_token: Seconds::from_secs(0.7),
                completion_time: Seconds::from_secs(5.0),
            },
        ];
        assert!((LatencySummary::ttft(&latencies).mean.as_secs() - 2.0).abs() < 1e-9);
        assert!((LatencySummary::per_token(&latencies).mean.as_secs() - 0.6).abs() < 1e-9);
        assert!((LatencySummary::completion(&latencies).max.as_secs() - 5.0).abs() < 1e-9);
    }
}
