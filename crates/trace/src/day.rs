//! Synthetic day generator: a diurnal, sessionful, multi-class arrival
//! stream for exercising the recorder/replayer/phase-sampler at day scale
//! without a production trace.
//!
//! The offered rate follows a sinusoid over the day (trough at time zero,
//! peak mid-day), multiplied by any overlapping [`DaySegment`]s — a lunch
//! spike, a failover burst shunting a neighbouring region's traffic in, a
//! maintenance drain. Arrivals are drawn by thinning an upper-bounding
//! Poisson process, so the stream is an exact inhomogeneous Poisson sample.
//! Prompt/generation lengths come from the configured [`WorkloadSpec`];
//! sessions follow a sticky-reuse model; SLO-class mix shifts with daylight
//! (interactive traffic peaks mid-day, batch traffic owns the night).

use crate::format::Trace;
use moe_hardware::Seconds;
use moe_workload::{SloClass, WorkloadSpec};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A time-bounded rate multiplier layered on the diurnal baseline (a spike,
/// a failover burst, a drain — anything that scales offered load).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DaySegment {
    /// When the segment begins.
    pub start: Seconds,
    /// How long it lasts.
    pub duration: Seconds,
    /// Factor applied to the instantaneous rate while active (must be
    /// non-negative; `> 1` is a surge, `< 1` a dip).
    pub rate_multiplier: f64,
}

impl DaySegment {
    /// Whether the segment is active at time `t`.
    fn active_at(&self, t: Seconds) -> bool {
        t.key() >= self.start.key() && t.key() < (self.start + self.duration).key()
    }
}

/// Parameters of one synthetic day. Build with [`DaySpec::new`] plus the
/// `with_*` builders, then call [`DaySpec::synthesize`].
#[derive(Debug, Clone, PartialEq)]
pub struct DaySpec {
    /// The workload prompt/generation lengths are sampled from.
    pub workload: WorkloadSpec,
    /// Length of the day.
    pub duration: Seconds,
    /// Mean offered rate in requests/s before diurnal/segment modulation.
    pub base_rate: f64,
    /// Diurnal swing in `[0, 1)`: the rate moves between
    /// `base_rate × (1 ± amplitude)` over the day.
    pub diurnal_amplitude: f64,
    /// Extra rate segments (spikes, bursts, dips).
    pub segments: Vec<DaySegment>,
    /// Probability in `[0, 1)` that a request continues a recent session
    /// instead of opening a new one.
    pub session_stickiness: f64,
    /// Seed: the day is deterministic in it.
    pub seed: u64,
}

impl DaySpec {
    /// A plain diurnal day (40% swing, 30% session stickiness, no segments).
    pub fn new(workload: WorkloadSpec, duration: Seconds, base_rate: f64, seed: u64) -> Self {
        DaySpec {
            workload,
            duration,
            base_rate,
            diurnal_amplitude: 0.4,
            segments: Vec::new(),
            session_stickiness: 0.3,
            seed,
        }
    }

    /// Adds a rate segment (builder-style; segments may overlap, their
    /// multipliers compound).
    pub fn with_segment(mut self, start: Seconds, duration: Seconds, rate_multiplier: f64) -> Self {
        self.segments.push(DaySegment {
            start,
            duration,
            rate_multiplier,
        });
        self
    }

    /// Sets the probability a request continues a recent session.
    pub fn with_session_stickiness(mut self, stickiness: f64) -> Self {
        self.session_stickiness = stickiness;
        self
    }

    /// Daylight factor in `[0, 1]`: 0 at the start/end of the day (trough),
    /// 1 mid-day (peak).
    fn daylight(&self, t: Seconds) -> f64 {
        let phase = 2.0 * std::f64::consts::PI * t.as_secs() / self.duration.as_secs();
        ((1.0 + (phase - std::f64::consts::FRAC_PI_2).sin()) / 2.0).clamp(0.0, 1.0)
    }

    /// Instantaneous offered rate at time `t`.
    pub fn rate_at(&self, t: Seconds) -> f64 {
        let mut rate =
            self.base_rate * (1.0 + self.diurnal_amplitude * (2.0 * self.daylight(t) - 1.0));
        for segment in &self.segments {
            if segment.active_at(t) {
                rate *= segment.rate_multiplier;
            }
        }
        rate.max(0.0)
    }

    /// An upper bound on [`DaySpec::rate_at`] over the whole day (the
    /// thinning envelope).
    fn rate_max(&self) -> f64 {
        self.segments
            .iter()
            .fold(self.base_rate * (1.0 + self.diurnal_amplitude), |acc, s| {
                acc * s.rate_multiplier.max(1.0)
            })
    }

    /// Samples the day into a [`Trace`].
    ///
    /// # Panics
    ///
    /// Panics if the duration or base rate is not positive, or the diurnal
    /// amplitude / session stickiness leave `[0, 1)`.
    pub fn synthesize(&self) -> Trace {
        assert!(
            self.duration.as_secs() > 0.0,
            "day duration must be positive"
        );
        assert!(self.base_rate > 0.0, "base rate must be positive");
        assert!(
            (0.0..1.0).contains(&self.diurnal_amplitude),
            "diurnal amplitude must be in [0, 1)"
        );
        assert!(
            (0.0..1.0).contains(&self.session_stickiness),
            "session stickiness must be in [0, 1)"
        );

        // Thinning: exponential gaps at the envelope rate, accepted with
        // probability rate(t)/rate_max — an exact inhomogeneous sample.
        let rate_max = self.rate_max();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut arrivals: Vec<Seconds> = Vec::new();
        let mut t = 0.0f64;
        loop {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / rate_max;
            if t >= self.duration.as_secs() {
                break;
            }
            let stamp = Seconds::from_secs(t);
            let accept: f64 = rng.gen_range(0.0..1.0);
            if accept < self.rate_at(stamp) / rate_max {
                arrivals.push(stamp);
            }
        }
        if arrivals.is_empty() {
            return Trace::default();
        }

        // Lengths from the workload (mixed generation lengths when the
        // workload defines more than one default).
        let mut requests = if self.workload.default_gen_lens.len() > 1 {
            self.workload
                .sample_requests_mixed_gen(arrivals.len(), self.seed)
        } else {
            let gen_len = self
                .workload
                .default_gen_lens
                .first()
                .copied()
                .unwrap_or(64);
            self.workload
                .sample_requests(arrivals.len(), gen_len, self.seed)
        };

        // Sessions and SLO classes from an independent stream, so length
        // sampling stays comparable across stickiness settings.
        let mut meta_rng = StdRng::seed_from_u64(self.seed.wrapping_add(0xda_7a_da_7a));
        let mut next_session = 0u64;
        let mut active: Vec<u64> = Vec::with_capacity(64);
        for (request, stamp) in requests.iter_mut().zip(&arrivals) {
            request.arrival = *stamp;
            let sticky: f64 = meta_rng.gen_range(0.0..1.0);
            request.session_id = if sticky < self.session_stickiness && !active.is_empty() {
                active[meta_rng.gen_range(0..active.len())]
            } else {
                let id = next_session;
                next_session += 1;
                if active.len() == 64 {
                    active[(id % 64) as usize] = id;
                } else {
                    active.push(id);
                }
                id
            };
            // Interactive traffic peaks with daylight; batch owns the night.
            let daylight = self.daylight(*stamp);
            let p_interactive = 0.25 + 0.40 * daylight;
            let p_batch = (0.55 - 0.40 * daylight).max(0.05);
            let class: f64 = meta_rng.gen_range(0.0..1.0);
            request.slo_class = if class < p_interactive {
                SloClass::Interactive
            } else if class < p_interactive + p_batch {
                SloClass::Batch
            } else {
                SloClass::Standard
            };
        }
        Trace::new(requests)
    }
}
