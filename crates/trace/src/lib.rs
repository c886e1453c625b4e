//! Trace-driven workloads for the MoE-Lightning reproduction: record,
//! replay, and phase-sample a million-user day.
//!
//! * [`mod@format`] — the versioned `MOETRACE` text format: [`Trace`] with
//!   reader/writer, slice/stats tooling, typed [`TraceError`]s.
//! * [`record`] — [`TraceRecorder`], a `TelemetrySink` that turns any
//!   serving run into a serialized trace of its realized arrival stream plus
//!   an outcome sidecar.
//! * [`outcome`] — the [`OutcomeLog`] sidecar: each request's terminal
//!   verdict (completed / rejected / aborted, with its finish time), in a
//!   versioned text format next to the trace.
//! * [`replay`] — feeding a trace back as an explicit queue
//!   ([`Trace::replay_into_cluster`] for a fleet, `ServeSpec::with_queue` of
//!   [`Trace::queue`] for one node), deterministically: replaying a recorded
//!   trace through the originating spec reproduces its report bit-for-bit.
//! * [`phase`] — the phase sampler: window a day-long trace, featurize and
//!   k-means the windows into K representative slices, and reconstitute
//!   whole-day estimates from weighted per-slice runs ([`estimate_day`]).
//! * [`day`] — a synthetic day generator (diurnal sinusoid, spike and
//!   failover-burst segments, sticky sessions, daylight-driven SLO-class
//!   mix) for exercising the pipeline at day scale.
//!
//! # Examples
//!
//! Round-trip a synthetic stream through the text format:
//!
//! ```
//! use moe_hardware::Seconds;
//! use moe_trace::{DaySpec, Trace};
//! use moe_workload::WorkloadSpec;
//!
//! let day = DaySpec::new(WorkloadSpec::mtbench(), Seconds::from_secs(120.0), 2.0, 7);
//! let trace = day.synthesize();
//! let reparsed = Trace::parse(&trace.render()).unwrap();
//! assert_eq!(reparsed, trace);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod day;
pub mod format;
pub mod outcome;
pub mod phase;
pub mod record;
pub mod replay;

pub use day::{DaySegment, DaySpec};
pub use format::{Trace, TraceError, TraceStats, TRACE_MAGIC, TRACE_VERSION};
pub use outcome::{OutcomeKind, OutcomeLog, RequestOutcome, OUTCOME_MAGIC};
pub use phase::{
    estimate_day, sample_phases, DayEstimate, PhaseConfig, PhasePlan, PhaseSlice, PhaseWindow,
};
pub use record::TraceRecorder;

#[cfg(test)]
mod tests {
    use super::*;
    use moe_hardware::Seconds;
    use moe_workload::{Request, SloClass, WorkloadSpec};

    fn stamped(id: u64, at: f64) -> Request {
        let mut r = Request::new(id, 64 + id % 5, 16 + id % 3);
        r.arrival = Seconds::from_secs(at);
        r
    }

    /// Sum of a plan's slice weights.
    fn total_weight(plan: &PhasePlan) -> Seconds {
        plan.slices
            .iter()
            .fold(Seconds::ZERO, |acc, s| acc + s.weight)
    }

    #[test]
    fn traces_render_and_parse_round_trip() {
        let trace = Trace::new(vec![
            stamped(0, 0.0).with_slo_class(SloClass::Interactive),
            stamped(1, 0.125).with_session(0),
            stamped(2, 2.5).with_slo_class(SloClass::Batch),
        ]);
        let text = trace.render();
        assert!(text.starts_with("MOETRACE 1\n"));
        let reparsed = Trace::parse(&text).unwrap();
        assert_eq!(reparsed, trace);
        // Arrival stamps survive exactly, not approximately.
        assert_eq!(reparsed.requests()[1].arrival, Seconds::from_secs(0.125));
        assert_eq!(reparsed.requests()[0].slo_class, SloClass::Interactive);
        assert_eq!(reparsed.requests()[1].session_id, 0);
    }

    #[test]
    fn constructor_canonicalizes_order_and_ids() {
        let trace = Trace::new(vec![stamped(9, 5.0), stamped(4, 1.0), stamped(7, 3.0)]);
        let ids: Vec<u64> = trace.requests().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        let arrivals: Vec<f64> = trace
            .requests()
            .iter()
            .map(|r| r.arrival.as_secs())
            .collect();
        assert_eq!(arrivals, vec![1.0, 3.0, 5.0]);
        assert_eq!(trace.duration(), Seconds::from_secs(5.0));
    }

    #[test]
    fn bad_headers_and_records_yield_typed_errors() {
        assert!(matches!(
            Trace::parse("NOTATRACE 1\n"),
            Err(TraceError::BadMagic { .. })
        ));
        assert!(matches!(
            Trace::parse("MOETRACE king\n"),
            Err(TraceError::BadMagic { .. })
        ));
        assert!(matches!(
            Trace::parse("MOETRACE 99\n"),
            Err(TraceError::UnsupportedVersion { found: 99 })
        ));
        // Wrong field count.
        let err = Trace::parse("MOETRACE 1\n0.5 100 32\n").unwrap_err();
        assert!(matches!(err, TraceError::Corrupt { line: 2, .. }), "{err}");
        // Unknown class label.
        let err = Trace::parse("MOETRACE 1\n0.5 100 32 0 gold\n").unwrap_err();
        assert!(err.to_string().contains("unknown SLO class"));
        // Out-of-order arrivals.
        let err = Trace::parse("MOETRACE 1\n2 100 32 0 standard\n1 100 32 1 batch\n").unwrap_err();
        assert!(matches!(err, TraceError::Corrupt { line: 3, .. }), "{err}");
        // Negative / non-finite arrivals.
        assert!(Trace::parse("MOETRACE 1\n-1 100 32 0 standard\n").is_err());
        assert!(Trace::parse("MOETRACE 1\nNaN 100 32 0 standard\n").is_err());
        // Comments and blank lines are fine.
        let ok = Trace::parse("MOETRACE 1\n# hello\n\n0.5 100 32 0 standard\n").unwrap();
        assert_eq!(ok.len(), 1);
    }

    #[test]
    fn token_totals_beyond_u64_are_summarized_without_overflow() {
        // Each record fits a u64, but the prompt lengths sum past u64::MAX.
        let text = "MOETRACE 1\n0 18446744073709551615 0 0 batch\n0 1 0 0 batch\n";
        let trace = Trace::parse(text).unwrap();
        assert_eq!(trace.stats().mean_input_len, 2f64.powi(63));
        assert_eq!(Trace::parse(&trace.render()).unwrap(), trace);
        // One record whose prompt plus generation overflows is corrupt.
        let err = Trace::parse("MOETRACE 1\n0 18446744073709551615 1 0 batch\n").unwrap_err();
        assert!(matches!(err, TraceError::Corrupt { line: 2, .. }), "{err}");
    }

    #[test]
    fn slice_rebases_to_the_window_start() {
        let trace = Trace::new(vec![stamped(0, 0.0), stamped(1, 2.0), stamped(2, 1.0)]);
        let sliced = trace.slice(Seconds::from_secs(1.0), Seconds::from_secs(3.0));
        assert_eq!(sliced.len(), 2);
        assert_eq!(sliced.requests()[0].arrival, Seconds::ZERO);
        assert_eq!(sliced.requests()[1].arrival, Seconds::from_secs(1.0));
    }

    #[test]
    fn stats_summarize_the_stream() {
        let trace = Trace::new(vec![
            stamped(0, 0.0).with_slo_class(SloClass::Interactive),
            stamped(1, 1.0).with_session(0),
            stamped(2, 4.0).with_slo_class(SloClass::Batch),
        ]);
        let stats = trace.stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.duration, Seconds::from_secs(4.0));
        assert!((stats.arrival_rate - 0.75).abs() < 1e-12);
        assert_eq!(stats.sessions, 2);
        assert_eq!(stats.class_requests, [1, 1, 1]);
    }

    #[test]
    fn committed_fixture_stays_readable() {
        let trace = Trace::load(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/fixtures/sample.trace"
        ))
        .unwrap();
        assert_eq!(trace.len(), 12);
        assert_eq!(trace.stats().sessions, 8);
        assert!(trace.stats().class_requests.iter().all(|&n| n > 0));
        // The fixture is canonical: re-rendering it reproduces the bytes.
        let bytes = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/fixtures/sample.trace"
        ))
        .unwrap();
        assert_eq!(trace.render(), bytes);
    }

    #[test]
    fn synthetic_days_are_deterministic_and_diurnal() {
        let spec = DaySpec::new(WorkloadSpec::mtbench(), Seconds::from_secs(600.0), 4.0, 11)
            .with_segment(Seconds::from_secs(300.0), Seconds::from_secs(60.0), 2.0);
        let a = spec.synthesize();
        let b = spec.synthesize();
        assert_eq!(a, b, "a day spec is deterministic in its seed");
        assert!(
            a.len() > 600,
            "≈4 req/s over 600 s should land >600 arrivals"
        );
        // Mid-day (daylight ≈ 1, spike active) offers far more than the trough.
        let trough = a.slice(Seconds::ZERO, Seconds::from_secs(60.0)).len();
        let peak = a
            .slice(Seconds::from_secs(300.0), Seconds::from_secs(360.0))
            .len();
        assert!(
            peak > 2 * trough,
            "peak window ({peak}) should dwarf the trough ({trough})"
        );
        // Multiple sessions and every class appear.
        let stats = a.stats();
        assert!(stats.sessions > 1 && stats.sessions < stats.requests);
        assert!(stats.class_requests.iter().all(|&n| n > 0));
    }

    #[test]
    fn phase_plans_cover_every_window_exactly_once() {
        let day =
            DaySpec::new(WorkloadSpec::mtbench(), Seconds::from_secs(600.0), 3.0, 5).synthesize();
        let config = PhaseConfig::new(Seconds::from_secs(30.0), 4, 13);
        let plan = sample_phases(&day, &config);
        assert!(plan.slices.len() <= 4 && !plan.slices.is_empty());
        let mut covered: Vec<usize> = plan
            .slices
            .iter()
            .flat_map(|s| s.members.iter().copied())
            .collect();
        covered.sort_unstable();
        assert_eq!(covered, (0..plan.windows.len()).collect::<Vec<_>>());
        assert_eq!(total_weight(&plan), plan.windowed_duration());
        for slice in &plan.slices {
            assert!(slice.members.contains(&slice.representative));
        }
        // Determinism: the same config reproduces the same plan.
        assert_eq!(sample_phases(&day, &config), plan);
    }

    #[cfg(test)]
    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Valid documents the mutation half of the parser fuzz starts from.
        const TRACE_SEED: &str = "MOETRACE 1\n# requests=3 duration=1.5\n\
            0 77 64 0 standard\n0.25 128 32 0 interactive\n1.5 64 128 1 batch\n";
        const OUTCOME_SEED: &str =
            "MOEOUTCOME 1\n# outcomes=3\n0 completed 4.25\n1 rejected 0.5\n2 aborted 6.75\n";

        /// Edge-case tokens the mutations splice in.
        const TOKENS: [&str; 16] = [
            "MOETRACE",
            "MOEOUTCOME",
            "-0",
            "-1",
            "1e308",
            "1e-320",
            "inf",
            "NaN",
            "18446744073709551615",
            "18446744073709551616",
            "batch",
            "completed",
            "#",
            " ",
            "\n",
            "\r\n",
        ];

        /// Applies `edits` to `seed`: each `(op, position, value)` overwrites,
        /// inserts or deletes one byte, or inserts one of [`TOKENS`].
        fn mutate(seed: &str, edits: &[(u8, u16, u16)]) -> String {
            let mut bytes = seed.as_bytes().to_vec();
            for &(op, position, value) in edits {
                let at = usize::from(position) % (bytes.len() + 1);
                match op % 4 {
                    0 if at < bytes.len() => bytes[at] = value as u8,
                    1 => bytes.insert(at, value as u8),
                    2 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => {
                        let token = TOKENS[usize::from(value) % TOKENS.len()].bytes();
                        bytes.splice(at..at, token);
                    }
                }
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Malformed input yields a typed error, never a panic, and any
            /// text a parser accepts renders and re-parses to an equal value.
            #[test]
            fn parsers_reject_or_round_trip_arbitrary_bytes(
                raw in proptest::collection::vec(any::<u8>(), 0..96),
                header in any::<bool>(),
                edits in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 0..8),
            ) {
                for (magic, seed) in [(TRACE_MAGIC, TRACE_SEED), (OUTCOME_MAGIC, OUTCOME_SEED)] {
                    let mut bytes = if header {
                        format!("{magic} {TRACE_VERSION}\n").into_bytes()
                    } else {
                        Vec::new()
                    };
                    bytes.extend_from_slice(&raw);
                    for text in [String::from_utf8_lossy(&bytes).into_owned(), mutate(seed, &edits)] {
                        if let Ok(trace) = Trace::parse(&text) {
                            trace.stats();
                            prop_assert_eq!(Trace::parse(&trace.render()).unwrap(), trace);
                        }
                        if let Ok(log) = OutcomeLog::parse(&text) {
                            prop_assert_eq!(OutcomeLog::parse(&log.render()).unwrap(), log);
                        }
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// The invariant `estimate_day` leans on: slice weights always
            /// sum to the windowed duration, whatever the day looks like.
            #[test]
            fn phase_weights_sum_to_the_windowed_duration(
                seed in 0u64..500,
                rate in 0.5f64..6.0,
                day_secs in 60.0f64..900.0,
                window_secs in 5.0f64..120.0,
                k in 1usize..9,
            ) {
                let day = DaySpec::new(
                    WorkloadSpec::mtbench(),
                    Seconds::from_secs(day_secs),
                    rate,
                    seed,
                )
                .synthesize();
                // At these rates an empty day is impossible, but guard anyway:
                // sample_phases rejects empty traces by design.
                if !day.is_empty() {
                    let plan = sample_phases(
                        &day,
                        &PhaseConfig::new(Seconds::from_secs(window_secs), k, seed),
                    );
                    let total = total_weight(&plan).as_secs();
                    let expected = plan.windowed_duration().as_secs();
                    prop_assert!(
                        (total - expected).abs() <= 1e-9 * expected.max(1.0),
                        "weights {} != windowed duration {}", total, expected
                    );
                    prop_assert_eq!(
                        plan.windows.len(),
                        (day.duration().as_secs() / window_secs).floor() as usize + 1
                    );
                }
            }
        }
    }
}
