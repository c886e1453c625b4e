//! `perf`: the repository benchmark.
//!
//! ```text
//! perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--json PATH]
//! perf [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--json PATH]
//! perf compare BASE.json... -- CHANGE.json...
//! ```
//!
//! With `--workload`, one workload runs in this process: its inputs are set
//! up several times (the median is `setup_s`), untraced passes run for
//! `--seconds` between runs of a fixed reference kernel (the median ratio of
//! pass time to reference time gives `host_items_per_s`), and with
//! `--trace 1` one more pass runs with every layer timed from outside. The
//! last line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`).
//! Without `--workload`, every workload runs in a child process of its own,
//! one at a time. `compare` judges saved `--json` records against the bounds
//! in `BENCHMARK.json`.

mod compare;
mod json;
mod stats;
mod timed;
mod workloads;

use json::{obj, Json};
use std::process::Command;
use std::time::Instant;
use workloads::{Outcome, SetupTimes};

/// Each run builds its inputs at least `MIN_SETUPS` times and until
/// `SETUP_SECONDS` have passed, in batches of `SETUP_BATCH_SECONDS` between
/// reference runs; `setup_s` is the median. Set-ups take between a tenth of a
/// millisecond and a tenth of a second, so one alone would be noise, and a
/// second of them spans several of the host's slow and fast spells.
const MIN_SETUPS: usize = 5;
const SETUP_SECONDS: f64 = 1.0;
const SETUP_BATCH_SECONDS: f64 = 0.25;
/// What the reference kernel takes on the host the bounds were set on, a
/// 2-vCPU Intel Xeon VM. Host metrics are scaled to a host of exactly this
/// speed: a pass or set-up counts as `REFERENCE_S` times its ratio to the
/// reference runs beside it.
const REFERENCE_S: f64 = 0.1;
/// Timed passes a run makes even when `--seconds` has already elapsed. One
/// untimed warm-up pass precedes them and is the reference report.
const MIN_PASSES: usize = 3;
/// Size divisor of `--smoke` runs.
const SMOKE_DIVISOR: usize = 1000;

/// End-to-end metrics, every one printed for every workload: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("host_items_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("model_gen_tok_s", "tok/s"),
    ("model_ttft_p50_s", "s"),
    ("model_ttft_p99_s", "s"),
    ("model_tpot_p50_s", "s"),
];

/// Per-layer metrics of the traced pass: `(name, unit)`. A layer a workload
/// does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("policy.calls", "count"),
    ("policy.wall_pct", "%"),
    ("policy.us_per_call", "us/call"),
    ("stepcost.calls", "count"),
    ("stepcost.wall_pct", "%"),
    ("stepcost.us_per_call", "us/call"),
    ("scheduler.calls", "count"),
    ("scheduler.wall_pct", "%"),
    ("scheduler.ns_per_call", "ns/call"),
    ("scheduler.queue_mean", "count"),
    ("scheduler.placed_pct", "%"),
    ("router.calls", "count"),
    ("router.wall_pct", "%"),
    ("router.ns_per_call", "ns/call"),
    ("router.indexed_pct", "%"),
    ("router.views_mean", "count"),
    ("autoscaler.calls", "count"),
    ("autoscaler.wall_pct", "%"),
    ("admission.calls", "count"),
    ("admission.wall_pct", "%"),
    ("admission.reject_pct", "%"),
    ("dynamics.rerouted", "count"),
    ("dynamics.joins", "count"),
    ("cluster.event_selection_pct", "%"),
    ("cluster.routing_pct", "%"),
    ("cluster.shard_step_pct", "%"),
    ("cluster.shard_step_calls", "count"),
    ("cluster.events_per_window", "count"),
    ("cluster.unattributed_pct", "%"),
    ("engine.rounds", "count"),
    ("engine.reqs_per_round", "count"),
    ("disagg.migrations", "count"),
    ("disagg.migrations_lost", "count"),
    ("cache.hit_pct", "%"),
    ("telemetry.overhead_pct", "%"),
    ("telemetry.events", "count"),
    ("telemetry.events_dropped", "count"),
    ("setup.calibrate_pct", "%"),
    ("setup.synth_pct", "%"),
    ("trace.render_pct", "%"),
    ("trace.parse_pct", "%"),
    ("trace.bytes", "B"),
];

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    json: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 11,
        seconds: 10.0,
        trace: None,
        smoke: false,
        json: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--json" => args.json = Some(value()?),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(name) = &args.workload {
        if !workloads::NAMES.contains(&name.as_str()) {
            return Err(format!(
                "unknown workload `{name}` (one of: {})",
                workloads::NAMES.join(", ")
            ));
        }
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = if argv.first().map(String::as_str) == Some("compare") {
        compare::run(&argv[1..])
    } else {
        match parse_args(&argv) {
            Ok(args) => match &args.workload {
                Some(name) => run_one(name, &args),
                None => run_all(&args),
            },
            Err(e) => {
                eprintln!("perf: {e}");
                2
            }
        }
    };
    std::process::exit(code);
}

/// The host's parallelism. The fleet loop's default shard threads are this,
/// capped at 8 (`ClusterEvaluator`'s default); the benchmark spawns no
/// threads of its own.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Everything one workload run measured.
struct Record {
    workload: String,
    seed: u64,
    traced: bool,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    end_to_end: Vec<f64>,
    per_layer: Vec<f64>,
    setup_s: Vec<f64>,
    pass_s: Vec<f64>,
    ref_s: Vec<f64>,
    /// Host rate and set-up time in plain wall time, for reading, not for
    /// judging.
    wall_items_per_s: f64,
    wall_setup_s: f64,
    digest: String,
}

impl Record {
    fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn metrics(&self, traced: bool) -> Json {
        let (names, values): (&[(&str, &str)], &[f64]) = if traced {
            (&PER_LAYER, &self.per_layer)
        } else {
            (&END_TO_END, &self.end_to_end)
        };
        Json::Obj(
            names
                .iter()
                .zip(values)
                .map(|(&(name, unit), &value)| {
                    (
                        name.to_owned(),
                        obj(vec![("value", value.into()), ("unit", unit.into())]),
                    )
                })
                .collect(),
        )
    }

    /// The last line of a run's output.
    fn result_line(&self, traced: bool) -> Json {
        obj(vec![
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", self.metrics(traced)),
        ])
    }

    /// The full record `--json` saves and `compare` reads.
    fn to_json(&self) -> Json {
        let mut metrics = self.metrics(false);
        if let (Json::Obj(all), true) = (&mut metrics, self.traced) {
            if let Json::Obj(layers) = self.metrics(true) {
                all.extend(layers);
            }
        }
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| x.into()).collect());
        obj(vec![
            ("workload", self.workload.as_str().into()),
            ("seed", self.seed.into()),
            ("trace", self.traced.into()),
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", metrics),
            ("setups", self.setup_s.len().into()),
            ("pass_s", nums(&self.pass_s)),
            ("ref_s", nums(&self.ref_s)),
            ("wall_items_per_s", self.wall_items_per_s.into()),
            ("wall_setup_s", self.wall_setup_s.into()),
            ("cores", cores().into()),
            ("digest", self.digest.as_str().into()),
            (
                "problems",
                Json::Arr(self.problems.iter().map(|p| p.as_str().into()).collect()),
            ),
        ])
    }
}

/// Checks one pass against the first pass and the conservation rules;
/// returns the problems found and how many of the pass's items failed.
fn judge(outcome: &Outcome, first: Option<&Outcome>, what: &str, items: u64) -> (Vec<String>, u64) {
    let mut problems = outcome.summary.check();
    if first.is_some_and(|first| first.report != outcome.report) {
        problems.push("report differs from the first pass".into());
    }
    // A broken invariant spoils the whole pass; a sweep cell that returned
    // an error spoils only itself.
    let errors = outcome.summary.errors;
    let failed = if problems.is_empty() { errors } else { items };
    if errors > 0 {
        problems.push(format!("{errors} sweep cells returned an error"));
    }
    (
        problems
            .into_iter()
            .map(|p| format!("{what}: {p}"))
            .collect(),
        failed,
    )
}

/// Runs workload `name`: set-up, timed passes, and optionally the traced
/// pass. An `Err` means nothing could be measured.
fn measure(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    divisor: usize,
) -> Result<Record, String> {
    let t0 = Instant::now();
    let (workload, mut times) = workloads::setup(name, seed, divisor)?;
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    let items = workload.items();

    // The warm-up pass grows the allocator's arenas and fills caches; its
    // report is the reference every later pass must equal.
    let first = workload.pass().map_err(|e| format!("warm-up pass: {e}"))?;
    // Peak memory is that of one set-up and one pass, as a user running the
    // simulation once sees it. Read later, it would include the reference
    // work and the benchmark's own copies of reports and inputs.
    let peak_rss = stats::peak_rss_mib()?;
    let (mut problems, mut failed) = judge(&first, None, "warm-up pass", items);
    let mut attempted = items;
    let mut pass_s = Vec::new();
    let mut ref_s = vec![stats::reference_s(divisor)];
    let mut relative = Vec::new();
    let started = Instant::now();
    let mut runs = 0;
    while runs < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        runs += 1;
        attempted += items;
        let t0 = Instant::now();
        let result = workload.pass();
        let elapsed = t0.elapsed().as_secs_f64();
        ref_s.push(stats::reference_s(divisor));
        match result {
            Ok(outcome) => {
                pass_s.push(elapsed);
                relative.push(elapsed / beside(&ref_s));
                let (bad, lost) = judge(&outcome, Some(&first), &format!("pass {runs}"), items);
                problems.extend(bad);
                failed += lost;
            }
            Err(e) => {
                problems.push(format!("pass {runs}: {e}"));
                failed += items;
            }
        }
    }
    if pass_s.is_empty() {
        return Err(format!("every pass failed: {}", problems.join("; ")));
    }
    let relative_median = stats::median(&relative);

    // Set-ups repeat in short batches between reference runs; each batch is
    // scaled by the reference time beside it, as the passes are.
    let mut scaled_setup_s = Vec::new();
    let started = Instant::now();
    while scaled_setup_s.len() < MIN_SETUPS || started.elapsed().as_secs_f64() < SETUP_SECONDS {
        let batch = setup_s.len();
        let batch_started = Instant::now();
        while setup_s.len() == batch || batch_started.elapsed().as_secs_f64() < SETUP_BATCH_SECONDS
        {
            let t0 = Instant::now();
            let again = workloads::setup(name, seed, divisor)?;
            setup_s.push(t0.elapsed().as_secs_f64());
            times = again.1;
        }
        ref_s.push(stats::reference_s(divisor));
        let scale = REFERENCE_S / beside(&ref_s);
        scaled_setup_s.extend(setup_s[batch..].iter().map(|s| s * scale));
    }

    let mut per_layer = Vec::new();
    if trace {
        attempted += items;
        ref_s.push(stats::reference_s(divisor));
        let traced = workload.traced_pass();
        ref_s.push(stats::reference_s(divisor));
        match traced {
            Ok(workloads::Traced {
                outcome,
                mut layers,
                wall_s,
            }) => {
                let (bad, lost) = judge(&outcome, Some(&first), "traced pass", items);
                problems.extend(bad);
                failed += lost;
                layers.insert(
                    "telemetry.overhead_pct",
                    100.0 * (wall_s / beside(&ref_s) / relative_median - 1.0),
                );
                setup_layers(&mut layers, &times, *setup_s.last().expect("set-up ran"));
                per_layer = PER_LAYER
                    .iter()
                    .map(|(metric, _)| layers.get(metric).copied().unwrap_or(0.0))
                    .collect();
                if let Some(extra) = layers
                    .keys()
                    .find(|k| !PER_LAYER.iter().any(|(m, _)| m == *k))
                {
                    problems.push(format!("traced pass produced undeclared metric `{extra}`"));
                }
            }
            Err(e) => {
                problems.push(format!("traced pass: {e}"));
                failed += items;
            }
        }
    }

    let model = &first.summary;
    Ok(Record {
        workload: name.to_owned(),
        seed,
        traced: trace,
        attempted,
        failed,
        problems,
        end_to_end: vec![
            items as f64 / (relative_median * REFERENCE_S),
            stats::median(&scaled_setup_s),
            peak_rss,
            model.gen_tok_s,
            model.ttft_p50_s,
            model.ttft_p99_s,
            model.tpot_p50_s,
        ],
        per_layer,
        wall_items_per_s: items as f64 / stats::median(&pass_s),
        wall_setup_s: stats::median(&setup_s),
        setup_s,
        pass_s,
        ref_s,
        digest: model.digest(&format!("{name} seed={seed}")),
    })
}

/// The reference time around the latest pass: the mean of the reference runs
/// just before and just after it.
fn beside(ref_s: &[f64]) -> f64 {
    match ref_s {
        [.., before, after] => (before + after) / 2.0,
        _ => unreachable!("a reference run precedes every pass"),
    }
}

/// Set-up layer shares: calibration runs, input synthesis and the trace
/// round-trip as percentages of one set-up.
fn setup_layers(layers: &mut workloads::Layers, times: &SetupTimes, setup_s: f64) {
    let share = |d: std::time::Duration| 100.0 * d.as_secs_f64() / setup_s;
    layers.insert("setup.calibrate_pct", share(times.calibrate));
    layers.insert("setup.synth_pct", share(times.synth));
    layers.insert("trace.render_pct", share(times.render));
    layers.insert("trace.parse_pct", share(times.parse));
    layers.insert("trace.bytes", times.trace_bytes as f64);
}

fn print_record(record: &Record) {
    let summarize = |label: &str, v: &[f64]| {
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "  {label:<10} median {:.4} s (min {min:.4}, max {max:.4}, n={})",
            stats::median(v),
            v.len()
        );
    };
    println!(
        "== perf {} seed={} cores={} shard_threads={} ==",
        record.workload,
        record.seed,
        cores(),
        cores().min(8)
    );
    summarize("set-up", &record.setup_s);
    summarize("pass", &record.pass_s);
    summarize("reference", &record.ref_s);
    println!(
        "  wall clock {:.1} items/s, set-up {:.6} s",
        record.wall_items_per_s, record.wall_setup_s
    );
    for (&(name, unit), value) in END_TO_END.iter().zip(&record.end_to_end) {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    for (&(name, unit), value) in PER_LAYER.iter().zip(&record.per_layer) {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    println!("  digest: {}", record.digest);
    for problem in &record.problems {
        println!("  FAIL {problem}");
    }
}

fn write_json(path: &str, value: &Json) -> Result<(), String> {
    std::fs::write(path, format!("{value}\n")).map_err(|e| format!("cannot write {path}: {e}"))
}

fn run_one(name: &str, args: &Args) -> i32 {
    let divisor = if args.smoke { SMOKE_DIVISOR } else { 1 };
    let trace = args.trace.unwrap_or(false);
    let record = match measure(name, args.seed, args.seconds, trace, divisor) {
        Ok(record) => record,
        Err(e) => {
            eprintln!("perf: {name}: {e}");
            return 1;
        }
    };
    print_record(&record);
    println!("record: {}", record.to_json());
    if let Some(path) = &args.json {
        if let Err(e) = write_json(path, &record.to_json()) {
            eprintln!("perf: {e}");
            return 1;
        }
    }
    println!("{}", record.result_line(trace));
    i32::from(!record.correct())
}

/// Runs every workload in a child process of its own, one at a time, and
/// collects their records.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perf: cannot locate this executable: {e}");
            return 1;
        }
    };
    let trace = args.trace.unwrap_or(true);
    let started = Instant::now();
    let mut code = 0;
    let mut records = Vec::new();
    for name in workloads::NAMES {
        let mut child = Command::new(&exe);
        child.args([
            "--workload",
            name,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ]);
        if args.smoke {
            child.arg("--smoke");
        }
        let output = match child.output() {
            Ok(output) => output,
            Err(e) => {
                eprintln!("perf: cannot run the {name} child: {e}");
                return 1;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        for line in stdout.lines() {
            match line.strip_prefix("record: ") {
                Some(record) => match json::parse(record) {
                    Ok(record) => records.push(record),
                    Err(e) => {
                        eprintln!("perf: unreadable {name} record: {e}");
                        code = 1;
                    }
                },
                None if line.starts_with('{') => {}
                None => println!("{line}"),
            }
        }
        if !output.status.success() {
            eprintln!("perf: {name} failed ({})", output.status);
            code = 1;
        }
    }
    println!(
        "== all workloads: {:.1} s wall, seed {}, {} s per run ==",
        started.elapsed().as_secs_f64(),
        args.seed,
        args.seconds
    );
    let all = Json::Arr(records);
    if let Some(path) = &args.json {
        if let Err(e) = write_json(path, &all) {
            eprintln!("perf: {e}");
            code = 1;
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Lookup;

    fn declared(bench: &Json, key: &str) -> Vec<(String, String)> {
        bench
            .get(key)
            .and_then(Json::as_arr)
            .expect("BENCHMARK.json lists the metrics")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_owned(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_owned(),
                )
            })
            .collect()
    }

    fn reported(line: &Json) -> Vec<(String, String)> {
        line.get("metrics")
            .and_then(Json::as_obj)
            .unwrap()
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_owned(),
                )
            })
            .collect()
    }

    /// Every workload at 1/1000 of its size, traced, in the test profile: the
    /// result lines must carry exactly the metrics `BENCHMARK.json` declares,
    /// so the definition and the code cannot drift apart.
    #[test]
    fn smoke_run_reports_exactly_the_declared_metrics() {
        let started = Instant::now();
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bench = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names: Vec<&str> = bench
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, workloads::NAMES);
        for name in workloads::NAMES {
            let record = measure(name, 11, 0.0, true, SMOKE_DIVISOR).unwrap();
            assert!(record.correct(), "{name}: {:?}", record.problems);
            assert_eq!(
                reported(&record.result_line(false)),
                declared(&bench, "end_to_end"),
                "{name}"
            );
            assert_eq!(
                reported(&record.result_line(true)),
                declared(&bench, "per_layer"),
                "{name}"
            );
            let line = record.result_line(true);
            assert_eq!(json::parse(&line.to_string()).unwrap(), line);
        }
        assert!(
            started.elapsed().as_secs_f64() < 20.0,
            "the smoke run took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(str::to_owned).collect() };
        let ok = parse_args(&args(
            "--workload fleet-day --seed 3 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(ok.workload.as_deref(), Some("fleet-day"));
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 2.5, Some(true)));
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds -1",
            "--seed",
            "--bogus",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
