//! `perf compare BASE.json... -- CHANGE.json...`: judges a change against
//! its parent from saved `--json` records, one row per workload × end-to-end
//! metric, with the bounds `BENCHMARK.json` fixes.
//!
//! List the files in the order the runs alternated: the i-th base record and
//! the i-th change record of a workload form one pair. A row reads
//!
//! * `better` when the change wins at least 9 of every 10 pairs (ties count
//!   for neither side) and the medians differ by more than the base runs'
//!   interquartile range;
//! * `unresolved` when either side's spread (IQR over median) is wider than
//!   the bound, unless every change run beats every base run;
//! * `worse` when the change's median is worse than the base median by more
//!   than the bound;
//! * `within` otherwise.
//!
//! The exit code is 1 when any row is `worse`.

use crate::json::{self, Json, Lookup};
use crate::stats::{quartiles, spread};
use std::collections::BTreeMap;

struct Bound {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

fn bounds(bench: &Json) -> Result<Vec<Bound>, String> {
    bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .ok_or_else(|| format!("an end_to_end metric lacks `{k}`"))
            };
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .into(),
                unit: field("unit")?
                    .as_str()
                    .ok_or("unit is not a string")?
                    .into(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// Every record in `path`: one object, or an array of them.
fn records(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    match json::parse(&text).map_err(|e| format!("{path}: {e}"))? {
        Json::Arr(items) => Ok(items),
        one => Ok(vec![one]),
    }
}

/// `values[workload][metric]`, in file order.
type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn collect(paths: &[String]) -> Result<Samples, String> {
    let mut out = Samples::new();
    for path in paths {
        for record in records(path)? {
            let workload = record
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}: a record has no workload"))?;
            if record.get("correct") != Some(&Json::Bool(true)) {
                return Err(format!("{path}: the {workload} run was not correct"));
            }
            let metrics = record
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("{path}: the {workload} record has no metrics"))?;
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    out.entry(workload.to_owned())
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(out)
}

/// The verdict on one workload × metric row.
fn verdict(base: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> &'static str {
    let sign = if higher_is_better { 1.0 } else { -1.0 };
    let [b1, bm, b3] = quartiles(base);
    let [_, cm, _] = quartiles(change);
    let pairs = base.len().min(change.len());
    let wins = base
        .iter()
        .zip(change)
        .filter(|(b, c)| sign * (*c - *b) > 0.0)
        .count();
    let gain = sign * (cm - bm) / bm.abs();
    let worst_change = change
        .iter()
        .map(|c| sign * c)
        .fold(f64::INFINITY, f64::min);
    let best_base = base
        .iter()
        .map(|b| sign * b)
        .fold(f64::NEG_INFINITY, f64::max);
    if pairs > 0 && wins * 10 >= 9 * pairs && gain > 0.0 && (cm - bm).abs() > b3 - b1 {
        "better"
    } else if spread(base).max(spread(change)) > bound && worst_change <= best_base {
        "unresolved"
    } else if gain < -bound {
        "worse"
    } else {
        "within"
    }
}

pub fn run(argv: &[String]) -> i32 {
    let Some(split) = argv.iter().position(|a| a == "--") else {
        eprintln!("usage: perf compare BASE.json... -- CHANGE.json...");
        return 2;
    };
    let (base_paths, change_paths) = (&argv[..split], &argv[split + 1..]);
    if base_paths.is_empty() || change_paths.is_empty() {
        eprintln!("usage: perf compare BASE.json... -- CHANGE.json...");
        return 2;
    }
    let loaded = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json (run from the repository root): {e}"))
        .and_then(|text| json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}")))
        .and_then(|bench| {
            Ok((
                bounds(&bench)?,
                collect(base_paths)?,
                collect(change_paths)?,
            ))
        });
    let (bounds, base, change) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("perf compare: {e}");
            return 2;
        }
    };
    println!(
        "{:<14} {:<18} {:>8} {:>34} {:>34} {:>8}  verdict",
        "workload", "metric", "bound", "base median [q1, q3]", "change median [q1, q3]", "delta"
    );
    let mut worse = false;
    for (workload, base_metrics) in &base {
        let Some(change_metrics) = change.get(workload) else {
            println!("{workload:<14} (no change runs)");
            continue;
        };
        for b in &bounds {
            let (Some(bv), Some(cv)) = (base_metrics.get(&b.name), change_metrics.get(&b.name))
            else {
                continue;
            };
            let [b1, bm, b3] = quartiles(bv);
            let [c1, cm, c3] = quartiles(cv);
            let v = verdict(bv, cv, b.higher_is_better, b.bound);
            worse |= v == "worse";
            println!(
                "{workload:<14} {:<18} {:>7.1}% {:>34} {:>34} {:>+7.2}%  {v}",
                b.name,
                100.0 * b.bound,
                format!("{bm:.6} [{b1:.6}, {b3:.6}] {}", b.unit),
                format!("{cm:.6} [{c1:.6}, {c3:.6}] {}", b.unit),
                100.0 * (cm - bm) / bm.abs(),
            );
        }
    }
    i32::from(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_pair_and_bound_rules() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        // Same distribution: within.
        assert_eq!(verdict(&base, &base, true, 0.1), "within");
        // Every pair won by 5%, far outside the base IQR: better.
        let faster: Vec<f64> = base.iter().map(|b| b * 1.05).collect();
        assert_eq!(verdict(&base, &faster, true, 0.1), "better");
        // The same shift on a lower-is-better metric is a regression, but
        // inside a 10% bound.
        assert_eq!(verdict(&base, &faster, false, 0.1), "within");
        // 20% worse on a 10% bound: worse.
        let slower: Vec<f64> = base.iter().map(|b| b * 0.8).collect();
        assert_eq!(verdict(&base, &slower, true, 0.1), "worse");
        // A spread wider than the bound cannot be judged...
        let noisy = [
            50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 80.0,
        ];
        assert_eq!(verdict(&base, &noisy, true, 0.1), "unresolved");
        // ...unless every change run beats every base run.
        let noisy_but_faster: Vec<f64> = noisy.iter().map(|n| n + 200.0).collect();
        assert_eq!(verdict(&base, &noisy_but_faster, true, 0.1), "better");
    }
}
