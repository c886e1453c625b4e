//! JSON output for the benchmark binaries.
//!
//! Each table row becomes a [`JsonValue::Obj`], and the binary writes one
//! `{ "bench": …, "rows": [...] }` document when a path is given via
//! `--json <path>` or the `BENCH_JSON` environment variable. The value model
//! is `moe-telemetry`'s, the workspace's one JSON writer, which also renders
//! the `--metrics` export; it is re-exported here.

pub use moe_telemetry::{obj, JsonValue};
use std::path::PathBuf;

/// Where the current bench invocation should write its JSON document, if
/// anywhere: the path after a `--json` CLI flag, else the `BENCH_JSON`
/// environment variable. `None` disables JSON output. A trailing `--json`
/// with no path prints a warning and falls through to the env var.
pub fn json_output_path() -> Option<PathBuf> {
    output_path_from("--json", std::env::args(), std::env::var_os("BENCH_JSON"))
}

/// Where the current bench invocation should write its telemetry metrics
/// export, if anywhere: the path after a `--metrics` CLI flag, else the
/// `BENCH_METRICS` environment variable. `None` disables the export. Same
/// flag semantics as [`json_output_path`].
pub fn metrics_output_path() -> Option<PathBuf> {
    output_path_from(
        "--metrics",
        std::env::args(),
        std::env::var_os("BENCH_METRICS"),
    )
}

/// The pure core of [`json_output_path`] / [`metrics_output_path`],
/// separated for testability.
fn output_path_from(
    flag: &str,
    args: impl Iterator<Item = String>,
    env: Option<std::ffi::OsString>,
) -> Option<PathBuf> {
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        if arg == flag {
            match args.next() {
                Some(path) => return Some(PathBuf::from(path)),
                None => eprintln!("warning: {flag} given without a path; ignoring the flag"),
            }
        }
    }
    env.map(PathBuf::from)
}

/// Writes a telemetry [`Recorder`](moe_lightning::Recorder)'s full JSON
/// export (counters, ring-buffered time-series, profiling spans, recent
/// events) to `path` and prints where the document went (or the error,
/// without failing the bench run).
pub fn write_metrics(path: &std::path::Path, recorder: &moe_lightning::Recorder) {
    match std::fs::write(path, recorder.export_json()) {
        Ok(()) => println!("(wrote telemetry metrics to {})", path.display()),
        Err(e) => eprintln!(
            "(failed to write telemetry metrics to {}: {e})",
            path.display()
        ),
    }
}

/// Writes `{ "bench": <name>, "rows": [...] }` to `path` and prints where the
/// document went (or the error, without failing the bench run).
pub fn write_rows(path: &std::path::Path, bench: &str, rows: Vec<JsonValue>) {
    let doc = obj(vec![
        ("bench", bench.into()),
        ("rows", JsonValue::Arr(rows)),
    ]);
    match std::fs::write(path, format!("{doc}\n")) {
        Ok(()) => println!("\n(wrote JSON results to {})", path.display()),
        Err(e) => eprintln!(
            "\n(failed to write JSON results to {}: {e})",
            path.display()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_path_prefers_the_flag_and_falls_back_to_the_env() {
        let args = |v: &[&str]| v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        // The flag wins over the env.
        assert_eq!(
            output_path_from(
                "--json",
                args(&["bin", "--json", "a.json"]).into_iter(),
                Some("b.json".into())
            ),
            Some(PathBuf::from("a.json"))
        );
        // No flag: the env decides.
        assert_eq!(
            output_path_from("--json", args(&["bin"]).into_iter(), Some("b.json".into())),
            Some(PathBuf::from("b.json"))
        );
        assert_eq!(
            output_path_from("--json", args(&["bin"]).into_iter(), None),
            None
        );
        // A trailing --json without a path is ignored (with a warning).
        assert_eq!(
            output_path_from(
                "--json",
                args(&["bin", "--json"]).into_iter(),
                Some("b.json".into())
            ),
            Some(PathBuf::from("b.json"))
        );
        // The metrics flag resolves independently of the json flag.
        assert_eq!(
            output_path_from(
                "--metrics",
                args(&["bin", "--json", "a.json", "--metrics", "m.json"]).into_iter(),
                None
            ),
            Some(PathBuf::from("m.json"))
        );
    }
}
