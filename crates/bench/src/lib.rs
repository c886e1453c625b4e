//! Shared helpers for the figure/table reproduction binaries and the Criterion
//! micro-benchmarks.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper and prints
//! it as an aligned text table (plus machine-readable CSV lines prefixed with
//! `csv,`), so the results can be compared against the published plots without any
//! plotting dependencies. See `EXPERIMENTS.md` at the workspace root for the
//! recorded outputs and the paper-vs-reproduction discussion.

pub mod fleet;
pub mod json;

pub use json::{json_output_path, metrics_output_path, obj, write_metrics, write_rows, JsonValue};

use std::str::FromStr;

/// The environment variable `name` parsed as a `T`, or `default` when it is
/// unset or does not parse: the binaries' and examples' size knobs.
pub fn env_or<T: FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Prints a row of a fixed-width table.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = *w))
        .collect();
    println!("{}", line.join("  "));
}

/// Prints a header row followed by a separator.
pub fn print_header(cells: &[&str], widths: &[usize]) {
    print_row(
        &cells.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>(),
        widths,
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    println!("{}", "-".repeat(total));
}

/// Prints a machine-readable CSV line prefixed with `csv,` (easy to grep).
pub fn print_csv(fields: &[String]) {
    println!("csv,{}", fields.join(","));
}

/// Formats a floating point value with three significant digits for table cells.
pub fn fmt3(value: f64) -> String {
    if value == 0.0 {
        "0".to_owned()
    } else if value.abs() >= 100.0 {
        format!("{value:.1}")
    } else if value.abs() >= 1.0 {
        format!("{value:.2}")
    } else {
        format!("{value:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt3_uses_sensible_precision() {
        assert_eq!(fmt3(0.0), "0");
        assert_eq!(fmt3(123.456), "123.5");
        assert_eq!(fmt3(12.345), "12.35");
        assert_eq!(fmt3(0.01234), "0.0123");
    }

    #[test]
    fn env_or_falls_back_when_unset_or_unparsable() {
        assert_eq!(env_or("MOE_BENCH_ENV_OR_UNSET", 7usize), 7);
        // `PATH` is set in any test environment, and it is not a number.
        assert_eq!(env_or("PATH", 0.5f64), 0.5);
        assert_eq!(
            env_or("PATH", String::new()),
            std::env::var("PATH").unwrap()
        );
    }

    #[test]
    fn printing_does_not_panic() {
        print_header(&["a", "b"], &[6, 8]);
        print_row(&["1".into(), "2".into()], &[6, 8]);
        print_csv(&["x".into(), "y".into()]);
    }
}
