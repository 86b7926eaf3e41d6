//! # parblast-bench
//!
//! The measurement harness: one binary per experiment (run with `cargo
//! run -p parblast-bench --release --bin <name>`), each printing its
//! rows as tables and, for the layer benches, writing a `BENCH_*.json`.
//! [`figures`] holds the one printer of each paper figure.

#![warn(missing_docs)]

use std::time::{Duration, Instant};

use parblast_core::simcore::SimTime;

pub mod figures;

/// Open-loop pacing, shared by the serving benches: call `submit(i, due)`
/// for each arrival `i` at `due = start + arrivals[i]`, sleeping until
/// then. An arrival that is already due (an earlier call returned late)
/// goes out at once, so lateness piles up in the latency a caller
/// measures from `due` instead of stretching the schedule. Stops early
/// when `submit` returns `false`.
pub fn open_loop(
    start: Instant,
    arrivals: &[SimTime],
    mut submit: impl FnMut(usize, Instant) -> bool,
) {
    for (i, at) in arrivals.iter().enumerate() {
        let due = start + Duration::from_nanos(at.as_nanos());
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if !submit(i, due) {
            break;
        }
    }
}

/// Render a fixed-width table: right-aligned cells, a dashed rule under
/// the header, one line per row.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let mut line = |cells: &[String]| {
        let mut s = String::new();
        for (c, w) in cells.iter().zip(&widths) {
            s.push_str(&format!("{c:>w$}  "));
        }
        out.push_str(s.trim_end());
        out.push('\n');
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
    out
}

/// Print [`render_table`]'s table to stdout.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", render_table(headers, rows));
}

/// Median of `samples` (the upper middle one for an even count).
pub fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Parse `--key value` style arguments; returns the value for `key`.
pub fn arg_value(key: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The number a `--key` was given, or what to tell the user.
fn parse_u64(key: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("{key} takes a non-negative integer, not `{value}`"))
}

/// Parse a `--key N` numeric argument with a default. A value that is not
/// a number ends the process with status 2: falling back to the default
/// would run `--db-bytes abc` against the full 2.7 GB database.
pub fn arg_u64(key: &str, default: u64) -> u64 {
    let Some(value) = arg_value(key) else {
        return default;
    };
    parse_u64(key, &value).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_u64_default() {
        assert_eq!(arg_u64("--nope", 7), 7);
    }

    #[test]
    fn a_value_that_is_not_a_number_is_an_error_naming_key_and_value() {
        assert_eq!(parse_u64("--db-bytes", "201326592"), Ok(201326592));
        for bad in ["abc", "-1", "1e6", "", "12 "] {
            let message = parse_u64("--db-bytes", bad).unwrap_err();
            assert!(message.contains("--db-bytes"), "{message}");
            assert!(message.contains(&format!("`{bad}`")), "{message}");
        }
    }

    #[test]
    fn a_table_is_right_aligned_under_a_dashed_rule() {
        let rows = [vec!["1".to_string(), "12.5".to_string()]];
        assert_eq!(
            render_table(&["n", "time (s)"], &rows),
            "n  time (s)\n-  --------\n1      12.5\n"
        );
    }

    #[test]
    fn the_median_of_an_even_count_is_the_upper_middle() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 3.0);
    }
}
