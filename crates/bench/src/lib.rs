//! # parblast-bench
//!
//! Experiment harness: binaries that regenerate every figure of the
//! paper's evaluation (run with `cargo run -p parblast-bench --release
//! --bin <figN>`) and criterion micro-benchmarks (`cargo bench`).

#![warn(missing_docs)]

/// Minimal fixed-width table printer for experiment output.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
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
}
