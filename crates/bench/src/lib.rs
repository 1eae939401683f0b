//! Shared harness utilities for the table/figure regeneration binaries.
//!
//! Each paper artifact (Figures 1–3, Example 1.1, the constructions of
//! Figures 4–13, Theorems 3.5–3.8) has a binary in `src/bin/` that prints
//! the corresponding rows/series, plus a Criterion bench where wall-clock
//! matters. This crate holds the tiny formatting helpers they share and
//! the tools' command-line plumbing ([`cli`]). See EXPERIMENTS.md for the
//! index and recorded outputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod query;

/// Formats one table row with columns padded to `widths` (no trailing
/// newline).
pub fn fmt_row(cols: &[&str], widths: &[usize]) -> String {
    let mut line = String::new();
    for (c, w) in cols.iter().zip(widths) {
        line.push_str(&format!("{c:>w$}  ", w = *w));
    }
    line.trim_end().to_string()
}

/// Formats a header row followed by a rule, with columns padded to
/// `widths`.
pub fn fmt_header(cols: &[&str], widths: &[usize]) -> String {
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    format!("{}\n{}", fmt_row(cols, widths), "-".repeat(total))
}

/// Prints a header row followed by a rule, with columns padded to
/// `widths`.
pub fn print_header(cols: &[&str], widths: &[usize]) {
    println!("{}", fmt_header(cols, widths));
}

/// Prints one table row with columns padded to `widths`.
pub fn print_row(cols: &[&str], widths: &[usize]) {
    println!("{}", fmt_row(cols, widths));
}

/// Formats a float compactly (3 significant-ish digits).
pub fn fmt_f(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_f(0.0), "0");
        assert_eq!(fmt_f(1234.6), "1235");
        assert_eq!(fmt_f(12.3456), "12.35");
        assert_eq!(fmt_f(0.1234), "0.1234");
    }
}
