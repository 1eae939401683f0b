//! The flag-and-exit plumbing of the command-line tools (`campaign`,
//! `profile`, `stream_soak`): one way to read a flag's value and one way
//! to stop with an exit code.

use std::fmt::Display;
use std::str::FromStr;

/// Parses the next argument as a `T`, or calls `usage` (which prints the
/// usage text and exits) when it is missing or does not parse.
pub fn value<T: FromStr>(args: &mut impl Iterator<Item = impl AsRef<str>>, usage: fn() -> !) -> T {
    match args.next().and_then(|v| v.as_ref().parse().ok()) {
        Some(v) => v,
        None => usage(),
    }
}

/// Prints `msg` as one stderr line and exits with `code`.
pub fn fail(code: i32, msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(code)
}
