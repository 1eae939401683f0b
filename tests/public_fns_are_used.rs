//! Every public function earns its place: a `pub fn` or `pub const fn`
//! in production code must be named somewhere besides its own
//! definition and its own file's unit tests.
//!
//! Production code is every `.rs` file under `src/` and `crates/*/src/`,
//! except binaries under `src/bin/`, each cut at its first
//! `#[cfg(test)]`. A function counts as used when its name appears as a
//! whole word in any other `.rs` file under `crates/`, `src/`, `tests/`,
//! `examples/` or `perf/`, or more than once in its own file's
//! production part. `target/` directories and this file are skipped.
//!
//! The compiler's dead-code lint cannot see an unused `pub` item, so this
//! test holds the unused set to [`KEEP`]. The check matches names, not
//! paths: a function that shares its name with another item, or that a
//! comment elsewhere names, counts as used.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs;
use std::path::{Path, PathBuf};

/// The unused public functions that stay, each with its reason.
const KEEP: &[&str] = &[
    // References and fixtures that unit tests check other code against.
    "prim_mst",                  // Kruskal's MST equals it
    "ag_matrix_from_definition", // the §B.3 gadget matrix equals it
    "is_unitary",                // every gate passes it
    "maximally_mixed",           // the density-matrix fixture state
    "equality_fooling_set",      // the fooling-set bounds' fixture
    // Paper claims that wait for the artifact that will print them.
    "empirical_win_rate",      // sampled CHSH plays (DESIGN's BELL row)
    "gapeq_st_pair",           // Corollary 3.10's s-t reading (C310)
    "thm38_weight_separation", // the §9.2 gap of the Theorem 3.8 certificate
];

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            if path.file_name() != Some("target".as_ref()) {
                rs_files(&path, out);
            }
        } else if path.extension() == Some("rs".as_ref()) {
            out.push(path);
        }
    }
}

fn is_production(rel: &Path) -> bool {
    let parts: Vec<&str> = rel.iter().filter_map(|p| p.to_str()).collect();
    match parts.as_slice() {
        ["src", next, ..] => *next != "bin",
        ["crates", _, "src", next, ..] => *next != "bin",
        _ => false,
    }
}

fn is_word_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn word_counts(text: &str) -> HashMap<&str, usize> {
    let mut counts = HashMap::new();
    for word in text.split(|c: char| !is_word_char(c)) {
        *counts.entry(word).or_insert(0) += 1;
    }
    counts
}

#[test]
fn every_public_fn_outside_the_keep_list_is_used() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "perf"] {
        rs_files(&root.join(dir), &mut files);
    }
    let this_file = root.join(file!());
    files.retain(|path| *path != this_file);
    let texts: Vec<String> = files
        .iter()
        .map(|path| fs::read_to_string(path).expect("readable source file"))
        .collect();
    let mut total: HashMap<&str, usize> = HashMap::new();
    let per_file: Vec<HashMap<&str, usize>> = texts.iter().map(|t| word_counts(t)).collect();
    for counts in &per_file {
        for (word, n) in counts {
            *total.entry(word).or_insert(0) += n;
        }
    }

    let mut unused: BTreeMap<&str, String> = BTreeMap::new();
    for ((path, text), own) in files.iter().zip(&texts).zip(&per_file) {
        let rel = path.strip_prefix(root).expect("under the root");
        if !is_production(rel) {
            continue;
        }
        let prod = text.find("#[cfg(test)]").map_or(&text[..], |i| &text[..i]);
        let prod_counts = word_counts(prod);
        for line in prod.lines() {
            let line = line.trim_start();
            let Some(rest) = line
                .strip_prefix("pub fn ")
                .or(line.strip_prefix("pub const fn "))
            else {
                continue;
            };
            let name = rest
                .split(|c: char| !is_word_char(c))
                .next()
                .unwrap_or(rest);
            if total[name] == own[name] && prod_counts[name] == 1 {
                unused.insert(name, rel.display().to_string());
            }
        }
    }

    let found: BTreeSet<&str> = unused.keys().copied().collect();
    let kept: BTreeSet<&str> = KEEP.iter().copied().collect();
    assert_eq!(
        found, kept,
        "unused public functions (name: file): {unused:#?}\n\
         delete the ones not in KEEP, and drop KEEP entries that gained a caller"
    );
}
