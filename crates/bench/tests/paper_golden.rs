//! Golden tests for the paper's artifact binaries: each binary's stdout
//! is pinned byte-for-byte against `tests/golden/paper/<name>.txt`,
//! driven through the real binary (`CARGO_BIN_EXE_<name>`).
//!
//! Every binary is seeded, and its debug output equals its release
//! output, so the test runs in either profile. `thm61_server_hardness`
//! takes about 11 s in release and nearly 5 minutes in debug, so its
//! test is `#[ignore]`d; run it in release:
//!
//! ```text
//! cargo test --release -p qdc-bench --test paper_golden -- --ignored
//! ```
//!
//! Regenerate after a deliberate output change with (add
//! `--release -- --ignored` for `thm61_server_hardness`):
//!
//! ```text
//! QDC_UPDATE_GOLDEN=1 cargo test -p qdc-bench --test paper_golden
//! ```

use std::path::Path;
use std::process::Command;

/// Runs one artifact binary and compares its stdout against the
/// committed fixture, or rewrites the fixture when `QDC_UPDATE_GOLDEN=1`
/// is set.
fn check(name: &str, exe: &str) {
    let out = Command::new(exe).output().expect("binary runs");
    assert!(
        out.status.success(),
        "{name} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let produced = String::from_utf8(out.stdout).expect("utf8 output");
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/paper")
        .join(format!("{name}.txt"));
    if std::env::var("QDC_UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        std::fs::write(&path, produced).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with QDC_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        produced,
        want,
        "{name} output drifted from {}; if the change is deliberate, \
         regenerate with QDC_UPDATE_GOLDEN=1",
        path.display()
    );
}

/// One test per binary, named after it.
macro_rules! paper_goldens {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            check(
                stringify!($name),
                env!(concat!("CARGO_BIN_EXE_", stringify!($name))),
            );
        }
    )*};
}

paper_goldens!(
    chaos_suite,
    cor37_suite,
    cor39_suite,
    ex11_disjointness,
    fig1_pipeline,
    fig2_table,
    fig3_mst_tradeoff,
    fig46_gadgets,
    fig810_network,
    games_chsh,
    open_problems,
    server_equivalence,
    thm35_simulation,
    thm36_verification,
    thm38_mst,
    thm_certificates,
);

#[test]
#[ignore = "about 5 minutes in debug; run with --release -- --ignored"]
fn thm61_server_hardness() {
    check(
        "thm61_server_hardness",
        env!("CARGO_BIN_EXE_thm61_server_hardness"),
    );
}
