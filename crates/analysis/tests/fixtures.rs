//! Fixture regression: the `bad/` tree must surface exactly the
//! findings in `fixtures/expected.txt` (every seeded violation, for
//! every check, and nothing else), and the `good/` tree — clean code
//! plus every lexer trap — must produce zero findings.
//!
//! CI runs the same comparison from the workspace root via
//! `cargo run -p dx-analysis -- --expect crates/analysis/fixtures/expected.txt`,
//! so `expected.txt` stores workspace-root-relative paths; this test
//! normalizes its absolute scan root back to that prefix.

use std::collections::BTreeSet;
use std::path::Path;

use dx_analysis::{run_all, Workspace};

fn scan(tree: &str) -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(tree);
    let ws = Workspace::load(&root).expect("fixture tree loads");
    let abs_prefix = format!("{}/fixtures/", Path::new(env!("CARGO_MANIFEST_DIR")).display());
    run_all(&ws)
        .iter()
        .map(|f| f.to_string().replace(&abs_prefix, "crates/analysis/fixtures/"))
        .collect()
}

#[test]
fn bad_fixtures_surface_every_seeded_violation() {
    let got: BTreeSet<String> = scan("bad").into_iter().collect();
    let expected = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join("expected.txt"),
    )
    .expect("expected.txt exists");
    let want: BTreeSet<String> =
        expected.lines().filter(|l| !l.trim().is_empty()).map(str::to_string).collect();
    let missing: Vec<_> = want.difference(&got).collect();
    let unexpected: Vec<_> = got.difference(&want).collect();
    assert!(
        missing.is_empty() && unexpected.is_empty(),
        "fixture drift\nmissing: {missing:#?}\nunexpected: {unexpected:#?}"
    );
    // Every check id must appear: a regression that silences one whole
    // check while the others still fire should not pass.
    for check in ["lock-order", "hold-blocking", "allow", "parse"] {
        assert!(
            got.iter().any(|l| l.contains(&format!("[{check}]"))),
            "no `{check}` finding in the bad fixtures"
        );
    }
}

#[test]
fn good_fixtures_are_clean() {
    let got = scan("good");
    assert!(got.is_empty(), "good fixtures must be finding-free, got: {got:#?}");
}
