//! Workspace rules that are plain text properties of the tree, held by
//! grep tests in the style of `books_are_sans_io` in `dx-dist`: every
//! crate root keeps its unsafe-code ban, and each wire constant has one
//! declaration in its home file.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("tests/ sits in the workspace").into()
}

/// Every `.rs` file under `crates/`, `tests/` and `examples/` as a
/// workspace-relative path, sorted; the analysis fixtures (seeded
/// violations, never compiled) are skipped.
fn rust_files(root: &Path) -> Vec<String> {
    let mut stack: Vec<PathBuf> = ["crates", "tests", "examples"].map(|d| root.join(d)).into();
    let mut files = Vec::new();
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("readable dir") {
            let path = entry.expect("readable entry").path();
            if path.is_dir() {
                if !path.ends_with("fixtures") {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(root).expect("under the root");
                files.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    files.sort();
    files
}

fn has_line(text: &str, want: &str) -> bool {
    text.lines().any(|l| l.trim() == want)
}

#[test]
fn crate_roots_ban_unsafe_code() {
    let root = workspace_root();
    let roots: Vec<String> = rust_files(&root)
        .into_iter()
        .filter(|f| f.ends_with("/src/lib.rs") || f.ends_with("/src/main.rs"))
        .collect();
    assert!(roots.len() >= 17, "the walk missed crate roots: {roots:#?}");
    for rel in &roots {
        let text = std::fs::read_to_string(root.join(rel)).expect("readable crate root");
        // dist denies rather than forbids: its `signal(2)` shim carries
        // the one `#[expect(unsafe_code)]`, which `forbid` would reject.
        let want = if rel == "crates/dist/src/lib.rs" {
            "#![deny(unsafe_code)]"
        } else {
            "#![forbid(unsafe_code)]"
        };
        assert!(has_line(&text, want), "{rel} lacks `{want}`");
    }
    let analysis = std::fs::read_to_string(root.join("crates/analysis/src/lib.rs")).unwrap();
    assert!(
        has_line(&analysis, "#![deny(missing_docs)]"),
        "dx-analysis lacks `#![deny(missing_docs)]`"
    );
}

#[test]
fn wire_constants_are_declared_once_in_their_home_files() {
    let root = workspace_root();
    let files = rust_files(&root);
    for (name, home) in [
        ("MAX_FRAME", "crates/dist/src/wire.rs"),
        ("PROTOCOL_VERSION", "crates/dist/src/proto.rs"),
        ("HELLO_FRAME_CAP", "crates/dist/src/engine.rs"),
    ] {
        let decl = format!("const {name}:");
        let mut sites = Vec::new();
        for rel in &files {
            let text = std::fs::read_to_string(root.join(rel)).expect("readable source");
            for (n, line) in text.lines().enumerate() {
                if line.contains(&decl) && !line.trim_start().starts_with("//") {
                    sites.push((rel.as_str(), n + 1));
                }
            }
        }
        assert!(
            sites.len() == 1 && sites[0].0 == home,
            "`{name}` must be declared exactly once, in {home}; found {sites:?}"
        );
    }
}
