//! Workspace rules that are plain text properties of the tree, held by
//! grep tests in the style of `books_are_sans_io` in `dx-dist`: every
//! crate root keeps its unsafe-code ban, each wire constant has one
//! declaration in its home file, product code sleeps only through the
//! checked wrapper in `crates/telemetry/src/sync.rs`, and the metric
//! catalog in `crates/telemetry/src/names.rs` is the one place a metric
//! name is spelled — registered by the code, named in the README, and the
//! only source of the `dx_…` names the docs use.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("tests/ sits in the workspace").into()
}

/// Every `.rs` file under `crates/`, `tests/` and `examples/` as a
/// workspace-relative path, sorted.
fn rust_files(root: &Path) -> Vec<String> {
    let mut stack: Vec<PathBuf> = ["crates", "tests", "examples"].map(|d| root.join(d)).into();
    let mut files = Vec::new();
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("readable dir") {
            let path = entry.expect("readable entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(root).expect("under the root");
                files.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    files.sort();
    files
}

/// The non-test part of a source file: the lines before its first
/// `#[cfg(test)]`, as `ci/src_lines.sh` counts them.
fn non_test(text: &str) -> &str {
    text.find("#[cfg(test)]").map_or(text, |at| &text[..at])
}

/// The non-test code of every product source file — `crates/<crate>/src`,
/// the `crates/bench` harness excluded — with comment lines blanked, as
/// `(rel path, code)`. The metric catalog itself is left out.
fn product_code(root: &Path) -> Vec<(String, String)> {
    rust_files(root)
        .into_iter()
        .filter(|rel| {
            let parts: Vec<&str> = rel.split('/').collect();
            parts.len() > 3
                && parts[0] == "crates"
                && parts[2] == "src"
                && parts[1] != "bench"
                && rel != "crates/telemetry/src/names.rs"
        })
        .map(|rel| {
            let text = std::fs::read_to_string(root.join(&rel)).expect("readable source");
            let code: Vec<&str> = non_test(&text)
                .lines()
                .map(|l| if l.trim_start().starts_with("//") { "" } else { l })
                .collect();
            (rel, code.join("\n"))
        })
        .collect()
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The `dx_…` words of a text: `dx_` not preceded by an identifier
/// character, through the last lowercase/digit/`_` character.
fn dx_tokens(text: &str) -> Vec<&str> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    for (start, _) in text.match_indices("dx_") {
        if start > 0 && is_ident_byte(bytes[start - 1]) {
            continue;
        }
        let len = bytes[start..]
            .iter()
            .take_while(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || **b == b'_')
            .count();
        if len > 3 {
            out.push(&text[start..start + len]);
        }
    }
    out
}

/// Whether `text` holds `word` with no identifier character after it.
fn has_word(text: &str, word: &str) -> bool {
    text.match_indices(word)
        .any(|(at, _)| !text.as_bytes().get(at + word.len()).copied().is_some_and(is_ident_byte))
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
    assert!(roots.len() >= 15, "the walk missed crate roots: {roots:#?}");
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
}

#[test]
fn product_code_sleeps_only_through_the_checked_wrapper() {
    let root = workspace_root();
    let wrapper = "crates/telemetry/src/sync.rs";
    let mut sites = Vec::new();
    for rel in rust_files(&root) {
        if !rel.starts_with("crates/") || !rel.contains("/src/") {
            continue;
        }
        let text = std::fs::read_to_string(root.join(&rel)).expect("readable source");
        for (n, line) in non_test(&text).lines().enumerate() {
            if line.contains("thread::sleep(") {
                sites.push(format!("{rel}:{}: {}", n + 1, line.trim()));
            }
        }
    }
    assert!(
        sites.len() == 1 && sites[0].starts_with(wrapper),
        "product code sleeps through `dx_telemetry::sync::sleep`, which asserts that no \
         contended lock is held; `thread::sleep(` outside {wrapper}:\n{}",
        sites.join("\n")
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

#[test]
fn metric_names_are_spelled_only_in_the_catalog() {
    let root = workspace_root();
    let mut sites = Vec::new();
    for (rel, code) in product_code(&root) {
        for (n, line) in code.lines().enumerate() {
            if line.contains("\"dx_") {
                sites.push(format!("{rel}:{}: {}", n + 1, line.trim()));
            }
        }
    }
    assert!(
        sites.is_empty(),
        "a metric is named by its `dx_telemetry::names` constant, never a \"dx_…\" literal:\n{}",
        sites.join("\n")
    );
}

#[test]
fn every_catalog_entry_is_registered_and_documented() {
    let root = workspace_root();
    let code = product_code(&root);
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    let documented = dx_tokens(&readme);
    for m in dx_telemetry::names::ALL {
        // The constant is the name without `dx_`, upper-cased.
        let constant = format!("names::{}", m.name["dx_".len()..].to_uppercase());
        assert!(
            code.iter().any(|(_, text)| has_word(text, &constant)),
            "catalog entry `{}` is never registered: no non-test code names `{constant}`",
            m.name
        );
        assert!(documented.contains(&m.name), "catalog entry `{}` is not in README.md", m.name);
    }
}

#[test]
fn doc_metric_names_resolve_to_the_catalog() {
    let root = workspace_root();
    let declared = |name: &str| dx_telemetry::names::lookup(name).is_some();
    let mut docs = Vec::new();
    let mut stack = vec![root.clone()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("readable dir") {
            let path = entry.expect("readable entry").path();
            let name =
                path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
            if path.is_dir() {
                if !matches!(name.as_str(), "target" | ".git" | "fixtures") {
                    stack.push(path);
                }
            } else if name == "README.md" || name.ends_with(".sh") || name.ends_with(".yml") {
                docs.push(path);
            }
        }
    }
    assert!(docs.len() >= 4, "the walk missed the docs: {docs:#?}");
    let mut stale = Vec::new();
    for doc in &docs {
        let text = std::fs::read_to_string(doc).expect("readable doc");
        for (n, line) in text.lines().enumerate() {
            for token in dx_tokens(line) {
                let base = ["_count", "_sum", "_bucket"]
                    .iter()
                    .find_map(|suffix| token.strip_suffix(suffix))
                    .filter(|base| declared(base));
                if base.is_none() && !declared(token) {
                    let rel = doc.strip_prefix(&root).unwrap_or(doc);
                    stale.push(format!("{}:{}: `{token}`", rel.display(), n + 1));
                }
            }
        }
    }
    assert!(stale.is_empty(), "docs name metrics the catalog lacks:\n{}", stale.join("\n"));
}

#[test]
fn emit_components_and_events_are_snake_case() {
    let root = workspace_root();
    let snake = |s: &str| {
        s.starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
            && s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    };
    let mut calls = 0;
    let mut bad = Vec::new();
    for (rel, code) in product_code(&root) {
        let bytes = code.as_bytes();
        for (at, _) in code.match_indices("emit(") {
            if at > 0 && is_ident_byte(bytes[at - 1]) {
                continue;
            }
            // The first two string literals among the call's arguments:
            // `emit(level, "component", "event", fields)`.
            let mut names = Vec::new();
            let mut depth = 0;
            let mut chars = code[at + "emit".len()..].chars();
            while let Some(c) = chars.next() {
                match c {
                    '(' | '[' => depth += 1,
                    ')' | ']' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    '"' => {
                        let lit: String = chars.by_ref().take_while(|&c| c != '"').collect();
                        if depth == 1 && names.len() < 2 {
                            names.push(lit);
                        }
                    }
                    _ => {}
                }
            }
            calls += usize::from(names.len() == 2);
            let line = code[..at].lines().count();
            bad.extend(names.iter().filter(|n| !snake(n)).map(|n| format!("{rel}:{line}: `{n}`")));
        }
    }
    assert!(calls >= 10, "the scan missed the emit calls ({calls} found)");
    assert!(bad.is_empty(), "event component/name is not snake_case:\n{}", bad.join("\n"));
}
