//! `dx-analysis` — in-tree whitebox static analysis for this workspace.
//!
//! DeepXplore's thesis is that systematic whitebox analysis finds the
//! faults random testing misses; this crate turns that lens on the
//! codebase itself, for the fault classes rustc and clippy cannot see.
//! What they can enforce stays with them: panic paths are denied clippy
//! lints, hash-ordered collections a `clippy.toml` ban, and the wire,
//! protocol and checkpoint invariants const asserts and round-trip
//! tests. What remains is a rustc-`tidy`-style pass: a small
//! comment/string-aware lexer ([`lexer`]), one syntax layer over it
//! ([`ast`]), a guard-tracking dataflow walk ([`dataflow`]), a pluggable
//! [`Check`] trait, and two checks over the walk — lock-order deadlock
//! hazards and blocking calls under a contended lock. (The metric-name
//! catalog's rules are tests beside the catalog, not a check here.)
//!
//! Run it with `cargo run -p dx-analysis`, which drives [`scan`] and
//! [`report`]. Findings are machine-readable, one per line — a file the
//! syntax layer cannot parse is one too (`[parse]`):
//!
//! ```text
//! crates/analysis/fixtures/bad/lockmesh/src/deadlock.rs:37: [lock-order] `lockmesh::journal` re-acquired while already held (guard taken at line 36) — std::sync::Mutex self-deadlocks
//! ```
//!
//! A finding is suppressed — never silently — with an allow comment:
//!
//! ```text
//! // analysis: allow(hold-blocking): the lock is uncontended once the fleet has drained
//! ```
//!
//! The comment applies to its own line and the next; a justification
//! may wrap across consecutive `//` lines, which extend the scope to
//! the line after the last one. Add `, file` after the check id
//! (`allow(lock-order, file)`) to cover the whole file. The justification
//! after the second `:` is mandatory, and an allow that suppresses
//! nothing is itself reported, so stale allows cannot accumulate.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ast;
pub mod checks;
pub mod dataflow;
pub mod lexer;

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use lexer::{Kind, Tok};

/// One reported problem: file, line, the check that fired, the message,
/// and an optional remediation hint (printed under `--fix-hints`).
#[derive(Clone, Debug)]
pub struct Finding {
    /// Path as scanned (relative to the scan root's parent invocation).
    pub file: String,
    /// 1-based source line.
    pub line: usize,
    /// The check id (`lock-order`, `hold-blocking`, `allow`, `parse`).
    pub check: &'static str,
    /// Human-readable description of the problem.
    pub message: String,
    /// How to fix it, shown under `--fix-hints`.
    pub hint: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.check, self.message)
    }
}

/// A parsed allow comment.
#[derive(Clone, Debug)]
pub struct Allow {
    /// The check id being allowed.
    pub check: String,
    /// Line the comment sits on.
    pub line: usize,
    /// Last line of the comment block: the justification may wrap over
    /// consecutive `//` lines, and the allow covers through `end + 1`.
    pub end: usize,
    /// Whether it covers the whole file.
    pub file_scope: bool,
    /// The justification text (may be empty — then the allow itself is
    /// a finding).
    pub justification: String,
    /// Set by the engine when the allow suppressed at least one finding.
    pub used: std::cell::Cell<bool>,
}

/// One source file: its path, token stream, syntax tree, and derived
/// facts the checks share.
pub struct SourceFile {
    /// Path as printed in findings (scan-root relative).
    pub rel: String,
    /// The token stream from [`lexer::lex`].
    pub toks: Vec<Tok>,
    /// The crate-ish grouping key: `crates/dist/src/x.rs` → `dist`.
    pub group: String,
    /// Allow comments parsed from this file.
    pub allows: Vec<Allow>,
    /// The syntax tree from [`ast::parse`]. A file that does not parse
    /// has no items and an [`ast::File::error`], which [`run_all`]
    /// reports as a `[parse]` finding.
    pub ast: ast::File,
}

impl SourceFile {
    /// Builds a source file from text: tokens, syntax tree, group and
    /// allows.
    pub fn new(rel: String, text: &str) -> Self {
        let toks = lexer::lex(text);
        let ast = ast::parse(&toks);
        let group = group_of(&rel);
        let allows = parse_allows(&toks);
        Self { rel, toks, group, allows, ast }
    }

    /// Whether the given 1-based line is inside a `#[cfg(test)]` item.
    pub fn in_test(&self, line: usize) -> bool {
        self.ast.test_spans.iter().any(|&(first, last)| (first..=last).contains(&line))
    }

    /// Whether this file looks like an integration-test or bench target
    /// (under a `tests/`, `benches/` or `examples/` directory), which the
    /// checks treat as test code.
    pub fn is_test_target(&self) -> bool {
        self.rel.split('/').any(|c| c == "tests" || c == "benches" || c == "examples")
    }
}

/// Everything one scan sees: the Rust sources under a root.
pub struct Workspace {
    /// All lexed `.rs` files, sorted by path.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Loads every `.rs` file under `root`. Directories
    /// named `target`, `.git` and — below the root only — `fixtures`
    /// are skipped, so a workspace scan never lints the seeded fixture
    /// violations while an explicit fixture scan still works.
    ///
    /// # Errors
    ///
    /// Any filesystem failure.
    pub fn load(root: &Path) -> io::Result<Self> {
        let mut files = Vec::new();
        let mut stack = vec![root.to_path_buf()];
        while let Some(dir) = stack.pop() {
            let mut entries: Vec<_> = std::fs::read_dir(&dir)?.collect::<io::Result<Vec<_>>>()?;
            entries.sort_by_key(std::fs::DirEntry::path);
            for entry in entries {
                let path = entry.path();
                let name = entry.file_name().to_string_lossy().into_owned();
                if path.is_dir() {
                    if name == "target" || name == ".git" || (name == "fixtures" && dir != *root) {
                        continue;
                    }
                    stack.push(path);
                } else if name.ends_with(".rs") {
                    let rel = rel_to(root, &path);
                    files.push(SourceFile::new(rel, &std::fs::read_to_string(&path)?));
                }
            }
        }
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Ok(Self { files })
    }

    /// The files of one crate group, in path order.
    pub fn group<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SourceFile> + 'a {
        self.files.iter().filter(move |f| f.group == name)
    }

    /// All distinct group names, sorted.
    pub fn group_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.files.iter().map(|f| f.group.clone()).collect();
        names.sort();
        names.dedup();
        names
    }
}

/// Walks up from `start` to the first directory whose `Cargo.toml`
/// declares a `[workspace]` table — the scan root when [`scan`] is given
/// no path.
fn workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn rel_to(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let mut s = String::new();
    if root != Path::new(".") && root != Path::new("") {
        s.push_str(&root.to_string_lossy());
        if !s.ends_with('/') {
            s.push('/');
        }
    }
    s + &rel.to_string_lossy().replace('\\', "/")
}

/// The crate-ish grouping key of a path: the component before `src` if
/// there is one (`crates/dist/src/x.rs` → `dist`), otherwise the file's
/// parent directory name. Integration-test and bench directories group
/// under their own name, never under the crate.
fn group_of(rel: &str) -> String {
    let parts: Vec<&str> = rel.split('/').collect();
    for (i, p) in parts.iter().enumerate() {
        if *p == "src" && i > 0 {
            return parts[i - 1].to_string();
        }
    }
    if parts.len() >= 2 {
        parts[parts.len() - 2].to_string()
    } else {
        "root".to_string()
    }
}

/// Parses `// analysis: allow(check[, file]): justification` comments.
/// A justification that wraps over consecutive `//` lines extends the
/// allow's `end` through the last comment line of the block.
fn parse_allows(toks: &[Tok]) -> Vec<Allow> {
    let comment_lines: std::collections::BTreeSet<usize> =
        toks.iter().filter(|t| t.kind == Kind::LineComment).map(|t| t.line).collect();
    let mut allows = Vec::new();
    for t in toks {
        if t.kind != Kind::LineComment {
            continue;
        }
        let body = t.text.trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("analysis:") else { continue };
        let rest = rest.trim();
        let Some(rest) = rest.strip_prefix("allow(") else { continue };
        let Some(close) = rest.find(')') else { continue };
        let inside = &rest[..close];
        let after = rest[close + 1..].trim();
        let justification =
            after.strip_prefix(':').map(|j| j.trim().to_string()).unwrap_or_default();
        let mut parts = inside.split(',').map(str::trim);
        let check = parts.next().unwrap_or("").to_string();
        let file_scope = parts.any(|p| p == "file");
        let mut end = t.line;
        while comment_lines.contains(&(end + 1)) {
            end += 1;
        }
        allows.push(Allow {
            check,
            line: t.line,
            end,
            file_scope,
            justification,
            used: std::cell::Cell::new(false),
        });
    }
    allows
}

/// A single analysis pass over a [`Workspace`].
pub trait Check {
    /// Stable id used in findings and allow comments.
    fn id(&self) -> &'static str;
    /// One-line description for the check catalog.
    fn describe(&self) -> &'static str;
    /// Runs the check, appending findings to `out`.
    fn run(&self, ws: &Workspace, out: &mut Vec<Finding>);
}

/// Runs every registered check over the workspace, applies allow
/// comments, and reports allow-hygiene problems (missing justification,
/// unused allows, unknown check ids). Findings come back sorted by
/// file, line, then check id.
pub fn run_all(ws: &Workspace) -> Vec<Finding> {
    let all = checks::all();
    let mut raw = Vec::new();
    for check in &all {
        check.run(ws, &mut raw);
    }
    let known: Vec<&str> = all.iter().map(|c| c.id()).collect();
    let mut findings = Vec::new();
    let by_file: BTreeMap<&str, &SourceFile> =
        ws.files.iter().map(|f| (f.rel.as_str(), f)).collect();
    for finding in raw {
        let suppressed = by_file.get(finding.file.as_str()).is_some_and(|f| {
            f.allows.iter().any(|a| {
                let hit = a.check == finding.check
                    && !a.justification.is_empty()
                    && (a.file_scope || (finding.line >= a.line && finding.line <= a.end + 1));
                if hit {
                    a.used.set(true);
                }
                hit
            })
        });
        if !suppressed {
            findings.push(finding);
        }
    }
    for f in &ws.files {
        for a in &f.allows {
            if !known.contains(&a.check.as_str()) {
                findings.push(Finding {
                    file: f.rel.clone(),
                    line: a.line,
                    check: "allow",
                    message: format!("allow names unknown check `{}`", a.check),
                    hint: format!("known checks: {}", known.join(", ")),
                });
            } else if a.justification.is_empty() {
                findings.push(Finding {
                    file: f.rel.clone(),
                    line: a.line,
                    check: "allow",
                    message: format!("allow({}) without a justification", a.check),
                    hint: "write `// analysis: allow(check): why this is sound`".to_string(),
                });
            } else if !a.used.get() {
                findings.push(Finding {
                    file: f.rel.clone(),
                    line: a.line,
                    check: "allow",
                    message: format!("allow({}) suppresses no finding", a.check),
                    hint: "delete the stale allow comment".to_string(),
                });
            }
        }
    }
    for f in &ws.files {
        if let Some((line, why)) = &f.ast.error {
            findings.push(Finding {
                file: f.rel.clone(),
                line: *line,
                check: "parse",
                message: format!(
                    "{why}: the file does not parse, so no syntax-based check sees it"
                ),
                hint: "fix the syntax (`cargo check` names the exact error)".to_string(),
            });
        }
    }
    sort(&mut findings);
    findings
}

fn sort(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.check).cmp(&(b.file.as_str(), b.line, b.check))
    });
}

/// The scan sequence behind the `dx-analysis` binary:
/// loads each path (with none, the enclosing cargo workspace, which
/// becomes the working directory so findings print root-relative), runs
/// [`run_all`] on it, and returns every finding, sorted.
///
/// # Errors
///
/// No enclosing workspace, or a path that cannot be read.
pub fn scan(paths: &[PathBuf]) -> Result<Vec<Finding>, String> {
    let mut paths = paths.to_vec();
    if paths.is_empty() {
        let cwd = std::env::current_dir().unwrap_or_default();
        let root =
            workspace_root(&cwd).ok_or("no enclosing cargo workspace; pass a directory to scan")?;
        std::env::set_current_dir(&root)
            .map_err(|e| format!("cannot enter workspace root {}: {e}", root.display()))?;
        paths.push(PathBuf::from("."));
    }
    let mut findings = Vec::new();
    for path in &paths {
        let ws =
            Workspace::load(path).map_err(|e| format!("cannot scan {}: {e}", path.display()))?;
        findings.extend(run_all(&ws));
    }
    sort(&mut findings);
    Ok(findings)
}

/// Prints findings one per line on stdout — each followed by its hint
/// under `fix_hints` — and, when there are none, `dx-analysis: clean
/// (N checks)` on stderr.
///
/// # Errors
///
/// `"N finding(s)"` when there is anything to report.
pub fn report(findings: &[Finding], fix_hints: bool) -> Result<(), String> {
    for f in findings {
        println!("{f}");
        if fix_hints && !f.hint.is_empty() {
            println!("    hint: {}", f.hint);
        }
    }
    if findings.is_empty() {
        eprintln!("dx-analysis: clean ({} checks)", checks::all().len());
        Ok(())
    } else {
        Err(format!("{} finding(s)", findings.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_follow_src_layout() {
        assert_eq!(group_of("crates/dist/src/coordinator.rs"), "dist");
        assert_eq!(group_of("crates/compat/rand/src/lib.rs"), "rand");
        assert_eq!(group_of("tests/src/lib.rs"), "tests");
        assert_eq!(group_of("crates/telemetry/tests/proptests.rs"), "tests");
        assert_eq!(group_of("bad/lockmesh/src/deadlock.rs"), "lockmesh");
    }

    #[test]
    fn cfg_test_regions_cover_the_attached_item() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let f = SourceFile::new("crates/dist/src/x.rs".into(), src);
        assert!(!f.in_test(1));
        assert!(f.in_test(2));
        assert!(f.in_test(4));
        assert!(!f.in_test(6));
    }

    #[test]
    fn allow_comments_parse_scope_and_justification() {
        let src = "// analysis: allow(hold-blocking): uncontended once the fleet drained\n\
                   // analysis: allow(lock-order, file): single-threaded tool\n\
                   // analysis: allow(hold-blocking)\n";
        let f = SourceFile::new("x/src/a.rs".into(), src);
        assert_eq!(f.allows.len(), 3);
        assert_eq!(f.allows[0].check, "hold-blocking");
        assert!(!f.allows[0].file_scope);
        assert!(f.allows[0].justification.contains("drained"));
        assert!(f.allows[1].file_scope);
        assert!(f.allows[2].justification.is_empty());
    }

    #[test]
    fn wrapped_allow_justification_extends_the_scope() {
        let src = "// analysis: allow(lock-order): the justification wraps\n\
                   // over two more comment lines before the\n\
                   // flagged call site\n\
                   let a = m.lock();\n\
                   let b = m.lock();\n";
        let f = SourceFile::new("x/src/a.rs".into(), src);
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].line, 1);
        assert_eq!(f.allows[0].end, 3);
    }
}
