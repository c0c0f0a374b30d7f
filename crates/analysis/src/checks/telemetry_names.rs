//! Telemetry-name registry check.
//!
//! Metric names are stringly-typed at every registration site and again
//! in the README, the CI workflows and the scrape scripts; nothing but
//! convention keeps them aligned. This check makes the convention
//! mechanical, against the central catalog in
//! `crates/telemetry/src/names.rs`:
//!
//! 1. every name in the catalog is snake_case, `dx_`-prefixed and
//!    listed exactly once;
//! 2. every name passed to `counter`/`gauge`/`histogram`/`set_help` in
//!    non-test code appears in the catalog;
//! 3. every catalog name is actually registered somewhere, referenced
//!    by the docs (README/scripts/workflows), and every `dx_…` token in
//!    those docs resolves to a catalog name (histogram `_count`/`_sum`/
//!    `_bucket` series resolve to their base name);
//! 4. `events::emit` component and event names are legal snake_case
//!    (events are free-form by design — a campaign emits tenant-named
//!    fields — so they take no catalog, only a shape rule).

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Kind, Tok};
use crate::{Check, Finding, SourceFile, Workspace};

/// The telemetry-name registry check (`telemetry-name`).
pub struct TelemetryNames;

const REGISTER_METHODS: [&str; 4] = ["counter", "gauge", "histogram", "set_help"];
/// Groups whose metric usage is exempt from catalog membership (ad-hoc
/// names in harnesses), though still shape-checked.
const EXEMPT_GROUPS: [&str; 3] = ["bench", "tests", "examples"];

impl Check for TelemetryNames {
    fn id(&self) -> &'static str {
        "telemetry-name"
    }

    fn describe(&self) -> &'static str {
        "metric names vs the names.rs catalog, the docs, and Prometheus legality"
    }

    fn run(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        // The catalog: every `dx_…` string literal in names.rs.
        let registry_file = ws.files_named("names.rs").next();
        let mut catalog: BTreeMap<String, usize> = BTreeMap::new();
        if let Some(reg) = registry_file {
            let mut seen: BTreeSet<&str> = BTreeSet::new();
            for t in &reg.toks {
                let Some(name) = t.str_value() else { continue };
                if !name.starts_with("dx_") || reg.in_test(t.line) {
                    continue;
                }
                if !seen.insert(name) {
                    out.push(Finding {
                        file: reg.rel.clone(),
                        line: t.line,
                        check: "telemetry-name",
                        message: format!("`{name}` declared more than once in the catalog"),
                        hint: "each metric name is declared exactly once".to_string(),
                    });
                } else {
                    if !snake_legal(name) {
                        out.push(Finding {
                            file: reg.rel.clone(),
                            line: t.line,
                            check: "telemetry-name",
                            message: format!("`{name}` is not a legal metric name"),
                            hint: "use snake_case: [a-z_][a-z0-9_]*".to_string(),
                        });
                    }
                    catalog.insert(name.to_string(), t.line);
                }
            }
        }

        // Registration sites in non-test code.
        let mut used: BTreeSet<String> = BTreeSet::new();
        for file in &ws.files {
            if file.is_test_target()
                || Some(file.rel.as_str()) == registry_file.map(|f| f.rel.as_str())
            {
                continue;
            }
            let exempt = EXEMPT_GROUPS.contains(&file.group.as_str());
            let toks = code_toks(file);
            for i in 0..toks.len().saturating_sub(3) {
                if toks[i].is_punct('.')
                    && toks[i + 1].kind == Kind::Ident
                    && REGISTER_METHODS.contains(&toks[i + 1].text.as_str())
                    && toks[i + 2].is_punct('(')
                    && toks[i + 3].kind == Kind::Str
                {
                    let line = toks[i + 1].line;
                    if file.in_test(line) {
                        continue;
                    }
                    let Some(name) = toks[i + 3].str_value() else { continue };
                    if !snake_legal(name) {
                        out.push(Finding {
                            file: file.rel.clone(),
                            line,
                            check: "telemetry-name",
                            message: format!("metric name `{name}` is not legal snake_case"),
                            hint: "Prometheus names here follow [a-z_][a-z0-9_]*".to_string(),
                        });
                    }
                    if exempt {
                        continue;
                    }
                    used.insert(name.to_string());
                    if registry_file.is_some() && !catalog.contains_key(name) {
                        out.push(Finding {
                            file: file.rel.clone(),
                            line,
                            check: "telemetry-name",
                            message: format!(
                                "metric `{name}` is not declared in the names.rs catalog"
                            ),
                            hint: "add it to crates/telemetry/src/names.rs and the README table"
                                .to_string(),
                        });
                    }
                }
                // events::emit(Level::X, "component", "event", …)
                if toks[i].is_ident("emit") && toks[i + 1].is_punct('(') {
                    let line = toks[i].line;
                    if file.in_test(line) || exempt {
                        continue;
                    }
                    let mut strs = Vec::new();
                    let mut depth = 0i32;
                    for t in &toks[i + 1..] {
                        if t.is_punct('(') {
                            depth += 1;
                        } else if t.is_punct(')') {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        } else if t.kind == Kind::Str && depth == 1 && strs.len() < 2 {
                            strs.push(t);
                        }
                    }
                    for t in strs {
                        if let Some(v) = t.str_value() {
                            if !snake_legal(v) {
                                out.push(Finding {
                                    file: file.rel.clone(),
                                    line: t.line,
                                    check: "telemetry-name",
                                    message: format!(
                                        "event component/name `{v}` is not legal snake_case"
                                    ),
                                    hint: "JSONL event fields follow [a-z_][a-z0-9_]*".to_string(),
                                });
                            }
                        }
                    }
                }
            }
        }

        let Some(reg) = registry_file else {
            return;
        };
        // Catalog hygiene: no dead entries, and docs reference each name.
        let doc_text: String =
            ws.docs.iter().map(|(_, text)| text.as_str()).collect::<Vec<_>>().join("\n");
        for (name, line) in &catalog {
            if !used.contains(name) {
                out.push(Finding {
                    file: reg.rel.clone(),
                    line: *line,
                    check: "telemetry-name",
                    message: format!("catalog name `{name}` is never registered by any code"),
                    hint: "delete the dead entry or wire the metric up".to_string(),
                });
            }
            if !doc_text.contains(name) {
                out.push(Finding {
                    file: reg.rel.clone(),
                    line: *line,
                    check: "telemetry-name",
                    message: format!("catalog name `{name}` is not documented in the README"),
                    hint: "add it to the metrics table".to_string(),
                });
            }
        }
        // Docs must not reference names the catalog does not know.
        for (doc, text) in &ws.docs {
            for (lineno, line) in text.lines().enumerate() {
                for token in dx_tokens(line) {
                    let base = token
                        .strip_suffix("_count")
                        .or_else(|| token.strip_suffix("_sum"))
                        .or_else(|| token.strip_suffix("_bucket"))
                        .filter(|b| catalog.contains_key(*b));
                    if base.is_none() && !catalog.contains_key(token) {
                        out.push(Finding {
                            file: doc.clone(),
                            line: lineno + 1,
                            check: "telemetry-name",
                            message: format!(
                                "doc references metric `{token}`, which is not in the catalog"
                            ),
                            hint: "stale docs: fix the name or add it to names.rs".to_string(),
                        });
                    }
                }
            }
        }
    }
}

/// `dx_…` word tokens in a line of documentation.
fn dx_tokens(line: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let bytes = line.as_bytes();
    let mut i = 0;
    while let Some(pos) = line[i..].find("dx_") {
        let start = i + pos;
        // Must not be the tail of a larger word (dir names like
        // `/tmp/dx-…` use hyphens, so they never match `dx_`).
        let boundary =
            start == 0 || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
        let mut end = start;
        while end < line.len()
            && (bytes[end].is_ascii_lowercase()
                || bytes[end].is_ascii_digit()
                || bytes[end] == b'_')
        {
            end += 1;
        }
        if boundary && end > start + 3 {
            out.push(&line[start..end]);
        }
        i = end.max(start + 3);
    }
    out
}

/// The file's tokens with comments stripped.
fn code_toks(file: &SourceFile) -> Vec<&Tok> {
    file.toks.iter().filter(|t| !matches!(t.kind, Kind::LineComment | Kind::BlockComment)).collect()
}

/// Whether a name is a legal snake_case identifier (our convention for
/// metric names and event names).
fn snake_legal(name: &str) -> bool {
    !name.is_empty()
        && name.chars().next().is_some_and(|c| c.is_ascii_lowercase() || c == '_')
        && name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}
