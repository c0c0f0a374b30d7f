//! Wire-protocol compatibility invariants.
//!
//! The dist wire protocol's safety rests on three constants and one
//! ordering rule, spread across files that evolve independently:
//!
//! 1. `MAX_FRAME`, `PROTOCOL_VERSION` and `HELLO_FRAME_CAP` (the one
//!    connection shell in `dx_dist::engine` serves both daemons) have
//!    exactly one declaration each — a second copy drifts. When the scan
//!    holds a `proto.rs`, that one `PROTOCOL_VERSION` is declared there:
//!    none at all, or a sole declaration elsewhere, is a finding too.
//! 2. `HELLO_FRAME_CAP` is smaller than `MAX_FRAME`: the pre-admission
//!    cap must be the tight one.
//! 3. In any function that creates a handshake reader
//!    (`FrameReader::with_cap(..)`) and later raises the cap
//!    (`set_cap`), the reader must start at `HELLO_FRAME_CAP` and every
//!    `set_cap` must sit inside an admission guard — an `if`/`match`
//!    on the connection's `slot` (or an `admitted` flag). Raising the
//!    cap before admission lets an unauthenticated peer post a 256 MiB
//!    frame.
//! 4. `Hello { version: … }` is built from `PROTOCOL_VERSION`, and the
//!    version field is never compared against a numeric literal — a
//!    hardcoded version freezes the handshake at one number.
//!
//! All rules skip test code, where speaking an old version on purpose
//! is the point.

use std::collections::BTreeMap;

use crate::ast::{self, eval_const, Expr, Item, Node, Stmt};
use crate::{Check, Finding, SourceFile, Workspace};

/// The wire-compatibility checker (`wire-compat`).
pub struct WireCompat;

impl Check for WireCompat {
    fn id(&self) -> &'static str {
        "wire-compat"
    }

    fn describe(&self) -> &'static str {
        "frame-cap constants, handshake cap ordering and protocol-version hygiene in sync"
    }

    fn run(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        check_constants(ws, out);
        for file in &ws.files {
            if file.is_test_target() {
                continue;
            }
            check_handshake_order(file, out);
            check_version_hygiene(file, out);
        }
    }
}

/// The wire constants rule 1 keeps to one declaration each.
const WIRE_CONSTS: [&str; 3] = ["MAX_FRAME", "PROTOCOL_VERSION", "HELLO_FRAME_CAP"];

/// One constant declaration site.
struct Decl<'a> {
    file: &'a str,
    line: usize,
    value: Option<u64>,
}

/// Rules 1 and 2: declaration uniqueness (and `PROTOCOL_VERSION`'s home)
/// and the hello-cap bound.
fn check_constants(ws: &Workspace, out: &mut Vec<Finding>) {
    let mut decls: BTreeMap<&str, Vec<Decl>> = BTreeMap::new();
    for file in ws.files.iter().filter(|f| !f.is_test_target()) {
        for (_, item) in file.ast.items() {
            let Item::Const(c) = item else { continue };
            let Some(name) = WIRE_CONSTS.into_iter().find(|n| *n == c.name) else { continue };
            if !file.in_test(c.line) {
                let value = c.value.as_ref().and_then(eval_const);
                decls.entry(name).or_default().push(Decl { file: &file.rel, line: c.line, value });
            }
        }
    }
    let mut push = |file: &str, line: usize, message: String, hint: String| {
        out.push(Finding { file: file.to_string(), line, check: "wire-compat", message, hint });
    };

    // Rule 1: single source of truth for each wire constant; the
    // canonical `PROTOCOL_VERSION` is the one in proto.rs.
    let proto = ws.files_named("proto.rs").next().map(|f| f.rel.as_str());
    for name in WIRE_CONSTS {
        let sites = decls.get(name).map_or(&[][..], Vec::as_slice);
        let home = proto.filter(|_| name == "PROTOCOL_VERSION");
        let first = home.and_then(|h| sites.iter().position(|d| d.file == h)).unwrap_or(0);
        match (home, sites.get(first)) {
            (Some(home), None) => push(
                home,
                1,
                format!("no `const {name}` declared"),
                "declare the wire version once in proto.rs".to_string(),
            ),
            (Some(home), Some(canon)) if canon.file != home => push(
                canon.file,
                canon.line,
                format!("`{name}` declared outside proto.rs"),
                "proto.rs is the single source of truth for the wire version".to_string(),
            ),
            _ => {}
        }
        for (i, extra) in sites.iter().enumerate() {
            if i != first {
                push(
                    extra.file,
                    extra.line,
                    format!(
                        "`{name}` declared again here (first declared in {}:{}) — \
                         two copies drift apart silently",
                        sites[first].file, sites[first].line,
                    ),
                    format!("import the canonical `{name}` instead of redeclaring it"),
                );
            }
        }
    }

    // Rule 2: HELLO_FRAME_CAP stays below MAX_FRAME.
    let max_frame = decls.get("MAX_FRAME").and_then(|s| s.first()).and_then(|d| d.value);
    for site in decls.get("HELLO_FRAME_CAP").into_iter().flatten() {
        if let (Some(cap), Some(max)) = (site.value, max_frame) {
            if cap >= max {
                push(
                    site.file,
                    site.line,
                    format!(
                        "`HELLO_FRAME_CAP` ({cap}) is not below `MAX_FRAME` ({max}) — \
                         the pre-admission cap must be the tight one"
                    ),
                    "keep the handshake cap small; raise to MAX_FRAME after admission".to_string(),
                );
            }
        }
    }
}

/// Rule 3: handshake readers start small and only grow under an
/// admission guard.
fn check_handshake_order(file: &SourceFile, out: &mut Vec<Finding>) {
    for (_, def) in file.ast.fns() {
        let Some(body) = def.body.as_ref().filter(|_| !file.in_test(def.line)) else { continue };
        let mut v = HandshakeScan::default();
        ast::visit_block(body, &mut |n| v.step(n, false));
        if v.with_cap.is_empty() || v.set_cap.is_empty() {
            continue;
        }
        for (line, arg_is_hello) in &v.with_cap {
            if !arg_is_hello {
                out.push(Finding {
                    file: file.rel.clone(),
                    line: *line,
                    check: "wire-compat",
                    message: "handshake `FrameReader::with_cap` not seeded with \
                              `HELLO_FRAME_CAP` even though this function raises the cap \
                              later — pre-admission frames get the big cap"
                        .to_string(),
                    hint: "start at HELLO_FRAME_CAP; set_cap(MAX_FRAME) after admission"
                        .to_string(),
                });
            }
        }
        for (line, guarded) in &v.set_cap {
            if !guarded {
                out.push(Finding {
                    file: file.rel.clone(),
                    line: *line,
                    check: "wire-compat",
                    message: "`set_cap` raises the frame cap outside an admission guard \
                              (no enclosing check of `slot`/`admitted`) — an unadmitted \
                              peer could post max-size frames"
                        .to_string(),
                    hint: "wrap the set_cap in `if conn.slot.is_some() { … }`".to_string(),
                });
            }
        }
    }
}

/// Collects `FrameReader::with_cap` / `.set_cap` sites, tracking whether
/// each `set_cap` sits under an admission-condition branch.
#[derive(Default)]
struct HandshakeScan {
    /// `(line, argument is HELLO_FRAME_CAP)`.
    with_cap: Vec<(usize, bool)>,
    /// `(line, inside an admission guard)`.
    set_cap: Vec<(usize, bool)>,
}

impl HandshakeScan {
    /// One visitor step; `guarded` says an enclosing branch tests
    /// admission. A branch on admission walks its arms guarded itself.
    fn step(&mut self, n: Node<'_>, guarded: bool) -> bool {
        let Node::Expr(e) = n else { return !matches!(n, Node::Stmt(Stmt::Item(_))) };
        match e {
            Expr::Call { callee, args, line } => {
                if let Expr::Path { segs, .. } = callee.as_ref() {
                    if segs.ends_with(&["FrameReader".to_string(), "with_cap".to_string()]) {
                        let is_hello =
                            args.first().is_some_and(|a| path_ends(a, "HELLO_FRAME_CAP"));
                        self.with_cap.push((*line, is_hello));
                    }
                }
            }
            Expr::MethodCall { method, line, .. } if method == "set_cap" => {
                self.set_cap.push((*line, guarded));
            }
            Expr::If { cond, then, alt, .. } if !guarded && mentions_admission(cond) => {
                ast::visit_expr(cond, &mut |n| self.step(n, false));
                ast::visit_block(then, &mut |n| self.step(n, true));
                if let Some(alt) = alt {
                    ast::visit_expr(alt, &mut |n| self.step(n, true));
                }
                return false;
            }
            Expr::Match { scrutinee, arms, .. } if !guarded && mentions_admission(scrutinee) => {
                ast::visit_expr(scrutinee, &mut |n| self.step(n, false));
                for arm in arms {
                    for e in arm.guard.iter().chain([&arm.body]) {
                        ast::visit_expr(e, &mut |n| self.step(n, true));
                    }
                }
                return false;
            }
            _ => {}
        }
        true
    }
}

/// Whether a condition expression references the admission state —
/// a `slot` or `admitted` place anywhere inside it.
fn mentions_admission(e: &Expr) -> bool {
    match e {
        Expr::Path { segs, .. } => segs.iter().any(|s| s == "slot" || s == "admitted"),
        Expr::Field { recv, name, .. } => {
            name == "slot" || name == "admitted" || mentions_admission(recv)
        }
        Expr::MethodCall { recv, args, .. } => {
            mentions_admission(recv) || args.iter().any(mentions_admission)
        }
        Expr::Call { callee, args, .. } => {
            mentions_admission(callee) || args.iter().any(mentions_admission)
        }
        Expr::Try { inner } | Expr::Unary { inner } => mentions_admission(inner),
        Expr::Binary { lhs, rhs, .. } => mentions_admission(lhs) || mentions_admission(rhs),
        Expr::Tuple { items, .. } => items.iter().any(mentions_admission),
        _ => false,
    }
}

/// Whether an expression is (a reference to) a path ending in `name`.
fn path_ends(e: &Expr, name: &str) -> bool {
    match e {
        Expr::Path { segs, .. } => segs.last().is_some_and(|s| s == name),
        Expr::Unary { inner } | Expr::Try { inner } => path_ends(inner, name),
        _ => false,
    }
}

/// Rule 4: `Hello { version }` uses `PROTOCOL_VERSION`; no literal
/// version comparisons.
fn check_version_hygiene(file: &SourceFile, out: &mut Vec<Finding>) {
    if !file.toks.iter().any(|t| t.is_ident("Hello")) {
        return;
    }
    for (_, def) in file.ast.fns() {
        let Some(body) = def.body.as_ref().filter(|_| !file.in_test(def.line)) else { continue };
        ast::visit_block(body, &mut |n| {
            let hit = match n {
                // Only a literal is hardcoding; decoders filling the field
                // from parsed wire data are fine.
                Node::Expr(Expr::StructLit { path, fields, line })
                    if path.last().is_some_and(|p| p == "Hello")
                        && fields.iter().any(|(f, v)| f == "version" && is_lit(v)) =>
                {
                    Some((
                        *line,
                        "`Hello { version: … }` not built from `PROTOCOL_VERSION` — a \
                         hardcoded version freezes the handshake",
                        "use `version: PROTOCOL_VERSION`",
                    ))
                }
                Node::Expr(Expr::Binary { op, lhs, rhs })
                    if (op == "==" || op == "!=")
                        && (is_version_place(lhs) && is_lit(rhs)
                            || is_version_place(rhs) && is_lit(lhs)) =>
                {
                    Some((
                        lhs.line(),
                        "protocol version compared against a numeric literal — drifts \
                         silently when `PROTOCOL_VERSION` bumps",
                        "compare against `PROTOCOL_VERSION`",
                    ))
                }
                _ => None,
            };
            if let Some((line, message, hint)) = hit {
                out.push(Finding {
                    file: file.rel.clone(),
                    line,
                    check: "wire-compat",
                    message: message.to_string(),
                    hint: hint.to_string(),
                });
            }
            true
        });
    }
}

fn is_lit(e: &Expr) -> bool {
    matches!(e, Expr::Lit { .. })
}

fn is_version_place(e: &Expr) -> bool {
    match e {
        Expr::Path { segs, .. } => segs.last().is_some_and(|s| s == "version"),
        Expr::Field { name, .. } => name == "version",
        Expr::Unary { inner } | Expr::Try { inner } => is_version_place(inner),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `PROTOCOL_VERSION` findings of rule 1 over in-memory files.
    fn version_rule(files: &[(&str, &str)]) -> Vec<String> {
        let files = files.iter().map(|(rel, src)| SourceFile::new((*rel).into(), src)).collect();
        let mut out = Vec::new();
        check_constants(&Workspace { files, docs: Vec::new() }, &mut out);
        out.iter().map(ToString::to_string).collect()
    }

    const DECL: &str = "pub const PROTOCOL_VERSION: u64 = 6;\n";

    #[test]
    fn one_version_in_proto_rs_is_clean() {
        assert!(version_rule(&[("d/src/proto.rs", DECL), ("s/src/spec.rs", "")]).is_empty());
    }

    #[test]
    fn a_duplicate_points_at_the_proto_rs_declaration() {
        // `a/…` sorts first, but proto.rs holds the canonical copy.
        let got = version_rule(&[("a/src/engine.rs", DECL), ("d/src/proto.rs", DECL)]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].starts_with("a/src/engine.rs:1: [wire-compat] `PROTOCOL_VERSION` declared again here (first declared in d/src/proto.rs:1)"), "{got:?}");
    }

    #[test]
    fn a_sole_declaration_outside_proto_rs_is_reported_once() {
        let got = version_rule(&[("d/src/proto.rs", "pub struct Msg;\n"), ("s/src/spec.rs", DECL)]);
        assert_eq!(
            got,
            vec!["s/src/spec.rs:1: [wire-compat] `PROTOCOL_VERSION` declared outside proto.rs"]
        );
    }

    #[test]
    fn none_declared_is_reported_at_proto_rs() {
        let got = version_rule(&[("d/src/proto.rs", "pub struct Msg;\n")]);
        assert_eq!(
            got,
            vec!["d/src/proto.rs:1: [wire-compat] no `const PROTOCOL_VERSION` declared"]
        );
        assert!(version_rule(&[("d/src/lib.rs", "")]).is_empty(), "no proto.rs, no rule");
    }
}
