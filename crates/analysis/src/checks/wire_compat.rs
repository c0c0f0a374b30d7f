//! Wire-protocol compatibility invariants.
//!
//! The dist wire protocol's safety rests on three constants and one
//! ordering rule, spread across files that evolve independently:
//!
//! 1. `MAX_FRAME`, `PROTOCOL_VERSION` and `HELLO_FRAME_CAP` (the one
//!    connection shell in `dx_dist::engine` serves both daemons) have
//!    exactly one declaration each — a second copy drifts.
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

use crate::ast::{self, eval_const, Block, Expr, Stmt};
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

/// One constant declaration site.
struct Decl {
    file: String,
    line: usize,
    value: Option<u64>,
}

/// Rules 1 and 2: declaration uniqueness and the hello-cap bound.
fn check_constants(ws: &Workspace, out: &mut Vec<Finding>) {
    let mut decls: BTreeMap<&str, Vec<Decl>> = BTreeMap::new();
    for file in &ws.files {
        if file.is_test_target() {
            continue;
        }
        let Some(tree) = file.ast.as_ref() else { continue };
        ast::for_each_const(tree, &mut |c| {
            if matches!(c.name.as_str(), "MAX_FRAME" | "HELLO_FRAME_CAP" | "PROTOCOL_VERSION")
                && !file.in_test(c.line)
            {
                decls
                    .entry(match c.name.as_str() {
                        "MAX_FRAME" => "MAX_FRAME",
                        "HELLO_FRAME_CAP" => "HELLO_FRAME_CAP",
                        _ => "PROTOCOL_VERSION",
                    })
                    .or_default()
                    .push(Decl {
                        file: file.rel.clone(),
                        line: c.line,
                        value: c.value.as_ref().and_then(eval_const),
                    });
            }
        });
    }

    // Rule 1: single source of truth for each wire constant.
    for name in ["MAX_FRAME", "PROTOCOL_VERSION", "HELLO_FRAME_CAP"] {
        if let Some(sites) = decls.get(name) {
            for extra in sites.iter().skip(1) {
                out.push(Finding {
                    file: extra.file.clone(),
                    line: extra.line,
                    check: "wire-compat",
                    message: format!(
                        "`{name}` declared again here (first declared in {}:{}) — \
                         two copies drift apart silently",
                        sites[0].file, sites[0].line,
                    ),
                    hint: format!("import the canonical `{name}` instead of redeclaring it"),
                });
            }
        }
    }

    // Rule 2: HELLO_FRAME_CAP stays below MAX_FRAME.
    let max_frame = decls.get("MAX_FRAME").and_then(|s| s.first()).and_then(|d| d.value);
    if let Some(sites) = decls.get("HELLO_FRAME_CAP") {
        for site in sites {
            if let (Some(cap), Some(max)) = (site.value, max_frame) {
                if cap >= max {
                    out.push(Finding {
                        file: site.file.clone(),
                        line: site.line,
                        check: "wire-compat",
                        message: format!(
                            "`HELLO_FRAME_CAP` ({cap}) is not below `MAX_FRAME` ({max}) — \
                             the pre-admission cap must be the tight one"
                        ),
                        hint: "keep the handshake cap small; raise to MAX_FRAME after admission"
                            .to_string(),
                    });
                }
            }
        }
    }
}

/// Rule 3: handshake readers start small and only grow under an
/// admission guard.
fn check_handshake_order(file: &SourceFile, out: &mut Vec<Finding>) {
    let Some(tree) = file.ast.as_ref() else { return };
    ast::for_each_fn(tree, &mut |_, def| {
        if file.in_test(def.line) {
            return;
        }
        let Some(body) = &def.body else { return };
        let mut v = HandshakeScan::default();
        v.walk_block(body, false);
        if v.with_cap.is_empty() || v.set_cap.is_empty() {
            return;
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
    });
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
    fn walk_block(&mut self, b: &Block, guarded: bool) {
        for stmt in &b.stmts {
            match stmt {
                Stmt::Let(l) => {
                    if let Some(init) = &l.init {
                        self.walk_expr(init, guarded);
                    }
                    if let Some(eb) = &l.else_block {
                        self.walk_block(eb, guarded);
                    }
                }
                Stmt::Expr(e) => self.walk_expr(e, guarded),
                Stmt::Item(_) => {}
            }
        }
    }

    fn walk_expr(&mut self, e: &Expr, guarded: bool) {
        match e {
            Expr::Call { callee, args, line } => {
                if let Expr::Path { segs, .. } = callee.as_ref() {
                    if segs.len() >= 2
                        && segs[segs.len() - 2] == "FrameReader"
                        && segs[segs.len() - 1] == "with_cap"
                    {
                        let is_hello =
                            args.first().is_some_and(|a| path_ends(a, "HELLO_FRAME_CAP"));
                        self.with_cap.push((*line, is_hello));
                    }
                }
                for a in args {
                    self.walk_expr(a, guarded);
                }
            }
            Expr::MethodCall { recv, method, args, line } => {
                if method == "set_cap" {
                    self.set_cap.push((*line, guarded));
                }
                self.walk_expr(recv, guarded);
                for a in args {
                    self.walk_expr(a, guarded);
                }
            }
            Expr::If { cond, then, alt, .. } => {
                let g = guarded || mentions_admission(cond);
                self.walk_expr(cond, guarded);
                self.walk_block(then, g);
                if let Some(alt) = alt {
                    self.walk_expr(alt, g);
                }
            }
            Expr::Match { scrutinee, arms, .. } => {
                let g = guarded || mentions_admission(scrutinee);
                self.walk_expr(scrutinee, guarded);
                for arm in arms {
                    if let Some(gd) = &arm.guard {
                        self.walk_expr(gd, g);
                    }
                    self.walk_expr(&arm.body, g);
                }
            }
            Expr::Block(b) => self.walk_block(b, guarded),
            Expr::While { cond, body, .. } => {
                self.walk_expr(cond, guarded);
                self.walk_block(body, guarded);
            }
            Expr::Loop { body, .. } => self.walk_block(body, guarded),
            Expr::For { iter, body, .. } => {
                self.walk_expr(iter, guarded);
                self.walk_block(body, guarded);
            }
            Expr::Closure { body, .. } => self.walk_expr(body, guarded),
            Expr::Try { inner } | Expr::Unary { inner } => self.walk_expr(inner, guarded),
            Expr::Binary { lhs, rhs, .. } => {
                self.walk_expr(lhs, guarded);
                self.walk_expr(rhs, guarded);
            }
            Expr::Assign { target, value, .. } => {
                self.walk_expr(target, guarded);
                self.walk_expr(value, guarded);
            }
            Expr::Field { recv, .. } => self.walk_expr(recv, guarded),
            Expr::Index { recv, index, .. } => {
                self.walk_expr(recv, guarded);
                self.walk_expr(index, guarded);
            }
            Expr::StructLit { fields, .. } => {
                for (_, v) in fields {
                    self.walk_expr(v, guarded);
                }
            }
            Expr::Tuple { items, .. } | Expr::Array { items, .. } => {
                for i in items {
                    self.walk_expr(i, guarded);
                }
            }
            Expr::Macro { args, .. } => {
                for a in args {
                    self.walk_expr(a, guarded);
                }
            }
            Expr::Ret { inner: Some(i), .. } => self.walk_expr(i, guarded),
            _ => {}
        }
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
    let Some(tree) = file.ast.as_ref() else { return };
    ast::for_each_fn(tree, &mut |_, def| {
        if file.in_test(def.line) {
            return;
        }
        let Some(body) = &def.body else { return };
        visit_exprs(body, &mut |e| match e {
            Expr::StructLit { path, fields, line } if path.last().is_some_and(|p| p == "Hello") => {
                for (fname, value) in fields {
                    // Only a literal is hardcoding; decoders filling
                    // the field from parsed wire data are fine.
                    if fname == "version" && matches!(value, Expr::Lit { .. }) {
                        out.push(Finding {
                            file: file.rel.clone(),
                            line: *line,
                            check: "wire-compat",
                            message: "`Hello { version: … }` not built from \
                                      `PROTOCOL_VERSION` — a hardcoded version freezes \
                                      the handshake"
                                .to_string(),
                            hint: "use `version: PROTOCOL_VERSION`".to_string(),
                        });
                    }
                }
            }
            Expr::Binary { op, lhs, rhs } if op == "==" || op == "!=" => {
                let version_vs_lit = (is_version_place(lhs)
                    && matches!(rhs.as_ref(), Expr::Lit { .. }))
                    || (is_version_place(rhs) && matches!(lhs.as_ref(), Expr::Lit { .. }));
                if version_vs_lit {
                    out.push(Finding {
                        file: file.rel.clone(),
                        line: lhs.line(),
                        check: "wire-compat",
                        message: "protocol version compared against a numeric literal — \
                                  drifts silently when `PROTOCOL_VERSION` bumps"
                            .to_string(),
                        hint: "compare against `PROTOCOL_VERSION`".to_string(),
                    });
                }
            }
            _ => {}
        });
    });
}

fn is_version_place(e: &Expr) -> bool {
    match e {
        Expr::Path { segs, .. } => segs.last().is_some_and(|s| s == "version"),
        Expr::Field { name, .. } => name == "version",
        Expr::Unary { inner } | Expr::Try { inner } => is_version_place(inner),
        _ => false,
    }
}

/// Applies `f` to every expression in the block, recursively.
fn visit_exprs(b: &Block, f: &mut impl FnMut(&Expr)) {
    for stmt in &b.stmts {
        match stmt {
            Stmt::Let(l) => {
                if let Some(init) = &l.init {
                    visit_expr(init, f);
                }
                if let Some(eb) = &l.else_block {
                    visit_exprs(eb, f);
                }
            }
            Stmt::Expr(e) => visit_expr(e, f),
            Stmt::Item(ast::Item::Fn(d)) => {
                if let Some(body) = &d.body {
                    visit_exprs(body, f);
                }
            }
            Stmt::Item(_) => {}
        }
    }
}

fn visit_expr(e: &Expr, f: &mut impl FnMut(&Expr)) {
    f(e);
    match e {
        Expr::Call { callee, args, .. } => {
            visit_expr(callee, f);
            for a in args {
                visit_expr(a, f);
            }
        }
        Expr::MethodCall { recv, args, .. } => {
            visit_expr(recv, f);
            for a in args {
                visit_expr(a, f);
            }
        }
        Expr::Field { recv, .. } => visit_expr(recv, f),
        Expr::Index { recv, index, .. } => {
            visit_expr(recv, f);
            visit_expr(index, f);
        }
        Expr::Try { inner } | Expr::Unary { inner } => visit_expr(inner, f),
        Expr::Binary { lhs, rhs, .. } => {
            visit_expr(lhs, f);
            visit_expr(rhs, f);
        }
        Expr::Assign { target, value, .. } => {
            visit_expr(target, f);
            visit_expr(value, f);
        }
        Expr::Block(b) => visit_exprs(b, f),
        Expr::If { cond, then, alt, .. } => {
            visit_expr(cond, f);
            visit_exprs(then, f);
            if let Some(alt) = alt {
                visit_expr(alt, f);
            }
        }
        Expr::Match { scrutinee, arms, .. } => {
            visit_expr(scrutinee, f);
            for arm in arms {
                if let Some(g) = &arm.guard {
                    visit_expr(g, f);
                }
                visit_expr(&arm.body, f);
            }
        }
        Expr::While { cond, body, .. } => {
            visit_expr(cond, f);
            visit_exprs(body, f);
        }
        Expr::Loop { body, .. } => visit_exprs(body, f),
        Expr::For { iter, body, .. } => {
            visit_expr(iter, f);
            visit_exprs(body, f);
        }
        Expr::Closure { body, .. } => visit_expr(body, f),
        Expr::StructLit { fields, .. } => {
            for (_, v) in fields {
                visit_expr(v, f);
            }
        }
        Expr::Tuple { items, .. } | Expr::Array { items, .. } => {
            for i in items {
                visit_expr(i, f);
            }
        }
        Expr::Macro { args, .. } => {
            for a in args {
                visit_expr(a, f);
            }
        }
        Expr::Ret { inner: Some(i), .. } => visit_expr(i, f),
        _ => {}
    }
}
