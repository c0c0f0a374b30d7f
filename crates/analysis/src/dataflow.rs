//! Forward intraprocedural dataflow over the [`crate::ast`] layer.
//!
//! The checks that reason about lock guards ([`crate::checks`]'s
//! `lock-order` and `hold-blocking`) share everything here: a per-group
//! environment of lock-typed fields and resolved functions
//! ([`GroupEnv`]), a per-function event stream extracted by a single
//! AST walk ([`FnFacts`]), and a held-stack simulator that replays
//! those events with lexical scoping ([`simulate`]).
//!
//! The walk is a *may*-analysis over paths. Every alternative of a
//! branch — `if`/`else`, each match arm, a loop body against skipping
//! it, a closure body against not running it — starts from the state
//! before the branch, so a guard acquired in one arm never leaks into
//! its sibling. After the branch a guard is held if any path that falls
//! through still holds it: a `drop` inside one arm ends the guard only
//! on that arm's path, and an arm that ends in `return`, `break` or
//! `continue` does not fall through (a `break` carries its state to
//! the end of its loop). Guard *values* are tracked through the
//! transparent adapters (`unwrap`, `expect`, `unwrap_or_else`, `?`):
//! a lock result that flows through anything else is a statement
//! temporary, released at the end of its statement. A let-bound call to
//! a guard-returning wrapper (`let st = self.lock();`) is an acquisition
//! of the locks the wrapper takes, bound to `st`.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{Arm, Block, Expr, FnDef, Item, LetStmt, Stmt};
use crate::SourceFile;

/// What flavor of lock a field is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockKind {
    /// `std::sync::Mutex`.
    Mutex,
    /// `std::sync::RwLock`.
    RwLock,
}

/// One event in a function's abstract execution, in source order.
#[derive(Clone, Debug)]
pub enum Ev {
    /// A lock acquisition. `bound` is the guard's binding name when the
    /// acquisition's result was let-bound; `None` for statement temps.
    Acquire {
        /// Canonical lock name (last path segment of the place).
        lock: String,
        /// Line of the acquiring call.
        line: usize,
        /// The let-bound guard variable, if any.
        bound: Option<String>,
    },
    /// A call to a function resolved within the group.
    CallLocal {
        /// The callee's qualified name (`Type::method` or bare).
        qname: String,
        /// Line of the call.
        line: usize,
    },
    /// A call that can block (I/O, sleep, channel recv, frame I/O).
    Blocking {
        /// Human-readable description of the blocking operation.
        what: String,
        /// Line of the call.
        line: usize,
    },
    /// An explicit `drop(var)`.
    Drop {
        /// The dropped variable.
        var: String,
    },
    /// Entering a lexical scope (block, branch arm, loop body).
    PushScope,
    /// Leaving the matching lexical scope.
    PopScope,
    /// End of a statement: releases statement-temporary guards.
    StmtEnd,
    /// Start of a branch: each alternative starts from the state here.
    /// `breakable` marks a loop, the target of `break`.
    Branch {
        /// Whether this branch is a loop.
        breakable: bool,
    },
    /// End of one alternative of the innermost open branch.
    Alt,
    /// End of the innermost branch: the state is the union of the
    /// alternatives that fell through (and, for a loop, the breaks).
    Merge,
    /// `return`, `break` or `continue`: the current path ends here.
    Diverge {
        /// Whether it is a `break`, whose state flows to the loop's end.
        breaks: bool,
    },
}

/// A function's extracted dataflow facts.
#[derive(Debug, Default)]
pub struct FnFacts {
    /// The event stream, in source order.
    pub events: Vec<Ev>,
    /// Locks this function acquires itself (any path), through a bound
    /// guard wrapper included.
    pub direct: BTreeSet<String>,
    /// Qualified names of group-local callees.
    pub callees: BTreeSet<String>,
}

/// One function known to a [`GroupEnv`].
pub struct FnInfo<'a> {
    /// The definition.
    pub def: &'a FnDef,
    /// File the definition lives in.
    pub file: &'a SourceFile,
    /// The enclosing impl type, if any.
    pub self_ty: Option<String>,
    /// Whether the definition sits in test code.
    pub in_test: bool,
}

/// Per-group environment: lock fields and functions resolved by
/// qualified name.
pub struct GroupEnv<'a> {
    /// Lock-typed struct fields: field name → kind.
    pub lock_fields: BTreeMap<String, LockKind>,
    /// Functions by qualified name (`Type::name`, or bare `name`).
    pub fns: BTreeMap<String, FnInfo<'a>>,
    /// Bare name → qualified names, for unique-candidate resolution.
    pub by_bare: BTreeMap<String, Vec<String>>,
    /// Guard wrappers — functions returning a `MutexGuard` or an
    /// `RwLock` guard, like `fn lock(&self) -> MutexGuard<'_, State>` —
    /// and the locks each one takes.
    pub guard_locks: BTreeMap<String, BTreeSet<String>>,
}

impl<'a> GroupEnv<'a> {
    /// Builds the environment from one group's files.
    pub fn build(files: &[&'a SourceFile]) -> Self {
        let mut lock_fields = BTreeMap::new();
        let mut fns: BTreeMap<String, FnInfo<'a>> = BTreeMap::new();
        let mut by_bare: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for file in files {
            for (self_ty, item) in file.ast.items() {
                match item {
                    Item::Struct(s) => {
                        for f in &s.fields {
                            if f.ty.contains("Mutex<") {
                                lock_fields.insert(f.name.clone(), LockKind::Mutex);
                            } else if f.ty.contains("RwLock<") {
                                lock_fields.insert(f.name.clone(), LockKind::RwLock);
                            }
                        }
                    }
                    Item::Fn(def) => {
                        let qname = match self_ty {
                            Some(ty) => format!("{ty}::{}", def.name),
                            None => def.name.clone(),
                        };
                        let info = FnInfo {
                            def,
                            file,
                            self_ty: self_ty.map(str::to_string),
                            in_test: file.in_test(def.line) || file.is_test_target(),
                        };
                        by_bare.entry(def.name.clone()).or_default().push(qname.clone());
                        fns.insert(qname, info);
                    }
                    _ => {}
                }
            }
        }
        let mut env = Self { lock_fields, fns, by_bare, guard_locks: BTreeMap::new() };
        env.guard_locks = env
            .fns
            .iter()
            .filter(|(_, f)| {
                ["MutexGuard<", "RwLockReadGuard<", "RwLockWriteGuard<"]
                    .iter()
                    .any(|g| f.def.ret.contains(g))
            })
            .map(|(q, f)| (q.clone(), extract(&env, f).direct))
            .collect();
        env
    }

    /// Resolves a callee expression to a group-local qualified name.
    /// `self.m()` / `Self::m()` resolve through `self_ty`; `Type::m()`
    /// resolves directly; a bare `f()` resolves only when exactly one
    /// function in the group has that name — no same-name merging.
    pub fn resolve(&self, self_ty: Option<&str>, segs: &[String]) -> Option<String> {
        let qname = match segs {
            [one] => {
                let cands = self.by_bare.get(one)?;
                if cands.len() == 1 {
                    cands[0].clone()
                } else if let Some(ty) = self_ty {
                    // Prefer a same-impl method among ambiguous names.
                    let q = format!("{ty}::{one}");
                    if self.fns.contains_key(&q) {
                        q
                    } else {
                        return None;
                    }
                } else {
                    return None;
                }
            }
            [ty, name] if *ty == "Self" => format!("{}::{name}", self_ty?),
            [.., ty, name] => format!("{ty}::{name}"),
            _ => return None,
        };
        self.fns.contains_key(&qname).then_some(qname)
    }
}

/// The facts of every non-test function with a body, by qualified
/// name, with the path of its file.
pub fn group_facts<'a>(env: &GroupEnv<'a>) -> BTreeMap<String, (&'a str, FnFacts)> {
    env.fns
        .iter()
        .filter(|(_, info)| !info.in_test && info.def.body.is_some())
        .map(|(qname, info)| (qname.clone(), (info.file.rel.as_str(), extract(env, info))))
        .collect()
}

/// Display form of a qualified name: the bare function name
/// (`Type::name` → `name`).
pub(crate) fn bare(qname: &str) -> &str {
    qname.rsplit("::").next().unwrap_or(qname)
}

/// Extracts the event stream for one function.
pub fn extract<'a>(env: &GroupEnv<'a>, info: &FnInfo<'a>) -> FnFacts {
    let mut w = Walker {
        env,
        self_ty: info.self_ty.clone(),
        facts: FnFacts::default(),
        scopes: vec![Scope::default()],
    };
    // Parameters typed as locks or blocking handles seed the scope.
    for p in &info.def.params {
        w.note_typed(&p.name, &p.ty);
    }
    if let Some(body) = &info.def.body {
        w.walk_block(body, false);
    }
    w.facts
}

/// One lexical scope's local knowledge.
#[derive(Clone, Debug, Default)]
struct Scope {
    /// Local alias → canonical place (`corpus` → `self.corpus`).
    aliases: BTreeMap<String, String>,
    /// Locals whose type marks them as blocking I/O handles
    /// (`TcpStream`, `File`) or frame readers.
    io_handles: BTreeMap<String, &'static str>,
    /// Locals that are themselves locks (`let m = Mutex::new(..)`).
    local_locks: BTreeSet<String>,
}

/// What a walked expression evaluates to, as far as guard tracking
/// cares.
enum Val {
    /// A fresh lock acquisition; index of its `Acquire` event.
    Guard(usize),
    /// The result of a group-local call; index of its `CallLocal` event.
    CallRes(usize),
    /// Anything else.
    Plain,
}

struct Walker<'w, 'a> {
    env: &'w GroupEnv<'a>,
    self_ty: Option<String>,
    facts: FnFacts,
    scopes: Vec<Scope>,
}

impl Walker<'_, '_> {
    fn push(&mut self) {
        self.scopes.push(Scope::default());
        self.facts.events.push(Ev::PushScope);
    }

    fn pop(&mut self) {
        self.scopes.pop();
        self.facts.events.push(Ev::PopScope);
    }

    /// Emits a branch around `alts`, which emits its alternatives.
    fn branch(&mut self, breakable: bool, alts: impl FnOnce(&mut Self)) {
        self.facts.events.push(Ev::Branch { breakable });
        alts(self);
        self.facts.events.push(Ev::Merge);
    }

    /// Emits one alternative of the open branch.
    fn alt(&mut self, path: impl FnOnce(&mut Self)) {
        path(self);
        self.facts.events.push(Ev::Alt);
    }

    fn note_typed(&mut self, name: &str, ty: &str) {
        let scope = self.scopes.last_mut().expect("scope stack never empty");
        if ty.contains("Mutex<") || ty.contains("RwLock<") {
            scope.local_locks.insert(name.to_string());
        } else if ty.contains("TcpStream") || ty.contains("File") || ty.contains("FrameReader") {
            let what: &'static str = if ty.contains("FrameReader") {
                "a FrameReader"
            } else if ty.contains("TcpStream") {
                "a TcpStream"
            } else {
                "a File"
            };
            scope.io_handles.insert(name.to_string(), what);
        }
    }

    /// Resolves a name through the scope stack's alias maps.
    fn resolve_alias(&self, name: &str) -> Option<String> {
        self.scopes.iter().rev().find_map(|s| s.aliases.get(name).cloned())
    }

    fn lookup_io(&self, name: &str) -> Option<&'static str> {
        self.scopes.iter().rev().find_map(|s| s.io_handles.get(name).copied())
    }

    fn is_local_lock(&self, name: &str) -> bool {
        self.scopes.iter().rev().any(|s| s.local_locks.contains(name))
    }

    /// The canonical place text of an expression, if it is a simple
    /// place: `self.corpus` → `self.corpus`, alias chains resolved.
    fn place_of(&self, e: &Expr) -> Option<String> {
        match e {
            Expr::Path { segs, .. } => {
                let joined = segs.join("::");
                if segs.len() == 1 {
                    if let Some(target) = self.resolve_alias(&segs[0]) {
                        return Some(target);
                    }
                }
                Some(joined)
            }
            Expr::Field { recv, name, .. } => {
                let base = self.place_of(recv)?;
                Some(format!("{base}.{name}"))
            }
            Expr::Unary { inner } | Expr::Try { inner } => self.place_of(inner),
            Expr::Tuple { items, .. } if items.len() == 1 => self.place_of(&items[0]),
            _ => None,
        }
    }

    /// Whether a resolved place names a lock: a lock-typed field
    /// (`self.state` → field `state`), a local lock, or — for `.lock()`
    /// only — an unknown single-segment place.
    fn lock_name_of(&self, place: &str, method: &str) -> Option<String> {
        let last = place.rsplit(['.', ':']).next().unwrap_or(place).to_string();
        if let Some(kind) = self.env.lock_fields.get(&last) {
            let ok = match kind {
                LockKind::Mutex => method == "lock",
                LockKind::RwLock => method == "read" || method == "write",
            };
            return ok.then_some(last);
        }
        if self.is_local_lock(&last) {
            return (method == "lock" || method == "read" || method == "write").then_some(last);
        }
        // Unknown receiver: only `.lock()` is lock-ish enough to assume.
        (method == "lock").then_some(last)
    }

    fn walk_block(&mut self, b: &Block, scoped: bool) {
        if scoped {
            self.push();
        }
        for stmt in &b.stmts {
            match stmt {
                Stmt::Let(l) => self.walk_let(l),
                Stmt::Expr(e) => {
                    self.walk_expr(e);
                    self.facts.events.push(Ev::StmtEnd);
                }
                Stmt::Item(_) => {}
            }
        }
        if scoped {
            self.pop();
        }
    }

    fn walk_let(&mut self, l: &LetStmt) {
        let single = (l.names.len() == 1).then(|| l.names[0].clone());
        if let Some(init) = &l.init {
            // Alias tracking: `let corpus = &self.corpus;`.
            if let (Some(name), Some(place)) = (&single, self.place_of(init)) {
                if place != *name {
                    let scope = self.scopes.last_mut().expect("scope stack never empty");
                    scope.aliases.insert(name.clone(), place);
                }
            }
            let val = self.walk_expr(init);
            match val {
                Val::Guard(idx) => {
                    if let (Some(name), Some(Ev::Acquire { bound, .. })) =
                        (&single, self.facts.events.get_mut(idx))
                    {
                        *bound = Some(name.clone());
                    }
                }
                Val::CallRes(idx) => {
                    // A bound call to a guard wrapper acquires the
                    // wrapper's locks (the call stays a callee, for
                    // exposure).
                    let env = self.env;
                    let wrapper = match (&single, &self.facts.events[idx]) {
                        (Some(name), Ev::CallLocal { qname, line }) => env
                            .guard_locks
                            .get(qname)
                            .filter(|l| !l.is_empty())
                            .map(|l| (name.clone(), *line, l)),
                        _ => None,
                    };
                    if let Some((name, line, locks)) = wrapper {
                        self.facts.direct.extend(locks.iter().cloned());
                        let acquires: Vec<Ev> = locks
                            .iter()
                            .map(|l| Ev::Acquire {
                                lock: l.clone(),
                                line,
                                bound: Some(name.clone()),
                            })
                            .collect();
                        self.facts.events.splice(idx..=idx, acquires);
                    }
                }
                Val::Plain => {}
            }
            // Local type knowledge from ascription or constructor.
            if let Some(name) = &single {
                if !l.ty.is_empty() {
                    self.note_typed(name, &l.ty);
                } else if let Some(ctor) = constructed_type(init) {
                    self.note_typed(name, &ctor);
                }
            }
        }
        if let Some(else_block) = &l.else_block {
            // `let … else` diverges: the else path never falls through.
            self.branch(false, |w| {
                w.alt(|_| {});
                w.alt(|w| {
                    w.walk_block(else_block, true);
                    w.facts.events.push(Ev::Diverge { breaks: false });
                });
            });
        }
        self.facts.events.push(Ev::StmtEnd);
    }

    /// Walks an expression, emitting events; returns what it evaluates
    /// to for guard-binding purposes.
    fn walk_expr(&mut self, e: &Expr) -> Val {
        match e {
            Expr::MethodCall { recv, method, args, line } => {
                self.walk_method(recv, method, args, *line)
            }
            Expr::Call { callee, args, line } => self.walk_call(callee, args, *line),
            Expr::Macro { args, .. } => {
                for a in args {
                    self.walk_expr(a);
                }
                Val::Plain
            }
            Expr::Try { inner } | Expr::Unary { inner } => self.walk_expr(inner),
            Expr::Binary { lhs, rhs, .. } => {
                self.walk_expr(lhs);
                self.walk_expr(rhs);
                Val::Plain
            }
            Expr::Assign { target, value, .. } => {
                self.walk_expr(target);
                self.walk_expr(value);
                Val::Plain
            }
            Expr::Field { recv, .. } | Expr::Index { recv, .. } => {
                self.walk_expr(recv);
                Val::Plain
            }
            Expr::Block(b) => {
                self.walk_block(b, true);
                Val::Plain
            }
            Expr::If { cond, then, alt, .. } => {
                self.walk_expr(cond);
                self.branch(false, |w| {
                    w.alt(|w| w.walk_block(then, true));
                    w.alt(|w| {
                        if let Some(alt) = alt {
                            w.walk_expr(alt);
                        }
                    });
                });
                Val::Plain
            }
            Expr::Match { scrutinee, arms, .. } => {
                self.walk_expr(scrutinee);
                self.branch(false, |w| {
                    for Arm { guard, body, .. } in arms {
                        w.alt(|w| {
                            w.push();
                            if let Some(g) = guard {
                                w.walk_expr(g);
                            }
                            w.walk_expr(body);
                            w.pop();
                        });
                    }
                });
                Val::Plain
            }
            // A `while`/`for` body may run or not; a `loop` body only
            // leaves by `break` (or `return`).
            Expr::While { cond: head, body, .. } | Expr::For { iter: head, body, .. } => {
                self.walk_expr(head);
                self.branch(true, |w| {
                    w.alt(|w| w.walk_block(body, true));
                    w.alt(|_| {});
                });
                Val::Plain
            }
            Expr::Loop { body, .. } => {
                self.branch(true, |w| {
                    w.alt(|w| {
                        w.walk_block(body, true);
                        w.facts.events.push(Ev::Diverge { breaks: false });
                    });
                });
                Val::Plain
            }
            Expr::Closure { body, .. } => {
                // Closure bodies run in the enclosing context as far as
                // held guards go (they may run inline, or not at all);
                // `thread::spawn` arguments are special-cased in
                // walk_call.
                self.branch(false, |w| {
                    w.alt(|w| {
                        w.push();
                        w.walk_expr(body);
                        w.pop();
                    });
                    w.alt(|_| {});
                });
                Val::Plain
            }
            Expr::StructLit { fields, .. } => {
                for (_, v) in fields {
                    self.walk_expr(v);
                }
                Val::Plain
            }
            Expr::Tuple { items, .. } | Expr::Array { items, .. } => {
                for i in items {
                    self.walk_expr(i);
                }
                Val::Plain
            }
            Expr::Ret { kind, inner, .. } => {
                if let Some(i) = inner {
                    self.walk_expr(i);
                }
                self.facts.events.push(Ev::Diverge { breaks: kind == "break" });
                Val::Plain
            }
            Expr::Path { .. } | Expr::Lit { .. } | Expr::Other { .. } => Val::Plain,
        }
    }

    fn walk_method(&mut self, recv: &Expr, method: &str, args: &[Expr], line: usize) -> Val {
        // Args evaluate before the call blocks/acquires.
        for a in args {
            self.walk_expr(a);
        }
        // `self.lock()`-style wrapper methods resolve as local calls,
        // never as acquisitions of a lock named `self`.
        if let Expr::Path { segs, .. } = recv {
            if segs.len() == 1 && segs[0] == "self" {
                if let Some(q) = self.env.resolve(self.self_ty.as_deref(), &[method.to_string()]) {
                    self.facts.callees.insert(q.clone());
                    self.facts.events.push(Ev::CallLocal { qname: q, line });
                    return Val::CallRes(self.facts.events.len() - 1);
                }
            }
        }
        // Acquisition?
        if matches!(method, "lock" | "read" | "write") && args.is_empty() {
            if let Some(place) = self.place_of(recv) {
                if let Some(lock) = self.lock_name_of(&place, method) {
                    self.facts.direct.insert(lock.clone());
                    self.facts.events.push(Ev::Acquire { lock, line, bound: None });
                    return Val::Guard(self.facts.events.len() - 1);
                }
            }
        }
        // Blocking methods.
        if let Some(what) = self.blocking_method(recv, method, args) {
            self.facts.events.push(Ev::Blocking { what, line });
            self.walk_expr(recv);
            return Val::Plain;
        }
        // Transparent adapters pass the guard value through.
        if matches!(method, "unwrap" | "expect" | "unwrap_or_else") {
            let inner = self.walk_expr(recv);
            return inner;
        }
        self.walk_expr(recv);
        Val::Plain
    }

    /// Whether `recv.method(args)` is a blocking primitive.
    fn blocking_method(&self, recv: &Expr, method: &str, args: &[Expr]) -> Option<String> {
        match method {
            "recv" | "recv_timeout" => Some(format!("channel `{method}()`")),
            "accept" => Some("`accept()` on a listener".to_string()),
            "join" if args.is_empty() => Some("`join()` on a thread handle".to_string()),
            "poll" => {
                let place = self.place_of(recv)?;
                let last = place.rsplit('.').next().unwrap_or(&place);
                (self.lookup_io(last) == Some("a FrameReader"))
                    .then(|| "a `FrameReader::poll` read".to_string())
            }
            "read" | "write" | "read_exact" | "write_all" | "flush" => {
                // Distinguish from RwLock read/write: those take no
                // args and resolve as acquisitions above; these need an
                // I/O-typed receiver.
                let place = self.place_of(recv)?;
                let last = place.rsplit('.').next().unwrap_or(&place);
                let what = self.lookup_io(last)?;
                if what == "a FrameReader" {
                    return None;
                }
                Some(format!("`{method}()` on {what}"))
            }
            _ => None,
        }
    }

    fn walk_call(&mut self, callee: &Expr, args: &[Expr], line: usize) -> Val {
        let segs: Option<&[String]> = match callee {
            Expr::Path { segs, .. } => Some(segs),
            _ => None,
        };
        // `thread::spawn(closure)`: the closure runs on another thread,
        // with nothing from this one held.
        if let Some(s) = segs {
            if s.last().is_some_and(|l| l == "spawn") {
                return Val::Plain;
            }
        }
        for a in args {
            self.walk_expr(a);
        }
        if let Some(s) = segs {
            let last = s.last().map(String::as_str).unwrap_or("");
            // `drop(guard)`.
            if last == "drop" && s.len() == 1 {
                if let Some(Expr::Path { segs: var, .. }) = args.first() {
                    if var.len() == 1 {
                        self.facts.events.push(Ev::Drop { var: var[0].clone() });
                    }
                }
                return Val::Plain;
            }
            // Blocking free functions.
            let blocking = match last {
                "write_frame" => Some("`write_frame` socket I/O".to_string()),
                "read_frame" => Some("`read_frame` socket I/O".to_string()),
                "write_atomic" => Some("`write_atomic` file I/O".to_string()),
                "save" if s.len() >= 2 && s[s.len() - 2] == "checkpoint" => {
                    Some("`checkpoint::save` file I/O".to_string())
                }
                "sleep" if s.len() >= 2 && s[s.len() - 2] == "thread" => {
                    Some("`thread::sleep`".to_string())
                }
                _ => None,
            };
            if let Some(what) = blocking {
                self.facts.events.push(Ev::Blocking { what, line });
                return Val::Plain;
            }
            // Group-local call.
            if let Some(q) = self.env.resolve(self.self_ty.as_deref(), s) {
                self.facts.callees.insert(q.clone());
                self.facts.events.push(Ev::CallLocal { qname: q, line });
                return Val::CallRes(self.facts.events.len() - 1);
            }
        } else {
            self.walk_expr(callee);
        }
        Val::Plain
    }
}

/// The constructed type of an initializer, when recognizable:
/// `Mutex::new(x)` → `Mutex<_>`, `FrameReader::with_cap(n)` →
/// `FrameReader`, `File::open(..)`.
fn constructed_type(e: &Expr) -> Option<String> {
    match e {
        Expr::Call { callee, .. } => {
            if let Expr::Path { segs, .. } = callee.as_ref() {
                if segs.len() >= 2 {
                    let ty = &segs[segs.len() - 2];
                    let ctor = &segs[segs.len() - 1];
                    let known = matches!(
                        ty.as_str(),
                        "Mutex" | "RwLock" | "FrameReader" | "File" | "TcpStream"
                    );
                    let ctor_ok = matches!(
                        ctor.as_str(),
                        "new"
                            | "with_cap"
                            | "with_capacity"
                            | "open"
                            | "create"
                            | "connect"
                            | "default"
                            | "from_iter"
                    );
                    if known && ctor_ok {
                        return Some(format!("{ty}<_>"));
                    }
                }
            }
            None
        }
        Expr::MethodCall { recv, method, .. }
            if matches!(method.as_str(), "unwrap" | "expect" | "unwrap_or_else") =>
        {
            constructed_type(recv)
        }
        Expr::Try { inner } => constructed_type(inner),
        _ => None,
    }
}

/// One held guard during simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Held {
    /// The lock's canonical name.
    pub lock: String,
    /// Line where it was acquired.
    pub line: usize,
    /// The binding name, `None` for statement temporaries.
    pub bound: Option<String>,
    /// Scope depth at acquisition (guards die with their scope).
    pub depth: usize,
}

/// An open [`Ev::Branch`] during simulation.
struct Open {
    /// The state every alternative starts from.
    entry: Vec<Held>,
    /// Whether the branch itself is reachable.
    live: bool,
    breakable: bool,
    /// End states of the paths that leave the branch: alternatives that
    /// fell through, and breaks.
    outs: Vec<Vec<Held>>,
}

/// Replays a function's events, maintaining the held-guard stack, and
/// calls `on_event` before applying each event with the current stack.
/// After a branch the stack is the union of the paths that left it; a
/// branch no path leaves is followed by unreachable code, replayed with
/// the branch's entry state.
pub fn simulate(events: &[Ev], mut on_event: impl FnMut(&Ev, &[Held])) {
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0usize;
    let mut live = true;
    let mut open: Vec<Open> = Vec::new();
    for ev in events {
        on_event(ev, &held);
        match ev {
            Ev::Acquire { lock, line, bound } => {
                held.push(Held { lock: lock.clone(), line: *line, bound: bound.clone(), depth });
            }
            Ev::CallLocal { .. } | Ev::Blocking { .. } => {}
            Ev::Drop { var } => {
                if let Some(i) = held.iter().rposition(|h| h.bound.as_deref() == Some(var)) {
                    held.remove(i);
                }
            }
            Ev::PushScope => depth += 1,
            Ev::PopScope => {
                depth = depth.saturating_sub(1);
                held.retain(|h| h.depth <= depth);
            }
            Ev::StmtEnd => {
                held.retain(|h| h.bound.is_some());
            }
            Ev::Branch { breakable } => open.push(Open {
                entry: held.clone(),
                live,
                breakable: *breakable,
                outs: Vec::new(),
            }),
            Ev::Alt => {
                if let Some(b) = open.last_mut() {
                    if live {
                        b.outs.push(std::mem::take(&mut held));
                    }
                    held.clone_from(&b.entry);
                    live = b.live;
                }
            }
            Ev::Merge => {
                if let Some(b) = open.pop() {
                    live = b.live && !b.outs.is_empty();
                    if !b.outs.is_empty() {
                        held.clear();
                        for h in b.outs.into_iter().flatten() {
                            if !held.contains(&h) {
                                held.push(h);
                            }
                        }
                    }
                }
            }
            Ev::Diverge { breaks } => {
                if *breaks && live {
                    if let Some(b) = open.iter_mut().rev().find(|b| b.breakable) {
                        b.outs.push(held.clone());
                    }
                }
                live = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_files(srcs: &[(&str, &str)]) -> Vec<SourceFile> {
        srcs.iter().map(|(rel, text)| SourceFile::new((*rel).into(), text)).collect()
    }

    fn facts_of(src: &str, fn_name: &str) -> (Vec<Ev>, BTreeSet<String>) {
        let files = env_files(&[("crates/x/src/lib.rs", src)]);
        let refs: Vec<&SourceFile> = files.iter().collect();
        let env = GroupEnv::build(&refs);
        let (_, info) = env
            .fns
            .iter()
            .find(|(q, _)| q.rsplit("::").next() == Some(fn_name) || *q == fn_name)
            .expect("fn exists");
        let f = extract(&env, info);
        (f.events, f.direct)
    }

    const STATE: &str =
        "pub struct S { state: std::sync::Mutex<u32>, stats: std::sync::Mutex<u32> }\n";

    #[test]
    fn let_bound_guard_survives_statements_temp_does_not() {
        let src = format!(
            "{STATE}impl S {{ fn f(&self) {{ let g = self.state.lock().unwrap(); self.stats.lock().unwrap().clone(); touch(); }} }}"
        );
        let (events, direct) = facts_of(&src, "f");
        assert!(direct.contains("state") && direct.contains("stats"));
        // Simulate: at the second acquire, `state` is held (bound);
        // after its StmtEnd the temp `stats` guard is gone.
        let mut at_second = Vec::new();
        let mut seen = 0;
        simulate(&events, |ev, held| {
            if let Ev::Acquire { .. } = ev {
                seen += 1;
                if seen == 2 {
                    at_second = held.iter().map(|h| h.lock.clone()).collect();
                }
            }
        });
        assert_eq!(at_second, vec!["state"]);
    }

    #[test]
    fn alias_resolves_to_field_lock() {
        let src = format!(
            "{STATE}impl S {{ fn f(&self) {{ let corpus = &self.state; let c = corpus.lock().unwrap(); }} }}"
        );
        let (_, direct) = facts_of(&src, "f");
        assert!(direct.contains("state"), "{direct:?}");
    }

    #[test]
    fn drop_releases_the_named_guard() {
        let src = format!(
            "{STATE}impl S {{ fn f(&self) {{ let g = self.state.lock().unwrap(); drop(g); let h = self.stats.lock().unwrap(); }} }}"
        );
        let (events, _) = facts_of(&src, "f");
        let mut held_at_last = vec!["sentinel".to_string()];
        let mut acquires = 0;
        simulate(&events, |ev, held| {
            if let Ev::Acquire { .. } = ev {
                acquires += 1;
                if acquires == 2 {
                    held_at_last = held.iter().map(|h| h.lock.clone()).collect();
                }
            }
        });
        assert!(held_at_last.is_empty(), "{held_at_last:?}");
    }

    #[test]
    fn branch_scoped_guard_does_not_leak() {
        let src = format!(
            "{STATE}impl S {{ fn f(&self, c: bool) {{ if c {{ let g = self.state.lock().unwrap(); g.clone(); }} let h = self.stats.lock().unwrap(); }} }}"
        );
        let (events, _) = facts_of(&src, "f");
        let mut held_at_stats = vec!["sentinel".to_string()];
        simulate(&events, |ev, held| {
            if let Ev::Acquire { lock, .. } = ev {
                if lock == "stats" {
                    held_at_stats = held.iter().map(|h| h.lock.clone()).collect();
                }
            }
        });
        assert!(held_at_stats.is_empty(), "{held_at_stats:?}");
    }

    #[test]
    fn rwlock_read_counts_only_on_known_lock_fields() {
        let src = "pub struct R { cfg: std::sync::RwLock<u32> }\nimpl R { fn f(&self, file: &mut std::fs::File) { let g = self.cfg.read().unwrap(); let n = file.read(&mut buf); } }";
        let (_, direct) = facts_of(src, "f");
        assert_eq!(direct.iter().collect::<Vec<_>>(), vec!["cfg"]);
    }

    /// The locks held at each `Blocking` event of `fn_name`.
    fn held_at_blocking(src: &str, fn_name: &str) -> Vec<Vec<String>> {
        let (events, _) = facts_of(src, fn_name);
        let mut out = Vec::new();
        simulate(&events, |ev, held| {
            if let Ev::Blocking { .. } = ev {
                out.push(held.iter().map(|h| h.lock.clone()).collect());
            }
        });
        out
    }

    #[test]
    fn blocking_calls_and_wrappers_are_events() {
        let src = format!(
            "{STATE}impl S {{ fn lock(&self) -> std::sync::MutexGuard<'_, u32> {{ self.state.lock().unwrap() }} fn f(&self, stream: &mut std::net::TcpStream) {{ let st = self.lock(); write_frame(stream, b\"x\"); }} }}"
        );
        // The bound wrapper call is an acquisition of the wrapper's lock.
        let (events, direct) = facts_of(&src, "f");
        assert!(direct.contains("state"), "{direct:?}");
        assert!(events.iter().any(
            |e| matches!(e, Ev::Acquire { lock, bound: Some(b), .. } if lock == "state" && b == "st")
        ));
        assert_eq!(held_at_blocking(&src, "f"), vec![vec!["state"]]);
    }

    #[test]
    fn a_drop_in_one_arm_ends_the_guard_on_that_path_only() {
        // Returning after the drop: the path that falls through holds it.
        let returns = format!(
            "{STATE}impl S {{ fn f(&self, bad: bool) {{ let st = self.state.lock().unwrap(); if bad {{ drop(st); return; }} write_frame(); }} }}"
        );
        assert_eq!(held_at_blocking(&returns, "f"), vec![vec!["state"]]);
        // Falling through after the drop: the else path still holds it.
        let falls = format!(
            "{STATE}impl S {{ fn f(&self, bad: bool) {{ let st = self.state.lock().unwrap(); if bad {{ drop(st); }} write_frame(); }} }}"
        );
        assert_eq!(held_at_blocking(&falls, "f"), vec![vec!["state"]]);
        // Dropped on every path: released.
        let both = format!(
            "{STATE}impl S {{ fn f(&self, bad: bool) {{ let st = self.state.lock().unwrap(); match bad {{ true => drop(st), false => {{ drop(st); }} }} write_frame(); }} }}"
        );
        assert_eq!(held_at_blocking(&both, "f"), vec![Vec::<String>::new()]);
    }

    #[test]
    fn breaks_carry_their_state_out_of_the_loop() {
        // The only way out of the `loop` is the break, after the drop.
        let src = format!(
            "{STATE}impl S {{ fn f(&self) {{ let st = self.state.lock().unwrap(); loop {{ if done() {{ drop(st); break; }} }} write_frame(); }} }}"
        );
        assert_eq!(held_at_blocking(&src, "f"), vec![Vec::<String>::new()]);
        // A `for` body may not run at all: the guard may still be held.
        let src = format!(
            "{STATE}impl S {{ fn f(&self) {{ let st = self.state.lock().unwrap(); for _ in 0..n {{ drop(st); break; }} write_frame(); }} }}"
        );
        assert_eq!(held_at_blocking(&src, "f"), vec![vec!["state"]]);
        // A closure's `return` ends the closure, not the function.
        let src = format!(
            "{STATE}impl S {{ fn f(&self) {{ let st = self.state.lock().unwrap(); let g = || {{ return; }}; write_frame(); }} }}"
        );
        assert_eq!(held_at_blocking(&src, "f"), vec![vec!["state"]]);
    }

    #[test]
    fn thread_spawn_closures_run_without_held_guards() {
        let src = format!(
            "{STATE}impl S {{ fn f(&self) {{ let g = self.state.lock().unwrap(); std::thread::spawn(move || {{ other.lock().unwrap(); }}); }} }}"
        );
        let (events, direct) = facts_of(&src, "f");
        assert_eq!(direct.iter().collect::<Vec<_>>(), vec!["state"]);
        assert_eq!(
            events.iter().filter(|e| matches!(e, Ev::Acquire { .. })).count(),
            1,
            "spawned closure's acquire is not this thread's"
        );
    }
}
