//! Nondeterministic-iteration-order detector.
//!
//! `HashMap`/`HashSet` iteration order changes between runs and between
//! processes (`RandomState`). When that order flows into anything
//! observable — a checkpoint codec, a wire frame, a report, a work
//! queue — identical campaigns produce different artifacts, which
//! breaks byte-stable checkpoint diffs and cross-process coverage
//! resume.
//!
//! The check walks each function's syntax tree and classifies method
//! chains rooted at a hash-typed place (a `HashMap`/`HashSet` struct
//! field or local). An enumeration (`iter`, `keys`, `values`, `drain`,
//! …) may flow through order-preserving adapters (`map`, `filter`,
//! `flat_map`, …) into an order-*insensitive* terminal (`any`, `count`,
//! `max_by_key`, `sum`, …) — that is fine. Reaching anything else —
//! `collect`, `fold`, `for_each`, a `for` loop body — is a finding:
//! the order escapes. The fix is almost always mechanical: use a
//! `BTreeMap`/`BTreeSet`, or sort before collecting.

use std::collections::BTreeSet;

use crate::ast::{self, Block, Expr, Node, Stmt};
use crate::dataflow::GroupEnv;
use crate::{Check, Finding, SourceFile, Workspace};

/// The nondeterministic-iteration-order detector (`nondet-order`).
pub struct NondetOrder;

/// Methods that begin an enumeration of a hash container.
const ENUM_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
    "into_keys",
    "into_values",
];

/// Iterator adapters that preserve (nondeterministic) order.
const PRESERVING: [&str; 16] = [
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "copied",
    "cloned",
    "chain",
    "enumerate",
    "take",
    "skip",
    "zip",
    "rev",
    "flatten",
    "inspect",
    "by_ref",
    "peekable",
];

/// Terminals whose result does not depend on iteration order.
const INSENSITIVE: [&str; 15] = [
    "any",
    "all",
    "count",
    "sum",
    "product",
    "max",
    "min",
    "max_by",
    "min_by",
    "max_by_key",
    "min_by_key",
    "find",
    "find_map",
    "position",
    "last",
];

impl Check for NondetOrder {
    fn id(&self) -> &'static str {
        "nondet-order"
    }

    fn describe(&self) -> &'static str {
        "HashMap/HashSet iteration order escaping into collections, codecs or loops"
    }

    fn run(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for group in ws.group_names() {
            let files: Vec<_> = ws.group(&group).collect();
            let env = GroupEnv::build(&files);
            for info in env.fns.values() {
                if info.in_test || info.def.body.is_none() {
                    continue;
                }
                let mut v = Visitor {
                    file: info.file,
                    group: &group,
                    hash_fields: &env.hash_fields,
                    locals: BTreeSet::new(),
                    out,
                };
                for p in &info.def.params {
                    if p.ty.contains("HashMap<") || p.ty.contains("HashSet<") {
                        v.locals.insert(p.name.clone());
                    }
                }
                if let Some(body) = &info.def.body {
                    v.collect_locals(body);
                    v.walk_block(body);
                }
            }
        }
    }
}

struct Visitor<'a, 'o> {
    file: &'a SourceFile,
    group: &'a str,
    hash_fields: &'a BTreeSet<String>,
    locals: BTreeSet<String>,
    out: &'o mut Vec<Finding>,
}

/// Chain classification result.
enum Chain {
    /// An enumeration of the named hash place, unordered.
    Unordered(String),
    /// Anything order-safe.
    Plain,
}

impl Visitor<'_, '_> {
    /// The place text of a simple receiver (`self.leases` → `leases`).
    fn hash_place(&self, e: &Expr) -> Option<String> {
        match e {
            Expr::Path { segs, .. } => {
                let last = segs.last()?;
                (self.locals.contains(last) || self.hash_fields.contains(last))
                    .then(|| last.clone())
            }
            Expr::Field { name, .. } => (self.hash_fields.contains(name)
                || self.locals.contains(name))
            .then(|| name.clone()),
            Expr::Unary { inner } | Expr::Try { inner } => self.hash_place(inner),
            Expr::Tuple { items, .. } if items.len() == 1 => self.hash_place(&items[0]),
            _ => None,
        }
    }

    /// Registers locals of hash type from every `let` in the body.
    fn collect_locals(&mut self, b: &Block) {
        ast::visit_block(b, &mut |n| {
            if let Node::Stmt(Stmt::Let(l)) = n {
                let is_hash = l.ty.contains("HashMap<")
                    || l.ty.contains("HashSet<")
                    || l.init.as_ref().is_some_and(constructs_hash)
                    || l.init.as_ref().is_some_and(|e| self.hash_place(e).is_some());
                if l.names.len() == 1 && is_hash {
                    self.locals.insert(l.names[0].clone());
                }
            }
            true
        });
    }

    /// Classifies a method chain, reporting at the first order-sensitive
    /// escape. Returns the classification of this expression's value.
    fn classify(&mut self, e: &Expr) -> Chain {
        let Expr::MethodCall { recv, method, line, .. } = e else {
            return Chain::Plain;
        };
        if ENUM_METHODS.contains(&method.as_str()) {
            if let Some(place) = self.hash_place(recv) {
                return Chain::Unordered(place);
            }
        }
        match self.classify(recv) {
            Chain::Unordered(place) => {
                if PRESERVING.contains(&method.as_str()) {
                    Chain::Unordered(place)
                } else if INSENSITIVE.contains(&method.as_str()) {
                    Chain::Plain
                } else {
                    self.report(*line, &place, &format!("`{method}()`"));
                    Chain::Plain
                }
            }
            Chain::Plain => Chain::Plain,
        }
    }

    fn report(&mut self, line: usize, place: &str, sink: &str) {
        self.out.push(Finding {
            file: self.file.rel.clone(),
            line,
            check: "nondet-order",
            message: format!(
                "iteration over `{}::{place}` (HashMap/HashSet) escapes into {sink} — \
                 the order differs across runs and processes",
                self.group,
            ),
            hint: "use a BTreeMap/BTreeSet, or sort before collecting".to_string(),
        });
    }

    fn walk_block(&mut self, b: &Block) {
        ast::visit_block(b, &mut |n| self.step(n));
    }

    /// One visitor step: classify every method chain; a `for` over an
    /// unordered chain is reported and only its body walked on. Fns
    /// declared inside the body are not this function's code.
    fn step(&mut self, n: Node<'_>) -> bool {
        match n {
            Node::Stmt(Stmt::Item(_)) => false,
            Node::Expr(e @ Expr::MethodCall { .. }) => {
                self.classify(e);
                true
            }
            Node::Expr(Expr::For { iter, body, line, .. }) => {
                let unordered = match self.classify(iter) {
                    Chain::Unordered(p) => Some(p),
                    Chain::Plain => self.hash_place(iter),
                };
                let Some(place) = unordered else { return true };
                self.report(*line, &place, "a `for` loop body");
                self.walk_block(body);
                false
            }
            _ => true,
        }
    }
}

/// Whether an initializer constructs a hash container.
fn constructs_hash(e: &Expr) -> bool {
    match e {
        Expr::Call { callee, .. } => {
            if let Expr::Path { segs, .. } = callee.as_ref() {
                segs.len() >= 2 && matches!(segs[segs.len() - 2].as_str(), "HashMap" | "HashSet")
            } else {
                false
            }
        }
        Expr::MethodCall { recv, method, .. }
            if matches!(method.as_str(), "unwrap" | "expect" | "clone") =>
        {
            constructs_hash(recv)
        }
        _ => false,
    }
}
