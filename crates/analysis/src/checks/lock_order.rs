//! Lock-order deadlock detector, on the syntax/dataflow layer.
//!
//! For every crate group, the check builds a [`GroupEnv`] (lock-typed
//! struct fields, functions resolved by qualified name) and extracts a
//! per-function event stream with real guard binding, drop and scope
//! tracking ([`crate::dataflow`]). From those it builds a
//! lock-acquisition order graph — an edge `A → B` means some path
//! acquires `B` while holding `A` — and fails on cycles, the classic
//! two-thread deadlock shape. It also flags *reentrant* acquisition
//! (taking a `std::sync::Mutex` you already hold), which self-deadlocks
//! without needing a second thread.
//!
//! Unlike the token-level version this replaces, callees resolve by
//! path (`Self::m`, `Type::m`, or a unique bare name — never same-name
//! merging), `.read()`/`.write()` only count on receivers known to be
//! `RwLock` fields, guards bound through `unwrap`/`expect`/`?` stay
//! bound while anything else is a statement temporary, and a guard
//! acquired inside a branch dies with that branch's scope.

use std::collections::{BTreeMap, BTreeSet};

use crate::dataflow::{bare, extract, simulate, Ev, FnFacts, GroupEnv};
use crate::{Check, Finding, Workspace};

/// The lock-order deadlock detector (`lock-order`).
pub struct LockOrder;

impl Check for LockOrder {
    fn id(&self) -> &'static str {
        "lock-order"
    }

    fn describe(&self) -> &'static str {
        "cycles in the lock-acquisition order graph and reentrant Mutex acquisition"
    }

    fn run(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for group in ws.group_names() {
            run_group(ws, &group, out);
        }
    }
}

fn run_group(ws: &Workspace, group: &str, out: &mut Vec<Finding>) {
    let files: Vec<_> = ws.group(group).collect();
    let env = GroupEnv::build(&files);

    // Pass 1: extract events per function (non-test only).
    let mut facts: BTreeMap<String, FnFacts> = BTreeMap::new();
    let mut meta: BTreeMap<String, (String, usize)> = BTreeMap::new();
    for (qname, info) in &env.fns {
        if info.in_test || info.def.body.is_none() {
            continue;
        }
        meta.insert(qname.clone(), (info.file.rel.clone(), info.def.line));
        facts.insert(qname.clone(), extract(&env, info));
    }

    // Pass 2: fixpoint of exposed lock sets over the call graph.
    let mut exposed: BTreeMap<String, BTreeSet<String>> =
        facts.iter().map(|(q, f)| (q.clone(), f.direct.clone())).collect();
    loop {
        let mut changed = false;
        let snapshot = exposed.clone();
        for (qname, f) in &facts {
            let mine = exposed.get_mut(qname).expect("seeded above");
            for callee in &f.callees {
                if let Some(locks) = snapshot.get(callee) {
                    for l in locks {
                        changed |= mine.insert(l.clone());
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Pass 3: simulate each function, building order edges and catching
    // reentrancy.
    let mut edges: BTreeMap<(String, String), (String, usize, String)> = BTreeMap::new();
    for (qname, f) in &facts {
        let (file, _) = &meta[qname];
        simulate(&f.events, |ev, held| match ev {
            Ev::Acquire { lock, line, .. } => {
                for h in held {
                    if h.lock == *lock {
                        out.push(Finding {
                            file: file.clone(),
                            line: *line,
                            check: "lock-order",
                            message: format!(
                                "`{group}::{lock}` re-acquired while already held \
                                 (guard taken at line {}) — \
                                 std::sync::Mutex self-deadlocks",
                                h.line,
                            ),
                            hint: "reuse the held guard or drop it first".to_string(),
                        });
                    } else {
                        edges
                            .entry((h.lock.clone(), lock.clone()))
                            .or_insert_with(|| (file.clone(), *line, bare(qname).to_string()));
                    }
                }
            }
            Ev::CallLocal { qname: callee, line, .. } => {
                let Some(target) = exposed.get(callee) else { return };
                for h in held {
                    for l in target {
                        if *l == h.lock {
                            out.push(Finding {
                                file: file.clone(),
                                line: *line,
                                check: "lock-order",
                                message: format!(
                                    "calls `{callee}()` while holding \
                                     `{group}::{}`, which `{callee}` \
                                     (re-)acquires — self-deadlock",
                                    h.lock,
                                    callee = bare(callee),
                                ),
                                hint: format!(
                                    "pass the held guard into `{}` or drop it \
                                     before the call",
                                    bare(callee)
                                ),
                            });
                        } else {
                            edges
                                .entry((h.lock.clone(), l.clone()))
                                .or_insert_with(|| (file.clone(), *line, bare(qname).to_string()));
                        }
                    }
                }
            }
            _ => {}
        });
    }

    // A guard bound from a wrapper call (`let st = self.lock();`) holds
    // the wrapper's direct locks from the call until drop/scope end —
    // replay with those acquisitions substituted in.
    let mut wrapper_events: BTreeMap<String, Vec<Ev>> = BTreeMap::new();
    for (qname, f) in &facts {
        if f.events.iter().any(
            |e| matches!(e, Ev::CallLocal { qname: c, bound: Some(_), .. } if env.returns_guard(c)),
        ) {
            let replayed: Vec<Ev> = f
                .events
                .iter()
                .flat_map(|e| match e {
                    Ev::CallLocal { qname: c, line, bound: Some(b) } if env.returns_guard(c) => {
                        facts
                            .get(c)
                            .map(|cf| {
                                cf.direct
                                    .iter()
                                    .map(|l| Ev::Acquire {
                                        lock: l.clone(),
                                        line: *line,
                                        bound: Some(b.clone()),
                                    })
                                    .collect::<Vec<_>>()
                            })
                            .unwrap_or_default()
                    }
                    other => vec![other.clone()],
                })
                .collect();
            wrapper_events.insert(qname.clone(), replayed);
        }
    }
    for (qname, events) in &wrapper_events {
        let (file, _) = &meta[qname];
        simulate(events, |ev, held| {
            if let Ev::Acquire { lock, line, .. } = ev {
                for h in held {
                    if h.lock != *lock {
                        edges
                            .entry((h.lock.clone(), lock.clone()))
                            .or_insert_with(|| (file.clone(), *line, bare(qname).to_string()));
                    }
                }
            }
        });
    }

    // Pass 4: cycles in the order graph.
    let graph: BTreeMap<&str, Vec<&str>> = {
        let mut g: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (a, b) in edges.keys() {
            g.entry(a.as_str()).or_default().push(b.as_str());
        }
        g
    };
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in graph.keys() {
        let mut path = vec![*start];
        dfs_cycles(&graph, start, &mut path, &mut reported, &edges, group, out);
    }
}

/// Depth-first walk over the order graph, reporting every elementary
/// cycle once (canonicalized by rotating the smallest lock name first).
fn dfs_cycles<'a>(
    graph: &BTreeMap<&'a str, Vec<&'a str>>,
    node: &str,
    path: &mut Vec<&'a str>,
    reported: &mut BTreeSet<Vec<String>>,
    edges: &BTreeMap<(String, String), (String, usize, String)>,
    group: &str,
    out: &mut Vec<Finding>,
) {
    let Some(nexts) = graph.get(node) else { return };
    for next in nexts {
        if let Some(pos) = path.iter().position(|n| n == next) {
            // Cycle: path[pos..] + next. Canonicalize by rotating the
            // smallest lock name to the front.
            let cycle: Vec<String> = path[pos..].iter().map(|s| (*s).to_string()).collect();
            let mut canon = cycle.clone();
            if let Some(min_idx) =
                canon.iter().enumerate().min_by(|a, b| a.1.cmp(b.1)).map(|(i, _)| i)
            {
                canon.rotate_left(min_idx);
            }
            if reported.insert(canon.clone()) {
                let mut sites = Vec::new();
                for w in 0..cycle.len() {
                    let a = &cycle[w];
                    let b = &cycle[(w + 1) % cycle.len()];
                    if let Some((file, line, in_fn)) = edges.get(&(a.clone(), b.clone())) {
                        sites.push(format!("{a}→{b} in {in_fn}() at {file}:{line}"));
                    }
                }
                let (file, line, _) = edges
                    .get(&(cycle[0].clone(), cycle[1 % cycle.len()].clone()))
                    .cloned()
                    .unwrap_or_default();
                out.push(Finding {
                    file,
                    line,
                    check: "lock-order",
                    message: format!(
                        "lock-order cycle in `{group}`: {} — two threads taking these \
                         in opposite order deadlock [{}]",
                        canon.join(" → "),
                        sites.join("; "),
                    ),
                    hint: "impose one global acquisition order (or merge the mutexes)".to_string(),
                });
            }
            continue;
        }
        path.push(next);
        dfs_cycles(graph, next, path, reported, edges, group, out);
        path.pop();
    }
}
