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
//! without needing a second thread. A let-bound call to a
//! guard-returning wrapper (`let st = self.lock();`) acquires the lock
//! it wraps, for both.
//!
//! Callees resolve by path (`Self::m`, `Type::m`, or a unique bare
//! name — never same-name merging), `.read()`/`.write()` only count on
//! receivers known to be `RwLock` fields, guards bound through
//! `unwrap`/`expect`/`?` stay bound while anything else is a statement
//! temporary, a guard acquired inside a branch dies with that branch's
//! scope, and one dropped inside a branch stays held on the paths that
//! skip the drop.

use std::collections::{BTreeMap, BTreeSet};

use crate::dataflow::{bare, group_facts, simulate, Ev, GroupEnv};
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
    let facts = group_facts(&env);

    // Fixpoint of exposed lock sets over the call graph.
    let mut exposed: BTreeMap<&str, BTreeSet<&str>> = facts
        .iter()
        .map(|(q, (_, f))| (q.as_str(), f.direct.iter().map(String::as_str).collect()))
        .collect();
    loop {
        let mut changed = false;
        let snapshot = exposed.clone();
        for (qname, (_, f)) in &facts {
            let mine = exposed.get_mut(qname.as_str()).expect("seeded above");
            for callee in &f.callees {
                if let Some(locks) = snapshot.get(callee.as_str()) {
                    for l in locks {
                        changed |= mine.insert(l);
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Simulate each function, building order edges and catching
    // reentrancy: a lock acquired — directly, through a bound guard
    // wrapper, or inside a callee — while it is already held.
    let mut edges: BTreeMap<(String, String), (String, usize, String)> = BTreeMap::new();
    for (qname, (file, f)) in &facts {
        simulate(&f.events, |ev, held| {
            let (line, locks, via) = match ev {
                Ev::Acquire { lock, line, .. } => (*line, BTreeSet::from([lock.as_str()]), None),
                Ev::CallLocal { qname: callee, line } => {
                    let Some(locks) = exposed.get(callee.as_str()) else { return };
                    (*line, locks.clone(), Some(bare(callee)))
                }
                _ => return,
            };
            for h in held {
                for &l in &locks {
                    if l != h.lock {
                        edges
                            .entry((h.lock.clone(), l.to_string()))
                            .or_insert_with(|| (file.to_string(), line, bare(qname).to_string()));
                    } else if let Some(callee) = via {
                        out.push(Finding {
                            file: file.to_string(),
                            line,
                            check: "lock-order",
                            message: format!(
                                "calls `{callee}()` while holding `{group}::{l}`, which \
                                 `{callee}` (re-)acquires — self-deadlock",
                            ),
                            hint: format!(
                                "pass the held guard into `{callee}` or drop it before the call"
                            ),
                        });
                    } else {
                        out.push(Finding {
                            file: file.to_string(),
                            line,
                            check: "lock-order",
                            message: format!(
                                "`{group}::{l}` re-acquired while already held \
                                 (guard taken at line {}) — std::sync::Mutex self-deadlocks",
                                h.line,
                            ),
                            hint: "reuse the held guard or drop it first".to_string(),
                        });
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
