//! Blocking-call-under-lock detector.
//!
//! The dist/service planes keep one hot `Mutex<State>` per process; the
//! design rule (established when spot-checks moved "outside the state
//! lock") is that nothing blocking — socket frame I/O, `TcpStream` /
//! `File` reads and writes, `thread::sleep`, channel `recv` — runs
//! while a guard on a *contended* lock is held. A connection handler
//! that writes a frame under the state lock stalls every other
//! connection on a slow peer.
//!
//! The check replays each function's dataflow events: a blocking event,
//! or a call into a function whose transitive body blocks, reached with
//! a contended guard held is a finding. A lock is *contended* when two
//! or more functions in the group acquire it; a single-acquirer mutex
//! (the `ckpt_io` pattern — one writer serializing checkpoint file I/O,
//! where blocking under the guard is the entire point) is exempt by
//! construction, not by suppression.

use std::collections::{BTreeMap, BTreeSet};

use crate::dataflow::{bare, extract, simulate, Ev, FnFacts, GroupEnv};
use crate::{Check, Finding, Workspace};

/// The blocking-call-under-lock detector (`hold-blocking`).
pub struct HoldBlocking;

impl Check for HoldBlocking {
    fn id(&self) -> &'static str {
        "hold-blocking"
    }

    fn describe(&self) -> &'static str {
        "blocking I/O, sleeps or channel reads while a contended lock guard is held"
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

    let mut facts: BTreeMap<String, FnFacts> = BTreeMap::new();
    let mut meta: BTreeMap<String, String> = BTreeMap::new();
    for (qname, info) in &env.fns {
        if info.in_test || info.def.body.is_none() {
            continue;
        }
        meta.insert(qname.clone(), info.file.rel.clone());
        facts.insert(qname.clone(), extract(&env, info));
    }

    // How many distinct functions acquire each lock — directly, or by
    // holding a guard returned from a wrapper. Locks with one acquirer
    // are serialization mutexes, exempt below.
    let mut acquirers: BTreeMap<String, BTreeSet<&str>> = BTreeMap::new();
    for (qname, f) in &facts {
        for lock in &f.direct {
            acquirers.entry(lock.clone()).or_default().insert(qname);
        }
        for ev in &f.events {
            if let Ev::CallLocal { qname: callee, bound: Some(_), .. } = ev {
                if env.returns_guard(callee) {
                    if let Some(cf) = facts.get(callee) {
                        for lock in &cf.direct {
                            acquirers.entry(lock.clone()).or_default().insert(qname);
                        }
                    }
                }
            }
        }
    }
    let contended = |lock: &str| acquirers.get(lock).is_some_and(|a| a.len() >= 2);

    // Fixpoint: which functions (transitively) contain a blocking call.
    // The blocking description propagates so findings can say *what*
    // blocks inside an opaque-looking callee.
    let mut blocks: BTreeMap<String, String> = BTreeMap::new();
    for (qname, f) in &facts {
        if let Some(Ev::Blocking { what, .. }) =
            f.events.iter().find(|e| matches!(e, Ev::Blocking { .. }))
        {
            blocks.insert(qname.clone(), what.clone());
        }
    }
    loop {
        let mut changed = false;
        let snapshot = blocks.clone();
        for (qname, f) in &facts {
            if blocks.contains_key(qname) {
                continue;
            }
            for callee in &f.callees {
                if let Some(what) = snapshot.get(callee) {
                    blocks.insert(qname.clone(), what.clone());
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Replay each function with guard-wrapper binding substituted in
    // (`let st = self.lock();` holds the wrapper's direct locks).
    for (qname, f) in &facts {
        let file = &meta[qname];
        let events: Vec<Ev> = f
            .events
            .iter()
            .flat_map(|e| match e {
                Ev::CallLocal { qname: c, line, bound: Some(b) } if env.returns_guard(c) => facts
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
                    .unwrap_or_default(),
                other => vec![other.clone()],
            })
            .collect();
        simulate(&events, |ev, held| {
            let held_contended: Vec<&str> =
                held.iter().filter(|h| contended(&h.lock)).map(|h| h.lock.as_str()).collect();
            if held_contended.is_empty() {
                return;
            }
            match ev {
                Ev::Blocking { what, line } => {
                    out.push(finding(file, *line, group, held_contended[0], what, None));
                }
                Ev::CallLocal { qname: callee, line, .. } => {
                    // A callee that itself acquires the held lock is
                    // lock-order's reentrancy finding, not ours.
                    if let Some(what) = blocks.get(callee) {
                        out.push(finding(
                            file,
                            *line,
                            group,
                            held_contended[0],
                            what,
                            Some(bare(callee)),
                        ));
                    }
                }
                _ => {}
            }
        });
    }
}

fn finding(
    file: &str,
    line: usize,
    group: &str,
    lock: &str,
    what: &str,
    via: Option<&str>,
) -> Finding {
    let message = match via {
        Some(callee) => format!(
            "calls `{callee}()`, which blocks on {what}, while holding `{group}::{lock}` — \
             every other thread contending that lock stalls behind the I/O"
        ),
        None => format!(
            "{what} while holding `{group}::{lock}` — every other thread contending \
             that lock stalls behind the I/O"
        ),
    };
    Finding {
        file: file.to_string(),
        line,
        check: "hold-blocking",
        message,
        hint: "compute under the lock, drop the guard, then do the blocking call".to_string(),
    }
}
