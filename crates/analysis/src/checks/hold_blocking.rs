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

use std::collections::BTreeMap;

use crate::dataflow::{bare, group_facts, simulate, Ev, GroupEnv};
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
    let facts = group_facts(&env);

    // How many distinct functions acquire each lock, through a bound
    // guard wrapper included. Locks with one acquirer are serialization
    // mutexes, exempt below.
    let mut acquirers: BTreeMap<&str, usize> = BTreeMap::new();
    for (_, f) in facts.values() {
        for lock in &f.direct {
            *acquirers.entry(lock).or_default() += 1;
        }
    }
    let contended = |lock: &str| acquirers.get(lock).is_some_and(|&n| n >= 2);

    // Fixpoint: which functions (transitively) contain a blocking call.
    // The blocking description propagates so findings can say *what*
    // blocks inside an opaque-looking callee.
    let mut blocks: BTreeMap<String, String> = BTreeMap::new();
    for (qname, (_, f)) in &facts {
        if let Some(Ev::Blocking { what, .. }) =
            f.events.iter().find(|e| matches!(e, Ev::Blocking { .. }))
        {
            blocks.insert(qname.clone(), what.clone());
        }
    }
    loop {
        let mut changed = false;
        let snapshot = blocks.clone();
        for (qname, (_, f)) in &facts {
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

    for (file, f) in facts.values() {
        simulate(&f.events, |ev, held| {
            let Some(lock) = held.iter().find(|h| contended(&h.lock)) else { return };
            match ev {
                Ev::Blocking { what, line } => {
                    out.push(finding(file, *line, group, &lock.lock, what, None));
                }
                Ev::CallLocal { qname: callee, line } => {
                    // A callee that itself acquires the held lock is
                    // lock-order's reentrancy finding, not ours.
                    if let Some(what) = blocks.get(callee) {
                        out.push(finding(file, *line, group, &lock.lock, what, Some(bare(callee))));
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
