//! Checkpoint-schema parity check.
//!
//! Each versioned checkpoint codec is a writer function building JSON
//! keys by hand and a reader function pulling the same keys back out —
//! in different functions, sometimes hundreds of lines apart. This
//! check extracts the key sets from both sides and fails on asymmetry:
//! a key written but never read is dead weight (or a reader that lost a
//! field), a key read but never written is a silent `None` on every
//! resume. The `version` key is exempt — readers sniff it rather than
//! require it, so old checkpoints still load.
//!
//! Covered codecs: `dist.json` (`DistState::doc`/`load` in
//! `coordinator.rs`), `tenant.json` (`Tenant::doc`/`load` in
//! `tenant.rs`), `coverage.json`+`meta.json` (`save`/`load` in
//! `campaign/src/checkpoint.rs`), and the campaign-spec echo
//! (`CampaignSpec::to_json`/`from_json` in `spec.rs`).
//!
//! The `events.jsonl` feed has no reader to diff against (consumers are
//! external), so it gets a required-key rule instead: every event the
//! `event()` builder emits must carry `event` and `seq` — the fields
//! the replay tooling sorts and dedups by.

use std::collections::BTreeMap;

use super::{code_toks, snake_legal};
use crate::ast::FnDef;
use crate::lexer::{Kind, Tok};
use crate::{Check, Finding, SourceFile, Workspace};

/// The checkpoint-schema parity check (`ckpt-schema`).
pub struct CheckpointSchema;

/// (label, file name, writer fn, reader fn); the codec is the first file
/// of that name defining both fns.
const CODECS: [(&str, &str, &str, &str); 4] = [
    ("dist.json", "coordinator.rs", "doc", "load"),
    ("tenant.json", "tenant.rs", "doc", "load"),
    ("coverage.json", "checkpoint.rs", "save", "load"),
    ("spec", "spec.rs", "to_json", "from_json"),
];

/// Keys every `events.jsonl` record must carry, per the `event()`
/// builder in `tenant.rs`.
const EVENT_REQUIRED: [&str; 2] = ["event", "seq"];

impl Check for CheckpointSchema {
    fn id(&self) -> &'static str {
        "ckpt-schema"
    }

    fn describe(&self) -> &'static str {
        "writer/reader JSON key parity for the checkpoint codecs; events.jsonl required keys"
    }

    fn run(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for (label, file_name, writer, reader) in CODECS {
            let Some((file, w, r)) = ws
                .files_named(file_name)
                .find_map(|f| Some((f, body_of(f, writer)?, body_of(f, reader)?)))
            else {
                continue;
            };
            let toks = code_toks(file);
            let written = written_keys(&toks[w.body_toks.clone()]);
            let read = read_keys(&toks[r.body_toks.clone()]);
            for (key, line) in &written {
                if *key != "version" && !read.contains_key(key) {
                    out.push(Finding {
                        file: file.rel.clone(),
                        line: *line,
                        check: "ckpt-schema",
                        message: format!(
                            "{label}: key `{key}` is written by `{writer}` but never read \
                             by `{reader}`"
                        ),
                        hint: "read it on resume or stop writing it".to_string(),
                    });
                }
            }
            for (key, line) in &read {
                if !written.contains_key(key) {
                    out.push(Finding {
                        file: file.rel.clone(),
                        line: *line,
                        check: "ckpt-schema",
                        message: format!(
                            "{label}: key `{key}` is read by `{reader}` but never written \
                             by `{writer}`"
                        ),
                        hint: "the field silently defaults on every resume".to_string(),
                    });
                }
            }
        }
        check_event_feed(ws, out);
    }
}

/// The `events.jsonl` rule: the `event()` builder in `tenant.rs` must
/// emit every required key.
fn check_event_feed(ws: &Workspace, out: &mut Vec<Finding>) {
    let Some((file, b)) = ws.files_named("tenant.rs").find_map(|f| Some((f, body_of(f, "event")?)))
    else {
        return;
    };
    let written = written_keys(&code_toks(file)[b.body_toks.clone()]);
    for key in EVENT_REQUIRED {
        if !written.contains_key(key) {
            out.push(Finding {
                file: file.rel.clone(),
                line: b.line,
                check: "ckpt-schema",
                message: format!(
                    "events.jsonl: `event()` no longer emits required key `{key}` — \
                     replay tooling sorts and dedups the feed by it"
                ),
                hint: format!("emit `{key}` in every event record"),
            });
        }
    }
}

/// The first non-test fn named `name` with a body, wherever it sits.
fn body_of<'a>(file: &'a SourceFile, name: &str) -> Option<&'a FnDef> {
    file.ast
        .fns()
        .map(|(_, d)| d)
        .find(|d| d.name == name && d.body.is_some() && !file.in_test(d.line))
}

/// JSON keys a writer emits: the string in `("key", …)` tuple position.
/// Error strings never match — they are not snake_case or not directly
/// after `(` with a `,` behind them.
fn written_keys(toks: &[&Tok]) -> BTreeMap<String, usize> {
    let mut keys = BTreeMap::new();
    for i in 0..toks.len().saturating_sub(2) {
        if toks[i].is_punct('(') && toks[i + 1].kind == Kind::Str && toks[i + 2].is_punct(',') {
            if let Some(key) = toks[i + 1].str_value() {
                if snake_legal(key) {
                    keys.entry(key.to_string()).or_insert(toks[i + 1].line);
                }
            }
        }
    }
    keys
}

/// JSON keys a reader consumes: the first string argument of `get(…)`
/// or a `field_…(…, "key")` helper.
fn read_keys(toks: &[&Tok]) -> BTreeMap<String, usize> {
    let mut keys = BTreeMap::new();
    for i in 0..toks.len().saturating_sub(1) {
        let is_getter = toks[i].kind == Kind::Ident
            && (toks[i].text == "get" || toks[i].text.starts_with("field_"))
            && toks[i + 1].is_punct('(');
        if !is_getter {
            continue;
        }
        let mut depth = 0i32;
        for t in &toks[i + 1..] {
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.kind == Kind::Str && depth == 1 {
                if let Some(key) = t.str_value() {
                    if snake_legal(key) {
                        keys.entry(key.to_string()).or_insert(t.line);
                    }
                }
                break;
            }
        }
    }
    keys
}
