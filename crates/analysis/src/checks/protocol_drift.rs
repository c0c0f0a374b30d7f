//! Protocol-drift check: `proto.rs` vs itself and vs `service/spec.rs`.
//!
//! The wire protocol is string-typed by design (dependency-free JSON),
//! which means rustc cannot see when a `Msg` variant is added without a
//! parse arm, a `Fingerprint` field stops being serialized, or the
//! service spec keeps "validating" a fingerprint field that no longer
//! exists. This check cross-references:
//!
//! 1. every `Msg` variant appears in both `Msg::to_json` and
//!    `Msg::from_json`;
//! 2. every `Fingerprint` struct field is written by
//!    `Fingerprint::to_json` and read by `Fingerprint::from_json` as a
//!    JSON key;
//! 3. every `CampaignSpec` field that shadows a `Fingerprint` field is
//!    actually compared against `fp.<field>` in `CampaignSpec::validate`,
//!    and `validate` never references a fingerprint field that is gone.
//!
//! The syntax tree locates the enum, the structs and the codec fns; the
//! variant and key lookups scan the located bodies' tokens. Where
//! `PROTOCOL_VERSION` is declared is `wire-compat`'s rule.

use super::code_toks;
use crate::ast::{self, Expr, FnDef, Item, Node, StructDef};
use crate::lexer::Tok;
use crate::{Check, Finding, SourceFile, Workspace};

/// The protocol-drift check (`proto-drift`).
pub struct ProtocolDrift;

impl Check for ProtocolDrift {
    fn id(&self) -> &'static str {
        "proto-drift"
    }

    fn describe(&self) -> &'static str {
        "Msg variants and Fingerprint fields vs their codecs and spec.rs"
    }

    fn run(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let Some(proto) = ws.files_named("proto.rs").next() else { return };
        let toks = code_toks(proto);
        let mut finding = |file: &SourceFile, line: usize, message: String, hint: String| {
            out.push(Finding { file: file.rel.clone(), line, check: "proto-drift", message, hint });
        };
        // Rule 1: every Msg variant in both codec directions.
        let variants = proto.ast.items().into_iter().find_map(|(_, item)| match item {
            Item::Enum(e) if e.name == "Msg" => Some(&e.variants),
            _ => None,
        });
        let has_impl = proto.ast.fns().any(|(ty, _)| ty == Some("Msg"));
        let codecs = ["to_json", "from_json"].map(|dir| (dir, method(proto, "Msg", dir)));
        if let Some(variants) = variants.filter(|_| has_impl) {
            for (name, line) in variants {
                for (dir, codec) in codecs {
                    let present =
                        codec.is_some_and(|d| body(&toks, d).iter().any(|t| t.is_ident(name)));
                    if !present {
                        finding(
                            proto,
                            *line,
                            format!("`Msg::{name}` is missing from `{dir}`"),
                            format!("add a `{dir}` arm for the variant or delete it"),
                        );
                    }
                }
            }
        }
        // Rule 2: every Fingerprint field is a JSON key of both codecs.
        let fields = struct_named(proto, "Fingerprint").map_or(&[][..], |s| &s.fields[..]);
        for dir in ["to_json", "from_json"] {
            let Some(codec) = method(proto, "Fingerprint", dir) else { continue };
            for field in fields {
                if !body(&toks, codec).iter().any(|t| t.str_value() == Some(&field.name)) {
                    finding(
                        proto,
                        field.line,
                        format!("Fingerprint field `{}` is not a JSON key in `{dir}`", field.name),
                        "serialize every fingerprint field or remove it".to_string(),
                    );
                }
            }
        }
        // Rule 3: spec.rs validates every shadowed field, and only fields
        // that still exist.
        let Some((spec, validate)) = ws
            .files_named("spec.rs")
            .find_map(|f| Some((f, method(f, "CampaignSpec", "validate")?)))
        else {
            return;
        };
        let Some(validate_body) = &validate.body else { return };
        let mut read = Vec::new();
        ast::visit_block(validate_body, &mut |n| {
            if let Node::Expr(Expr::Field { recv, name, line }) = n {
                if matches!(recv.as_ref(), Expr::Path { segs, .. } if segs == &["fp"]) {
                    read.push((name, *line));
                }
            }
            true
        });
        let shadowed = struct_named(spec, "CampaignSpec").map_or(&[][..], |s| &s.fields[..]);
        for field in shadowed.iter().filter(|f| fields.iter().any(|g| g.name == f.name)) {
            if !read.iter().any(|(name, _)| **name == field.name) {
                finding(
                    spec,
                    validate.line,
                    format!(
                        "CampaignSpec::validate no longer asserts `{}` against the fleet \
                         fingerprint",
                        field.name
                    ),
                    format!("compare self.{0} with fp.{0} (mismatch is a 400)", field.name),
                );
            }
        }
        for (name, line) in read {
            if !fields.iter().any(|f| f.name == *name) {
                finding(
                    spec,
                    line,
                    format!("validate references `fp.{name}`, which is not a Fingerprint field"),
                    "the fingerprint schema moved; update spec.rs".to_string(),
                );
            }
        }
    }
}

/// The fn `ty::name` in `file`.
fn method<'a>(file: &'a SourceFile, ty: &str, name: &str) -> Option<&'a FnDef> {
    file.ast.fns().find(|(t, d)| *t == Some(ty) && d.name == name).map(|(_, d)| d)
}

/// The struct `name` in `file`.
fn struct_named<'a>(file: &'a SourceFile, name: &str) -> Option<&'a StructDef> {
    file.ast.items().into_iter().find_map(|(_, item)| match item {
        Item::Struct(s) if s.name == name => Some(s),
        _ => None,
    })
}

/// The code tokens of a fn's body.
fn body<'t>(toks: &'t [&'t Tok], def: &FnDef) -> &'t [&'t Tok] {
    &toks[def.body_toks.clone()]
}
