//! The check catalog and the two lexical helpers checks share. Code
//! structure comes from [`crate::ast`] only.

mod checkpoint_schema;
mod crate_attrs;
mod hold_blocking;
mod lock_order;
mod nondet_order;
mod panic_path;
mod protocol_drift;
mod telemetry_names;
mod wire_compat;

use crate::lexer::{Kind, Tok};
use crate::{Check, SourceFile};

/// Every registered check, in catalog order.
pub fn all() -> Vec<Box<dyn Check>> {
    vec![
        Box::new(lock_order::LockOrder),
        Box::new(hold_blocking::HoldBlocking),
        Box::new(nondet_order::NondetOrder),
        Box::new(wire_compat::WireCompat),
        Box::new(panic_path::PanicPath),
        Box::new(protocol_drift::ProtocolDrift),
        Box::new(telemetry_names::TelemetryNames),
        Box::new(checkpoint_schema::CheckpointSchema),
        Box::new(crate_attrs::CrateAttrs),
    ]
}

/// The file's tokens with comments stripped — what most checks walk.
pub(crate) fn code_toks(file: &SourceFile) -> Vec<&Tok> {
    file.toks.iter().filter(|t| !matches!(t.kind, Kind::LineComment | Kind::BlockComment)).collect()
}

/// Whether a name is a legal snake_case identifier (our convention for
/// metric names, JSON keys, and event names).
pub(crate) fn snake_legal(name: &str) -> bool {
    !name.is_empty()
        && name.chars().next().is_some_and(|c| c.is_ascii_lowercase() || c == '_')
        && name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}
