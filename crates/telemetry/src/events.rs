//! Structured JSONL diagnostics.
//!
//! Every record is one JSON object per line with fixed leading keys
//! (`ts_ms`, `level`, `component`, `event`) followed by the caller's
//! fields, e.g.:
//!
//! ```text
//! {"ts_ms":1754550000123,"level":"info","component":"coordinator","event":"worker_joined","worker":"w-3f09c2a1b7d4e865"}
//! ```
//!
//! Records at or above the configured level ([`set_level`], the CLI's
//! `--log-level`) go to stderr; when a trace file is set
//! ([`set_trace_file`], the CLI's `--trace-out`) *every* record is also
//! appended there regardless of level, so a quiet console run still
//! leaves a complete trace.

use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::write_str;
use crate::sync::{Rank, Ranked};

/// Event severity, ordered from chattiest to most severe. [`Level::Off`]
/// is only meaningful as a filter setting, never as a record's level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Per-message detail (frame-level chatter).
    Trace,
    /// Per-connection / per-lease detail.
    Debug,
    /// Campaign lifecycle: joins, drains, evictions' outcomes.
    Info,
    /// Suspicious but recoverable: failed spot-checks, bad auth proofs.
    Warn,
    /// Lost work or failed persistence.
    Error,
    /// Filter setting that silences stderr entirely.
    Off,
}

impl Level {
    fn as_u8(self) -> u8 {
        match self {
            Level::Trace => 0,
            Level::Debug => 1,
            Level::Info => 2,
            Level::Warn => 3,
            Level::Error => 4,
            Level::Off => 5,
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Trace,
            1 => Level::Debug,
            2 => Level::Info,
            3 => Level::Warn,
            4 => Level::Error,
            _ => Level::Off,
        }
    }

    /// The lowercase name used on the wire and accepted by [`FromStr`].
    pub fn name(self) -> &'static str {
        match self {
            Level::Trace => "trace",
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
            Level::Off => "off",
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Level {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "trace" => Ok(Level::Trace),
            "debug" => Ok(Level::Debug),
            "info" => Ok(Level::Info),
            "warn" => Ok(Level::Warn),
            "error" => Ok(Level::Error),
            "off" => Ok(Level::Off),
            other => Err(format!("unknown log level {other:?} (trace|debug|info|warn|error|off)")),
        }
    }
}

/// A field value; `From` impls cover the common primitive types so call
/// sites can write `("slot", slot.into())`.
#[derive(Clone, Debug)]
pub enum Value {
    /// A JSON string.
    Str(String),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float (non-finite values render as `null`).
    F64(f64),
    /// A boolean.
    Bool(bool),
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::F64(f64::from(v))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<std::time::Duration> for Value {
    fn from(v: std::time::Duration) -> Self {
        Value::F64(v.as_secs_f64())
    }
}

static LEVEL: AtomicU8 = AtomicU8::new(2); // Info
static TRACE_ON: AtomicBool = AtomicBool::new(false);
static TRACE_FILE: Ranked<Option<File>> = Ranked::new(Rank::TraceFile, None);

/// Sets the minimum level that reaches stderr (default [`Level::Info`]).
pub fn set_level(level: Level) {
    LEVEL.store(level.as_u8(), Ordering::Relaxed);
}

/// The current stderr level.
pub fn level() -> Level {
    Level::from_u8(LEVEL.load(Ordering::Relaxed))
}

/// Opens (appending) a trace file that receives every record regardless
/// of the stderr level.
///
/// # Errors
///
/// Any I/O failure opening the file.
pub fn set_trace_file(path: impl AsRef<Path>) -> std::io::Result<()> {
    let file = OpenOptions::new().create(true).append(true).open(path)?;
    *TRACE_FILE.lock() = Some(file);
    TRACE_ON.store(true, Ordering::Relaxed);
    Ok(())
}

/// Emits one event record. Writing stderr or the trace file blocks, so
/// the caller must hold no contended lock ([`crate::sync::blocking`]):
/// a daemon builds its events under its lock and emits them after.
pub fn emit(level: Level, component: &str, event: &str, fields: &[(&str, Value)]) {
    crate::sync::blocking("emit");
    // No record carries Level::Off, so an Off floor silences stderr.
    let to_stderr = level >= self::level();
    let to_trace = TRACE_ON.load(Ordering::Relaxed);
    if !to_stderr && !to_trace {
        return;
    }
    let line = render(level, component, event, fields);
    if to_stderr {
        eprintln!("{line}");
    }
    if to_trace {
        if let Some(f) = TRACE_FILE.lock().as_mut() {
            let _ = writeln!(f, "{line}");
        }
    }
}

/// Builds the JSONL record (exposed for tests).
pub fn render(level: Level, component: &str, event: &str, fields: &[(&str, Value)]) -> String {
    let ts_ms =
        SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis()).unwrap_or_default();
    let mut line = String::with_capacity(96);
    let _ = write!(line, "{{\"ts_ms\":{ts_ms},\"level\":\"{level}\",\"component\":");
    write_str(component, &mut line);
    line.push_str(",\"event\":");
    write_str(event, &mut line);
    for (key, value) in fields {
        line.push(',');
        write_str(key, &mut line);
        line.push(':');
        let _ = match value {
            Value::Str(s) => {
                write_str(s, &mut line);
                Ok(())
            }
            Value::U64(v) => write!(line, "{v}"),
            Value::I64(v) => write!(line, "{v}"),
            Value::F64(v) if v.is_finite() => write!(line, "{v}"),
            Value::F64(_) => line.write_str("null"),
            Value::Bool(v) => write!(line, "{v}"),
        };
    }
    line.push('}');
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_and_order() {
        assert!(Level::Trace < Level::Debug && Level::Debug < Level::Info);
        assert!(Level::Info < Level::Warn && Level::Warn < Level::Error);
        assert!(Level::Error < Level::Off);
        for l in [Level::Trace, Level::Debug, Level::Info, Level::Warn, Level::Error, Level::Off] {
            assert_eq!(l.name().parse::<Level>().unwrap(), l);
        }
        assert!("verbose".parse::<Level>().is_err());
    }

    #[test]
    fn records_are_valid_jsonl_shape() {
        let line = render(
            Level::Warn,
            "coordinator",
            "spot_check_failed",
            &[
                ("slot", 3u64.into()),
                ("rate", 0.5f64.into()),
                ("reason", "bad \"diff\"\n".into()),
                ("evicted", false.into()),
                ("nan", f64::NAN.into()),
            ],
        );
        assert!(line.starts_with("{\"ts_ms\":"), "{line}");
        assert!(line.contains("\"level\":\"warn\""), "{line}");
        assert!(line.contains("\"component\":\"coordinator\""), "{line}");
        assert!(line.contains("\"event\":\"spot_check_failed\""), "{line}");
        assert!(line.contains("\"slot\":3"), "{line}");
        assert!(line.contains("\"rate\":0.5"), "{line}");
        assert!(line.contains("\"reason\":\"bad \\\"diff\\\"\\n\""), "{line}");
        assert!(line.contains("\"evicted\":false"), "{line}");
        assert!(line.contains("\"nan\":null"), "{line}");
        assert!(line.ends_with('}'), "{line}");
        assert!(!line.contains('\n'), "one record per line: {line}");
    }

    #[test]
    fn control_characters_are_escaped() {
        let line = render(Level::Info, "a\u{1}b", "tab\there", &[]);
        assert!(line.contains("\"component\":\"a\\u0001b\""), "{line}");
        assert!(line.contains("\"event\":\"tab\\there\""), "{line}");
    }
}
