//! `dx-probe verify`: do the recorded diffs still make the models
//! disagree?

use std::path::Path;

use dx_benchmark::trace::Tracer;
use dx_campaign::{codec, json};

use crate::suite;

/// Recorded diffs re-executed per checkpoint: the workloads' budgets leave
/// fewer than this in every checkpoint, so today all of them are.
const LIMIT: usize = 200;

/// Re-executes up to [`LIMIT`] diffs of every checkpoint's `diffs.jsonl`
/// through [`dx_campaign::ModelSuite::reproduces_difference`] and prints
/// `{"checked":N,"failed":M}`.
///
/// # Errors
///
/// When the suite cannot be built or a `diffs.jsonl` does not parse.
pub fn verify(dataset: &str, cache: &Path, checkpoints: &[String]) -> Result<(), String> {
    // The oracle only needs the models: the coverage metric plays no part.
    let bench = suite::build(dataset, None, cache, &mut Tracer::disabled())?;
    let (mut checked, mut failed) = (0u64, 0u64);
    for dir in checkpoints {
        let path = Path::new(dir).join("diffs.jsonl");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        for line in text.lines().filter(|l| !l.trim().is_empty()).take(LIMIT) {
            let doc = json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
            let diff =
                codec::diff_from_json(&doc).map_err(|e| format!("{}: {e}", path.display()))?;
            checked += 1;
            if !bench.suite.reproduces_difference(&diff.input, &diff.predictions) {
                failed += 1;
            }
        }
    }
    println!("{{\"checked\":{checked},\"failed\":{failed}}}");
    Ok(())
}
