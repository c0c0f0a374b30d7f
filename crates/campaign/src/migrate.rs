//! What older builds wrote into a checkpoint directory, read in one
//! place: [`load`] upgrades `meta.json` and `coverage.json` in memory to
//! the versions this build writes and decodes them with the live decoder.
//! It writes nothing, so a forked resume leaves the directory it read
//! untouched. Each version read here has a `tests/fixtures/state/`
//! directory that tier-1 resumes.

use std::fs;
use std::io;
use std::path::Path;

use crate::checkpoint::{decode, CampaignState, COVERAGE_VERSION, META_VERSION};
use crate::json::{build, parse_doc, read_doc, Json};

/// Loads the checkpoint in `dir`, whichever build wrote it. Writes
/// nothing.
///
/// # Errors
///
/// Missing files, malformed JSON, or a version no build wrote.
pub fn load(dir: &Path) -> io::Result<CampaignState> {
    let mut meta = parse_doc(&fs::read_to_string(dir.join("meta.json"))?)?;
    // v1 held no worker RNG states: the streams re-derive from the seed.
    if meta.opt_field::<usize>("version")? == Some(1) {
        meta.set("version", build::int(META_VERSION));
    }
    // No file predates coverage persistence (no masks: the corpus
    // replays); v1 held no metric (neuron), v2 one metric.
    let none = || build::obj(vec![("version", build::int(1)), ("masks", Json::Arr(Vec::new()))]);
    let mut coverage = read_doc(&dir.join("coverage.json"))?.unwrap_or_else(none);
    let version = coverage.opt_field::<usize>("version")?;
    if version == Some(1) {
        coverage.set("metric", build::str("neuron"));
    }
    if matches!(version, Some(1 | 2)) {
        coverage.set("version", build::int(COVERAGE_VERSION));
    }
    decode(dir, &meta, &coverage)
}
