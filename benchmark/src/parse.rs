//! Parsers for what the `deepxplore` CLI prints and writes.
//!
//! Every parser returns an error (never a zero) when the shape it
//! expects is missing, and the tests run them against captured output of
//! today's CLI under `benchmark/fixtures/`, so a format drift fails
//! loudly instead of yielding empty metrics.

use crate::json::{self, Json};

/// The `total:` line of a campaign/dist report.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Totals {
    /// Seed-steps run (cumulative across resumes).
    pub seeds: u64,
    /// Difference-inducing inputs found (cumulative).
    pub diffs: u64,
}

/// Parses `total: 96 seeds, 48 diffs in 1.73s with 1 worker(s) (...)`.
///
/// # Errors
///
/// When no line of `stdout` has that shape.
pub fn totals(stdout: &str) -> Result<Totals, String> {
    let line = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("total: "))
        .ok_or("no `total:` line in the report")?;
    let words: Vec<&str> = line.split_whitespace().collect();
    // ["96", "seeds,", "48", "diffs", "in", "1.73s", ...]
    let shape_ok =
        words.len() >= 6 && words[1] == "seeds," && words[3] == "diffs" && words[4] == "in";
    let parsed = shape_ok
        .then(|| Some(Totals { seeds: words[0].parse().ok()?, diffs: words[2].parse().ok()? }));
    parsed.flatten().ok_or_else(|| format!("unrecognised `total:` line: {line}"))
}

/// Parses `coverage per model: [83.3%, 79.9%, 74.4%]` (also the dist
/// report's `merged coverage per model:`) into percentages.
///
/// # Errors
///
/// When the line is missing or an entry is not `<number>%`.
pub fn coverage_per_model(stdout: &str) -> Result<Vec<f64>, String> {
    let list = stdout
        .lines()
        .find_map(|l| l.split_once("coverage per model: [")?.1.strip_suffix(']'))
        .ok_or("no `coverage per model:` line in the report")?;
    list.split(", ")
        .map(|e| e.strip_suffix('%').and_then(|n| n.parse().ok()))
        .collect::<Option<Vec<f64>>>()
        .filter(|v| !v.is_empty())
        .ok_or_else(|| format!("unrecognised coverage list: [{list}]"))
}

/// Parses the `serve` banner
/// ``service `mnist@test`: fleet on 127.0.0.1:34791, API on http://127.0.0.1:42171``
/// into `(fleet address, API address)`.
///
/// # Errors
///
/// When the banner has not been printed (yet) or has another shape.
pub fn serve_addrs(stdout: &str) -> Result<(String, String), String> {
    let line =
        stdout.lines().find(|l| l.starts_with("service `")).ok_or("no `service` banner yet")?;
    let fleet = line.split_once("fleet on ").and_then(|(_, r)| r.split_once(','));
    let api = line.split_once("API on http://");
    match (fleet, api) {
        (Some((fleet, _)), Some((_, api))) if !fleet.is_empty() && !api.trim().is_empty() => {
            Ok((fleet.to_string(), api.trim().to_string()))
        }
        _ => Err(format!("unrecognised `service` banner: {line}")),
    }
}

/// Parses the `coordinator` banner
/// ``coordinator serving `mnist@test` on 127.0.0.1:35883`` into the
/// address workers connect to.
///
/// # Errors
///
/// When the banner has not been printed (yet) or has another shape.
pub fn coordinator_addr(stdout: &str) -> Result<String, String> {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("coordinator serving `"))
        .ok_or("no `coordinator serving` banner yet")?;
    match line.rsplit_once("` on ") {
        Some((_, addr)) if addr.contains(':') => Ok(addr.trim().to_string()),
        _ => Err(format!("unrecognised `coordinator` banner: {line}")),
    }
}

/// Parses the worker's closing line
/// `worker 0 done: 96 steps, 46 diffs, local coverage [...]` into
/// `(steps, diffs)`.
///
/// # Errors
///
/// When the line is missing or has another shape.
pub fn worker_done(stdout: &str) -> Result<(u64, u64), String> {
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("worker ")?.split_once(" done: "))
        .map(|(_, rest)| rest)
        .ok_or("no `worker N done:` line")?;
    let words: Vec<&str> = line.split_whitespace().collect();
    let parsed = (words.len() >= 4 && words[1] == "steps," && words[3] == "diffs,")
        .then(|| Some((words[0].parse().ok()?, words[2].parse().ok()?)));
    parsed.flatten().ok_or_else(|| format!("unrecognised worker summary: {line}"))
}

fn field_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing integer `{key}`"))
}

fn field_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key).and_then(Json::as_f64).ok_or_else(|| format!("missing number `{key}`"))
}

/// One line of a checkpoint's `stats.jsonl`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpochRow {
    /// Seed-steps absorbed in the epoch (or dist/service round).
    pub seeds_run: u64,
    /// Difference-inducing inputs found.
    pub diffs_found: u64,
    /// Gradient-ascent iterates taken.
    pub iterations: u64,
    /// Mean coverage after the epoch, 0–1.
    pub mean_coverage: f64,
    /// The program's own time for the epoch, microseconds.
    pub elapsed_us: u64,
}

/// Parses a `stats.jsonl` document (one epoch per line).
///
/// # Errors
///
/// On an empty document, a line that is not JSON, or a missing field.
pub fn stats_jsonl(text: &str) -> Result<Vec<EpochRow>, String> {
    let rows = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let v = json::parse(l).map_err(|e| format!("stats.jsonl: {e}"))?;
            Ok(EpochRow {
                seeds_run: field_u64(&v, "seeds_run")?,
                diffs_found: field_u64(&v, "diffs_found")?,
                iterations: field_u64(&v, "iterations")?,
                mean_coverage: field_f64(&v, "mean_coverage")?,
                elapsed_us: field_u64(&v, "elapsed_us")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    if rows.is_empty() {
        return Err("stats.jsonl is empty".into());
    }
    Ok(rows)
}

/// `epochs_done` of a checkpoint's `meta.json`.
///
/// # Errors
///
/// When the document does not parse or lacks the field.
pub fn meta_epochs_done(text: &str) -> Result<u64, String> {
    field_u64(&json::parse(text).map_err(|e| format!("meta.json: {e}"))?, "epochs_done")
}

/// `steps_done` of a dist checkpoint's `dist.json`.
///
/// # Errors
///
/// When the document does not parse or lacks the field.
pub fn dist_steps_done(text: &str) -> Result<u64, String> {
    field_u64(&json::parse(text).map_err(|e| format!("dist.json: {e}"))?, "steps_done")
}

/// One campaign of the service's `GET /campaigns` listing.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantStatus {
    /// Tenant id (also its state-dir subdirectory).
    pub id: u64,
    /// Tenant name.
    pub name: String,
    /// `running`, `done`, ...
    pub status: String,
    /// Seed-steps absorbed.
    pub steps_done: u64,
    /// Difference-inducing inputs found.
    pub diffs: u64,
    /// Mean coverage, 0–1.
    pub mean_coverage: f64,
}

/// Parses the `GET /campaigns` body (a JSON array of campaigns).
///
/// # Errors
///
/// When the body is not an array of objects with the expected fields.
pub fn status_list(body: &str) -> Result<Vec<TenantStatus>, String> {
    let doc = json::parse(body).map_err(|e| format!("status: {e}"))?;
    doc.as_arr()
        .ok_or("status: expected a JSON array")?
        .iter()
        .map(|v| {
            let text = |key: &str| {
                v.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("missing string `{key}`"))
            };
            Ok(TenantStatus {
                id: field_u64(v, "id")?,
                name: text("name")?,
                status: text("status")?,
                steps_done: field_u64(v, "steps_done")?,
                diffs: field_u64(v, "diffs")?,
                mean_coverage: field_f64(v, "mean_coverage")?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    macro_rules! fixture {
        ($name:literal) => {
            include_str!(concat!("../fixtures/", $name))
        };
    }

    #[test]
    fn campaign_report_fixture() {
        let out = fixture!("campaign_stdout.txt");
        assert_eq!(totals(out), Ok(Totals { seeds: 96, diffs: 48 }));
        assert_eq!(coverage_per_model(out), Ok(vec![83.3, 79.9, 74.4]));
        // A resumed leg reports cumulative totals.
        assert_eq!(totals(fixture!("resume_stdout.txt")).unwrap().seeds, 104);
        // Composite metrics add a column but keep both lines.
        let pdf = fixture!("campaign_pdf_stdout.txt");
        assert_eq!(totals(pdf).unwrap().seeds, 128);
        assert_eq!(coverage_per_model(pdf).unwrap().len(), 3);
    }

    #[test]
    fn dist_report_fixture() {
        let out = fixture!("coordinator_stdout.txt");
        assert_eq!(coordinator_addr(out), Ok("127.0.0.1:35883".to_string()));
        assert_eq!(totals(out), Ok(Totals { seeds: 96, diffs: 46 }));
        assert_eq!(coverage_per_model(out), Ok(vec![83.3, 81.0, 74.8]));
        assert_eq!(worker_done(fixture!("worker_stdout.txt")), Ok((96, 46)));
        assert_eq!(dist_steps_done(fixture!("dist_dist.json")), Ok(96));
        assert_eq!(meta_epochs_done(fixture!("dist_meta.json")), Ok(3));
        let rows = stats_jsonl(fixture!("dist_stats.jsonl")).unwrap();
        assert_eq!(rows.iter().map(|r| r.seeds_run).sum::<u64>(), 96);
    }

    #[test]
    fn checkpoint_file_fixtures() {
        assert_eq!(meta_epochs_done(fixture!("campaign_meta.json")), Ok(3));
        let rows = stats_jsonl(fixture!("campaign_stats.jsonl")).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.iter().map(|r| r.seeds_run).sum::<u64>(), 96);
        assert_eq!(rows.iter().map(|r| r.diffs_found).sum::<u64>(), 48);
        assert!(rows.iter().all(|r| r.iterations > 0 && r.elapsed_us > 0));
        assert!((rows[2].mean_coverage - 0.7921).abs() < 1e-3);
        assert_eq!(stats_jsonl(fixture!("campaign_pdf_stats.jsonl")).unwrap().len(), 2);
    }

    #[test]
    fn service_fixtures() {
        let (fleet, api) = serve_addrs(fixture!("serve_stdout.txt")).unwrap();
        assert_eq!((fleet.as_str(), api.as_str()), ("127.0.0.1:34791", "127.0.0.1:42171"));
        let running = status_list(fixture!("status_running.json")).unwrap();
        assert_eq!(running[0].name, "alpha");
        assert_eq!((running[0].status.as_str(), running[0].steps_done), ("running", 28));
        let done = status_list(fixture!("status_done.json")).unwrap();
        assert!(done.iter().all(|t| t.status == "done" && t.steps_done == 48));
        assert_eq!(done[1].diffs, 22);
        assert!(done[1].mean_coverage > 0.79);
    }

    #[test]
    fn drifted_output_is_an_error_not_a_zero() {
        assert!(totals("total 96 seeds").is_err());
        assert!(totals("total: 96 seed-steps, 48 diffs in 1.73s").is_err());
        assert!(totals("").is_err());
        assert!(coverage_per_model("coverage: [83.3%]").is_err());
        assert!(coverage_per_model("coverage per model: [83.3, 79.9]").is_err());
        assert!(serve_addrs("service `x`: listening on 1.2.3.4:5").is_err());
        assert!(serve_addrs("").is_err());
        assert!(coordinator_addr("coordinator listening at 1.2.3.4:5").is_err());
        assert!(coordinator_addr("coordinator serving `x` on nowhere").is_err());
        assert!(worker_done("worker 0 finished 96 steps").is_err());
        assert!(stats_jsonl("").is_err());
        assert!(stats_jsonl("{\"epoch\":0,\"seeds\":32}").is_err());
        assert!(meta_epochs_done("{\"version\":2}").is_err());
        assert!(dist_steps_done("not json").is_err());
        assert!(status_list("{\"id\":0}").is_err());
        assert!(status_list("[{\"id\":0,\"name\":\"a\"}]").is_err());
    }
}
