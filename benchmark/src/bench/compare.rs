//! `dx-bench compare A.json B.json`: two result files against the bounds.

use std::path::Path;

use dx_benchmark::json::{self, Json};

/// One end-to-end metric's direction and bound, from `BENCHMARK.json`.
struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn bounds() -> Result<Vec<Bound>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = load(&path)?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no `end_to_end`")?
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k).and_then(Json::as_str).ok_or(format!("BENCHMARK.json: no `{k}`"))
            };
            Ok(Bound {
                name: text("name")?.to_string(),
                higher_is_better: text("better")? == "higher",
                bound: m.get("bound").and_then(Json::as_f64).ok_or("BENCHMARK.json: no `bound`")?,
            })
        })
        .collect()
}

/// `(median, min, max)` of one metric of one workload in a result file.
fn summary(doc: &Json, workload: &str, metric: &str) -> Option<(f64, f64, f64)> {
    let m = doc.get("workloads")?.get(workload)?.get("e2e")?.get(metric)?;
    Some((m.get("median")?.as_f64()?, m.get("min")?.as_f64()?, m.get("max")?.as_f64()?))
}

/// The verdict on one workload × metric pairing.
#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Unresolved,
    Breach,
}

/// By how much `new` is worse than `base`, as a share of `base`
/// (negative when it is better).
fn worse_by(base: f64, new: f64, higher_is_better: bool) -> f64 {
    let change = (new - base) / base.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

fn judge(a: (f64, f64, f64), b: (f64, f64, f64), bound: &Bound) -> (f64, Verdict) {
    let worse = worse_by(a.0, b.0, bound.higher_is_better);
    let wide = |(median, min, max): (f64, f64, f64)| (max - min) / median.abs() > bound.bound;
    let verdict = if worse > bound.bound {
        Verdict::Breach
    } else if wide(a) || wide(b) {
        // Within the bound, but either side's own runs are further apart
        // than the bound: that is not evidence of "unchanged".
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// Compares result file `b` (the change) against `a` (the base), per
/// workload × end-to-end metric. Returns whether no bound was breached.
///
/// # Errors
///
/// When a file or `BENCHMARK.json` cannot be read or lacks a metric.
pub fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let (doc_a, doc_b) = (load(Path::new(a))?, load(Path::new(b))?);
    let bounds = bounds()?;
    let workloads =
        doc_a.get("workloads").and_then(Json::as_obj).ok_or(format!("{a}: no `workloads`"))?;
    let mut clean = true;
    println!("base A = {a}\nchange B = {b}");
    for (workload, entry_a) in workloads {
        println!("workload {workload}");
        println!(
            "  {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
            "metric", "A median", "B median", "B worse", "bound"
        );
        for bound in &bounds {
            let (Some(sa), Some(sb)) =
                (summary(&doc_a, workload, &bound.name), summary(&doc_b, workload, &bound.name))
            else {
                return Err(format!("{workload}.{} is missing from a result file", bound.name));
            };
            let (worse, verdict) = judge(sa, sb, bound);
            clean &= verdict != Verdict::Breach;
            println!(
                "  {:<18} {:>14.4} {:>14.4} {:>8.2}% {:>6.1}%  {:?} (B/A = {:.4}, base {:.4})",
                bound.name,
                sa.0,
                sb.0,
                100.0 * worse,
                100.0 * bound.bound,
                verdict,
                sb.0 / sa.0,
                sa.0
            );
        }
        let entry_b = doc_b.get("workloads").and_then(|w| w.get(workload));
        let failed = |e: Option<&Json>| e.and_then(|e| e.get("failed")).and_then(Json::as_u64);
        let (failed_a, failed_b) = (failed(Some(entry_a)), failed(entry_b));
        let shown = |f: Option<u64>| f.map_or("unknown".to_string(), |n| n.to_string());
        println!("  failed operations: A {}, B {}", shown(failed_a), shown(failed_b));
        clean &= failed_a == Some(0) && failed_b == Some(0);
        // Same commit, seed and `--seconds` (so the same sub-seeds) must
        // mean the same bytes; across commits a difference is
        // information, not a fault.
        let same = |k: &str| {
            let get = |d: &Json| d.get("host").and_then(|h| h.get(k)).cloned();
            get(&doc_a).is_some() && get(&doc_a) == get(&doc_b)
        };
        let outputs = |e: Option<&Json>| {
            e.and_then(|e| e.get("outputs")).and_then(Json::as_arr).map(<[Json]>::to_vec)
        };
        let identical = match (outputs(Some(entry_a)), outputs(entry_b)) {
            // An empty or shorter list is not "the same bytes".
            (Some(x), Some(y)) => !x.is_empty() && x == y,
            _ => false,
        };
        println!(
            "  outputs (steps, diffs, iterates, SHA-256): {}",
            if identical { "identical" } else { "differ" }
        );
        if same("commit") && same("seed") && same("seconds") && !identical {
            println!("  BREACH: one commit, one seed, different outputs");
            clean = false;
        }
    }
    println!("{}", if clean { "no bound breached" } else { "BOUND BREACHED" });
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(higher: bool) -> Bound {
        Bound { name: "m".into(), higher_is_better: higher, bound: 0.08 }
    }

    #[test]
    fn worse_follows_the_direction() {
        assert!((worse_by(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert!((worse_by(2.0, 2.2, false) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn verdicts() {
        let tight = |m: f64| (m, m * 0.99, m * 1.01);
        assert_eq!(judge(tight(100.0), tight(97.0), &bound(true)).1, Verdict::Ok);
        assert_eq!(judge(tight(100.0), tight(90.0), &bound(true)).1, Verdict::Breach);
        assert_eq!(judge(tight(100.0), tight(110.0), &bound(true)).1, Verdict::Ok);
        assert_eq!(judge(tight(100.0), tight(110.0), &bound(false)).1, Verdict::Breach);
        // A side whose own runs span more than the bound proves nothing.
        assert_eq!(judge((100.0, 90.0, 105.0), tight(99.0), &bound(true)).1, Verdict::Unresolved);
    }
}
