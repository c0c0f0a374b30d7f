//! Shared JSON codecs for campaign values — tensors, corpus entries, seed
//! runs, found diffs and epoch statistics.
//!
//! Extracted from the checkpoint writer so the distributed campaign
//! (`dx-dist`) can put the exact same encodings on the wire: a checkpoint
//! line and a wire payload for the same value are byte-identical, and both
//! round-trip floats bit-for-bit (see [`crate::json`]). Decoders read
//! through the JSON module's field reader, which names the field in every
//! error.

use std::io;

use deepxplore::diff::Prediction;
use deepxplore::generator::GeneratedTest;
use deepxplore::SeedRun;
use dx_tensor::Tensor;

use crate::corpus::CorpusEntry;
use crate::engine::FoundDiff;
use crate::json::{build, invalid, FromJson, Json};
use crate::report::EpochStats;

/// A `u64` as a JSON string — JSON numbers go through `f64`, which cannot
/// represent values above 2^53 exactly (seeds and RNG words can). The
/// field reader's `u64` reads it back.
pub fn u64_json(v: u64) -> Json {
    build::str(&v.to_string())
}

/// An RNG state (four xoshiro words) as an array of decimal strings.
pub fn rng_state_json(state: &[u64; 4]) -> Json {
    Json::Arr(state.iter().map(|&w| u64_json(w)).collect())
}

/// Reads an RNG state written by [`rng_state_json`].
pub fn rng_state_from_json(v: &Json) -> io::Result<[u64; 4]> {
    Vec::<u64>::from_json(v)
        .and_then(|words| words.try_into().ok())
        .ok_or_else(|| invalid("an rng state must be a list of 4 unsigned integers"))
}

/// A flat `f32` array that may contain non-finite values — neuron-profile
/// ranges hold ±infinity for unprofiled neurons, which plain JSON numbers
/// cannot carry (the emitter writes them as `null`). Non-finite entries
/// travel as the strings `"inf"`, `"-inf"` and `"nan"`.
pub fn ranges_json(values: &[f32]) -> Json {
    Json::Arr(
        values
            .iter()
            .map(|&v| {
                if v.is_finite() {
                    Json::Num(f64::from(v))
                } else if v == f32::INFINITY {
                    build::str("inf")
                } else if v == f32::NEG_INFINITY {
                    build::str("-inf")
                } else {
                    build::str("nan")
                }
            })
            .collect(),
    )
}

/// Reads an array written by [`ranges_json`].
pub fn ranges_from_json(v: &Json) -> io::Result<Vec<f32>> {
    v.items("ranges", |x| {
        let value = match x.as_str() {
            Some("inf") => Some(f32::INFINITY),
            Some("-inf") => Some(f32::NEG_INFINITY),
            Some("nan") => Some(f32::NAN),
            _ => f32::from_json(x),
        };
        value.ok_or_else(|| {
            invalid("a range element must be a number, \"inf\", \"-inf\" or \"nan\"")
        })
    })
}

/// A tensor's `shape`/`data` fields, to inline into a containing object.
pub fn tensor_fields(t: &Tensor) -> (Json, Json) {
    (build::ints(t.shape()), build::f32s(t.data()))
}

/// A tensor as a standalone `{shape, data}` object.
pub fn tensor_json(t: &Tensor) -> Json {
    let (shape, data) = tensor_fields(t);
    build::obj(vec![("shape", shape), ("data", data)])
}

/// Reads a tensor from an object carrying `shape` and `data` fields
/// (standalone or inlined into a larger record).
pub fn tensor_from_json(v: &Json) -> io::Result<Tensor> {
    let shape: Vec<usize> = v.field("shape")?;
    let data: Vec<f32> = v.field("data")?;
    // Checked: a shape whose product overflows must not wrap to a length
    // that some short `data` matches.
    if shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d)) != Some(data.len()) {
        return Err(invalid(format!(
            "tensor `data` holds {} values, which shape {shape:?} cannot take",
            data.len()
        )));
    }
    Ok(Tensor::from_vec(data, &shape))
}

/// One model prediction.
pub fn prediction_json(p: &Prediction) -> Json {
    match p {
        Prediction::Class(c) => build::obj(vec![("class", build::int(*c))]),
        Prediction::Value(x) => build::obj(vec![("value", build::num(*x))]),
    }
}

/// Reads a prediction written by [`prediction_json`].
pub fn prediction_from_json(p: &Json) -> io::Result<Prediction> {
    match (p.opt_field("class")?, p.opt_field("value")?) {
        (Some(c), _) => Ok(Prediction::Class(c)),
        (None, Some(x)) => Ok(Prediction::Value(x)),
        (None, None) => Err(invalid("a prediction needs a `class` or a `value`")),
    }
}

fn predictions_json(ps: &[Prediction]) -> Json {
    Json::Arr(ps.iter().map(prediction_json).collect())
}

/// One corpus entry, input inline.
pub fn entry_json(e: &CorpusEntry) -> Json {
    let (shape, data) = tensor_fields(&e.input);
    build::obj(vec![
        ("id", build::int(e.id)),
        ("parent", build::opt_int(e.parent)),
        ("depth", build::int(e.depth)),
        ("energy", build::num(e.energy)),
        ("times_fuzzed", build::int(e.times_fuzzed)),
        ("diffs_found", build::int(e.diffs_found)),
        ("new_coverage", build::int(e.new_coverage)),
        ("exhausted", Json::Bool(e.exhausted)),
        ("shape", shape),
        ("data", data),
    ])
}

/// Reads a corpus entry written by [`entry_json`].
pub fn entry_from_json(v: &Json) -> io::Result<CorpusEntry> {
    Ok(CorpusEntry {
        id: v.field("id")?,
        parent: v.opt_field("parent")?,
        depth: v.field("depth")?,
        input: tensor_from_json(v)?,
        energy: v.field("energy")?,
        times_fuzzed: v.field("times_fuzzed")?,
        diffs_found: v.field("diffs_found")?,
        new_coverage: v.field("new_coverage")?,
        exhausted: v.opt_field("exhausted")?.unwrap_or(false),
    })
}

/// One epoch's statistics.
pub fn epoch_json(e: &EpochStats) -> Json {
    build::obj(vec![
        ("epoch", build::int(e.epoch)),
        ("seeds_run", build::int(e.seeds_run)),
        ("diffs_found", build::int(e.diffs_found)),
        ("iterations", build::int(e.iterations)),
        ("newly_covered", build::int(e.newly_covered)),
        ("mean_coverage", build::num(e.mean_coverage)),
        ("component_coverage", build::f32s(&e.component_coverage)),
        ("corpus_len", build::int(e.corpus_len)),
        ("elapsed_us", Json::Num(e.elapsed.as_micros() as f64)),
        ("seeds_per_sec", Json::Num(e.seeds_per_sec())),
        ("diffs_per_sec", Json::Num(e.diffs_per_sec())),
    ])
}

/// Reads epoch statistics written by [`epoch_json`]. Records from before
/// composite metrics carry no `component_coverage`; they load with an
/// empty vector (rendered without the per-component column).
pub fn epoch_from_json(v: &Json) -> io::Result<EpochStats> {
    Ok(EpochStats {
        epoch: v.field("epoch")?,
        seeds_run: v.field("seeds_run")?,
        diffs_found: v.field("diffs_found")?,
        iterations: v.field("iterations")?,
        newly_covered: v.field("newly_covered")?,
        mean_coverage: v.field("mean_coverage")?,
        component_coverage: v.opt_field("component_coverage")?.unwrap_or_default(),
        corpus_len: v.field("corpus_len")?,
        elapsed: std::time::Duration::from_micros(v.field("elapsed_us")?),
    })
}

/// One found difference, input inline.
pub fn diff_json(d: &FoundDiff) -> Json {
    let (shape, data) = tensor_fields(&d.input);
    build::obj(vec![
        ("seed_id", build::int(d.seed_id)),
        ("epoch", build::int(d.epoch)),
        ("iterations", build::int(d.iterations)),
        ("target_model", build::int(d.target_model)),
        ("predictions", predictions_json(&d.predictions)),
        ("shape", shape),
        ("data", data),
    ])
}

/// Reads a found difference written by [`diff_json`].
pub fn diff_from_json(v: &Json) -> io::Result<FoundDiff> {
    Ok(FoundDiff {
        seed_id: v.field("seed_id")?,
        epoch: v.field("epoch")?,
        input: tensor_from_json(v)?,
        predictions: v.list_with("predictions", prediction_from_json)?,
        iterations: v.field("iterations")?,
        target_model: v.field("target_model")?,
    })
}

/// One generated difference-inducing test, input inline.
pub fn generated_test_json(t: &GeneratedTest) -> Json {
    let (shape, data) = tensor_fields(&t.input);
    build::obj(vec![
        ("seed_index", build::int(t.seed_index)),
        ("iterations", build::int(t.iterations)),
        ("target_model", build::int(t.target_model)),
        ("predictions", predictions_json(&t.predictions)),
        ("shape", shape),
        ("data", data),
    ])
}

/// Reads a generated test written by [`generated_test_json`].
pub fn generated_test_from_json(v: &Json) -> io::Result<GeneratedTest> {
    Ok(GeneratedTest {
        seed_index: v.field("seed_index")?,
        input: tensor_from_json(v)?,
        iterations: v.field("iterations")?,
        predictions: v.list_with("predictions", prediction_from_json)?,
        target_model: v.field("target_model")?,
    })
}

/// One per-seed campaign step result — what a distributed worker reports
/// back for each leased seed.
pub fn seed_run_json(r: &SeedRun) -> Json {
    build::obj(vec![
        ("test", r.test.as_ref().map_or(Json::Null, generated_test_json)),
        ("preexisting", Json::Bool(r.preexisting)),
        ("iterations", build::int(r.iterations)),
        ("newly_covered", build::int(r.newly_covered)),
        ("newly_by_component", build::ints(&r.newly_by_component)),
        ("candidate", r.corpus_candidate.as_ref().map_or(Json::Null, tensor_json)),
    ])
}

/// Reads a seed run written by [`seed_run_json`]. A missing
/// `newly_by_component` (pre-composite peers) loads as empty; energy
/// accounting then falls back to the pooled `newly_covered` count.
pub fn seed_run_from_json(v: &Json) -> io::Result<SeedRun> {
    Ok(SeedRun {
        test: v.opt_field_with("test", generated_test_from_json)?,
        preexisting: v.field("preexisting")?,
        iterations: v.field("iterations")?,
        newly_covered: v.field("newly_covered")?,
        newly_by_component: v.opt_field("newly_by_component")?.unwrap_or_default(),
        corpus_candidate: v.opt_field_with("candidate", tensor_from_json)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_doc;
    use dx_tensor::rng;

    fn sample_test() -> GeneratedTest {
        GeneratedTest {
            seed_index: 3,
            input: rng::uniform(&mut rng::rng(1), &[1, 5], 0.0, 1.0),
            iterations: 9,
            predictions: vec![Prediction::Class(1), Prediction::Class(4)],
            target_model: 1,
        }
    }

    #[test]
    fn seed_run_round_trips() {
        let run = SeedRun {
            test: Some(sample_test()),
            preexisting: false,
            iterations: 9,
            newly_covered: 5,
            newly_by_component: vec![3, 2],
            corpus_candidate: Some(rng::uniform(&mut rng::rng(2), &[1, 5], 0.0, 1.0)),
        };
        let back =
            seed_run_from_json(&parse_doc(&seed_run_json(&run).to_string()).unwrap()).unwrap();
        assert_eq!(back.iterations, 9);
        assert_eq!(back.newly_covered, 5);
        assert_eq!(back.newly_by_component, vec![3, 2]);
        assert!(!back.preexisting);
        let (t, bt) = (run.test.unwrap(), back.test.unwrap());
        assert_eq!(t.input, bt.input);
        assert_eq!(t.predictions, bt.predictions);
        assert_eq!(run.corpus_candidate, back.corpus_candidate);
    }

    #[test]
    fn empty_seed_run_round_trips() {
        let run = SeedRun {
            test: None,
            preexisting: true,
            iterations: 0,
            newly_covered: 0,
            newly_by_component: Vec::new(),
            corpus_candidate: None,
        };
        let back =
            seed_run_from_json(&parse_doc(&seed_run_json(&run).to_string()).unwrap()).unwrap();
        assert!(back.test.is_none());
        assert!(back.preexisting);
        assert!(back.corpus_candidate.is_none());
        assert!(back.newly_by_component.is_empty());
    }

    #[test]
    fn seed_run_without_component_field_loads_with_empty_split() {
        // Pre-composite documents have no `newly_by_component`.
        let doc = parse_doc(
            r#"{"test":null,"preexisting":false,"iterations":2,"newly_covered":4,"candidate":null}"#,
        )
        .unwrap();
        let run = seed_run_from_json(&doc).unwrap();
        assert_eq!(run.newly_covered, 4);
        assert!(run.newly_by_component.is_empty());
    }

    #[test]
    fn u64_codec_is_exact_above_2_53() {
        for v in [0u64, 1 << 53, u64::MAX, 0xfeed_beef_dead_cafe] {
            assert_eq!(u64::from_json(&u64_json(v)), Some(v));
        }
        // Plain numbers are accepted too.
        assert_eq!(u64::from_json(&Json::Num(42.0)), Some(42));
    }

    #[test]
    fn rng_state_round_trips() {
        let state = [u64::MAX, 0, 1 << 60, 0x1234_5678_9abc_def0];
        let back = rng_state_from_json(&rng_state_json(&state)).unwrap();
        assert_eq!(back, state);
        assert!(rng_state_from_json(&Json::Arr(vec![u64_json(1)])).is_err());
    }

    #[test]
    fn ranges_round_trip_including_non_finite() {
        let values = [0.25f32, -1.5, f32::INFINITY, f32::NEG_INFINITY, 0.0, 3.25e-6];
        let back =
            ranges_from_json(&parse_doc(&ranges_json(&values).to_string()).unwrap()).unwrap();
        assert_eq!(back.len(), values.len());
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // NaN survives as NaN (bit pattern normalized to the canonical one).
        let back = ranges_from_json(&ranges_json(&[f32::NAN])).unwrap();
        assert!(back[0].is_nan());
        assert!(ranges_from_json(&parse_doc("[\"huge\"]").unwrap()).is_err());
    }

    #[test]
    fn line_decoders_survive_mutation() {
        let input = rng::uniform(&mut rng::rng(4), &[1, 3], 0.0, 1.0);
        let entry = CorpusEntry {
            id: 5,
            parent: Some(2),
            depth: 1,
            input: input.clone(),
            energy: 0.75,
            times_fuzzed: 3,
            diffs_found: 1,
            new_coverage: 4,
            exhausted: true,
        };
        let epoch = EpochStats {
            epoch: 2,
            seeds_run: 8,
            diffs_found: 1,
            iterations: 40,
            newly_covered: 6,
            mean_coverage: 0.375,
            component_coverage: vec![0.25, 0.5],
            corpus_len: 9,
            elapsed: std::time::Duration::from_micros(1_500),
        };
        let diff = FoundDiff {
            seed_id: 5,
            epoch: 2,
            input,
            predictions: vec![Prediction::Class(1), Prediction::Value(-0.5)],
            iterations: 7,
            target_model: 2,
        };
        let run = SeedRun {
            test: Some(sample_test()),
            preexisting: false,
            iterations: 9,
            newly_covered: 5,
            newly_by_component: vec![3, 2],
            corpus_candidate: Some(rng::uniform(&mut rng::rng(5), &[1, 3], 0.0, 1.0)),
        };
        let round_trip = |text: &str, read: fn(&Json) -> io::Result<Json>| {
            read(&parse_doc(text)?).map(|v| v.to_string())
        };
        dx_integration::fuzz::check_decoder(&[entry_json(&entry).to_string()], 2048, |t| {
            round_trip(t, |v| entry_from_json(v).map(|e| entry_json(&e)))
        });
        dx_integration::fuzz::check_decoder(&[epoch_json(&epoch).to_string()], 2048, |t| {
            round_trip(t, |v| epoch_from_json(v).map(|e| epoch_json(&e)))
        });
        dx_integration::fuzz::check_decoder(&[diff_json(&diff).to_string()], 2048, |t| {
            round_trip(t, |v| diff_from_json(v).map(|d| diff_json(&d)))
        });
        dx_integration::fuzz::check_decoder(&[seed_run_json(&run).to_string()], 2048, |t| {
            round_trip(t, |v| seed_run_from_json(v).map(|r| seed_run_json(&r)))
        });
    }

    #[test]
    fn tensor_object_round_trips() {
        let t = rng::uniform(&mut rng::rng(3), &[2, 3], -1.0, 1.0);
        let back = tensor_from_json(&parse_doc(&tensor_json(&t).to_string()).unwrap()).unwrap();
        assert_eq!(t, back);
        // A shape whose product overflows is malformed, not a tensor of
        // shape [2^63, 2] holding nothing (release) or a panic (debug).
        let doc = parse_doc(r#"{"shape":[9223372036854775808,2],"data":[]}"#).unwrap();
        assert_eq!(tensor_from_json(&doc).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }
}
