//! Structure-aware decoder fuzzing over the in-tree proptest stand-in.
//!
//! DeepXplore's point is that the inputs which break a system are corner
//! cases nobody writes by hand; this module turns that on the workspace's
//! own decoders. [`check_decoder`] starts from valid encodings, breaks
//! them the way hostile peers and torn files do — truncation, byte flips,
//! splices, type swaps, deleted fields, nesting past the parser's cap —
//! and holds every decoder to one contract: each valid encoding decodes
//! and re-encodes to the same bytes, every mutant decodes to `Ok` or
//! `Err` without panicking, and an accepted mutant re-encodes to a
//! document that round-trips byte-identical. A reader of a format no build
//! writes any more ([`check_reader`]) has no encoder to round-trip
//! through; it is held to the rest.

use std::io;
use std::panic::{self, AssertUnwindSafe};

use dx_telemetry::json::{parse, Json, MAX_DEPTH};
use proptest::strategy::Strategy;
use proptest::test_runner::{ProptestConfig, TestCaseError, TestRng, TestRunner};
use rand::Rng as _;

/// Holds `round_trip` (decode `text`, then encode the value again) to the
/// contract in the module docs over `cases` mutants of `seeds`, which must
/// be the encoder's own output. A failure names the input that caused it.
///
/// # Panics
///
/// When a seed does not round-trip, or a mutant breaks the contract.
pub fn check_decoder(
    seeds: &[String],
    cases: u32,
    mut round_trip: impl FnMut(&str) -> io::Result<String>,
) {
    for seed in seeds {
        assert_eq!(round_trip(seed).unwrap(), *seed, "a valid encoding does not round-trip");
    }
    fuzz(seeds, cases, |text| match round_trip(text) {
        Ok(encoded) => match round_trip(&encoded) {
            Ok(again) if again == encoded => Ok(()),
            other => Err(format!("re-encoding `{encoded}` gave {other:?}")),
        },
        Err(_) => Ok(()),
    });
}

/// Holds `read`, a reader of a format no build writes any more, to the
/// part of the contract that has no encoder behind it: each of `seeds`
/// (files an older build wrote) reads, and every one of `cases` mutants
/// reads to `Ok` or `Err` without panicking.
///
/// # Panics
///
/// When a seed does not read, or `read` panics on a mutant.
pub fn check_reader(seeds: &[String], cases: u32, mut read: impl FnMut(&str) -> io::Result<()>) {
    for seed in seeds {
        read(seed).unwrap();
    }
    fuzz(seeds, cases, |text| {
        let _ = read(text);
        Ok(())
    });
}

/// Runs `check` over `cases` mutants of `seeds`, failing on its `Err` or
/// a panic and naming the input.
fn fuzz(seeds: &[String], cases: u32, mut check: impl FnMut(&str) -> Result<(), String>) {
    let mutants = Mutants { seeds };
    TestRunner::new(ProptestConfig::with_cases(cases)).run(&mut |rng| {
        let text = mutants.sample(rng);
        let fail = |why: String| {
            let shown: String = text.chars().take(300).collect();
            TestCaseError::fail(format!("{why}\ninput ({} bytes): {shown}", text.len()))
        };
        panic::catch_unwind(AssertUnwindSafe(|| check(&text)))
            .map_err(|p| {
                let msg = p.downcast_ref::<String>().map(String::as_str);
                let msg = msg.or_else(|| p.downcast_ref::<&str>().copied()).unwrap_or("?");
                fail(format!("the decoder panicked: {msg}"))
            })?
            .map_err(fail)
    });
}

/// One to three mutations of one seed per sample.
struct Mutants<'a> {
    seeds: &'a [String],
}

impl Strategy for Mutants<'_> {
    type Value = String;

    fn sample(&self, rng: &mut TestRng) -> String {
        let mut text = self.seeds[rng.gen_range(0..self.seeds.len())].clone();
        for _ in 0..rng.gen_range(1..4usize) {
            text = mutate(&text, self.seeds, rng);
        }
        text
    }
}

fn mutate(text: &str, seeds: &[String], rng: &mut TestRng) -> String {
    let structural = parse(text).ok().filter(|_| rng.gen_range(0..2u8) == 0);
    if let Some(mut doc) = structural {
        let n = rng.gen_range(0..count(&doc));
        if let Some(node) = nth(&mut doc, n) {
            match rng.gen_range(0..3u8) {
                0 => *node = hostile(rng),
                1 => nest(node, rng.gen_range(1..2 * MAX_DEPTH), rng),
                _ => match node {
                    Json::Obj(fields) if !fields.is_empty() => {
                        fields.remove(rng.gen_range(0..fields.len()));
                    }
                    other => *other = hostile(rng),
                },
            }
        }
        return doc.to_string();
    }
    let cut = |rng: &mut TestRng, s: &str| {
        let mut at = rng.gen_range(0..=s.len());
        while !s.is_char_boundary(at) {
            at -= 1;
        }
        at
    };
    match rng.gen_range(0..3u8) {
        // Truncation: a torn file or a short frame.
        0 => text[..cut(rng, text)].to_string(),
        // A byte flip, read back the way a frame's bytes are.
        1 if !text.is_empty() => {
            let mut bytes = text.as_bytes().to_vec();
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = rng.gen_range(0..=255u8);
            String::from_utf8_lossy(&bytes).into_owned()
        }
        // A splice: a slice of some seed pasted in at a random point.
        _ => {
            let donor = &seeds[rng.gen_range(0..seeds.len())];
            let (a, b) = (cut(rng, donor), cut(rng, donor));
            let at = cut(rng, text);
            [&text[..at], &donor[a.min(b)..a.max(b)], &text[at..]].concat()
        }
    }
}

/// A value of a type or range the decoders are not expecting.
fn hostile(rng: &mut TestRng) -> Json {
    match rng.gen_range(0..11u8) {
        0 => Json::Null,
        1 => Json::Bool(true),
        2 => Json::Num(-1.0),
        3 => Json::Num(0.5),
        4 => Json::Num(1e300),
        5 => Json::Num(9_223_372_036_854_775_808.0),
        6 => Json::Str("18446744073709551616".into()),
        7 => Json::Str("inf".into()),
        8 => Json::Str(String::new()),
        9 => Json::Arr(Vec::new()),
        _ => Json::Obj(Vec::new()),
    }
}

/// Wraps `node` in `levels` arrays or single-key objects.
fn nest(node: &mut Json, levels: usize, rng: &mut TestRng) {
    let mut v = std::mem::replace(node, Json::Null);
    for _ in 0..levels {
        v = if rng.gen_range(0..2u8) == 0 {
            Json::Arr(vec![v])
        } else {
            Json::Obj(vec![("k".into(), v)])
        };
    }
    *node = v;
}

fn count(v: &Json) -> usize {
    1 + match v {
        Json::Arr(items) => items.iter().map(count).sum(),
        Json::Obj(fields) => fields.iter().map(|(_, v)| count(v)).sum(),
        _ => 0,
    }
}

/// The `n`th node of `v` in pre-order.
fn nth(v: &mut Json, n: usize) -> Option<&mut Json> {
    fn walk<'a>(v: &'a mut Json, n: &mut usize) -> Option<&'a mut Json> {
        if *n == 0 {
            return Some(v);
        }
        *n -= 1;
        match v {
            Json::Arr(items) => items.iter_mut().find_map(|c| walk(c, n)),
            Json::Obj(fields) => fields.iter_mut().find_map(|(_, c)| walk(c, n)),
            _ => None,
        }
    }
    walk(v, &mut { n })
}
