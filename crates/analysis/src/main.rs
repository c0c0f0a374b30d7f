//! Command-line driver for `dx-analysis`.
//!
//! ```text
//! cargo run -p dx-analysis -- [--fix-hints] [--expect FILE] [paths…]
//! ```
//!
//! With no paths, scans the enclosing cargo workspace (found by walking
//! up from the current directory to the first `Cargo.toml` containing
//! `[workspace]`). Exits non-zero when any finding is reported — a file
//! the syntax layer cannot parse is one (`[parse]`). With `--expect
//! FILE`, instead compares the findings against the expected lines in
//! FILE (the fixture-regression mode CI uses) and fails on any
//! difference.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dx_analysis::{checks, report, scan, Finding};

fn main() -> ExitCode {
    let mut fix_hints = false;
    let mut expect: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fix-hints" => fix_hints = true,
            "--expect" => match args.next() {
                Some(f) => expect = Some(PathBuf::from(f)),
                None => {
                    eprintln!("error: --expect requires a file argument");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => {
                eprintln!("error: unknown flag `{arg}` (try --help)");
                return ExitCode::FAILURE;
            }
            _ => paths.push(PathBuf::from(arg)),
        }
    }

    let findings = match scan(&paths) {
        Ok(findings) => findings,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(expect) = expect {
        return check_expectations(&findings, &expect);
    }
    match report(&findings, fix_hints) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dx-analysis: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Fixture-regression mode: the findings must match `expect` exactly.
fn check_expectations(findings: &[Finding], expect: &Path) -> ExitCode {
    let want = match std::fs::read_to_string(expect) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("error: cannot read {}: {err}", expect.display());
            return ExitCode::FAILURE;
        }
    };
    let want: Vec<&str> = want.lines().filter(|l| !l.trim().is_empty()).collect();
    let got: Vec<String> = findings.iter().map(ToString::to_string).collect();
    let mut ok = true;
    for line in &want {
        if !got.iter().any(|g| g == line) {
            eprintln!("missing expected finding: {line}");
            ok = false;
        }
    }
    for line in &got {
        if !want.contains(&line.as_str()) {
            eprintln!("unexpected finding: {line}");
            ok = false;
        }
    }
    if ok {
        eprintln!("dx-analysis: {} findings match {}", got.len(), expect.display());
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_help() {
    println!(
        "dx-analysis — in-tree whitebox static analysis\n\n\
         usage: cargo run -p dx-analysis -- [--fix-hints] [--expect FILE] [paths...]\n\n\
         With no paths, scans the enclosing cargo workspace and exits\n\
         non-zero on any finding; a file that does not parse is a\n\
         `[parse]` finding. --fix-hints prints a remediation hint under\n\
         each finding. --expect FILE compares findings against the\n\
         expected lines in FILE (fixture-regression mode).\n\nchecks:"
    );
    for check in checks::all() {
        println!("  {:<15} {}", check.id(), check.describe());
    }
}
