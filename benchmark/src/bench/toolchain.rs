//! Locating the repo, and building the programs the benchmark drives.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Paths the runs need.
pub struct Tools {
    /// The repo root (the parent of `benchmark/`).
    pub root: PathBuf,
    /// The built `deepxplore` CLI.
    pub cli: PathBuf,
    /// The built `dx-probe`.
    pub probe: PathBuf,
    /// `benchmark/out/`: every file a run writes lands under here.
    pub out: PathBuf,
}

/// The repo root: the directory above this package, which must hold the
/// CLI's sources (it does not in a directory with only `benchmark/`).
fn repo_root() -> Result<PathBuf, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("benchmark/ has no parent directory")?
        .to_path_buf();
    if !root.join("crates/cli/Cargo.toml").is_file() {
        return Err(format!("{} is not the deepxplore-rs repo: no crates/cli", root.display()));
    }
    Ok(root)
}

fn cargo_build(root: &Path, args: &[&str]) -> Result<(), String> {
    // Cargo reports on stderr, so stdout stays ours (the result line).
    let status = Command::new("cargo")
        .arg("build")
        .args(["--release", "--quiet", "--offline"])
        .args(args)
        .current_dir(root)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("`cargo build {}` failed", args.join(" ")));
    }
    Ok(())
}

/// Builds the CLI (root workspace) and `dx-probe` (this package) in
/// release mode — a no-op when both are fresh — and returns their paths.
///
/// # Errors
///
/// When the repo is not around this package, or a build fails.
pub fn prepare() -> Result<Tools, String> {
    let root = repo_root()?;
    cargo_build(&root, &["-p", "deepxplore-cli", "--bin", "deepxplore"])?;
    cargo_build(&root, &["--manifest-path", "benchmark/Cargo.toml", "--bin", "dx-probe"])?;
    // A relative CARGO_TARGET_DIR is relative to where cargo ran: the root.
    let shared = std::env::var_os("CARGO_TARGET_DIR").map(|d| root.join(d));
    let cli = shared.clone().unwrap_or_else(|| root.join("target")).join("release/deepxplore");
    let probe = shared.unwrap_or_else(|| root.join("benchmark/target")).join("release/dx-probe");
    for bin in [&cli, &probe] {
        if !bin.is_file() {
            return Err(format!("built binary not found at {}", bin.display()));
        }
    }
    let out = root.join("benchmark/out");
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    Ok(Tools { root, cli, probe, out })
}

/// `git rev-parse HEAD` of the repo, when it is a git checkout.
pub fn commit(root: &Path) -> Option<String> {
    let out = Command::new("git").args(["rev-parse", "HEAD"]).current_dir(root).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}
