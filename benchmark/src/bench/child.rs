//! Launching CLI processes: wall time, peak RSS, and no orphans.

use std::fs::File;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dx_benchmark::procfs;

/// No single CLI invocation of a workload takes more than a few seconds;
/// one that runs this long is hung and is killed (the repetition fails).
pub const CHILD_LIMIT: Duration = Duration::from_secs(60);

/// How often a supervised wait looks at its child.
const POLL: Duration = Duration::from_millis(1);
/// RSS is sampled every this many polls.
const RSS_EVERY: u32 = 25;

/// A spawned child that is killed and reaped when dropped, so an error
/// or panic anywhere in a run cannot leave a `serve` or `worker` behind.
pub struct Owned(Child);

impl Owned {
    /// Spawns `cmd` with stdout/stderr written to files under `dir`
    /// (`<tag>.stdout.txt`, `<tag>.stderr.txt`) and no stdin.
    ///
    /// # Errors
    ///
    /// When a log file cannot be created or the program cannot start.
    pub fn spawn(cmd: &mut Command, dir: &Path, tag: &str) -> Result<Self, String> {
        let log = |ext: &str| {
            let path = dir.join(format!("{tag}.{ext}.txt"));
            File::create(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))
        };
        cmd.stdin(Stdio::null()).stdout(log("stdout")?).stderr(log("stderr")?);
        cmd.spawn().map(Owned).map_err(|e| format!("cannot start {:?}: {e}", cmd.get_program()))
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.0.id()
    }

    /// Whether the process has exited (reaping it if so).
    pub fn exited(&mut self) -> bool {
        self.outcome().is_some()
    }

    /// `Some(exited successfully)` once the process has exited.
    pub fn outcome(&mut self) -> Option<bool> {
        match self.0.try_wait() {
            Ok(None) => None,
            Ok(Some(status)) => Some(status.success()),
            Err(_) => Some(false),
        }
    }

    /// Asks the process to drain (`SIGTERM`, through the shell's `kill`
    /// builtin — std can only send `SIGKILL`) and waits up to `grace` for
    /// it to exit. Returns whether it exited successfully on its own.
    pub fn terminate(mut self, grace: Duration) -> bool {
        let asked = Command::new("sh")
            .args(["-c", &format!("kill -TERM {}", self.pid())])
            .status()
            .is_ok_and(|s| s.success());
        let deadline = Instant::now() + grace;
        while asked && Instant::now() < deadline {
            if let Ok(Some(status)) = self.0.try_wait() {
                return status.success();
            }
            std::thread::sleep(POLL);
        }
        false // Drop kills and reaps.
    }
}

impl Drop for Owned {
    fn drop(&mut self) {
        // Errors mean it is already gone, which is the goal.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Peak-RSS sampler over a set of process trees: the largest sum of
/// `VmHWM` seen across the root pids and their live descendants.
#[derive(Default)]
pub struct RssPeak {
    kib: u64,
    polls: u32,
}

impl RssPeak {
    /// Call once per poll; samples on every [`RSS_EVERY`]-th call.
    pub fn poll(&mut self, roots: &[u32]) {
        if self.polls.is_multiple_of(RSS_EVERY) {
            let sum: u64 = roots
                .iter()
                .flat_map(|&r| procfs::process_tree(r))
                .filter_map(procfs::vm_hwm_kib)
                .sum();
            self.kib = self.kib.max(sum);
        }
        self.polls += 1;
    }

    /// The peak so far, KiB.
    pub fn kib(&self) -> u64 {
        self.kib
    }
}

/// What one finished invocation cost.
pub struct Finished {
    /// Launch to exit, seconds.
    pub wall_s: f64,
    /// Peak RSS of its process tree, KiB.
    pub rss_kib: u64,
    /// Everything it printed to stdout.
    pub stdout: String,
}

/// Runs `cmd` to completion under supervision, for at most
/// [`CHILD_LIMIT`].
///
/// # Errors
///
/// See [`run_within`].
pub fn run(cmd: &mut Command, dir: &Path, tag: &str) -> Result<Finished, String> {
    run_within(cmd, dir, tag, CHILD_LIMIT)
}

/// Runs `cmd` to completion under supervision.
///
/// # Errors
///
/// A non-zero exit (with the tail of its stderr), a hang past `limit`
/// (the child is killed), or an I/O failure.
pub fn run_within(
    cmd: &mut Command,
    dir: &Path,
    tag: &str,
    limit: Duration,
) -> Result<Finished, String> {
    let started = Instant::now();
    let mut child = Owned::spawn(cmd, dir, tag)?;
    let pid = child.pid();
    let mut rss = RssPeak::default();
    let status = loop {
        match child.0.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => {}
            Err(e) => return Err(format!("{tag}: wait failed: {e}")),
        }
        if started.elapsed() > limit {
            return Err(format!("{tag}: still running after {limit:?}; killed"));
        }
        rss.poll(&[pid]);
        std::thread::sleep(POLL);
    };
    let wall_s = started.elapsed().as_secs_f64();
    let read = |ext: &str| {
        std::fs::read_to_string(dir.join(format!("{tag}.{ext}.txt"))).unwrap_or_default()
    };
    if !status.success() {
        let stderr = read("stderr");
        let tail: Vec<&str> = stderr.lines().rev().take(3).collect();
        return Err(format!("{tag}: exited with {status}: {}", tail.join(" | ")));
    }
    Ok(Finished { wall_s, rss_kib: rss.kib(), stdout: read("stdout") })
}
