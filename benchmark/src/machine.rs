//! What the numbers depend on besides the code: the machine block, the
//! process's peak memory and where files may go.

use std::path::PathBuf;
use std::process::Command;

/// Available parallelism (at least 1).
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Worker threads handed to the program in the measured ops. One, although
/// the reference machine has two CPUs: they are virtual, and for minutes at a
/// time the host runs both on the hardware threads of one core. Two busy
/// threads then each run at two thirds of their speed, a step of the
/// pipelined trainer takes 45 ms instead of 32 ms for run after run, and the
/// benchmark measures where the host put the guest, not the program.
pub const THREADS: usize = 1;

/// Threads of the traced run's lane replay, which reports how far the lanes
/// of a step overlap: one per CPU, at most 2.
pub fn lane_threads() -> usize {
    cpus().min(2)
}

pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split(' ').take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_string())
}

/// `VmHWM` of this process in MB: the most memory it ever had resident.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The cargo target directory this binary was built into: the parent of the
/// profile directory the executable sits in. Everything the benchmark writes
/// goes below `<target>/sibench`. A copy of the executable somewhere else is
/// refused, so that a run never writes outside the tree it was built in.
pub fn output_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // `<target>/<profile>/sibench`, or `<target>/<profile>/deps/sibench-<hash>` under `cargo test`.
    let mut dir = exe.parent().ok_or("the executable has no directory")?;
    if dir.ends_with("deps") {
        dir = dir.parent().ok_or("deps has no parent")?;
    }
    let target = dir.parent().ok_or("the profile directory has no parent")?;
    if !target.join("CACHEDIR.TAG").is_file() {
        return Err(format!(
            "{} is not in a cargo target directory; run sibench where cargo built it",
            exe.display()
        ));
    }
    Ok(target.join("sibench"))
}

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The part of the machine block a single run can print without spawning.
pub fn run_line() -> String {
    format!(
        "machine: nproc={} threads={THREADS} kernel_path={} load_average=[{}]",
        cpus(),
        tensorlib::KernelPath::active().as_str(),
        loadavg()
    )
}

/// The machine block of a suite run. Spawns `rustc` and `git`, so single
/// runs print [`run_line`] instead.
pub fn block(seed: u64, seconds: f64) -> String {
    let ops: Vec<String> = crate::workloads::Kind::ALL
        .iter()
        .map(|k| format!("{} {}+{}", k.name(), k.warmup_ops(), k.ops_per_round(seconds)))
        .collect();
    format!(
        "{}\nbuild:   {} profile={} commit={}\n\
         inputs:  seed={seed}\n\
         run:     {} rounds, each a set-up and a fixed op count (warm-up+measured: {}), \
         the sentinel read around every op",
        run_line(),
        first_line("rustc", &["--version"]),
        if cfg!(debug_assertions) {
            "dev(opt-level=2)"
        } else {
            "release(lto=thin,codegen-units=1)"
        },
        first_line("git", &["rev-parse", "--short", "HEAD"]),
        crate::run::ROUNDS,
        ops.join(", "),
    )
}
