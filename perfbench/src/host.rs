//! Facts about the host and this process: CPU time, peak memory, and the
//! provenance block every benchmark output starts with.

use crate::Opts;
use plc_core::error::{Error, Result};
use std::path::Path;

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux: the CPU time of every thread of
/// the process, threads that have exited included.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
}

/// User plus system CPU seconds of this process so far, all threads,
/// threads that have exited included, to the nanosecond.
pub fn cpu_secs() -> Result<f64> {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a writable `struct timespec`, which is all
    // `clock_gettime` writes to.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) } != 0 {
        return Err(Error::runtime(format!(
            "clock_gettime: {}",
            std::io::Error::last_os_error()
        )));
    }
    Ok(now.tv_sec as f64 + now.tv_nsec as f64 * 1e-9)
}

/// Peak resident set size of this process in MB (10⁶ bytes).
pub fn peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|value| value.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse::<f64>().ok())
        .map(|kib| kib * 1024.0 / 1e6)
        .ok_or_else(|| Error::runtime("no VmHWM in /proc/self/status"))
}

/// The provenance block as one JSON object: the run's inputs, the host,
/// the toolchain, the code, and the filesystem the run writes its job
/// and boost directories to.
pub fn provenance(opts: &Opts, workers: usize, dir: &Path) -> String {
    let nproc = std::thread::available_parallelism()
        .map_or_else(|_| "unknown".to_string(), |n| n.to_string());
    let fields = [
        ("workload", opts.workload.name().to_string()),
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("trace", opts.trace.to_string()),
        ("smoke", opts.smoke.to_string()),
        ("cpu_model", cpu_model()),
        ("nproc", nproc),
        ("workers", workers.to_string()),
        ("rustc", rustc_version()),
        ("git_rev", git_rev()),
        ("work_dir_fs", fs_type(dir)),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("\"{key}\": {}", json_string(value)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .filter(|line| line.starts_with("model name"))
                .find_map(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` in the working directory.
fn git_rev() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (no .git in the working directory)".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| match line.split_once(' ') {
                Some((rev, name)) if name == reference => Some(rev.to_string()),
                _ => None,
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference} not found)"))
}

/// Filesystem type of the mount holding `dir`, from `/proc/self/mounts`.
fn fs_type(dir: &Path) -> String {
    let (Ok(dir), Ok(mounts)) = (
        std::fs::canonicalize(dir),
        std::fs::read_to_string("/proc/self/mounts"),
    ) else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace().skip(1);
            Some((fields.next()?, fields.next()?))
        })
        .filter(|(mount_point, _)| dir.starts_with(mount_point))
        .max_by_key(|(mount_point, _)| mount_point.len())
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs.to_string())
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
