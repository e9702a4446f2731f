//! Child processes: the one-at-a-time CLI steps (timed, with their CPU
//! time and peak resident set) and the serving daemon (with its CPU time
//! and peak resident set), plus the host readings printed as provenance.

use crate::client::{request, Conn};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A finished CLI step.
#[derive(Debug, Clone, Copy)]
pub struct StepRun {
    /// Spawn to reap.
    pub wall: Duration,
    /// The child's peak resident set, in KiB.
    pub max_rss_kib: u64,
    /// Exited with status 0.
    pub ok: bool,
    /// The child's user plus system CPU time.
    pub cpu: Duration,
}

/// The prefix of Linux's `struct rusage` up to `ru_maxrss`, padded to
/// its full size (two `timeval`s, then fourteen `long`s).
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// Linux's `_SC_CLK_TCK`.
const SC_CLK_TCK: i32 = 2;

/// A `struct timeval` as a duration.
fn timeval(tv: [i64; 2]) -> Duration {
    Duration::from_secs(tv[0].max(0) as u64) + Duration::from_micros(tv[1].max(0) as u64)
}

/// Runs `bin args...` to completion with stdout discarded, reaping it
/// with `wait4` so its own peak resident set is read (not the maximum
/// over every child this process ever had, as `RUSAGE_CHILDREN` gives).
pub fn run_step(bin: &Path, args: &[String]) -> std::io::Result<StepRun> {
    let start = Instant::now();
    let child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()?;
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child; `status` and `usage`
        // are live, writable, and `usage` has the size and layout of the
        // 64-bit Linux `struct rusage` that wait4 fills.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall = start.elapsed();
    // Reaped above; dropping the handle neither waits nor kills.
    drop(child);
    Ok(StepRun {
        wall,
        max_rss_kib: usage.maxrss.max(0) as u64,
        ok: status == 0,
        cpu: timeval(usage.utime) + timeval(usage.stime),
    })
}

/// Runs a step that must succeed, untimed (set-up and gates).
pub fn run_ok(bin: &Path, args: &[String]) -> Result<(), String> {
    match run_step(bin, args) {
        Ok(r) if r.ok => Ok(()),
        Ok(_) => Err(format!("{} {} failed", bin.display(), args.join(" "))),
        Err(e) => Err(format!("spawning {}: {e}", bin.display())),
    }
}

/// Builds `args` from string slices.
pub fn args(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

/// The serving daemon; killed and reaped on drop.
pub struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    /// Where it listens.
    pub addr: SocketAddr,
    /// The flags it was started with (provenance).
    pub flags: Vec<String>,
}

impl Daemon {
    /// Spawns `dpcopula-serve` on an ephemeral port and returns once
    /// `/healthz` answers, polling without fixed sleeps.
    pub fn spawn(bin: &Path, flags: Vec<String>) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(&flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on http://")
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "daemon did not report its address ({read:?}: `{line}`)"
            ));
        };
        let daemon = Self {
            child,
            _stdout: stdout,
            addr,
            flags,
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        let probe = request("GET", "/healthz", "text/plain", b"");
        loop {
            let healthy = Conn::open(addr, Duration::from_secs(1))
                .and_then(|mut c| c.exchange(&probe))
                .is_ok_and(|r| r.status == 200);
            if healthy {
                return Ok(daemon);
            }
            if Instant::now() > deadline {
                return Err("daemon never answered /healthz".into());
            }
            std::thread::yield_now();
        }
    }

    /// The daemon's user plus system CPU time so far, all threads
    /// included (fields 14 and 15 of `/proc/<pid>/stat`, whose sum the
    /// kernel keeps equal to the precise runtime).
    pub fn cpu_time(&self) -> Option<Duration> {
        let text = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id())).ok()?;
        // Fields after the parenthesised command name start at field 3.
        let fields: Vec<&str> = text[text.rfind(')')? + 1..].split_whitespace().collect();
        let ticks = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
        // SAFETY: sysconf only reads a system constant.
        let hz = unsafe { sysconf(SC_CLK_TCK) };
        (hz > 0).then(|| Duration::from_secs_f64(ticks as f64 / hz as f64))
    }

    /// The daemon's peak resident set (`VmHWM`), in KiB.
    pub fn peak_rss_kib(&self) -> Option<u64> {
        status_kib(self.child.id(), "VmHWM:")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn status_kib(pid: u32, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Builds the shipped binaries (`cargo build --release`) and returns the
/// directory holding them. Untimed: it is a no-op after the first run.
pub fn build_binaries(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "dpcopula-cli",
            "-p",
            "dpcopula-serve",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err("cargo build of dpcopula-cli and dpcopula-serve failed".into());
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    Ok(target.join("release"))
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`:
/// `(steal, total)`.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
}

/// The host CPU's model name.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checkout's commit, when it is a git repository.
pub fn git_commit(root: &Path) -> String {
    Command::new("git")
        .current_dir(root)
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}
