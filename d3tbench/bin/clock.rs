//! The benchmark's one host clock, plus process-level readings taken
//! from `/proc/self` (CPU time, peak resident set) and the run metadata
//! every output records.

/// Monotonic host clock. Every wall-time reading in the benchmark goes
/// through this type, so the two `Instant` mentions below are the only
/// clock reads in the package.
#[derive(Clone, Copy)]
pub struct Clock {
    origin: std::time::Instant, // d3t-lint: allow(D002) -- host time is what the benchmark measures; it never feeds simulation state
}

impl Clock {
    /// A clock whose zero is now.
    pub fn start() -> Self {
        Self { origin: std::time::Instant::now() } // d3t-lint: allow(D002) -- the single clock read every benchmark timing derives from
    }

    /// Nanoseconds since [`Clock::start`].
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Seconds since [`Clock::start`].
    pub fn now_s(&self) -> f64 {
        self.now_ns() as f64 * 1e-9
    }
}

/// Linux reports `/proc/self/stat` CPU times in `USER_HZ` ticks, which is
/// 100 on every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed by the whole process so far,
/// including threads that have already exited (10 ms resolution).
pub fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("stat: {e}"))?;
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space-separated, utime and stime being
    // the 12th and 13th of them.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).ok_or("stat: no command field")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        let f = fields.get(i).ok_or("stat: short line")?;
        f.parse::<f64>().map_err(|e| format!("stat field {i}: {e}"))
    };
    Ok((tick(11)? + tick(12)?) / USER_HZ)
}

/// Restarts the kernel's peak-resident-set counter at the current
/// resident set, so the next [`peak_rss_mb`] covers only what follows.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("clear_refs: {e}"))
}

/// The process's peak resident set (`VmHWM`) since the last
/// [`reset_peak_rss`] (or since start), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("status: {e}"))?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).ok_or("status: no VmHWM")?;
    let kb = line
        .split_whitespace()
        .nth(1)
        .ok_or("status: empty VmHWM")?
        .parse::<f64>()
        .map_err(|e| format!("VmHWM: {e}"))?;
    Ok(kb / 1024.0)
}

/// Cores the host offers this process.
pub fn nproc() -> usize {
    // d3t-lint: allow(D003) -- reads the core count for the run metadata; spawns nothing
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the working directory is checked out at, read from
/// `.git` without running git; `"unknown"` outside a git checkout.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The build profile this binary was compiled with.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}
