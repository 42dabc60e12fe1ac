//! The benchmark's view of the host: one monotonic clock, per-thread CPU
//! time from `/proc`, and the fingerprint every result carries.

use std::fs;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process.
#[inline]
pub fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Sleeps until `target_ns` on the [`now_ns`] timeline.
pub fn sleep_until(target_ns: u64) {
    let now = now_ns();
    if target_ns > now {
        std::thread::sleep(Duration::from_nanos(target_ns - now));
    }
}

/// One thread of this process, as the scheduler accounts it.
#[derive(Debug, Clone)]
pub struct Task {
    /// Thread name (`comm`, at most 15 bytes).
    pub name: String,
    /// Time on a CPU, nanoseconds.
    pub cpu_ns: u64,
    /// Times the thread was switched onto a CPU.
    pub switches: u64,
}

/// Reads every live thread of this process from `/proc/self/task`.
///
/// CPU time comes from `schedstat` (nanoseconds); `stat`'s utime/stime tick
/// at 10 ms, which is 2 % of the CPU a wire slice burns.
pub fn tasks() -> Vec<Task> {
    let mut out = Vec::new();
    let dir = fs::read_dir("/proc/self/task").expect("/proc/self/task is readable");
    for entry in dir.flatten() {
        let path = entry.path();
        // A thread may exit between the directory read and these reads.
        let (Ok(name), Ok(sched)) = (
            fs::read_to_string(path.join("comm")),
            fs::read_to_string(path.join("schedstat")),
        ) else {
            continue;
        };
        let mut fields = sched
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        let cpu_ns = fields.next().unwrap_or(0);
        let switches = fields.nth(1).unwrap_or(0);
        out.push(Task {
            name: name.trim_end().to_string(),
            cpu_ns,
            switches,
        });
    }
    assert!(
        !out.is_empty(),
        "no /proc/self/task/*/schedstat: this kernel lacks scheduler accounting"
    );
    out
}

/// CPU and switch totals of the threads whose name starts with any of
/// `prefixes`.
pub fn group(tasks: &[Task], prefixes: &[&str]) -> (u64, u64) {
    tasks
        .iter()
        .filter(|t| prefixes.iter().any(|p| t.name.starts_with(p)))
        .fold((0, 0), |(c, s), t| (c + t.cpu_ns, s + t.switches))
}

/// Threads the benchmark itself runs that are not part of the system
/// under test: the wire generator pair and the sampling main thread.
pub const HARNESS_THREADS: &[&str] = &["bench-send", "bench-recv", "prep-benchmark"];

/// CPU (ns) and switches of the system under test: every thread but the
/// harness's own.
pub fn system_under_test(tasks: &[Task]) -> (u64, u64) {
    let (all_c, all_s) = group(tasks, &[""]);
    let (h_c, h_s) = group(tasks, HARNESS_THREADS);
    (all_c - h_c, all_s - h_s)
}

/// Peak resident set of the process, MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the numbers were measured on. Printed with every result.
pub fn fingerprint() -> String {
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown", |v| v.trim_start_matches([' ', '\t', ':']));
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());

    // Smallest step the clock shows, and what a 50 us sleep (the quantum of
    // `prep_sync::Waiter`) really takes here.
    let mut step = u64::MAX;
    let mut prev = now_ns();
    for _ in 0..20_000 {
        let t = now_ns();
        if t > prev {
            step = step.min(t - prev);
        }
        prev = t;
    }
    let mut sleeps: Vec<u64> = (0..21)
        .map(|_| {
            let t = now_ns();
            std::thread::sleep(Duration::from_micros(50));
            now_ns() - t
        })
        .collect();
    sleeps.sort_unstable();
    format!(
        "nproc={nproc} cpu=\"{model}\" kernel={} clock_step_ns={step} sleep_50us_takes_us={:.1}",
        kernel.trim(),
        sleeps[sleeps.len() / 2] as f64 / 1e3
    )
}
