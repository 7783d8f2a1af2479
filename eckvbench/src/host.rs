//! Host facts: memory use, CPU model, the run fingerprint, and the
//! allocator state every run starts from.

use std::fs;

/// Reads a `kB` field of `/proc/self/status` and returns it in MiB, or
/// `None` where the file does not exist.
fn status_mib(field: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Current resident set size in MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:").expect("/proc/self/status has VmRSS")
}

/// Peak resident set size of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:").expect("/proc/self/status has VmHWM")
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// One line identifying what produced the figures.
pub fn fingerprint(seed: u64, confirm_seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "fingerprint: seed={seed} confirm_seed={confirm_seed} cpu=\"{}\" nproc={nproc} gf_backend={} profile={profile}",
        cpu_model(),
        eckv_gf::kernels::active_backend().name(),
    )
}

/// Raises glibc's `mmap` threshold before anything is measured.
///
/// glibc serves a large allocation with `mmap`, fresh memory that faults
/// in on every use, until it frees an `mmap`ed block; then it raises the
/// threshold to that block's size and serves such allocations from the
/// heap. Which sizes are freed first follows the order of the inputs, so
/// without this the host time of `inline-degraded` depended on the seed
/// by 20%. A long-running process ends with a raised threshold; the
/// benchmark starts with one. Other allocators are unaffected.
pub fn warm_allocator() {
    // Below glibc's 32 MiB cap on the raised threshold.
    drop(std::hint::black_box(vec![0u8; 16 << 20]));
}
