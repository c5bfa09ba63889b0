//! Process memory, heap trimming and run provenance (Linux).

use std::time::Instant;

extern "C" {
    /// glibc: returns free heap memory to the operating system.
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands freed heap pages back to the OS, so set-up garbage neither
/// counts towards the workload's resident peak nor gives a repeated
/// set-up pre-faulted memory a fresh process would not have.
pub fn trim_heap() {
    // SAFETY: `malloc_trim` only walks glibc's own allocator state; it
    // takes no pointers from us and is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

fn status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].trim().trim_end_matches("kB").trim().parse().ok()
}

/// Resident high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Resets `VmHWM` to the current resident size.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Times every set-up, keeping only the last result, and returns it with
/// every set-up time. Each set-up starts from a trimmed heap so it pays
/// its own page faults, as the first set-up of a fresh process does. The
/// resident high-water mark is reset first, so it reads set-up's own peak
/// afterwards, without the benchmark's input generation.
pub fn timed_setups<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    trim_heap();
    reset_peak_rss();
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        trim_heap();
        let t0 = Instant::now();
        let built = build();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    (last.expect("at least one set-up"), times)
}

/// The checked-out commit, when the working directory is a git checkout.
fn git_sha() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_flags() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags: Vec<&str> = info
        .lines()
        .find(|l| l.starts_with("flags"))
        .map(|l| l.split_whitespace().collect())
        .unwrap_or_default();
    let wanted = ["sse4_2", "avx", "avx2", "fma", "avx512f", "avx512_vnni", "avx_vnni"];
    wanted.iter().filter(|w| flags.contains(w)).copied().collect::<Vec<_>>().join(",")
}

/// One JSON line describing where and how the run happened. A run with
/// any `PRAGFORMER_*` variable set does not use the default inference
/// plan and is marked non-comparable.
pub fn provenance_json(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    use pragformer_tensor::kernel;
    let mut env: Vec<(String, String)> =
        std::env::vars().filter(|(k, _)| k.starts_with("PRAGFORMER_")).collect();
    env.sort();
    let env_json = env
        .iter()
        .map(|(k, v)| format!("\"{k}\":\"{}\"", pragformer_serve::wire::escape_json(v)))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"provenance\":true,\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{seconds},\
         \"trace\":{trace},\"git_sha\":\"{}\",\"kernel_tier\":\"{}\",\"int8_simd\":\"{}\",\
         \"cpu_flags\":\"{}\",\"nproc\":{},\"env\":{{{env_json}}},\"comparable\":{}}}",
        git_sha(),
        kernel::active_tier().name(),
        kernel::int8_simd().name(),
        cpu_flags(),
        nproc(),
        env.is_empty(),
    )
}

/// `(steal, total)` CPU ticks from the first line of `/proc/stat`: on a
/// virtual machine, steal is time the host gave this machine's CPUs to
/// someone else, the usual cause of a run slower than its neighbours.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

const POLLIN: i16 = 0x1;

extern "C" {
    /// glibc: `poll` with a nanosecond timeout.
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::ffi::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Waits until `stream` has data to read (or has closed or failed) or
/// `timeout` passes, and says whether it is readable. The timeout runs on
/// a high-resolution timer, where a socket read timeout would round up to
/// the kernel's tick (4 ms at 250 Hz) and send open-loop requests late.
pub fn wait_readable(stream: &std::net::TcpStream, timeout: std::time::Duration) -> bool {
    use std::os::fd::AsRawFd;
    let mut fd = PollFd { fd: stream.as_raw_fd(), events: POLLIN, revents: 0 };
    let ts = Timespec { tv_sec: timeout.as_secs() as _, tv_nsec: timeout.subsec_nanos() as _ };
    // SAFETY: `fd` and `ts` are live for the call, `nfds` is 1 to match
    // the single descriptor, and a null signal mask keeps the caller's.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    // An interrupted or failed wait (-1) reads as not readable: the
    // caller's loop then waits again rather than block in a read.
    n > 0
}
