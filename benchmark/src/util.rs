//! Small helpers: seeded RNG, order statistics, process accounting.

use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's own seeded stream (family planting, pool
/// sampling, arrival schedule), independent of the program's RNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Derive an independent sub-seed for a named purpose.
pub fn subseed(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// Nearest-rank percentile of `values` (sorted in place); `p` in 0..=100.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    values.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Process CPU seconds (user + system, all threads) from
/// `/proc/self/stat`; the tick is the Linux ABI's `USER_HZ` = 100.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 12 and 13 after the ')'.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let f: Vec<&str> = rest.split_ascii_whitespace().collect();
    let ticks: u64 = f[11].parse::<u64>().expect("utime") + f[12].parse::<u64>().expect("stime");
    ticks as f64 / 100.0
}

fn status_mb(field: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("field of /proc/self/status");
    kb / 1024.0
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Samples the resident set every 20 ms from `start` until `stop`.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<Vec<f64>>,
}

impl RssSampler {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut samples = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                samples.push(status_mb("VmRSS:"));
                std::thread::sleep(Duration::from_millis(20));
            }
            samples
        });
        RssSampler { stop, thread }
    }

    /// Median resident set over the sampled interval, MiB. The peak is a
    /// maximum and swings with allocator timing; the median holds still.
    pub fn stop(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        median(&mut self.thread.join().expect("sampler thread"))
    }
}

/// Hand the heap the generator's database freed back to the kernel and
/// reset the peak-RSS mark, so `peak_rss_mb` and `rss_mb` cover the
/// measured window and not the generator. Where the kernel refuses the
/// write the peak simply includes the generator.
pub fn reset_peak_rss() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers and only returns
    // free heap pages to the kernel; it is safe to call at any time.
    unsafe { malloc_trim(0) };
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Seconds from `t0` to now.
pub fn since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}
