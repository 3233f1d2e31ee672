//! Shared measurement plumbing: quartiles, set-up timing, digests, host
//! provenance and peak memory.

use std::process::Command;
use std::time::{Duration, Instant};

/// First quartile, median and third quartile, computed exactly like
/// Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method) and `statistics.median`.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => (0.0, 0.0, 0.0),
        1 => (data[0], data[0], data[0]),
        _ => {
            let m = ld as i64 + 1;
            let q = |i: i64| {
                let j = (i * m / 4).clamp(1, ld as i64 - 1);
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            let median = if ld % 2 == 1 {
                data[ld / 2]
            } else {
                (data[ld / 2 - 1] + data[ld / 2]) / 2.0
            };
            (q(1), median, q(3))
        }
    }
}

/// The median of `values` (0 for an empty slice).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The median host time of `reps` runs of `f`. Set-up steps take
/// milliseconds or less, so one batch times them several times.
///
/// # Errors
///
/// Returns the first error `f` returns.
pub fn median_time(
    reps: usize,
    mut f: impl FnMut() -> Result<(), String>,
) -> Result<Duration, String> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f()?;
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok(Duration::from_secs_f64(median(&times)))
}

/// FNV-1a over a sequence of byte strings: the run digest. Stable across
/// builds and hosts, unlike `std`'s randomly keyed hasher.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `text` into the digest.
    pub fn write(&mut self, text: &str) {
        for &byte in text.as_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

/// A fixed host-speed probe, independent of the repository's code: random
/// read-modify-writes over a 2 MiB buffer, the cache-missing access mix of
/// the simulator's memory model.
///
/// The VM this benchmark was defined on changes speed with its host's
/// other tenants, by 40 % within an hour. A run times this loop before each
/// batch and scales its host times by `REFERENCE / median loop time`, which
/// reports them at one reference host speed. On the same VM, scaling cut
/// the spread of run medians 3–4 times (table3 62 % to 15 %, harsh 40 % to
/// 13 %) while the host drifted.
#[derive(Debug)]
pub struct Calibration {
    buf: Vec<u64>,
}

impl Calibration {
    /// The loop's time on the 2-vCPU Intel Xeon VM when the benchmark was
    /// defined: the speed all normalised host times are reported at.
    pub const REFERENCE: Duration = Duration::from_millis(13);

    /// Allocates and touches the buffer, so no page fault lands in a timing.
    #[must_use]
    pub fn new() -> Self {
        Calibration {
            buf: (0..1u64 << 18).collect(),
        }
    }

    /// Times one pass of the loop.
    pub fn time(&mut self) -> Duration {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mask = self.buf.len() - 1;
        let t0 = Instant::now();
        for _ in 0..4_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.buf[(x as usize) & mask];
            *slot = slot.wrapping_add(x).rotate_left(7) ^ (x >> 3);
        }
        std::hint::black_box(&self.buf);
        t0.elapsed()
    }
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration::new()
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), if the platform
/// exposes it.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Where and how a result was measured. Printed next to every number.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub parallelism: usize,
    /// Worker threads and fleet phase-A shards the timed runs use.
    pub workers: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Git commit of the working directory, or "unknown" outside a checkout.
    pub commit: String,
}

/// Runs `program args` and returns its trimmed stdout, or "unknown".
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

impl Host {
    /// Probes the host; `workers` is what the timed runs use.
    #[must_use]
    pub fn probe(workers: usize) -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            parallelism: available_parallelism(),
            workers,
            cpu,
            rustc: command_line("rustc", &["-V"]),
            commit: command_line("git", &["rev-parse", "HEAD"]),
        }
    }

    /// One line of provenance.
    #[must_use]
    pub fn line(&self) -> String {
        format!(
            "host: available_parallelism={} worker_threads={} fleet_shards={} cpu=\"{}\" rustc=\"{}\" commit={}",
            self.parallelism, self.workers, self.workers, self.cpu, self.rustc, self.commit
        )
    }
}

/// `std::thread::available_parallelism`, 1 if unknown.
#[must_use]
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([4, 2], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[4.0, 2.0]), (1.5, 3.0, 4.5));
    }
}
