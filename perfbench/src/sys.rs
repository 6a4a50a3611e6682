//! Process and host facts: CPU time, peak memory, revision identity.

use std::path::Path;

#[cfg(target_os = "linux")]
mod clock {
    use std::ffi::{c_int, c_long};

    /// `struct timespec` on Linux: `time_t` is a `long`.
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    /// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`.
    pub const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

    extern "C" {
        pub fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
    }
}

/// Process CPU time (user + system, every thread including exited ones)
/// in seconds, at nanosecond resolution; `0.0` off Linux or on error.
/// `/proc/self/stat` would give the same in 10 ms ticks, too coarse for
/// per-operation figures.
pub fn cpu_seconds() -> f64 {
    #[cfg(target_os = "linux")]
    {
        let mut ts = clock::Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `struct timespec` for the whole
        // call, and clock_gettime writes nothing but that struct.
        let rc = unsafe { clock::clock_gettime(clock::CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        if rc == 0 {
            return ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9;
        }
    }
    0.0
}

/// Peak resident set size of this process in MiB (`VmHWM`), `0.0` where
/// procfs is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Milliseconds [`calibration_ms`] takes on the reference host (the
/// 2-core box this benchmark was tuned on, measured while quiet).
pub const REFERENCE_CALIBRATION_MS: f64 = 10.0;

/// A fixed compute kernel: L1-resident vectorisable float updates plus
/// an integer hash chain, the mix the simulation engines execute.
fn calibration_kernel() -> f64 {
    let mut a = [1.0f64; 256];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for round in 0..30_000u64 {
        for (k, v) in a.iter_mut().enumerate() {
            *v = *v * 0.999_999 + k as f64 * 1e-9;
        }
        x = x.rotate_left(5) ^ round.wrapping_mul(0x2545_F491_4F6C_DD1D);
        a[(x % 256) as usize] += 1e-6;
    }
    std::hint::black_box(a.iter().sum::<f64>() + x as f64)
}

/// Wall milliseconds for one copy of the calibration kernel on every
/// core at once; the median of five tries.
pub fn calibration_ms() -> f64 {
    let mut tries: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = std::time::Instant::now();
            std::thread::scope(|s| {
                for _ in 1..nproc() {
                    s.spawn(calibration_kernel);
                }
                calibration_kernel();
            });
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    tries.sort_by(f64::total_cmp);
    tries[2]
}

/// How much slower than the reference host this host runs right now
/// (1.0 = reference speed, 1.5 = every computation takes 50% longer).
pub fn slowdown() -> f64 {
    calibration_ms() / REFERENCE_CALIBRATION_MS
}

/// The checked-out commit, read from `.git` under `root` without running
/// git; `unknown` outside a git tree.
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

/// FNV-1a digest over the workspace sources under `root` (`crates/`,
/// `vendor/` and the root manifests) — identifies the code under test
/// when the checkout carries no git metadata.
pub fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    collect_files(&root.join("crates"), &mut files);
    collect_files(&root.join("vendor"), &mut files);
    for f in ["Cargo.toml", "Cargo.lock", ".cargo/config.toml"] {
        files.push(root.join(f));
    }
    files.sort();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f);
        h = fnv1a(h, rel.to_string_lossy().as_bytes());
        h = fnv1a(h, &std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}

/// SplitMix64 — the benchmark's seeded input generator.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed` on stream `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        let t0 = cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(
            cpu_seconds() > t0,
            "CPU time advances at sub-tick resolution"
        );
    }

    #[test]
    fn splitmix_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut g = SplitMix::new(5, 0);
                move |_| g.next_u64()
            })
            .collect();
        let mut g = SplitMix::new(5, 0);
        assert_eq!(a, (0..4).map(|_| g.next_u64()).collect::<Vec<_>>());
        let mut h = SplitMix::new(5, 1);
        assert_ne!(a[0], h.next_u64());
    }
}
