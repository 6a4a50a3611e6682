//! What every workload shares: run configuration, the set-up/measure/
//! check skeleton, and the fold of a workload's outcome into metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::report::{self, Catalogue, Context, Report};
use crate::sys;

/// Input sizes: the benchmark proper, or a seconds-long smoke size for
/// the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` documents.
    Full,
    /// Tiny inputs that exercise every code path quickly.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload seed: the only source of input variation.
    pub seed: u64,
    /// Length of the timed phase in seconds (split in halves when traced).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Input sizes.
    pub size: Size,
    /// Scratch directory (caches, server data); recreated by the run.
    pub work: PathBuf,
}

/// How many times each workload is set up; the median is reported.
pub const SETUP_REPS: usize = 5;

/// Output checks and their failures, counted into `failed`.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted (timed operations plus check operations).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// What failed, for the report.
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one operation; a `false` outcome records `what()` as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 32 {
                self.failures.push(what());
            }
        }
    }

    /// Require a deterministic counter to keep the value it first had.
    pub fn same_counter(&mut self, counters: &mut BTreeMap<String, u64>, name: &str, value: u64) {
        match counters.get(name) {
            None => {
                counters.insert(name.to_owned(), value);
            }
            Some(&first) if first == value => {}
            Some(&first) => {
                self.failed += 1;
                self.failures.push(format!(
                    "counter {name} changed between repetitions: {first} then {value}"
                ));
            }
        }
    }
}

/// The timed operations of one phase.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    /// Host milliseconds per operation, as measured.
    pub op_ms: Vec<f64>,
    /// Process CPU milliseconds per operation, as measured; one
    /// phase-wide average when operations overlap and cannot be measured
    /// apart.
    pub op_cpu_ms: Vec<f64>,
    /// Host slowdown samples ([`sys::slowdown`]) taken before each
    /// operation, or around the phase when operations overlap.
    pub slowdown: Vec<f64>,
    /// Whether operation latency is computation, so it scales with host
    /// speed. Latency made of fixed sleeps and poll ticks does not.
    pub compute_bound: bool,
    /// Seconds the throughput is taken over: the summed operation times
    /// of a serial workload, the phase wall time of a concurrent one.
    pub timed_s: f64,
    /// Process CPU seconds spent in the operations.
    pub cpu_s: f64,
    /// Per-layer metrics gathered in the phase (traced phases only).
    pub layers: BTreeMap<String, f64>,
    /// Operations that panicked (counted as failed).
    pub panics: u64,
}

impl Phase {
    /// The phase's host slowdown: the median of its samples.
    pub fn slowdown(&self) -> f64 {
        report::median(&self.slowdown).unwrap_or(1.0)
    }

    /// Operation latencies at reference host speed (as measured when the
    /// latency is not computation).
    pub fn ref_op_ms(&self) -> Vec<f64> {
        let scale = if self.compute_bound {
            self.slowdown()
        } else {
            1.0
        };
        self.op_ms.iter().map(|ms| ms / scale).collect()
    }

    /// Operation CPU times at reference host speed.
    pub fn ref_cpu_ms(&self) -> Vec<f64> {
        let scale = self.slowdown();
        self.op_cpu_ms.iter().map(|ms| ms / scale).collect()
    }

    /// Operations per second at reference host speed.
    pub fn ops_per_s(&self) -> f64 {
        let n = self.op_ms.len() as f64;
        if self.compute_bound {
            n / (self.ref_op_ms().iter().sum::<f64>() * 1e-3).max(1e-9)
        } else {
            n / self.timed_s.max(1e-9)
        }
    }
}

/// One operation's cost: host milliseconds and process CPU seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpCost {
    /// Host milliseconds.
    pub ms: f64,
    /// Process CPU seconds (all threads).
    pub cpu_s: f64,
}

/// Run `f` and measure its cost.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, OpCost) {
    let t0 = Instant::now();
    let cpu0 = sys::cpu_seconds();
    let out = f();
    let cost = OpCost {
        ms: t0.elapsed().as_secs_f64() * 1e3,
        cpu_s: sys::cpu_seconds() - cpu0,
    };
    (out, cost)
}

/// Median set-up time over [`SETUP_REPS`] set-ups.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTime {
    /// At reference host speed.
    pub ref_s: f64,
    /// As measured.
    pub raw_s: f64,
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Set-up time.
    pub setup: SetupTime,
    /// The untraced timed phase.
    pub untraced: Phase,
    /// The traced phase (traced runs only).
    pub traced: Option<Phase>,
    /// Deterministic work counters.
    pub counters: BTreeMap<String, u64>,
    /// Output checks.
    pub checks: Checks,
}

/// Set up `SETUP_REPS` times, keep the last state, report the median,
/// also scaled by the median host slowdown sampled before each set-up.
///
/// # Errors
///
/// The first set-up error.
pub fn timed_setup<S>(
    mut setup: impl FnMut(usize) -> Result<S, String>,
) -> Result<(SetupTime, S), String> {
    let mut raw = Vec::with_capacity(SETUP_REPS);
    let mut slowdown = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        drop(last.take());
        slowdown.push(sys::slowdown());
        let t0 = Instant::now();
        let state = setup(rep)?;
        raw.push(t0.elapsed().as_secs_f64());
        last = Some(state);
    }
    let raw_s = report::median(&raw).expect("at least one set-up");
    let time = SetupTime {
        ref_s: raw_s / report::median(&slowdown).expect("at least one set-up"),
        raw_s,
    };
    Ok((time, last.expect("at least one set-up")))
}

/// Run `op` back to back until `seconds` have passed (at least once),
/// measuring the host slowdown before each; `op` returns the cost of its
/// timed part, which leaves out its untimed checks and clean-up. A
/// panicking operation is counted in [`Phase::panics`] and contributes
/// no sample.
pub fn closed_loop(seconds: f64, mut op: impl FnMut() -> OpCost) -> Phase {
    let t0 = Instant::now();
    let mut phase = Phase {
        compute_bound: true,
        ..Phase::default()
    };
    loop {
        let slowdown = sys::slowdown();
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(&mut op)) {
            Ok(cost) => {
                phase.op_ms.push(cost.ms);
                phase.op_cpu_ms.push(cost.cpu_s * 1e3);
                phase.slowdown.push(slowdown);
                phase.timed_s += cost.ms * 1e-3;
                phase.cpu_s += cost.cpu_s;
            }
            Err(_) => phase.panics += 1,
        }
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    phase
}

/// Recreate `dir` empty.
///
/// # Errors
///
/// Filesystem errors, with the path.
pub fn fresh_dir(dir: &std::path::Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

/// Fold an outcome into the report: end-to-end metrics from the untraced
/// phase, or per-layer metrics (idle layers at 0) plus tracing overhead
/// from the traced one.
pub fn report(context: Context, outcome: Outcome, catalogue: &Catalogue) -> Report {
    let Outcome {
        setup,
        untraced,
        traced,
        counters,
        mut checks,
    } = outcome;
    let panics = untraced.panics + traced.as_ref().map_or(0, |t| t.panics);
    for _ in 0..panics {
        checks.check(false, || "an operation panicked".to_owned());
    }
    let attempted = checks.attempted.max(1);
    let mut metrics = BTreeMap::new();
    match traced {
        None => {
            metrics.insert("setup_s".to_owned(), setup.ref_s);
            metrics.insert(
                "op_ms_p50".to_owned(),
                report::median(&untraced.ref_op_ms()).unwrap_or(0.0),
            );
            metrics.insert("ops_per_s".to_owned(), untraced.ops_per_s());
            metrics.insert(
                "cpu_ms_per_op".to_owned(),
                report::median(&untraced.ref_cpu_ms()).unwrap_or(0.0),
            );
            metrics.insert("peak_rss_mb".to_owned(), sys::peak_rss_mb());
            metrics.insert(
                "success_ratio".to_owned(),
                1.0 - checks.failed as f64 / attempted as f64,
            );
        }
        Some(t) => {
            for m in &catalogue.per_layer {
                metrics.insert(
                    m.name.clone(),
                    t.layers.get(&m.name).copied().unwrap_or(0.0),
                );
            }
            let base = report::median(&untraced.ref_op_ms()).unwrap_or(0.0);
            let with = report::median(&t.ref_op_ms()).unwrap_or(0.0);
            let overhead = if base > 0.0 { with / base - 1.0 } else { 0.0 };
            metrics.insert("trace.overhead_ratio".to_owned(), overhead);
            metrics.insert("samples".to_owned(), t.op_ms.len() as f64);
            metrics.insert("process.cpu_s".to_owned(), t.cpu_s);
        }
    }
    let host = [
        ("slowdown_p50", untraced.slowdown()),
        ("raw.setup_s", setup.raw_s),
        (
            "raw.op_ms_p50",
            report::median(&untraced.op_ms).unwrap_or(0.0),
        ),
        (
            "raw.cpu_ms_per_op",
            report::median(&untraced.op_cpu_ms).unwrap_or(0.0),
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect();
    Report {
        context,
        correct: checks.failed == 0,
        attempted,
        failed: checks.failed,
        metrics,
        counters,
        host,
        failures: checks.failures,
    }
}

/// Human-readable summary (written to stderr).
pub fn render(r: &Report, catalogue: &Catalogue) -> String {
    let c = &r.context;
    let mut out = format!(
        "perfbench {} seed={} seconds={} traced={} nproc={} workers={} engine={} rev={} sources={}\n",
        c.workload,
        c.seed,
        c.seconds,
        c.traced,
        c.nproc,
        c.workers,
        c.engine_fingerprint,
        c.git_rev,
        c.source_digest
    );
    for (name, value) in &r.metrics {
        let unit = catalogue.find(name).map_or("", |m| m.unit.as_str());
        out.push_str(&format!("  {name:<36} {value:>16.6} {unit}\n"));
    }
    for (name, value) in &r.host {
        out.push_str(&format!("  host {name:<31} {value:>16.6}\n"));
    }
    for (name, value) in &r.counters {
        out.push_str(&format!("  counter {name:<28} {value:>16}\n"));
    }
    out.push_str(&format!(
        "  checks: {} attempted, {} failed\n",
        r.attempted, r.failed
    ));
    for f in &r.failures {
        out.push_str(&format!("  FAILED: {f}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_counter_flags_drift() {
        let mut checks = Checks::default();
        let mut counters = BTreeMap::new();
        checks.same_counter(&mut counters, "x", 3);
        checks.same_counter(&mut counters, "x", 3);
        assert_eq!(checks.failed, 0);
        checks.same_counter(&mut counters, "x", 4);
        assert_eq!(checks.failed, 1);
        assert_eq!(counters["x"], 3);
    }

    #[test]
    fn timed_setup_reports_the_median_and_keeps_the_last_state() {
        // Delays 10, 80, 10, 80, ... ms: the median is an 80 ms set-up
        // only when most set-ups are slow.
        let slow = |rep: usize| rep % 2 == 1;
        let (time, last) = timed_setup(|rep| {
            let ms = if slow(rep) { 80 } else { 10 };
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok(rep)
        })
        .expect("set-up succeeds");
        assert_eq!(last, SETUP_REPS - 1);
        let slow_reps = (0..SETUP_REPS).filter(|&r| slow(r)).count();
        let expected = if 2 * slow_reps > SETUP_REPS {
            0.08
        } else {
            0.01
        };
        let median = time.raw_s;
        assert!(median >= expected && median < expected + 0.05, "{median}");
        assert!(time.ref_s > 0.0);
    }

    #[test]
    fn host_slowdown_scales_computation_but_not_ticks() {
        let phase = Phase {
            op_ms: vec![100.0, 300.0, 200.0],
            op_cpu_ms: vec![150.0, 450.0, 300.0],
            slowdown: vec![2.0, 1.0, 2.0],
            compute_bound: true,
            timed_s: 0.6,
            ..Phase::default()
        };
        assert_eq!(phase.slowdown(), 2.0);
        assert_eq!(phase.ref_op_ms(), [50.0, 150.0, 100.0]);
        assert_eq!(phase.ref_cpu_ms(), [75.0, 225.0, 150.0]);
        assert!((phase.ops_per_s() - 10.0).abs() < 1e-9);
        // Poll-tick latency is reported as measured; CPU still scales.
        let ticks = Phase {
            compute_bound: false,
            ..phase
        };
        assert_eq!(ticks.ref_op_ms(), [100.0, 300.0, 200.0]);
        assert_eq!(ticks.ref_cpu_ms(), [75.0, 225.0, 150.0]);
        assert!((ticks.ops_per_s() - 5.0).abs() < 1e-9);
    }
}
