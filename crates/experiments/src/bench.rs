//! Machine-readable performance benchmarks for the simulation engines.
//!
//! Seven head-to-head comparisons, each reported as steps/second and wall
//! milliseconds:
//!
//! 1. **batched vs sequential discrete loops** — a bank of Fig. 4
//!    recurrences advanced one [`DiscreteLoop`] at a time versus all lanes
//!    in lock-step through the SoA [`BatchLoop`] engine;
//! 2. **warm-started vs classic Fig. 9 panel** — [`fig9::run_panel`]
//!    against the coarse-to-fine [`fig9::run_panel_fast`], with the
//!    warm-up samples saved by the warm starts read back off the
//!    `margin_search.iterations_saved` telemetry counter;
//! 3. **cold vs warm result cache** — the same Fig. 9 panel through
//!    [`fig9::run_panel`] with a [`RunCtx`] cache attached, against an
//!    empty and a fully-populated on-disk store;
//! 4. **FIFO vs longest-job-first dispatch** — a synthetic sweep with a
//!    few heavy items parked at the end of the grid, scheduled in submission
//!    order versus by descending cost hint;
//! 5. **lane-count scaling** — the mixed-scheme lane bank at
//!    B ∈ {4, 16, 64, 256}: sequential `DiscreteLoop` runs vs the scalar
//!    SoA loop (`run_scalar`) vs the blocked lane-block engine (`run`),
//!    plus the multi-threaded lane-chunk dispatcher at 64+ lanes;
//! 6. **traceless summaries & Monte Carlo** — the summary-only block
//!    path ([`BatchLoop::run_summaries`]) against the traced blocked
//!    engine on the same bank, and the traceless
//!    [`McPanel`] against the per-instance
//!    pre-batch harness (one `System` event-loop run per sampled
//!    instance, the `runner::run_scheme` shape);
//! 7. **domain-bank scaling** — N uniform IIR clock domains at
//!    N ∈ {16, 64, 256}: one `DiscreteLoop` object per domain (the
//!    pre-bank ownership shape) versus the same domains as a single
//!    [`DomainBank`](adaptive_clock::bank::DomainBank) behind the
//!    traceless summary path — the shape the mesh and yield layers run.
//!
//! `repro bench --json BENCH.json` writes the whole report as JSON, so CI
//! and the committed `BENCH_*.json` trajectory files can track the numbers
//! across revisions.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use adaptive_clock::batch::{BatchLoop, BatchTrace, LaneController};
use adaptive_clock::controller::IirConfig;
use adaptive_clock::loopsim::{constant, DiscreteLoop, LoopInputs};
use adaptive_clock::system::{Scheme as SystemScheme, SystemBuilder};
use adaptive_clock::tdc::Quantization;
use clock_telemetry::Telemetry;
use variation::process::ProcessSpec;
use variation::sources::Harmonic;

use crate::batchrun::run_lane_chunks;
use crate::cache::SweepCache;
use crate::config::PaperParams;
use crate::fig9;
use crate::montecarlo::{McPanel, Scheme as McScheme};
use crate::render::Table;
use crate::runner::{RunCtx, RunSummary};
use crate::sweep::{parallel_map, parallel_map_planned, Plan};

/// One timed benchmark case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Case id (`"loop-batched"`, `"fig9-warm-panel"`, …).
    pub name: String,
    /// What was run, in words.
    pub detail: String,
    /// Simulated steps (or samples) the timing covers.
    pub steps: u64,
    /// Wall-clock time in milliseconds.
    pub wall_ms: f64,
    /// `steps / wall seconds`.
    pub steps_per_sec: f64,
    /// Name of the baseline entry this one is compared against.
    pub baseline: Option<String>,
    /// `baseline wall_ms / this wall_ms` (> 1 means this case is faster).
    pub speedup: Option<f64>,
    /// Warm-up iterations the warm-started sweep skipped (from the
    /// `margin_search.iterations_saved` telemetry counter).
    pub iterations_saved: Option<u64>,
}

/// A full benchmark run. The `workers`/`engine_rev`/`git_rev` fields make
/// a written `BENCH_*.json` self-describing for [`compare`]: a baseline
/// taken on different hardware or a different engine generation is still
/// loadable, and the header shows what it was taken against.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BenchReport {
    /// True when the reduced `--quick` workloads were used (CI smoke mode).
    pub quick: bool,
    /// Set-point the workloads were built for.
    pub setpoint: i64,
    /// Sweep worker pool size when the report was taken (0 when unknown —
    /// pre-observability baselines).
    pub workers: u64,
    /// The engine fingerprint (crate version + `ENGINE_REV`s) the numbers
    /// belong to (empty when unknown).
    pub engine_rev: String,
    /// Short git revision of the working tree, when git was available.
    pub git_rev: Option<String>,
    /// The timed cases.
    pub entries: Vec<BenchEntry>,
}

// Hand-written so baselines written before the self-description fields
// existed still load (`field_or_default`); the derive would reject them.
impl serde::Deserialize for BenchReport {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::DeError::custom("BenchReport: expected object"))?;
        Ok(BenchReport {
            quick: serde::field(obj, "quick")?,
            setpoint: serde::field(obj, "setpoint")?,
            workers: serde::field_or_default(obj, "workers")?,
            engine_rev: serde::field_or_default(obj, "engine_rev")?,
            git_rev: serde::field_or_default(obj, "git_rev")?,
            entries: serde::field(obj, "entries")?,
        })
    }
}

impl BenchReport {
    /// Look up an entry by name.
    pub fn entry(&self, name: &str) -> Option<&BenchEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Serialize to pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates serialization failures (practically unreachable for these
    /// plain-data types).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parse a report back from [`BenchReport::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns the parse/shape error message.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// Load a report from a JSON file (a committed `BENCH_*.json`).
    ///
    /// # Errors
    ///
    /// Returns a readable message for an unreadable file or a bad payload.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::from_json(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
    }
}

/// Short git revision of the working tree, when a git binary and repo are
/// reachable from the current directory.
pub fn git_revision() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let rev = String::from_utf8(out.stdout).ok()?.trim().to_owned();
    (!rev.is_empty()).then_some(rev)
}

/// The bank of discrete-loop lanes the batching benchmark advances: all
/// four controller kinds across CDN depths `M ∈ {0, 1, 2}`. Public so the
/// criterion harness (`benches/compiled.rs`) times the identical bank.
pub fn lane_specs(c: i64) -> Vec<(usize, LaneController, Quantization)> {
    let mut lanes = Vec::new();
    for i in 0..4 {
        let m = i % 3;
        lanes.push((
            m,
            LaneController::int_iir(&IirConfig::paper(), c).expect("paper config"),
            Quantization::Floor,
        ));
        lanes.push((
            m,
            LaneController::float_iir(&IirConfig::paper(), c as f64).expect("paper config"),
            Quantization::None,
        ));
        lanes.push((m, LaneController::teatime(c, 1.0), Quantization::Floor));
        lanes.push((m, LaneController::free(c), Quantization::Floor));
    }
    lanes
}

/// Lane specs for the scaling section and the lane-chunk dispatcher: the
/// same four-scheme × CDN-depth pattern as [`lane_specs`], cycled over an
/// arbitrary half-open lane range so a dispatcher chunk can rebuild
/// exactly its share of the bank.
pub fn scaling_specs(
    c: i64,
    lanes: std::ops::Range<usize>,
) -> Vec<(usize, LaneController, Quantization)> {
    lanes
        .map(|i| {
            let m = i % 3;
            match i % 4 {
                0 => (
                    m,
                    LaneController::int_iir(&IirConfig::paper(), c).expect("paper config"),
                    Quantization::Floor,
                ),
                1 => (
                    m,
                    LaneController::float_iir(&IirConfig::paper(), c as f64).expect("paper config"),
                    Quantization::None,
                ),
                2 => (m, LaneController::teatime(c, 1.0), Quantization::Floor),
                _ => (m, LaneController::free(c), Quantization::Floor),
            }
        })
        .collect()
}

fn time_ms(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

/// Repetitions per timed case: wall-clock noise on a shared box easily
/// exceeds the engine differences, so every case is timed `REPS` times and
/// the minimum (the least-disturbed run) is reported. Best-of-3 was
/// measured to still invert orderings on this hardware, and best-of-7 is
/// stable for compute-bound cases — but the memory-heavy long-horizon
/// cases show a right-skewed per-rep distribution (a measured 15-rep
/// spread of 33–85 ms for the same workload) whose minimum best-of-7
/// frequently misses. Best-of-15 pins the minima of both kinds.
const REPS: usize = 15;

fn best_ms(reps: usize, mut run_once: impl FnMut() -> f64) -> f64 {
    (0..reps).map(|_| run_once()).fold(f64::INFINITY, f64::min)
}

fn entry(name: &str, detail: &str, steps: u64, wall_ms: f64) -> BenchEntry {
    BenchEntry {
        name: name.to_owned(),
        detail: detail.to_owned(),
        steps,
        wall_ms,
        steps_per_sec: steps as f64 / (wall_ms / 1e3).max(1e-12),
        baseline: None,
        speedup: None,
        iterations_saved: None,
    }
}

/// Run the full benchmark suite. `quick` shrinks every workload by roughly
/// an order of magnitude for CI smoke runs; the comparisons stay the same.
pub fn run(params: &PaperParams, quick: bool) -> BenchReport {
    let mut entries = Vec::new();

    // 1. Discrete-loop bank: sequential DiscreteLoop vs SoA BatchLoop.
    let c = params.setpoint;
    let loop_steps: usize = if quick { 20_000 } else { 200_000 };
    let specs = lane_specs(c);
    let n_lanes = specs.len();
    let cs = constant(c as f64);
    let zero = constant(0.0);
    let amp = params.amplitude();
    let e_fn = move |n: i64| amp * (std::f64::consts::TAU * n as f64 / 37.5).sin();
    let seq_ms = best_ms(REPS, || {
        time_ms(|| {
            for (m, ctrl, q) in lane_specs(c) {
                let mut dl = DiscreteLoop::new(m, ctrl, q);
                std::hint::black_box(dl.run(
                    &LoopInputs {
                        setpoint: &cs,
                        homogeneous: &e_fn,
                        heterogeneous: &zero,
                    },
                    loop_steps,
                ));
            }
        })
    });
    let mut batch = BatchLoop::new();
    for (m, ctrl, q) in specs {
        batch.push(m, ctrl, q);
    }
    let inputs: Vec<LoopInputs<'_>> = (0..n_lanes)
        .map(|_| LoopInputs {
            setpoint: &cs,
            homogeneous: &e_fn,
            heterogeneous: &zero,
        })
        .collect();
    // Steady-state protocol: the trace is recycled between reps
    // (`run_recycled`), matching the sequential baseline whose per-lane
    // sub-threshold allocations the heap already reuses across reps. A
    // fresh 3 × 25 MB trace per rep would otherwise re-measure the
    // allocator's page-fault + zeroing cycle, not the engine.
    let mut spare = BatchTrace::default();
    let batch_ms = best_ms(REPS, || {
        batch.reset();
        let mut out = BatchTrace::default();
        let ms = time_ms(|| {
            out = batch.run_recycled(&inputs, loop_steps, std::mem::take(&mut spare));
            std::hint::black_box(&out);
        });
        spare = out;
        ms
    });
    let lane_steps = (n_lanes * loop_steps) as u64;
    entries.push(entry(
        "loop-sequential",
        &format!("{n_lanes} Fig. 4 lanes x {loop_steps} periods, one DiscreteLoop at a time"),
        lane_steps,
        seq_ms,
    ));
    let mut e = entry(
        "loop-batched",
        &format!("{n_lanes} Fig. 4 lanes x {loop_steps} periods in SoA lock-step"),
        lane_steps,
        batch_ms,
    );
    e.baseline = Some("loop-sequential".to_owned());
    e.speedup = Some(seq_ms / batch_ms.max(1e-12));
    entries.push(e);

    // 2. Fig. 9 panel: classic cold sweep vs coarse-to-fine warm starts.
    let points = if quick { 5 } else { 9 };
    let (t_clk, te) = (1.0, 37.5);
    let samples = params.samples_for(te) as u64;
    let classic_steps = 4 * points as u64 * samples;
    let bare_ctx = RunCtx::new(*params);
    let classic_ms = best_ms(REPS, || {
        time_ms(|| {
            std::hint::black_box(fig9::run_panel(&bare_ctx, t_clk, te, points));
        })
    });
    // Both panels are *timed* with telemetry disabled so the comparison is
    // engine-vs-engine, not event-emission overhead; the saved-iterations
    // counter comes from one untimed observed run afterwards.
    let fast_ms = best_ms(REPS, || {
        time_ms(|| {
            std::hint::black_box(fig9::run_panel_fast(&bare_ctx, t_clk, te, points));
        })
    });
    let telemetry = Telemetry::enabled();
    let observed_ctx = RunCtx::new(*params).with_telemetry(telemetry.clone());
    std::hint::black_box(fig9::run_panel_fast(&observed_ctx, t_clk, te, points));
    let saved = telemetry
        .snapshot()
        .counter("margin_search.iterations_saved")
        .unwrap_or(0);
    let fast_steps = classic_steps.saturating_sub(saved);
    entries.push(entry(
        "fig9-classic-panel",
        &format!("Fig. 9 panel (t_clk = {t_clk}c, Te = {te}c, {points} mu points), cold runs"),
        classic_steps,
        classic_ms,
    ));
    let mut e = entry(
        "fig9-warm-panel",
        &format!(
            "same panel, every {}-th mu cold, the rest warm-started from the \
             neighbouring settled length",
            fig9::COARSE_STRIDE
        ),
        fast_steps,
        fast_ms,
    );
    e.baseline = Some("fig9-classic-panel".to_owned());
    e.speedup = Some(classic_ms / fast_ms.max(1e-12));
    e.iterations_saved = Some(saved);
    entries.push(e);

    // 3. The same Fig. 9 panel through the result cache: every grid point
    // a miss (cold store, fresh dir per rep) vs every point a hit (store
    // populated once, reopened per rep so hits pay the disk read + decode,
    // not just the in-memory read-through).
    let cache_root = std::env::temp_dir().join(format!("repro-bench-cache-{}", std::process::id()));
    let off = Telemetry::disabled();
    let mut rep = 0u32;
    let cold_ms = best_ms(REPS, || {
        rep += 1;
        let dir = cache_root.join(format!("cold-{rep}"));
        let cache = SweepCache::persistent(&dir, &off).expect("temp cache dir");
        let ctx = RunCtx::new(*params).with_cache(cache);
        let ms = time_ms(|| {
            std::hint::black_box(fig9::run_panel(&ctx, t_clk, te, points));
        });
        let _ = std::fs::remove_dir_all(&dir);
        ms
    });
    let warm_dir = cache_root.join("warm");
    {
        let cache = SweepCache::persistent(&warm_dir, &off).expect("temp cache dir");
        let ctx = RunCtx::new(*params).with_cache(cache);
        std::hint::black_box(fig9::run_panel(&ctx, t_clk, te, points));
    }
    let warm_ms = best_ms(REPS, || {
        let cache = SweepCache::persistent(&warm_dir, &off).expect("temp cache dir");
        let ctx = RunCtx::new(*params).with_cache(cache);
        time_ms(|| {
            std::hint::black_box(fig9::run_panel(&ctx, t_clk, te, points));
        })
    });
    let _ = std::fs::remove_dir_all(&cache_root);
    entries.push(entry(
        "fig9-cold-cache",
        &format!(
            "Fig. 9 panel (t_clk = {t_clk}c, Te = {te}c, {points} mu points) \
             against an empty result cache (every point computes + writes)"
        ),
        classic_steps,
        cold_ms,
    ));
    let mut e = entry(
        "fig9-warm-cache",
        "same panel against the populated cache (every point a hit)",
        classic_steps,
        warm_ms,
    );
    e.baseline = Some("fig9-cold-cache".to_owned());
    e.speedup = Some(cold_ms / warm_ms.max(1e-12));
    entries.push(e);

    // 4. Dispatch policy on a deliberately unbalanced sweep: a few heavy
    // items parked at the *end* of the grid, where submission-order (FIFO)
    // dispatch strands them on a late worker while longest-job-first
    // starts them immediately.
    let n_items = 48usize;
    let heavy_iters: u64 = if quick { 1_000_000 } else { 4_000_000 };
    let light_iters: u64 = heavy_iters / 16;
    let costs: Vec<u64> = (0..n_items)
        .map(|i| {
            if i >= n_items - 4 {
                heavy_iters
            } else {
                light_iters
            }
        })
        .collect();
    let spin = |iters: u64| {
        let mut acc = 0f64;
        for k in 0..iters {
            acc += (k as f64).sqrt();
        }
        std::hint::black_box(acc)
    };
    let total_iters: u64 = costs.iter().sum();
    let fifo_ms = best_ms(REPS, || {
        // `parallel_map` gives every item a uniform cost hint, so the
        // stable sort leaves the submission order intact: chunked FIFO.
        time_ms(|| {
            std::hint::black_box(parallel_map(&costs, |&it| spin(it)));
        })
    });
    let ljf_ms = best_ms(REPS, || {
        time_ms(|| {
            std::hint::black_box(parallel_map_planned(
                &costs,
                |&it| Plan::<f64>::Compute(it),
                |&it| spin(it),
                &off,
            ));
        })
    });
    // On a single-core host both policies are bound by total work and tie;
    // the LJF advantage appears once workers > 1, so record the pool size.
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    entries.push(entry(
        "sweep-fifo",
        &format!(
            "{n_items}-item sweep, 4 heavy tail items ({heavy_iters} vs {light_iters} \
             spin iterations), submission-order dispatch, {workers} workers"
        ),
        total_iters,
        fifo_ms,
    ));
    let mut e = entry(
        "sweep-ljf",
        &format!(
            "same sweep, longest-job-first dispatch from per-item cost hints, \
             {workers} workers"
        ),
        total_iters,
        ljf_ms,
    );
    e.baseline = Some("sweep-fifo".to_owned());
    e.speedup = Some(fifo_ms / ljf_ms.max(1e-12));
    entries.push(e);

    // 5. Lane-count scaling: the mixed-scheme bank at B lanes through
    // three engines — one DiscreteLoop at a time, the scalar SoA loop,
    // and the blocked lane-block engine — plus the multi-threaded
    // lane-chunk dispatcher at 64+ lanes. All lanes share the setpoint
    // and HoDV closures, as sweep workloads do, so the blocked engine's
    // closure deduplication is exercised at every width.
    let scale_steps: usize = if quick { 2_000 } else { 25_000 };
    for b_lanes in [4usize, 16, 64, 256] {
        let label = format!("lanes-{b_lanes:03}");
        let lane_steps = (b_lanes * scale_steps) as u64;
        let seq_ms = best_ms(REPS, || {
            time_ms(|| {
                for (m, ctrl, q) in scaling_specs(c, 0..b_lanes) {
                    let mut dl = DiscreteLoop::new(m, ctrl, q);
                    std::hint::black_box(dl.run(
                        &LoopInputs {
                            setpoint: &cs,
                            homogeneous: &e_fn,
                            heterogeneous: &zero,
                        },
                        scale_steps,
                    ));
                }
            })
        });
        let scale_inputs: Vec<LoopInputs<'_>> = (0..b_lanes)
            .map(|_| LoopInputs {
                setpoint: &cs,
                homogeneous: &e_fn,
                heterogeneous: &zero,
            })
            .collect();
        let mut soa = BatchLoop::new();
        for (m, ctrl, q) in scaling_specs(c, 0..b_lanes) {
            soa.push(m, ctrl, q);
        }
        let soa_ms = best_ms(REPS, || {
            soa.reset();
            time_ms(|| {
                std::hint::black_box(soa.run_scalar(&scale_inputs, scale_steps));
            })
        });
        let mut blk = BatchLoop::new();
        for (m, ctrl, q) in scaling_specs(c, 0..b_lanes) {
            blk.push(m, ctrl, q);
        }
        // Same steady-state trace recycling as loop-batched above.
        let mut blk_spare = BatchTrace::default();
        let blk_ms = best_ms(REPS, || {
            blk.reset();
            let mut out = BatchTrace::default();
            let ms = time_ms(|| {
                out = blk.run_recycled(&scale_inputs, scale_steps, std::mem::take(&mut blk_spare));
                std::hint::black_box(&out);
            });
            blk_spare = out;
            ms
        });
        entries.push(entry(
            &format!("{label}-sequential"),
            &format!(
                "{b_lanes} mixed-scheme lanes x {scale_steps} periods, one DiscreteLoop at a time"
            ),
            lane_steps,
            seq_ms,
        ));
        entries.push(entry(
            &format!("{label}-soa"),
            &format!("{b_lanes} lanes x {scale_steps} periods on the scalar SoA loop (run_scalar)"),
            lane_steps,
            soa_ms,
        ));
        let mut e = entry(
            &format!("{label}-blocked"),
            &format!("{b_lanes} lanes x {scale_steps} periods on the blocked lane-block engine"),
            lane_steps,
            blk_ms,
        );
        e.baseline = Some(format!("{label}-sequential"));
        e.speedup = Some(seq_ms / blk_ms.max(1e-12));
        entries.push(e);
        if b_lanes >= 64 {
            // The dispatcher splits the same bank into 16-lane chunks over
            // the sweep worker pool. No speedup field on purpose: the
            // ratio against the single-thread engine depends on the host's
            // core count, which would make the CI regression gate compare
            // machines instead of code.
            let chunk = 16usize;
            let disp_ms = best_ms(REPS, || {
                time_ms(|| {
                    std::hint::black_box(run_lane_chunks(b_lanes, chunk, &off, |range| {
                        let mut part = BatchLoop::new();
                        for (m, ctrl, q) in scaling_specs(c, range.clone()) {
                            part.push(m, ctrl, q);
                        }
                        let part_inputs: Vec<LoopInputs<'_>> = range
                            .map(|_| LoopInputs {
                                setpoint: &cs,
                                homogeneous: &e_fn,
                                heterogeneous: &zero,
                            })
                            .collect();
                        part.run(&part_inputs, scale_steps)
                    }));
                })
            });
            entries.push(entry(
                &format!("{label}-dispatch"),
                &format!(
                    "{b_lanes} lanes x {scale_steps} periods, blocked engine in \
                     {chunk}-lane chunks across {workers} workers"
                ),
                lane_steps,
                disp_ms,
            ));
        }
    }

    // 6. Summary path & Monte Carlo: the traceless summary engine
    // against the traced blocked path on the same mixed bank, and the
    // traceless Monte Carlo panel against the per-instance pre-batch
    // harness (one full `System` event-loop run per sampled instance —
    // how `runner::run_scheme` runs every per-point experiment, and how
    // a panel had to be run before the batch engine existed).
    // Quick keeps the horizon long enough that the traced side's trace
    // still streams past cache; a short trace would sit cache-resident
    // and compress the measured ratio away from the full-run baseline.
    let sum_steps: usize = if quick { 6_000 } else { 12_000 };
    let sum_lanes = 256usize;
    let sum_inputs: Vec<LoopInputs<'_>> = (0..sum_lanes)
        .map(|_| LoopInputs {
            setpoint: &cs,
            homogeneous: &e_fn,
            heterogeneous: &zero,
        })
        .collect();
    let mut traced = BatchLoop::new();
    for (m, ctrl, q) in scaling_specs(c, 0..sum_lanes) {
        traced.push(m, ctrl, q);
    }
    // Steady-state trace recycling, as in section 1: the traced side is
    // charged for stepping + summarizing, not for first-touch faults on
    // a fresh trace allocation.
    let mut traced_spare = BatchTrace::default();
    let traced_ms = best_ms(REPS, || {
        traced.reset();
        let mut out = BatchTrace::default();
        let ms = time_ms(|| {
            out = traced.run_recycled(&sum_inputs, sum_steps, std::mem::take(&mut traced_spare));
            std::hint::black_box(out.summarize());
        });
        traced_spare = out;
        ms
    });
    let mut traceless = BatchLoop::new();
    for (m, ctrl, q) in scaling_specs(c, 0..sum_lanes) {
        traceless.push(m, ctrl, q);
    }
    let traceless_ms = best_ms(REPS, || {
        traceless.reset();
        time_ms(|| {
            std::hint::black_box(traceless.run_summaries(&sum_inputs, sum_steps));
        })
    });
    let sum_lane_steps = (sum_lanes * sum_steps) as u64;
    entries.push(entry(
        "summaries-traced",
        &format!(
            "{sum_lanes} mixed-scheme lanes x {sum_steps} periods through the \
             blocked engine, trace recycled between reps, then summarized"
        ),
        sum_lane_steps,
        traced_ms,
    ));
    let mut e = entry(
        "summaries-traceless",
        "same bank through run_summaries: blocks fold straight into 6-word \
         lane summaries, no trace ever materialized",
        sum_lane_steps,
        traceless_ms,
    );
    e.baseline = Some("summaries-traced".to_owned());
    e.speedup = Some(traced_ms / traceless_ms.max(1e-12));
    entries.push(e);

    // The Monte Carlo panel: the classic open-loop statistical-timing
    // shape — sampled process instances, margins folded over the
    // post-lock-in window. The adaptive-scheme panels (IIR, TEAtime) run
    // the same path; the free-running panel is the headline because the
    // controller arithmetic there is negligible on *both* sides, so the
    // ratio isolates the engine, not the filter.
    // Quick mode trims instances, not steps: per-run setup (system
    // build, event-loop allocations, block packing) amortizes over the
    // horizon, so shortening runs would shift the measured ratio away
    // from the committed full-panel baseline instead of just its noise.
    let (mc_instances, mc_steps, mc_warmup) = if quick {
        (256, 2_000, 500)
    } else {
        (1024, 2_000, 500)
    };
    let panel = McPanel {
        spec: ProcessSpec::paper(),
        seed: 0x0BE5_0BE5,
        instances: mc_instances,
        steps: mc_steps,
        warmup: mc_warmup,
        chunk: 128,
        sensors: 4,
        setpoint: c,
        m: 1,
        amplitude: params.amplitude(),
        te_periods: 200.0,
    };
    let mc_offsets = panel.sensed_offsets();
    let wave = Harmonic::new(panel.amplitude, panel.te_periods * c as f64, 0.0);
    let mc_naive_ms = best_ms(REPS, || {
        time_ms(|| {
            for &o in &mc_offsets {
                let system = SystemBuilder::new(c)
                    .cdn_delay(c as f64)
                    .scheme(SystemScheme::FreeRo { extra_length: 0 })
                    .single_sensor_mu(o)
                    .build()
                    .expect("bench system configuration is valid");
                let run = system.run(&wave, panel.steps).skip(panel.warmup);
                std::hint::black_box(RunSummary::of(&run));
            }
        })
    });
    let mc_traceless_ms = best_ms(REPS, || {
        time_ms(|| {
            std::hint::black_box(panel.summaries(McScheme::Free, &off));
        })
    });
    let mc_lane_steps = (panel.instances * panel.steps) as u64;
    entries.push(entry(
        "mc-panel-naive",
        &format!(
            "{mc_instances}-instance Monte Carlo margin panel x {mc_steps} periods, \
             one scalar System event-loop run per instance (the pre-batch \
             per-point harness), trace materialized then summarized"
        ),
        mc_lane_steps,
        mc_naive_ms,
    ));
    let mut e = entry(
        "mc-panel-traceless",
        "same panel through McPanel::summaries: instances batched into \
         128-lane chunks on the traceless static-mu block path",
        mc_lane_steps,
        mc_traceless_ms,
    );
    e.baseline = Some("mc-panel-naive".to_owned());
    e.speedup = Some(mc_naive_ms / mc_traceless_ms.max(1e-12));
    entries.push(e);

    // 7. Domain-bank scaling: N independent clock domains advanced as N
    // sequential DiscreteLoops (the pre-refactor ownership shape: one
    // loop object per domain, each materializing its own trace) versus
    // the same N domains held in one DomainBank and folded through the
    // traceless summary path. Uniform IIR domains so the blocked engine
    // sees full lane blocks, and shared input closures so deduplication
    // is exercised — both match how the mesh and yield layers build banks.
    let dom_steps: usize = if quick { 2_000 } else { 25_000 };
    for n_domains in [16usize, 64, 256] {
        let label = format!("domains-{n_domains:03}");
        let dom_lane_steps = (n_domains * dom_steps) as u64;
        let perloop_ms = best_ms(REPS, || {
            time_ms(|| {
                for _ in 0..n_domains {
                    let mut dl = DiscreteLoop::new(
                        1,
                        LaneController::int_iir(&IirConfig::paper(), c).expect("paper config"),
                        Quantization::Floor,
                    );
                    std::hint::black_box(dl.run(
                        &LoopInputs {
                            setpoint: &cs,
                            homogeneous: &e_fn,
                            heterogeneous: &zero,
                        },
                        dom_steps,
                    ));
                }
            })
        });
        let dom_inputs: Vec<LoopInputs<'_>> = (0..n_domains)
            .map(|_| LoopInputs {
                setpoint: &cs,
                homogeneous: &e_fn,
                heterogeneous: &zero,
            })
            .collect();
        let mut dom_bank = adaptive_clock::bank::DomainBank::new();
        for _ in 0..n_domains {
            dom_bank.push(
                1,
                LaneController::int_iir(&IirConfig::paper(), c).expect("paper config"),
                Quantization::Floor,
            );
        }
        let mut bank_loop = BatchLoop::from_bank(dom_bank);
        let bank_ms = best_ms(REPS, || {
            bank_loop.reset();
            time_ms(|| {
                std::hint::black_box(bank_loop.run_summaries(&dom_inputs, dom_steps));
            })
        });
        entries.push(entry(
            &format!("{label}-perloop"),
            &format!(
                "{n_domains} uniform IIR domains x {dom_steps} periods, one DiscreteLoop \
                 object per domain, each trace materialized"
            ),
            dom_lane_steps,
            perloop_ms,
        ));
        let mut e = entry(
            &format!("{label}-bank"),
            &format!(
                "{n_domains} domains x {dom_steps} periods as one DomainBank through \
                 the traceless summary path"
            ),
            dom_lane_steps,
            bank_ms,
        );
        e.baseline = Some(format!("{label}-perloop"));
        e.speedup = Some(perloop_ms / bank_ms.max(1e-12));
        entries.push(e);
    }

    BenchReport {
        quick,
        setpoint: params.setpoint,
        workers: workers as u64,
        engine_rev: crate::cache::engine_fingerprint(),
        git_rev: git_revision(),
        entries,
    }
}

/// One benchmark case matched between a current run and a stored baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompareEntry {
    /// Case name (`BenchEntry::name`).
    pub name: String,
    /// Speedup recorded in the baseline report.
    pub baseline_speedup: f64,
    /// Speedup measured now.
    pub current_speedup: f64,
    /// Relative change: `(current - baseline) / baseline`. Negative means
    /// the optimisation bought less than it used to.
    pub delta_frac: f64,
    /// True when the loss exceeds the noise threshold.
    pub regressed: bool,
}

/// Outcome of [`compare`]: per-entry deltas plus bookkeeping on cases that
/// could not be matched up.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompareReport {
    /// Noise threshold the verdicts were computed with.
    pub noise: f64,
    /// Matched cases, in baseline order.
    pub entries: Vec<CompareEntry>,
    /// Baseline cases with a speedup that the current run does not have.
    pub missing: Vec<String>,
    /// Context fields (`workers`, `quick`, `engine_rev`) on which the two
    /// reports differ, each as `field (current X, baseline Y)`. Flagged,
    /// not refused: such a comparison runs, but its verdict is weaker.
    pub context_mismatch: Vec<String>,
}

impl CompareReport {
    /// True when any matched entry regressed or a baseline case vanished.
    pub fn regressed(&self) -> bool {
        !self.missing.is_empty() || self.entries.iter().any(|e| e.regressed)
    }
}

/// Default relative-loss threshold below which a speedup change is treated
/// as timer noise. Calibrated against quick-vs-full runs of the committed
/// workloads, whose speedup ratios wander by roughly ±8%; 25% keeps a wide
/// guard band on loaded CI machines while still catching a pairing whose
/// optimisation genuinely stopped working.
pub const DEFAULT_COMPARE_NOISE: f64 = 0.25;

/// Compare the optimisation speedups of `current` against a stored
/// `baseline`. Raw wall times are deliberately ignored — they track host
/// speed, not code quality — so only the dimensionless optimised-vs-naive
/// ratios are held to account. An entry regresses when its speedup drops
/// by more than `noise` relative to the baseline.
pub fn compare(current: &BenchReport, baseline: &BenchReport, noise: f64) -> CompareReport {
    let mut entries = Vec::new();
    let mut missing = Vec::new();
    for base in &baseline.entries {
        let Some(baseline_speedup) = base.speedup else {
            continue;
        };
        match current.entry(&base.name).and_then(|e| e.speedup) {
            Some(current_speedup) => {
                let delta_frac = (current_speedup - baseline_speedup) / baseline_speedup;
                entries.push(CompareEntry {
                    name: base.name.clone(),
                    baseline_speedup,
                    current_speedup,
                    delta_frac,
                    regressed: delta_frac < -noise,
                });
            }
            None => missing.push(base.name.clone()),
        }
    }
    CompareReport {
        noise,
        entries,
        missing,
        context_mismatch: context_mismatch(current, baseline),
    }
}

/// The context fields on which `current` and `baseline` differ. A field
/// the baseline left unknown (`workers` 0, empty `engine_rev`: reports
/// written before those fields existed) is not a mismatch.
fn context_mismatch(current: &BenchReport, baseline: &BenchReport) -> Vec<String> {
    let mut fields = Vec::new();
    if baseline.workers != 0 && current.workers != baseline.workers {
        fields.push(format!(
            "workers (current {}, baseline {})",
            current.workers, baseline.workers
        ));
    }
    if current.quick != baseline.quick {
        fields.push(format!(
            "quick (current {}, baseline {})",
            current.quick, baseline.quick
        ));
    }
    if !baseline.engine_rev.is_empty() && current.engine_rev != baseline.engine_rev {
        fields.push(format!(
            "engine_rev (current {}, baseline {})",
            current.engine_rev, baseline.engine_rev
        ));
    }
    fields
}

/// Render a [`CompareReport`] as an ASCII table with a verdict line.
pub fn render_compare(report: &CompareReport, baseline: &BenchReport) -> String {
    let mut out = String::new();
    let base_rev = if baseline.engine_rev.is_empty() {
        "unknown engine".to_owned()
    } else {
        baseline.engine_rev.clone()
    };
    let git = baseline.git_rev.as_deref().unwrap_or("?");
    out.push_str(&format!(
        "baseline: {base_rev} @ git {git}, {} workers\n",
        baseline.workers
    ));
    if !report.context_mismatch.is_empty() {
        out.push_str(&format!(
            "context mismatch: {}\n",
            report.context_mismatch.join(", ")
        ));
    }
    let mut t = Table::new(vec![
        "case".to_owned(),
        "baseline x".to_owned(),
        "current x".to_owned(),
        "delta".to_owned(),
        "verdict".to_owned(),
    ]);
    for e in &report.entries {
        t.row(vec![
            e.name.clone(),
            format!("{:.2}", e.baseline_speedup),
            format!("{:.2}", e.current_speedup),
            format!("{:+.1}%", e.delta_frac * 100.0),
            if e.regressed { "REGRESSED" } else { "ok" }.to_owned(),
        ]);
    }
    out.push_str(&t.render());
    for name in &report.missing {
        out.push_str(&format!(
            "missing: baseline case `{name}` not in current run\n"
        ));
    }
    out.push_str(&format!(
        "verdict: {} (noise threshold {:.0}%)\n",
        if report.regressed() {
            "REGRESSION"
        } else {
            "no regression"
        },
        report.noise * 100.0
    ));
    out
}

/// Render a report as an ASCII table.
pub fn render(report: &BenchReport) -> String {
    let mut t = Table::new(vec![
        "case".to_owned(),
        "steps".to_owned(),
        "wall ms".to_owned(),
        "steps/s".to_owned(),
        "speedup".to_owned(),
        "iters saved".to_owned(),
    ]);
    for e in &report.entries {
        t.row(vec![
            e.name.clone(),
            e.steps.to_string(),
            format!("{:.1}", e.wall_ms),
            format!("{:.3e}", e.steps_per_sec),
            e.speedup
                .map_or_else(|| "-".to_owned(), |s| format!("{s:.2}x")),
            e.iterations_saved
                .map_or_else(|| "-".to_owned(), |n| n.to_string()),
        ]);
    }
    let mode = if report.quick { " (quick)" } else { "" };
    format!(
        "Engine benchmarks{mode} — c = {}\n\n{}\nspeedup is baseline wall time over case wall time \
         (loops: sequential/batched; fig9: cold/warm-started).\n",
        report.setpoint,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_is_complete_and_serializable() {
        let params = PaperParams::default();
        let report = run(&params, true);
        assert!(report.quick);
        for name in [
            "loop-sequential",
            "loop-batched",
            "fig9-classic-panel",
            "fig9-warm-panel",
            "fig9-cold-cache",
            "fig9-warm-cache",
            "sweep-fifo",
            "sweep-ljf",
            "lanes-004-sequential",
            "lanes-004-soa",
            "lanes-004-blocked",
            "lanes-016-sequential",
            "lanes-016-soa",
            "lanes-016-blocked",
            "lanes-064-sequential",
            "lanes-064-soa",
            "lanes-064-blocked",
            "lanes-064-dispatch",
            "lanes-256-sequential",
            "lanes-256-soa",
            "lanes-256-blocked",
            "lanes-256-dispatch",
            "summaries-traced",
            "summaries-traceless",
            "mc-panel-naive",
            "mc-panel-traceless",
            "domains-016-perloop",
            "domains-016-bank",
            "domains-064-perloop",
            "domains-064-bank",
            "domains-256-perloop",
            "domains-256-bank",
        ] {
            let e = report.entry(name).unwrap_or_else(|| panic!("entry {name}"));
            assert!(e.steps > 0, "{name}: no steps");
            assert!(e.steps_per_sec > 0.0, "{name}: zero rate");
        }
        assert!(report.entry("loop-batched").unwrap().speedup.is_some());
        assert!(report.entry("fig9-warm-cache").unwrap().speedup.is_some());
        assert!(report.entry("sweep-ljf").unwrap().speedup.is_some());
        for (fast, base) in [
            ("summaries-traceless", "summaries-traced"),
            ("mc-panel-traceless", "mc-panel-naive"),
        ] {
            let e = report.entry(fast).unwrap();
            assert_eq!(e.baseline.as_deref(), Some(base), "{fast} baseline");
            assert!(e.speedup.is_some(), "{fast} must be gated");
        }
        for lanes in ["004", "016", "064", "256"] {
            let blocked = report.entry(&format!("lanes-{lanes}-blocked")).unwrap();
            assert_eq!(
                blocked.baseline.as_deref(),
                Some(format!("lanes-{lanes}-sequential").as_str())
            );
            assert!(blocked.speedup.is_some(), "blocked {lanes} must be gated");
        }
        for domains in ["016", "064", "256"] {
            let bank = report.entry(&format!("domains-{domains}-bank")).unwrap();
            assert_eq!(
                bank.baseline.as_deref(),
                Some(format!("domains-{domains}-perloop").as_str())
            );
            assert!(bank.speedup.is_some(), "bank {domains} must be gated");
        }
        // Dispatch timings deliberately carry no speedup: the ratio would
        // compare host core counts, not code (see the section 5 comment).
        assert!(report
            .entry("lanes-064-dispatch")
            .unwrap()
            .speedup
            .is_none());
        assert!(report
            .entry("lanes-256-dispatch")
            .unwrap()
            .speedup
            .is_none());
        assert!(
            report
                .entry("fig9-warm-panel")
                .unwrap()
                .iterations_saved
                .unwrap_or(0)
                > 0,
            "warm panel must bank saved iterations"
        );
        let json = report.to_json().expect("plain data serializes");
        let back: BenchReport = serde_json::from_str(&json).expect("round-trips");
        assert_eq!(back, report);
        let text = render(&report);
        assert!(text.contains("loop-batched"));
        assert!(text.contains("fig9-warm-panel"));
        assert_eq!(report.engine_rev, crate::cache::engine_fingerprint());
        assert!(report.workers >= 1, "worker pool size must be recorded");
    }

    /// Baselines committed before the self-description fields existed must
    /// still load, with the new fields at their defaults.
    #[test]
    fn pre_observability_baseline_still_loads() {
        let old = r#"{
            "quick": false,
            "setpoint": 40,
            "entries": [{
                "name": "dtsim-compiled",
                "detail": "x",
                "steps": 10,
                "wall_ms": 1.0,
                "steps_per_sec": 10000.0,
                "baseline": "dtsim-interpreted",
                "speedup": 2.0,
                "iterations_saved": null
            }]
        }"#;
        let report = BenchReport::from_json(old).expect("old schema loads");
        assert_eq!(report.workers, 0);
        assert_eq!(report.engine_rev, "");
        assert_eq!(report.git_rev, None);
        assert_eq!(report.entry("dtsim-compiled").unwrap().speedup, Some(2.0));
    }

    fn speedup_report(pairs: &[(&str, f64)]) -> BenchReport {
        BenchReport {
            quick: false,
            setpoint: 40,
            workers: 4,
            engine_rev: "test-engine".to_owned(),
            git_rev: None,
            entries: pairs
                .iter()
                .map(|&(name, speedup)| BenchEntry {
                    name: name.to_owned(),
                    detail: String::new(),
                    steps: 1,
                    wall_ms: 1.0,
                    steps_per_sec: 1000.0,
                    baseline: Some("base".to_owned()),
                    speedup: Some(speedup),
                    iterations_saved: None,
                })
                .collect(),
        }
    }

    #[test]
    fn compare_flags_only_losses_beyond_noise() {
        let baseline = speedup_report(&[("a", 2.0), ("b", 3.0), ("c", 1.5)]);
        // a: tiny wobble, b: catastrophic loss, c: improvement.
        let current = speedup_report(&[("a", 1.9), ("b", 1.0), ("c", 2.0)]);
        let cmp = compare(&current, &baseline, DEFAULT_COMPARE_NOISE);
        assert!(cmp.regressed());
        let by_name = |n: &str| cmp.entries.iter().find(|e| e.name == n).unwrap();
        assert!(!by_name("a").regressed, "5% wobble is noise");
        assert!(by_name("b").regressed, "3.0x -> 1.0x is a regression");
        assert!(!by_name("c").regressed, "improvements never regress");
        let text = render_compare(&cmp, &baseline);
        assert!(text.contains("REGRESSION"));
        assert!(text.contains("test-engine"));
    }

    #[test]
    fn compare_passes_identical_reports_and_catches_missing_cases() {
        let baseline = speedup_report(&[("a", 2.0), ("b", 3.0)]);
        let same = compare(&baseline, &baseline, DEFAULT_COMPARE_NOISE);
        assert!(!same.regressed(), "a report never regresses against itself");
        let current = speedup_report(&[("a", 2.0)]);
        let cmp = compare(&current, &baseline, DEFAULT_COMPARE_NOISE);
        assert_eq!(cmp.missing, vec!["b".to_owned()]);
        assert!(cmp.regressed(), "a vanished case counts as a regression");
    }

    #[test]
    fn compare_flags_each_mismatched_context_field() {
        let baseline = speedup_report(&[("a", 2.0)]);
        let same = compare(&baseline, &baseline, DEFAULT_COMPARE_NOISE);
        assert!(same.context_mismatch.is_empty());
        assert!(!render_compare(&same, &baseline).contains("context mismatch"));

        let mut current = baseline.clone();
        current.workers = 2;
        current.quick = true;
        current.engine_rev = "other-engine".to_owned();
        let cmp = compare(&current, &baseline, DEFAULT_COMPARE_NOISE);
        assert_eq!(
            cmp.context_mismatch,
            vec![
                "workers (current 2, baseline 4)".to_owned(),
                "quick (current true, baseline false)".to_owned(),
                "engine_rev (current other-engine, baseline test-engine)".to_owned(),
            ]
        );
        assert!(!cmp.regressed(), "a mismatch is flagged, not a regression");
        let text = render_compare(&cmp, &baseline);
        let line = text
            .lines()
            .find(|l| l.starts_with("context mismatch: "))
            .expect("the mismatch is rendered");
        for field in ["workers", "quick", "engine_rev"] {
            assert!(line.contains(field), "{field} named in {line:?}");
        }
        assert!(text.contains("verdict: no regression"));

        // Unknown baseline context (old schema) is not a mismatch.
        let mut old = baseline.clone();
        old.workers = 0;
        old.engine_rev = String::new();
        let mut cur = baseline.clone();
        cur.workers = 2;
        let cmp = compare(&cur, &old, DEFAULT_COMPARE_NOISE);
        assert!(
            cmp.context_mismatch.is_empty(),
            "{:?}",
            cmp.context_mismatch
        );
    }
}
