//! Batched multi-lane execution of the Fig. 4 discrete loop.
//!
//! [`loopsim::DiscreteLoop`] advances one operating point at a time and
//! calls through `&dyn Fn(i64) -> f64` input closures on every period.
//! Sweeps, however, run the *same* recurrence over many independent
//! (seed, μ, T_e, scheme) points. [`BatchLoop`] runs `B` such lanes
//! together in a structure-of-arrays layout:
//!
//! * e/μ input closures are **deduplicated by identity and sampled once
//!   per row into a small tile table** ([`TILE`] periods at a time), so a
//!   sweep whose lanes share a variation source pays for each closure row
//!   once, not once per lane;
//! * clean lanes are packed into fixed-width **lane blocks** of
//!   [`BLOCK_WIDTH`] and stepped by straight-line SoA kernels (the
//!   private `blocked` submodule) that mirror the shared
//!   [`Controller`](crate::controller::Controller) arithmetic bit for bit;
//!   faulted/hardened lanes and block tails stay on the per-lane scalar
//!   path, so every lane — blocked or not — is **bit-identical** to the
//!   `DiscreteLoop` it replaces (asserted by the differential tests below
//!   and by the `batch_blocked_differential` proptest suite);
//! * recorded signals land in flat `[n·B + lane]` arrays
//!   ([`BatchTrace`]), with per-lane [`LoopTrace`] views for drop-in use;
//! * the run is tile-major: each block steps a whole tile of periods with
//!   its state in registers before the next block runs;
//! * summary consumers (margin sweeps, Monte Carlo panels) can skip the
//!   trace entirely: [`BatchLoop::run_summaries`] runs the same tile
//!   loop into per-lane [`LaneSummary`] statistics, bit-identical to
//!   summarizing a materialized trace but without the trace-store
//!   bandwidth or allocation.
//!
//! [`loopsim::DiscreteLoop`]: crate::loopsim::DiscreteLoop

use clock_faults::FaultSchedule;
use clock_telemetry::Telemetry;

use crate::bank::DomainBank;
use crate::loopsim::{LoopInputs, LoopTrace};
use crate::resilience::Resilience;
use crate::tdc::Quantization;

mod blocked;

pub use blocked::{BLOCK_WIDTH, TILE};

/// Per-lane controller state: exactly the shared kernel
/// [`Controller`](crate::controller::Controller) enum. The alias survives
/// from when the batched engine carried its own copy of the arithmetic;
/// batch-facing code and the sweep layers keep reading naturally.
pub use crate::controller::Controller as LaneController;

/// Flat recordings of a batched run, laid out `[n · lanes + lane]`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchTrace {
    lanes: usize,
    steps: usize,
    /// TDC readings `τ[n]`, one slab of `lanes` values per period.
    pub tau: Vec<f64>,
    /// Adaptation errors `δ[n]`.
    pub delta: Vec<f64>,
    /// RO lengths `l_RO[n]`.
    pub lro: Vec<f64>,
}

impl BatchTrace {
    /// Number of lanes recorded.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of periods recorded per lane.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// De-interleave one lane into a standalone [`LoopTrace`] — identical
    /// to what a `DiscreteLoop` run of that operating point records.
    ///
    /// All three signals are gathered in a single pass over the step rows
    /// (one strided walk instead of one closure-driven pass per signal),
    /// so exporting every lane of a large batch reads each trace row once.
    ///
    /// # Panics
    ///
    /// Panics when `lane >= self.lanes()`.
    pub fn lane(&self, lane: usize) -> LoopTrace {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        let mut tau = Vec::with_capacity(self.steps);
        let mut delta = Vec::with_capacity(self.steps);
        let mut lro = Vec::with_capacity(self.steps);
        for n in 0..self.steps {
            let k = n * self.lanes + lane;
            tau.push(self.tau[k]);
            delta.push(self.delta[k]);
            lro.push(self.lro[k]);
        }
        LoopTrace { tau, delta, lro }
    }

    /// Recombine lane-chunk traces into one trace whose lane order is the
    /// concatenation of the parts' lanes — the deterministic merge the
    /// multi-threaded lane-chunk dispatcher relies on: because every lane
    /// of a batch is independent, running `[0..k)` and `[k..B)` in
    /// separate [`BatchLoop`]s and concatenating is bit-identical to one
    /// `B`-lane run.
    ///
    /// Parts with zero lanes are allowed and contribute nothing.
    ///
    /// # Panics
    ///
    /// Panics when the parts disagree on the step count.
    pub fn concat(parts: &[BatchTrace]) -> BatchTrace {
        let steps = parts.iter().find(|p| p.lanes > 0).map_or(0, |p| p.steps);
        assert!(
            parts.iter().all(|p| p.lanes == 0 || p.steps == steps),
            "lane-chunk traces disagree on step count"
        );
        let lanes: usize = parts.iter().map(|p| p.lanes).sum();
        let mut out = BatchTrace {
            lanes,
            steps,
            tau: Vec::with_capacity(steps * lanes),
            delta: Vec::with_capacity(steps * lanes),
            lro: Vec::with_capacity(steps * lanes),
        };
        for n in 0..steps {
            for p in parts {
                let row = n * p.lanes;
                out.tau.extend_from_slice(&p.tau[row..row + p.lanes]);
                out.delta.extend_from_slice(&p.delta[row..row + p.lanes]);
                out.lro.extend_from_slice(&p.lro[row..row + p.lanes]);
            }
        }
        out
    }

    /// Fold every lane into its [`LaneSummary`] — the trace-then-summarize
    /// reference implementation for [`BatchLoop::run_summaries`].
    ///
    /// `δ[n] = c[n] − τ[n]` is already recorded, so the worst negative
    /// error folds `δ` and the worst positive error folds `−δ` directly;
    /// the mean period sums `l_RO[n]` in step order. The traceless path
    /// performs these exact operations inline per period, which is what
    /// makes the two bit-identical.
    pub fn summarize(&self) -> Vec<LaneSummary> {
        self.summarize_after(0)
    }

    /// Like [`summarize`](Self::summarize), but fold only the periods
    /// from `warmup` on — the post-lock window a margin study scores
    /// (cold-start transients excluded), mirroring
    /// [`BatchLoop::run_summaries_after`] on the traceless path.
    /// `last_lro` still reports the final period regardless of the
    /// window.
    ///
    /// # Panics
    ///
    /// Panics when `warmup >= steps` on a non-empty trace (an empty
    /// measurement window has no statistics).
    pub fn summarize_after(&self, warmup: usize) -> Vec<LaneSummary> {
        if self.steps == 0 {
            return vec![LaneSummary::EMPTY; self.lanes];
        }
        assert!(
            warmup < self.steps,
            "warmup ({warmup}) must leave at least one measured period of {}",
            self.steps
        );
        let samples = self.steps - warmup;
        (0..self.lanes)
            .map(|lane| {
                let mut wne = 0.0f64;
                let mut wpe = 0.0f64;
                let mut sum = 0.0f64;
                for n in warmup..self.steps {
                    let k = n * self.lanes + lane;
                    let delta = self.delta[k];
                    wne = wne.max(delta);
                    wpe = wpe.max(-delta);
                    sum += self.lro[k];
                }
                LaneSummary {
                    samples: samples as u64,
                    mean_period: sum / samples as f64,
                    worst_negative_error: wne,
                    worst_positive_error: wpe,
                    last_lro: self.lro[(self.steps - 1) * self.lanes + lane],
                }
            })
            .collect()
    }
}

/// Streaming per-lane margin statistics of a batched run: the handful of
/// numbers a sweep or Monte Carlo consumer actually reads off a lane's
/// trace, computed inline by [`BatchLoop::run_summaries`] without ever
/// materializing the trace, or after the fact by
/// [`BatchTrace::summarize`]. The two paths perform the identical
/// floating-point operations in the identical order, so their results are
/// bit-identical (pinned by the differential suite).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneSummary {
    /// Periods summarized.
    pub samples: u64,
    /// Mean generated period `Σ l_RO[n] / samples`, summed in step order
    /// (`0.0` when no steps were run).
    pub mean_period: f64,
    /// Worst negative timing error `max(0, max_n (c[n] − τ[n]))` — in the
    /// paper's words, "equal, in absolute value, to the needed safety
    /// margin". Folded over `δ[n] = c[n] − τ[n]` exactly as recorded.
    pub worst_negative_error: f64,
    /// Worst positive timing error `max(0, max_n (τ[n] − c[n]))` —
    /// performance left on the table. Folded over `−δ[n]` (negation is
    /// exact, so this matches folding `τ − c` up to the sign of zero).
    pub worst_positive_error: f64,
    /// `l_RO` of the final generated period (NaN when no steps were run).
    pub last_lro: f64,
}

impl LaneSummary {
    /// The zero-step summary (NaN `last_lro`, everything else zero).
    pub(crate) const EMPTY: LaneSummary = LaneSummary {
        samples: 0,
        mean_period: 0.0,
        worst_negative_error: 0.0,
        worst_positive_error: 0.0,
        last_lro: f64::NAN,
    };

    /// The minimal safety margin for error-free operation — the worst
    /// negative excursion, matching `clock_metrics::margin::required_margin`
    /// on the equivalent `RunTrace`.
    pub fn required_margin(&self) -> f64 {
        self.worst_negative_error
    }

    /// Mean period once operated with just enough margin to be error-free:
    /// `⟨T⟩ + m*`.
    pub fn needed_adaptive_period(&self) -> f64 {
        self.mean_period + self.required_margin()
    }
}

/// A batch of independent Fig. 4 loops advanced together.
///
/// # Example
///
/// Two mismatch amplitudes of the paper loop in one batch:
///
/// ```
/// use adaptive_clock::batch::{BatchLoop, LaneController};
/// use adaptive_clock::controller::IirConfig;
/// use adaptive_clock::loopsim::{constant, step_at, LoopInputs};
/// use adaptive_clock::tdc::Quantization;
///
/// # fn main() -> Result<(), adaptive_clock::Error> {
/// let mut batch = BatchLoop::new();
/// for _ in 0..2 {
///     let ctrl = LaneController::int_iir(&IirConfig::paper(), 64)?;
///     batch.push(1, ctrl, Quantization::Floor);
/// }
/// let c = constant(64.0);
/// let zero = constant(0.0);
/// let mu_a = step_at(10, -8.0);
/// let mu_b = step_at(10, 5.0);
/// let inputs = [
///     LoopInputs { setpoint: &c, homogeneous: &zero, heterogeneous: &mu_a },
///     LoopInputs { setpoint: &c, homogeneous: &zero, heterogeneous: &mu_b },
/// ];
/// let tr = batch.run(&inputs, 400);
/// assert!(tr.lane(0).delta[399].abs() <= 1.0);
/// assert!(tr.lane(1).delta[399].abs() <= 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct BatchLoop {
    pub(crate) bank: DomainBank,
    telemetry: Telemetry,
}

impl BatchLoop {
    /// An empty batch.
    pub fn new() -> Self {
        BatchLoop {
            bank: DomainBank::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// A batch over an existing [`DomainBank`] — the bank's domains
    /// become the batch's lanes, in index order.
    pub fn from_bank(bank: DomainBank) -> Self {
        BatchLoop {
            bank,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach an instrumentation handle (counts controller steps across
    /// all lanes under `batch.controller_steps`, the block-engine shape
    /// under `batch.blocks` / `batch.scalar_tail_lanes`, and input
    /// closure evaluations — unique closures × rows sampled — under
    /// `batch.input_samples`; the `engine.batch` and
    /// `engine.batch.summaries` spans carry the tile length as `tile`).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The underlying domain bank.
    pub fn bank(&self) -> &DomainBank {
        &self.bank
    }

    /// Mutable access to the underlying domain bank.
    pub fn bank_mut(&mut self) -> &mut DomainBank {
        &mut self.bank
    }

    /// Recover the domain bank, dropping the batch wrapper.
    pub fn into_bank(self) -> DomainBank {
        self.bank
    }

    /// Append a lane with CDN delay `m` whole periods; returns its index.
    pub fn push(
        &mut self,
        m: usize,
        controller: LaneController,
        quantization: Quantization,
    ) -> usize {
        self.bank.push(m, controller, quantization)
    }

    /// Append a lane with a fault schedule and hardening configuration.
    /// An empty schedule plus [`Resilience::default`] keeps the lane on
    /// the engine's original (fault-free) arithmetic, exactly like
    /// [`push`](Self::push).
    pub fn push_with(
        &mut self,
        m: usize,
        controller: LaneController,
        quantization: Quantization,
        faults: FaultSchedule,
        resilience: Resilience,
    ) -> usize {
        self.bank
            .push_with(m, controller, quantization, faults, resilience)
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.bank.len()
    }

    /// Whether the batch has no lanes.
    pub fn is_empty(&self) -> bool {
        self.bank.is_empty()
    }

    /// Reset every lane's controller to its initial state.
    pub fn reset(&mut self) {
        self.bank.reset();
    }

    /// Run `steps` periods of every lane, driving lane `i` with
    /// `inputs[i]`, through the lane-block engine: clean lanes advance in
    /// [`BLOCK_WIDTH`]-wide SoA blocks, faulted/hardened lanes and block
    /// tails on the per-lane scalar path, every lane bit-identical to its
    /// scalar [`DiscreteLoop`](crate::loopsim::DiscreteLoop) twin.
    ///
    /// The input closures are deduplicated by reference identity and
    /// sampled once per unique closure per sequence row (into a small
    /// table one [`TILE`] of periods at a time), so they must be pure
    /// functions of the row index — how many times and in which order a
    /// closure is invoked is unspecified (see [`LoopInputs`]). Every
    /// closure the engines accept already satisfies this; the scalar loop
    /// relies on it too (it re-samples rows freely).
    ///
    /// # Panics
    ///
    /// Panics when `inputs.len() != self.len()`.
    pub fn run(&mut self, inputs: &[LoopInputs<'_>], steps: usize) -> BatchTrace {
        self.run_recycled(inputs, steps, BatchTrace::default())
    }

    /// [`run`](Self::run), reusing a previous trace's allocations.
    ///
    /// A full-length multi-lane trace is tens of megabytes — above the
    /// allocator's mmap threshold — so repeated `run` calls pay the whole
    /// page-fault + zeroing + unmap cycle per run even though the engine
    /// overwrites every element anyway. Feeding the previous trace back
    /// in (`trace = batch.run_recycled(inputs, steps, trace)`) makes
    /// repeated runs steady-state.
    ///
    /// The reuse contract, precisely: each of `spare`'s three buffers is
    /// cleared (length 0, **capacity kept**) and written in place
    /// whenever its capacity already covers the run's `steps · lanes`
    /// elements — equal-size reruns never touch the allocator, which
    /// debug builds assert. A buffer only reallocates when a previous run
    /// was smaller than this one. `spare`'s *contents* and its recorded
    /// lane/step counts are irrelevant (any trace works, including
    /// `BatchTrace::default()`, which is exactly what `run` passes); the
    /// returned trace is bit-identical to a fresh [`run`](Self::run)
    /// either way.
    ///
    /// Callers that only need per-lane statistics should prefer
    /// [`run_summaries`](Self::run_summaries), which skips the trace —
    /// and with it this whole recycling dance — entirely.
    ///
    /// # Panics
    ///
    /// Panics when `inputs.len() != self.len()`.
    pub fn run_recycled(
        &mut self,
        inputs: &[LoopInputs<'_>],
        steps: usize,
        spare: BatchTrace,
    ) -> BatchTrace {
        assert_eq!(
            inputs.len(),
            self.bank.len(),
            "one LoopInputs per lane required"
        );
        blocked::run(self, inputs, steps, spare)
    }

    /// Run `steps` periods of every lane like [`run`](Self::run), but
    /// stream per-lane margin statistics instead of materializing a
    /// [`BatchTrace`]: no trace allocation, no ~24 B per lane-step of
    /// store bandwidth — the compulsory cost floor of the traced path for
    /// consumers that only read a handful of numbers per lane (margin
    /// sweeps, Monte Carlo sample panels).
    ///
    /// The blocked engine runs the *same* tile loop as
    /// [`run`](Self::run) (they share one generic body); only the
    /// destination of each lane's results differs. The returned
    /// summaries are therefore **bit-identical** to
    /// `self.run(inputs, steps).summarize()` for every lane — blocked,
    /// scalar-tail, faulted or hardened — and the controller state
    /// advances exactly as a traced run would leave it.
    ///
    /// Telemetry: the run lands under an `engine.batch.summaries` span;
    /// lane-step and block-shape counters are shared with the traced path.
    ///
    /// # Panics
    ///
    /// Panics when `inputs.len() != self.len()`.
    pub fn run_summaries(&mut self, inputs: &[LoopInputs<'_>], steps: usize) -> Vec<LaneSummary> {
        self.run_summaries_after(inputs, steps, 0)
    }

    /// Like [`run_summaries`](Self::run_summaries), but fold only the
    /// periods from `warmup` on: every lane is still stepped from period
    /// 0 (the controller must live through its lock-in transient), while
    /// the margin statistics cover the post-warmup window — the paper's
    /// measurement methodology, and bit-identical to
    /// `self.run(inputs, steps).summarize_after(warmup)`.
    ///
    /// # Panics
    ///
    /// Panics when `inputs.len() != self.len()`, or when
    /// `warmup >= steps` on a non-empty batch.
    pub fn run_summaries_after(
        &mut self,
        inputs: &[LoopInputs<'_>],
        steps: usize,
        warmup: usize,
    ) -> Vec<LaneSummary> {
        assert_eq!(
            inputs.len(),
            self.bank.len(),
            "one LoopInputs per lane required"
        );
        assert!(
            steps == 0 || warmup < steps,
            "warmup ({warmup}) must leave at least one measured period of {steps}"
        );
        blocked::run_summaries(self, inputs, None, steps, warmup)
    }

    /// [`run_summaries_after`](Self::run_summaries_after) specialized to
    /// the Monte Carlo panel shape: every lane shares one `setpoint` and
    /// one `homogeneous` closure, and lane `k`'s heterogeneous mismatch
    /// is the **step-invariant** constant `mu[k]` (a sampled process
    /// offset), passed as data instead of a closure.
    ///
    /// Equivalent per-lane `constant(mu[k])` closures produce the same
    /// bits — the engine adds the identical f64 in the identical
    /// association order — but cost one indirect call plus one table
    /// store per lane per period on the general path, because per-lane
    /// closures are all distinct and cannot deduplicate. For a
    /// thousands-of-lanes sample panel that overhead is the difference
    /// the `mc-panel-*` benchmark pair tracks; this entry point deletes
    /// it. Bit-identity with the closure form (and hence with
    /// trace-then-summarize) is pinned by the unit tests below and the
    /// differential suite.
    ///
    /// # Panics
    ///
    /// Panics when `mu.len() != self.len()`, or when `warmup >= steps`
    /// on a non-empty batch.
    pub fn run_summaries_static(
        &mut self,
        setpoint: &(dyn Fn(i64) -> f64 + '_),
        homogeneous: &(dyn Fn(i64) -> f64 + '_),
        mu: &[f64],
        steps: usize,
        warmup: usize,
    ) -> Vec<LaneSummary> {
        assert_eq!(mu.len(), self.bank.len(), "one static mu per lane required");
        assert!(
            steps == 0 || warmup < steps,
            "warmup ({warmup}) must leave at least one measured period of {steps}"
        );
        // The heterogeneous slot is filled with the shared homogeneous
        // closure purely to satisfy the struct shape; with a static μ the
        // engine never samples it.
        let inputs: Vec<LoopInputs<'_>> = (0..self.bank.len())
            .map(|_| LoopInputs {
                setpoint,
                homogeneous,
                heterogeneous: homogeneous,
            })
            .collect();
        blocked::run_summaries(self, &inputs, Some(mu), steps, warmup)
    }

    /// Run `steps` periods of every lane through the pre-block scalar SoA
    /// loop: one lane at a time per step, each (row, lane) input pair
    /// sampled exactly once. Kept as the in-tree reference the blocked
    /// engine is benchmarked and differentially tested against.
    ///
    /// # Panics
    ///
    /// Panics when `inputs.len() != self.len()`.
    pub fn run_scalar(&mut self, inputs: &[LoopInputs<'_>], steps: usize) -> BatchTrace {
        let mut run_scope = self.telemetry.scope("engine.batch.scalar");
        run_scope.attr("steps", steps);
        run_scope.attr("lanes", self.bank.len());
        assert_eq!(
            inputs.len(),
            self.bank.len(),
            "one LoopInputs per lane required"
        );
        let b = self.bank.len();
        if b == 0 || steps == 0 {
            return BatchTrace {
                lanes: b,
                steps,
                ..BatchTrace::default()
            };
        }
        // The recurrence only ever reads e/μ at sequence rows n−mm
        // (mm ≤ max_off) and n−1, so the input closures are sampled into a
        // *ring* of the last `max_off` lane-interleaved rows — a few KB
        // that stays cache-resident — instead of full-horizon tables whose
        // allocation and write-back traffic would rival the trace itself.
        // Each (row, lane) pair is still sampled exactly once.
        let mm: Vec<i64> = self.bank.domains.iter().map(|l| (l.m + 2) as i64).collect();
        let max_off = mm.iter().copied().max().expect("at least one lane");
        let mut e_ring = vec![0.0f64; max_off as usize * b];
        let mut mu_ring = vec![0.0f64; max_off as usize * b];
        let slot = |r: i64| r.rem_euclid(max_off) as usize * b;
        for (lane_idx, li) in inputs.iter().enumerate() {
            // Pre-start history; row −1 is sampled by the first iteration.
            for r in -max_off..=-2 {
                e_ring[slot(r) + lane_idx] = (li.homogeneous)(r);
                mu_ring[slot(r) + lane_idx] = (li.heterogeneous)(r);
            }
        }
        let mut trace = BatchTrace {
            lanes: b,
            steps,
            tau: Vec::with_capacity(steps * b),
            delta: Vec::with_capacity(steps * b),
            lro: Vec::with_capacity(steps * b),
        };
        // cur[lane] = l_RO[n] for the period being generated.
        let mut cur: Vec<f64> = self
            .bank
            .domains
            .iter()
            .map(|l| l.controller.length())
            .collect();
        // Per-lane fault paths, rebuilt per run (they hold run state).
        // `None` keeps a lane on the original arithmetic below — and bit-
        // identical to the faulted scalar loop when `Some`, because both
        // engines drive the same `FaultPath` methods in the same order.
        let mut paths: Vec<Option<crate::resilience::FaultPath>> = self
            .bank
            .domains
            .iter()
            .map(crate::bank::fault_path)
            .collect();
        for n in 0..steps as i64 {
            // Bring row n−1 into the ring. It overwrites row n−1−max_off,
            // which no lane can read any more (the deepest read is n−max_off),
            // and never collides with row n−mm (mm ≥ 2 keeps them apart).
            let base_n1 = slot(n - 1);
            for (lane_idx, li) in inputs.iter().enumerate() {
                e_ring[base_n1 + lane_idx] = (li.homogeneous)(n - 1);
                mu_ring[base_n1 + lane_idx] = (li.heterogeneous)(n - 1);
            }
            for (lane_idx, lane) in self.bank.domains.iter_mut().enumerate() {
                let off = mm[lane_idx];
                let i = n - off;
                // l_RO[n−mm]: pre-start history below 0, else the value
                // already recorded at slab i (i < n always since mm ≥ 2).
                let lro_past = if i < 0 {
                    lane.initial_length
                } else {
                    trace.lro[i as usize * b + lane_idx]
                };
                let base_nmm = slot(i);
                let (tau, delta, next) = crate::bank::step_domain(
                    lane.quantization,
                    &mut lane.controller,
                    paths[lane_idx].as_mut(),
                    n,
                    i,
                    lro_past,
                    e_ring[base_nmm + lane_idx],
                    e_ring[base_n1 + lane_idx],
                    mu_ring[base_nmm + lane_idx],
                    (inputs[lane_idx].setpoint)(n),
                );
                trace.tau.push(tau);
                trace.delta.push(delta);
                trace.lro.push(cur[lane_idx]);
                cur[lane_idx] = next;
            }
        }
        self.bank.note_steps(steps as u64);
        self.telemetry
            .counter("batch.controller_steps")
            .add((steps * b) as u64);
        let (injected, relocks) = paths.iter().flatten().fold((0u64, 0u64), |(i, r), fp| {
            (
                i + fp.schedule().injected_before(steps as u64),
                r + fp.relocks(),
            )
        });
        if injected > 0 {
            self.telemetry.counter("faults.injected").add(injected);
        }
        if relocks > 0 {
            self.telemetry.counter("controller.relocks").add(relocks);
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{FloatIir, FreeRunning, IirConfig, IntIirControl, TeaTime};
    use crate::loopsim::{constant, step_at, DiscreteLoop};

    fn reference(
        m: usize,
        controller: crate::controller::Controller,
        q: Quantization,
        inputs: &LoopInputs<'_>,
        steps: usize,
    ) -> LoopTrace {
        DiscreteLoop::new(m, controller, q).run(inputs, steps)
    }

    #[test]
    fn single_lane_matches_discrete_loop_int_iir() {
        let cfg = IirConfig::paper();
        let c = constant(64.0);
        let zero = constant(0.0);
        let mu = step_at(20, -9.0);
        let inputs = LoopInputs {
            setpoint: &c,
            homogeneous: &zero,
            heterogeneous: &mu,
        };
        let want = reference(
            1,
            IntIirControl::new(cfg.clone(), 64).unwrap().into(),
            Quantization::Floor,
            &inputs,
            500,
        );
        let mut batch = BatchLoop::new();
        batch.push(
            1,
            LaneController::int_iir(&cfg, 64).unwrap(),
            Quantization::Floor,
        );
        let got = batch.run(std::slice::from_ref(&inputs), 500);
        assert_eq!(got.lane(0), want);
    }

    #[test]
    fn mixed_lanes_match_their_discrete_loops_bitwise() {
        let cfg = IirConfig::paper();
        let c = constant(64.0);
        let e = |n: i64| 6.0 * (std::f64::consts::TAU * n as f64 / 300.0).sin();
        let mu = step_at(40, 7.0);
        let inputs = LoopInputs {
            setpoint: &c,
            homogeneous: &e,
            heterogeneous: &mu,
        };
        let steps = 800;
        let cases: Vec<(
            usize,
            crate::controller::Controller,
            LaneController,
            Quantization,
        )> = vec![
            (
                0,
                IntIirControl::new(cfg.clone(), 64).unwrap().into(),
                LaneController::int_iir(&cfg, 64).unwrap(),
                Quantization::Floor,
            ),
            (
                2,
                FloatIir::from_config(&cfg, 64.0).unwrap().into(),
                LaneController::float_iir(&cfg, 64.0).unwrap(),
                Quantization::None,
            ),
            (
                1,
                TeaTime::new(64).into(),
                LaneController::teatime(64, 1.0),
                Quantization::Floor,
            ),
            (
                3,
                FreeRunning::new(64).into(),
                LaneController::free(64),
                Quantization::Nearest,
            ),
        ];
        let mut batch = BatchLoop::new();
        let mut wants = Vec::new();
        let mut lane_inputs = Vec::new();
        for (m, scalar, lane, q) in cases {
            wants.push(reference(m, scalar, q, &inputs, steps));
            batch.push(m, lane, q);
            lane_inputs.push(LoopInputs {
                setpoint: &c,
                homogeneous: &e,
                heterogeneous: &mu,
            });
        }
        let got = batch.run(&lane_inputs, steps);
        assert_eq!(got.lanes(), 4);
        assert_eq!(got.steps(), steps);
        for (k, want) in wants.iter().enumerate() {
            assert_eq!(&got.lane(k), want, "lane {k} diverged");
        }
    }

    /// `run_recycled` must return the same bits as a fresh `run` no
    /// matter what the spare trace held, and must actually reuse a
    /// big-enough donor allocation instead of reallocating.
    #[test]
    fn recycled_run_is_bit_identical_and_reuses_buffers() {
        let cfg = IirConfig::paper();
        let c = constant(64.0);
        let e = |n: i64| 4.0 * (std::f64::consts::TAU * n as f64 / 55.0).sin();
        let zero = constant(0.0);
        let mut batch = BatchLoop::new();
        for m in 0..5 {
            batch.push(
                m % 3,
                LaneController::int_iir(&cfg, 64).unwrap(),
                Quantization::Floor,
            );
        }
        let inputs: Vec<LoopInputs<'_>> = (0..5)
            .map(|_| LoopInputs {
                setpoint: &c,
                homogeneous: &e,
                heterogeneous: &zero,
            })
            .collect();
        let fresh = batch.run(&inputs, 300);

        // Donor larger than needed: buffers must be reused in place.
        batch.reset();
        let big = BatchTrace {
            tau: vec![f64::NAN; 4000],
            delta: vec![f64::NAN; 4000],
            lro: vec![f64::NAN; 4000],
            ..BatchTrace::default()
        };
        let big_ptr = big.tau.as_ptr();
        let recycled = batch.run_recycled(&inputs, 300, big);
        assert_eq!(recycled, fresh, "recycled run diverged from fresh run");
        assert_eq!(
            recycled.tau.as_ptr(),
            big_ptr,
            "large donor buffer was not reused"
        );

        // Donor smaller than needed: must grow, still identical.
        batch.reset();
        let small = batch.run_recycled(&inputs, 10, BatchTrace::default());
        batch.reset();
        let regrown = batch.run_recycled(&inputs, 300, small);
        assert_eq!(regrown, fresh);
    }

    /// Equal-size rerun recycling the previous output: none of the three
    /// buffers may silently reallocate (the steady-state contract the
    /// docs promise and debug builds assert).
    #[test]
    fn equal_size_recycled_rerun_reuses_every_buffer() {
        let cfg = IirConfig::paper();
        let c = constant(64.0);
        let e = |n: i64| 4.0 * (std::f64::consts::TAU * n as f64 / 55.0).sin();
        let zero = constant(0.0);
        let mut batch = BatchLoop::new();
        for m in 0..6 {
            batch.push(
                m % 3,
                LaneController::int_iir(&cfg, 64).unwrap(),
                Quantization::Floor,
            );
        }
        let inputs: Vec<LoopInputs<'_>> = (0..6)
            .map(|_| LoopInputs {
                setpoint: &c,
                homogeneous: &e,
                heterogeneous: &zero,
            })
            .collect();
        let first = batch.run(&inputs, 250);
        let ptrs = [
            first.tau.as_ptr() as usize,
            first.delta.as_ptr() as usize,
            first.lro.as_ptr() as usize,
        ];
        batch.reset();
        let second = batch.run_recycled(&inputs, 250, first);
        assert_eq!(
            [
                second.tau.as_ptr() as usize,
                second.delta.as_ptr() as usize,
                second.lro.as_ptr() as usize,
            ],
            ptrs,
            "equal-size rerun reallocated a recycled buffer"
        );
        batch.reset();
        assert_eq!(second, batch.run(&inputs, 250));
    }

    /// The traceless path must produce the same bits as running the
    /// traced engine and summarizing after the fact — across blocked
    /// lanes, scalar tails, faulted and hardened lanes.
    #[test]
    fn traceless_summaries_match_trace_then_summarize_bitwise() {
        use crate::resilience::Resilience;
        use clock_faults::{FaultClass, FaultSchedule};

        let cfg = IirConfig::paper();
        let c = constant(64.0);
        let e = |n: i64| 6.5 * (std::f64::consts::TAU * n as f64 / 110.0).sin();
        let steps = 900;
        let schedule = FaultSchedule::random(17, FaultClass::TdcDropout, 5.0, steps as u64, 3);
        let build = || {
            let mut b = BatchLoop::new();
            for k in 0..2 * BLOCK_WIDTH + 1 {
                b.push(
                    k % 3,
                    LaneController::int_iir(&cfg, 64).unwrap(),
                    Quantization::Floor,
                );
            }
            b.push(1, LaneController::teatime(64, 1.0), Quantization::Floor);
            b.push_with(
                1,
                LaneController::int_iir(&cfg, 64).unwrap(),
                Quantization::Floor,
                schedule.clone(),
                Resilience::hardened(64.0),
            );
            b
        };
        let mut traced = build();
        let mut traceless = build();
        let lanes = traced.len();
        let mus: Vec<Box<dyn Fn(i64) -> f64>> = (0..lanes)
            .map(|k| Box::new(step_at(20 + k as i64, k as f64 - 4.0)) as Box<dyn Fn(i64) -> f64>)
            .collect();
        let inputs: Vec<LoopInputs<'_>> = mus
            .iter()
            .map(|mu| LoopInputs {
                setpoint: &c,
                homogeneous: &e,
                heterogeneous: mu.as_ref(),
            })
            .collect();
        let want = traced.run(&inputs, steps).summarize();
        let got = traceless.run_summaries(&inputs, steps);
        assert_eq!(got.len(), lanes);
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.samples, w.samples, "lane {k} samples");
            assert_eq!(
                g.mean_period.to_bits(),
                w.mean_period.to_bits(),
                "lane {k} mean_period: {} vs {}",
                g.mean_period,
                w.mean_period
            );
            assert_eq!(
                g.worst_negative_error.to_bits(),
                w.worst_negative_error.to_bits(),
                "lane {k} worst_negative_error"
            );
            assert_eq!(
                g.worst_positive_error.to_bits(),
                w.worst_positive_error.to_bits(),
                "lane {k} worst_positive_error"
            );
            assert_eq!(
                g.last_lro.to_bits(),
                w.last_lro.to_bits(),
                "lane {k} last_lro"
            );
        }
        // Controller state advanced identically: a second leg agrees too.
        let want2 = traced.run(&inputs, steps).summarize();
        let got2 = traceless.run_summaries(&inputs, steps);
        assert_eq!(got2, want2, "second leg diverged");
    }

    /// The static-μ entry point must produce the same bits as per-lane
    /// `constant(μ)` closures through the general path — across blocked
    /// lanes, scalar tails, a faulted lane, and a warmup window.
    #[test]
    fn static_mu_summaries_match_constant_closures_bitwise() {
        use crate::resilience::Resilience;
        use clock_faults::{FaultClass, FaultSchedule};

        let cfg = IirConfig::paper();
        let c = constant(64.0);
        let e = |n: i64| 9.0 * (std::f64::consts::TAU * n as f64 / 140.0).sin();
        let steps = 700;
        let schedule = FaultSchedule::random(23, FaultClass::TdcDropout, 4.0, steps as u64, 2);
        let build = || {
            let mut b = BatchLoop::new();
            for k in 0..2 * BLOCK_WIDTH + 1 {
                b.push(
                    k % 3,
                    LaneController::int_iir(&cfg, 64).unwrap(),
                    Quantization::Floor,
                );
            }
            b.push(1, LaneController::teatime(64, 1.0), Quantization::Floor);
            b.push(2, LaneController::free(64), Quantization::Floor);
            b.push_with(
                1,
                LaneController::int_iir(&cfg, 64).unwrap(),
                Quantization::Floor,
                schedule.clone(),
                Resilience::hardened(64.0),
            );
            b
        };
        let mut closures = build();
        let mut statics = build();
        let lanes = closures.len();
        let mus: Vec<f64> = (0..lanes).map(|k| 0.37 * k as f64 - 5.1).collect();
        let mu_fns: Vec<Box<dyn Fn(i64) -> f64>> = mus
            .iter()
            .map(|&m| Box::new(constant(m)) as Box<dyn Fn(i64) -> f64>)
            .collect();
        let inputs: Vec<LoopInputs<'_>> = mu_fns
            .iter()
            .map(|mu| LoopInputs {
                setpoint: &c,
                homogeneous: &e,
                heterogeneous: mu.as_ref(),
            })
            .collect();
        for warmup in [0usize, 150] {
            closures.reset();
            statics.reset();
            let want = closures.run_summaries_after(&inputs, steps, warmup);
            let got = statics.run_summaries_static(&c, &e, &mus, steps, warmup);
            assert_eq!(got.len(), lanes);
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.samples, w.samples, "warmup {warmup} lane {k} samples");
                for (ga, wa, what) in [
                    (g.mean_period, w.mean_period, "mean_period"),
                    (
                        g.worst_negative_error,
                        w.worst_negative_error,
                        "worst_negative_error",
                    ),
                    (
                        g.worst_positive_error,
                        w.worst_positive_error,
                        "worst_positive_error",
                    ),
                    (g.last_lro, w.last_lro, "last_lro"),
                ] {
                    assert_eq!(
                        ga.to_bits(),
                        wa.to_bits(),
                        "warmup {warmup} lane {k} {what}: {ga} vs {wa}"
                    );
                }
            }
        }
        // Zero steps and the lane-count panic contract.
        let mut b = build();
        let s = b.run_summaries_static(&c, &e, &vec![0.0; lanes], 0, 0);
        assert_eq!(s.len(), lanes);
        assert!(s.iter().all(|x| x.samples == 0 && x.last_lro.is_nan()));
    }

    #[test]
    fn summaries_of_empty_batches_and_zero_steps() {
        let cfg = IirConfig::paper();
        let c = constant(64.0);
        let zero = constant(0.0);
        let mut empty = BatchLoop::new();
        assert!(empty.run_summaries(&[], 100).is_empty());
        let mut batch = BatchLoop::new();
        batch.push(
            1,
            LaneController::int_iir(&cfg, 64).unwrap(),
            Quantization::Floor,
        );
        let inputs = [LoopInputs {
            setpoint: &c,
            homogeneous: &zero,
            heterogeneous: &zero,
        }];
        let s = batch.run_summaries(&inputs, 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].samples, 0);
        assert_eq!(s[0].mean_period, 0.0);
        assert_eq!(s[0].required_margin(), 0.0);
        assert!(s[0].last_lro.is_nan());
        // Matches the trace-then-summarize reference on zero steps too.
        let t = batch.run(&inputs, 0).summarize();
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].samples, 0);
        assert!(t[0].last_lro.is_nan());
    }

    #[test]
    fn summaries_run_lands_on_its_own_span_and_shares_lane_counters() {
        let t = Telemetry::enabled();
        t.enable_tracing();
        let mut batch = BatchLoop::new().with_telemetry(t.clone());
        for _ in 0..BLOCK_WIDTH + 1 {
            batch.push(1, LaneController::free(64), Quantization::None);
        }
        let c = constant(64.0);
        let zero = constant(0.0);
        let inputs: Vec<LoopInputs<'_>> = (0..BLOCK_WIDTH + 1)
            .map(|_| LoopInputs {
                setpoint: &c,
                homogeneous: &zero,
                heterogeneous: &zero,
            })
            .collect();
        let _ = batch.run_summaries(&inputs, 40);
        let _ = batch.run(&inputs, 40);
        let snap = t.snapshot();
        assert_eq!(
            snap.counter("batch.controller_steps"),
            Some(((BLOCK_WIDTH + 1) * 80) as u64)
        );
        // Both engine spans name the tile length the run was cut into.
        let tile = ("tile".to_owned(), TILE.to_string());
        for name in ["engine.batch.summaries", "engine.batch"] {
            assert!(
                t.trace_spans()
                    .iter()
                    .any(|s| s.name == name && s.attrs.contains(&tile)),
                "{name} span with a tile attribute"
            );
        }
    }

    /// Enough same-scheme lanes to fill whole blocks *and* leave a tail:
    /// every one must match its scalar twin and the scalar-SoA engine.
    #[test]
    fn full_blocks_and_tail_match_scalar_engines_bitwise() {
        let cfg = IirConfig::paper();
        let c = constant(64.0);
        let e = |n: i64| 5.5 * (std::f64::consts::TAU * n as f64 / 90.0).sin();
        let steps = 600;
        // 2 full int-IIR blocks + 3-lane tail, plus a teatime block tail.
        let lanes = 2 * BLOCK_WIDTH + 3;
        let mut batch = BatchLoop::new();
        let mut scalar = BatchLoop::new();
        let mut mus: Vec<Box<dyn Fn(i64) -> f64>> = Vec::new();
        for k in 0..lanes {
            let m = k % 3;
            batch.push(
                m,
                LaneController::int_iir(&cfg, 64).unwrap(),
                Quantization::Floor,
            );
            scalar.push(
                m,
                LaneController::int_iir(&cfg, 64).unwrap(),
                Quantization::Floor,
            );
            mus.push(Box::new(step_at(10 + k as i64, k as f64 - 6.0)));
        }
        for k in 0..3 {
            batch.push(1, LaneController::teatime(64, 1.0), Quantization::Floor);
            scalar.push(1, LaneController::teatime(64, 1.0), Quantization::Floor);
            mus.push(Box::new(step_at(15, 2.0 * k as f64)));
        }
        let inputs: Vec<LoopInputs<'_>> = mus
            .iter()
            .map(|mu| LoopInputs {
                setpoint: &c,
                homogeneous: &e,
                heterogeneous: mu.as_ref(),
            })
            .collect();
        let got = batch.run(&inputs, steps);
        let want = scalar.run_scalar(&inputs, steps);
        assert_eq!(got, want, "blocked vs scalar-SoA full-trace");
        for (k, input) in inputs.iter().enumerate() {
            let m = if k < lanes { k % 3 } else { 1 };
            let ctrl = if k < lanes {
                IntIirControl::new(cfg.clone(), 64).unwrap().into()
            } else {
                crate::controller::Controller::teatime(64, 1.0)
            };
            let twin = reference(m, ctrl, Quantization::Floor, input, steps);
            assert_eq!(got.lane(k), twin, "lane {k} diverged from its twin");
        }
    }

    #[test]
    fn reset_reruns_identically() {
        let cfg = IirConfig::paper();
        let c = constant(64.0);
        let zero = constant(0.0);
        let mu = step_at(5, 3.0);
        let inputs = [LoopInputs {
            setpoint: &c,
            homogeneous: &zero,
            heterogeneous: &mu,
        }];
        let mut batch = BatchLoop::new();
        batch.push(
            1,
            LaneController::int_iir(&cfg, 64).unwrap(),
            Quantization::Floor,
        );
        let first = batch.run(&inputs, 200);
        batch.reset();
        let second = batch.run(&inputs, 200);
        assert_eq!(first, second);
    }

    /// Back-to-back runs without a reset must continue from the blocked
    /// engine's written-back controller state exactly like the scalar
    /// engine does from its in-place state.
    #[test]
    fn controller_state_write_back_chains_runs() {
        let cfg = IirConfig::paper();
        let c = constant(64.0);
        let e = |n: i64| 4.0 * (std::f64::consts::TAU * n as f64 / 70.0).sin();
        let zero = constant(0.0);
        let lanes = BLOCK_WIDTH + 1;
        let mut batch = BatchLoop::new();
        let mut scalar = BatchLoop::new();
        for _ in 0..lanes {
            batch.push(
                1,
                LaneController::float_iir(&cfg, 64.0).unwrap(),
                Quantization::None,
            );
            scalar.push(
                1,
                LaneController::float_iir(&cfg, 64.0).unwrap(),
                Quantization::None,
            );
        }
        let inputs: Vec<LoopInputs<'_>> = (0..lanes)
            .map(|_| LoopInputs {
                setpoint: &c,
                homogeneous: &e,
                heterogeneous: &zero,
            })
            .collect();
        let _ = batch.run(&inputs, 150);
        let _ = scalar.run_scalar(&inputs, 150);
        // Second leg: must pick up where the first left off, bit for bit.
        let got = batch.run(&inputs, 150);
        let want = scalar.run_scalar(&inputs, 150);
        assert_eq!(got, want);
    }

    #[test]
    fn faulted_lanes_match_faulted_discrete_loops_bitwise() {
        use crate::resilience::Resilience;
        use clock_faults::{FaultClass, FaultSchedule};

        let cfg = IirConfig::paper();
        let c = constant(64.0);
        let e = |n: i64| 8.0 * (std::f64::consts::TAU * n as f64 / 200.0).sin();
        let zero = constant(0.0);
        let steps = 3000;
        for class in FaultClass::ALL {
            let schedule = FaultSchedule::random(41, class, 4.0, steps as u64, 3);
            assert!(!schedule.is_empty(), "{}", class.label());
            for resilience in [Resilience::default(), Resilience::hardened(64.0)] {
                let inputs = LoopInputs {
                    setpoint: &c,
                    homogeneous: &e,
                    heterogeneous: &zero,
                };
                let want = DiscreteLoop::new(
                    1,
                    IntIirControl::new(cfg.clone(), 64).unwrap(),
                    Quantization::Floor,
                )
                .with_faults(schedule.clone())
                .with_resilience(resilience)
                .run(&inputs, steps);
                let mut batch = BatchLoop::new();
                batch.push_with(
                    1,
                    LaneController::int_iir(&cfg, 64).unwrap(),
                    Quantization::Floor,
                    schedule.clone(),
                    resilience,
                );
                let got = batch.run(std::slice::from_ref(&inputs), steps);
                let got = got.lane(0);
                for k in 0..steps {
                    assert_eq!(
                        got.tau[k].to_bits(),
                        want.tau[k].to_bits(),
                        "{} res={} k={k}",
                        class.label(),
                        resilience.canonical_id()
                    );
                    assert_eq!(got.lro[k].to_bits(), want.lro[k].to_bits());
                }
            }
        }
    }

    /// A faulted lane sandwiched between clean blockable lanes must not
    /// perturb them (and vice versa): the blocked engine pulls it onto the
    /// scalar path while the neighbours stay blocked.
    #[test]
    fn faulted_lane_between_blocked_lanes_stays_isolated() {
        use crate::resilience::Resilience;
        use clock_faults::{FaultClass, FaultSchedule};

        let cfg = IirConfig::paper();
        let c = constant(64.0);
        let e = |n: i64| 7.0 * (std::f64::consts::TAU * n as f64 / 130.0).sin();
        let zero = constant(0.0);
        let steps = 1200;
        let schedule = FaultSchedule::random(9, FaultClass::ClockGlitch, 6.0, steps as u64, 3);
        let mut batch = BatchLoop::new();
        let total = BLOCK_WIDTH + 3;
        let faulted_at = BLOCK_WIDTH / 2;
        for k in 0..total {
            if k == faulted_at {
                batch.push_with(
                    1,
                    LaneController::int_iir(&cfg, 64).unwrap(),
                    Quantization::Floor,
                    schedule.clone(),
                    Resilience::hardened(64.0),
                );
            } else {
                batch.push(
                    1,
                    LaneController::int_iir(&cfg, 64).unwrap(),
                    Quantization::Floor,
                );
            }
        }
        let inputs: Vec<LoopInputs<'_>> = (0..total)
            .map(|_| LoopInputs {
                setpoint: &c,
                homogeneous: &e,
                heterogeneous: &zero,
            })
            .collect();
        let got = batch.run(&inputs, steps);
        let clean_twin = reference(
            1,
            IntIirControl::new(cfg.clone(), 64).unwrap().into(),
            Quantization::Floor,
            &inputs[0],
            steps,
        );
        let faulted_twin = DiscreteLoop::new(
            1,
            IntIirControl::new(cfg.clone(), 64).unwrap(),
            Quantization::Floor,
        )
        .with_faults(schedule)
        .with_resilience(Resilience::hardened(64.0))
        .run(&inputs[faulted_at], steps);
        for k in 0..total {
            let want = if k == faulted_at {
                &faulted_twin
            } else {
                &clean_twin
            };
            assert_eq!(&got.lane(k), want, "lane {k} diverged");
        }
    }

    #[test]
    fn empty_schedule_and_default_resilience_stay_bit_identical_to_plain_push() {
        use crate::resilience::Resilience;
        use clock_faults::FaultSchedule;

        let cfg = IirConfig::paper();
        let c = constant(64.0);
        let e = |n: i64| 5.0 * (std::f64::consts::TAU * n as f64 / 120.0).sin();
        let mu = step_at(30, -6.0);
        let inputs = [
            LoopInputs {
                setpoint: &c,
                homogeneous: &e,
                heterogeneous: &mu,
            },
            LoopInputs {
                setpoint: &c,
                homogeneous: &e,
                heterogeneous: &mu,
            },
        ];
        let mut batch = BatchLoop::new();
        batch.push(
            1,
            LaneController::int_iir(&cfg, 64).unwrap(),
            Quantization::Floor,
        );
        batch.push_with(
            1,
            LaneController::int_iir(&cfg, 64).unwrap(),
            Quantization::Floor,
            FaultSchedule::new(3),
            Resilience::default(),
        );
        let tr = batch.run(&inputs, 600);
        assert_eq!(tr.lane(0), tr.lane(1));
    }

    #[test]
    fn concat_recombines_lane_chunks_exactly() {
        let cfg = IirConfig::paper();
        let c = constant(64.0);
        let e = |n: i64| 3.0 * (std::f64::consts::TAU * n as f64 / 55.0).sin();
        let steps = 300;
        let total = 11usize;
        let build = |range: std::ops::Range<usize>| {
            let mut b = BatchLoop::new();
            let mus: Vec<Box<dyn Fn(i64) -> f64>> = range
                .clone()
                .map(|k| Box::new(step_at(8, k as f64)) as Box<dyn Fn(i64) -> f64>)
                .collect();
            for k in range {
                let (m, q) = (k % 3, Quantization::Floor);
                b.push(m, LaneController::int_iir(&cfg, 64).unwrap(), q);
            }
            let inputs: Vec<LoopInputs<'_>> = mus
                .iter()
                .map(|mu| LoopInputs {
                    setpoint: &c,
                    homogeneous: &e,
                    heterogeneous: mu.as_ref(),
                })
                .collect();
            b.run(&inputs, steps)
        };
        let whole = build(0..total);
        let parts = [build(0..4), build(4..9), build(9..total)];
        let merged = BatchTrace::concat(&parts);
        assert_eq!(merged, whole);
        assert_eq!(merged.lanes(), total);
        assert_eq!(merged.steps(), steps);
    }

    /// Every unique input closure is called exactly once per row it can
    /// be read at — h/μ rows `−max_off ..= steps − 2`, set-point rows
    /// `0 .. steps`, each in ascending order, the same calls a
    /// period-by-period loop makes — across tile seams, on both sinks
    /// and with a static μ; `batch.input_samples` counts those calls.
    #[test]
    fn each_unique_closure_is_sampled_once_per_row() {
        use std::cell::RefCell;

        /// A closure that logs every row it is asked for.
        struct Logged(RefCell<Vec<i64>>);
        impl Logged {
            fn new() -> Logged {
                Logged(RefCell::new(Vec::new()))
            }
            fn f(&self, value: f64) -> impl Fn(i64) -> f64 + '_ {
                move |n| {
                    self.0.borrow_mut().push(n);
                    value + n as f64 * 1e-3
                }
            }
            fn take(&self) -> Vec<i64> {
                std::mem::take(&mut *self.0.borrow_mut())
            }
        }

        let steps = 2 * TILE + 3;
        let logs: Vec<Logged> = (0..5).map(|_| Logged::new()).collect();
        let (sp, e, mu_a, mu_b, e_b) = (
            logs[0].f(64.0),
            logs[1].f(0.0),
            logs[2].f(0.5),
            logs[3].f(-0.5),
            logs[4].f(0.25),
        );
        // Mixed m (max_off = 5), a faulted lane on the scalar path, two
        // full blocks and a tail; lanes share closures in a pattern.
        let mut batch = BatchLoop::new().with_telemetry(Telemetry::enabled());
        let lanes = 2 * BLOCK_WIDTH + 2;
        for k in 0..lanes {
            let faults = if k == 3 {
                clock_faults::FaultSchedule::random(
                    7,
                    clock_faults::FaultClass::ALL[0],
                    40.0,
                    steps as u64,
                    2,
                )
            } else {
                FaultSchedule::default()
            };
            batch.push_with(
                k % 4,
                LaneController::teatime(64, 1.0),
                Quantization::Floor,
                faults,
                Resilience::default(),
            );
        }
        let inputs: Vec<LoopInputs<'_>> = (0..lanes)
            .map(|k| LoopInputs {
                setpoint: &sp,
                homogeneous: if k % 3 == 0 { &e_b } else { &e },
                heterogeneous: if k % 2 == 0 { &mu_a } else { &mu_b },
            })
            .collect();
        let max_off = 3 + 2;
        let hmu_rows: Vec<i64> = (-max_off..=steps as i64 - 2).collect();
        let sp_rows: Vec<i64> = (0..steps as i64).collect();
        let samples = |batch: &BatchLoop| {
            batch
                .telemetry
                .snapshot()
                .counter("batch.input_samples")
                .unwrap_or(0)
        };

        let mut counted = 0;
        for traced in [true, false] {
            if traced {
                let _ = batch.run(&inputs, steps);
            } else {
                let _ = batch.run_summaries_after(&inputs, steps, TILE);
            }
            assert_eq!(logs[0].take(), sp_rows, "set-point rows (traced: {traced})");
            for log in &logs[1..] {
                assert_eq!(log.take(), hmu_rows, "h/mu rows (traced: {traced})");
            }
            counted += (4 * hmu_rows.len() + sp_rows.len()) as u64;
            assert_eq!(samples(&batch), counted, "counter (traced: {traced})");
        }

        // Static μ: the μ closures are never called and never counted.
        let mus: Vec<f64> = (0..lanes).map(|k| k as f64 * 0.1).collect();
        let _ = batch.run_summaries_static(&sp, &e, &mus, steps, 0);
        assert_eq!(logs[0].take(), sp_rows);
        assert_eq!(logs[1].take(), hmu_rows);
        for log in &logs[2..] {
            assert!(log.take().is_empty());
        }
        counted += (hmu_rows.len() + sp_rows.len()) as u64;
        assert_eq!(samples(&batch), counted);
    }

    #[test]
    fn telemetry_counts_lane_steps_and_block_shape() {
        let t = Telemetry::enabled();
        let mut batch = BatchLoop::new().with_telemetry(t.clone());
        // One full free-running block + a 3-lane tail.
        for _ in 0..BLOCK_WIDTH + 3 {
            batch.push(1, LaneController::free(64), Quantization::None);
        }
        let c = constant(64.0);
        let zero = constant(0.0);
        let inputs: Vec<LoopInputs<'_>> = (0..BLOCK_WIDTH + 3)
            .map(|_| LoopInputs {
                setpoint: &c,
                homogeneous: &zero,
                heterogeneous: &zero,
            })
            .collect();
        let _ = batch.run(&inputs, 50);
        let snap = t.snapshot();
        assert_eq!(
            snap.counter("batch.controller_steps"),
            Some(((BLOCK_WIDTH + 3) * 50) as u64)
        );
        assert_eq!(snap.counter("batch.blocks"), Some(1));
        assert_eq!(snap.counter("batch.scalar_tail_lanes"), Some(3));
    }
}
