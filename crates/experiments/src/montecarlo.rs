//! Monte Carlo statistical timing on the traceless lane-block path.
//!
//! A Monte Carlo *panel* samples thousands of process instances from a
//! seeded [`ProcessSpec`], maps each instance to one **lane** of the
//! blocked batch engine (its sampled static mismatch entering through
//! the heterogeneous input, exactly where the paper's distributed TDC
//! sensors would observe it), and steps all instances at once through
//! [`BatchLoop::run_summaries`] — the summary-only path that never
//! materializes a `BatchTrace`. Per-instance results come back as
//! 6-word [`LaneSummary`] values and fold into streaming statistics:
//! mean/σ via [`Welford`], quantiles via the telemetry
//! [`QuantileSketch`] whose deterministic `merge` recombines per-chunk
//! sketches in lane order, so the panel's numbers are identical for any
//! chunk size and any `REPRO_THREADS` worker count.
//!
//! Everything is a pure function of `(spec, seed, instance)`: the
//! sampler carries no RNG state, so panels are reproducible, cacheable
//! (the `ext-yield` experiment keys its cache on the distribution spec
//! + seed + engine fingerprint), and embarrassingly parallel.
//!
//! [`naive_summaries`](McPanel::naive_summaries) keeps the honest
//! parity reference alive: one scalar [`DiscreteLoop`] per instance,
//! full trace materialized, then summarized. Its summaries are
//! **bit-identical** to the traceless path (the differential suite pins
//! this), which is what makes the two *the same computation*, faster.
//! `BENCH_5`'s `mc-panel-naive` denominator is the heavier incumbent:
//! one full `System` event-loop run per instance (the
//! `runner::run_scheme` shape every per-point experiment used before
//! the batch engine existed).

use adaptive_clock::batch::{BatchLoop, LaneController, LaneSummary};
use adaptive_clock::controller::IirConfig;
use adaptive_clock::loopsim::{constant, DiscreteLoop, LoopInputs};
use adaptive_clock::tdc::Quantization;
use clock_telemetry::{QuantileSketch, Telemetry};
use variation::process::ProcessSpec;
use variation::spatial::Position;

use crate::batchrun::run_summary_chunks;

/// Control schemes a Monte Carlo panel sweeps (the closed-loop line-up
/// of the paper plus the free-running strawman).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// The paper's integer IIR controller.
    IntIir,
    /// The TEAtime bang-bang baseline.
    TeaTime,
    /// No feedback at all.
    Free,
}

/// Every scheme, in table order.
pub const SCHEMES: [Scheme; 3] = [Scheme::IntIir, Scheme::TeaTime, Scheme::Free];

impl Scheme {
    /// Table / cache-key label.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::IntIir => "IIR RO",
            Scheme::TeaTime => "TEAtime RO",
            Scheme::Free => "Free RO",
        }
    }

    /// Build the lane controller for a set-point.
    pub fn controller(&self, setpoint: i64) -> LaneController {
        match self {
            Scheme::IntIir => LaneController::int_iir(&IirConfig::paper(), setpoint)
                .expect("paper IIR gains are a valid configuration"),
            Scheme::TeaTime => LaneController::teatime(setpoint, 1.0),
            Scheme::Free => LaneController::free(setpoint),
        }
    }
}

/// One Monte Carlo panel: a process distribution, a seed, and the
/// workload every sampled instance runs.
#[derive(Debug, Clone, PartialEq)]
pub struct McPanel {
    /// Process distribution instances are drawn from.
    pub spec: ProcessSpec,
    /// Master seed; `(spec, seed, instance)` fully determines a draw.
    pub seed: u64,
    /// Sampled process instances (= lanes in the batch).
    pub instances: usize,
    /// Periods each instance is stepped.
    pub steps: usize,
    /// Lock-in periods excluded from the margin folds (instances are
    /// stepped from period 0; statistics cover `warmup..steps`).
    pub warmup: usize,
    /// Lanes per dispatch chunk (one chunk = one `BatchLoop` on one
    /// worker).
    pub chunk: usize,
    /// TDC sensor grid size; the loop observes the mean sampled offset
    /// over these sites.
    pub sensors: usize,
    /// Set-point `c` in stages.
    pub setpoint: i64,
    /// Clock-distribution delay `m` in periods.
    pub m: usize,
    /// Background HoDV amplitude in stages.
    pub amplitude: f64,
    /// Background HoDV period in clock periods.
    pub te_periods: f64,
}

impl McPanel {
    /// What each instance's sensors observe: the mean sampled static
    /// offset over the sensor grid, per instance. Pure in
    /// `(spec, seed)`, so any chunking sees identical values.
    pub fn sensed_offsets(&self) -> Vec<f64> {
        let sampler = self.spec.sampler(self.seed);
        let sites = Position::grid(self.sensors);
        (0..self.instances as u64)
            .map(|i| sampler.sensed_offset(i, &sites))
            .collect()
    }

    fn hodv(&self) -> impl Fn(i64) -> f64 + Sync + '_ {
        let (amp, te) = (self.amplitude, self.te_periods);
        move |n: i64| amp * (std::f64::consts::TAU * n as f64 / te).sin()
    }

    /// Run the panel through the traceless chunked path: per-instance
    /// [`LaneSummary`] values in instance order, bit-identical for any
    /// chunk size or worker count (and to
    /// [`naive_summaries`](Self::naive_summaries)).
    ///
    /// Counters `mc.samples`, `mc.batches` and `mc.summary_lane_steps`
    /// account the work; the block kernels land on the
    /// `engine.batch.summaries` span under `--profile`.
    pub fn summaries(&self, scheme: Scheme, telemetry: &Telemetry) -> Vec<LaneSummary> {
        let offsets = self.sensed_offsets();
        let setpoint = constant(self.setpoint as f64);
        let hodv = self.hodv();
        let out = run_summary_chunks(self.instances, self.chunk.max(1), telemetry, |r| {
            let mut batch = BatchLoop::new();
            for _ in r.clone() {
                batch.push(
                    self.m,
                    scheme.controller(self.setpoint),
                    Quantization::Floor,
                );
            }
            // The sampled offsets are step-invariant, so they ride the
            // static-μ fast path: no per-lane closure, no μ ring traffic,
            // bit-identical to per-lane `constant(offset)` closures.
            batch.run_summaries_static(&setpoint, &hodv, &offsets[r], self.steps, self.warmup)
        });
        telemetry.counter("mc.samples").add(self.instances as u64);
        telemetry
            .counter("mc.batches")
            .add(self.instances.div_ceil(self.chunk.max(1)) as u64);
        telemetry
            .counter("mc.summary_lane_steps")
            .add((self.instances * self.steps) as u64);
        out
    }

    /// The naive per-instance parity reference: one scalar
    /// [`DiscreteLoop`] per instance, full
    /// [`LoopTrace`](adaptive_clock::loopsim::LoopTrace) materialized,
    /// then folded into a summary with the same arithmetic as
    /// [`BatchTrace::summarize`](adaptive_clock::batch::BatchTrace::summarize)
    /// — bit-identical
    /// to [`summaries`](Self::summaries), as the differential suite
    /// pins. (`BENCH_5`'s speedup denominator is the still-heavier
    /// pre-batch `System` harness; this path exists to anchor the
    /// bit-parity claim.)
    pub fn naive_summaries(&self, scheme: Scheme) -> Vec<LaneSummary> {
        let offsets = self.sensed_offsets();
        let setpoint = constant(self.setpoint as f64);
        let hodv = self.hodv();
        offsets
            .iter()
            .map(|&off| {
                let mu = constant(off);
                let inputs = LoopInputs {
                    setpoint: &setpoint,
                    homogeneous: &hodv,
                    heterogeneous: &mu,
                };
                let trace = DiscreteLoop::new(
                    self.m,
                    scheme.controller(self.setpoint),
                    Quantization::Floor,
                )
                .run(&inputs, self.steps);
                if self.steps == 0 {
                    return LaneSummary {
                        samples: 0,
                        mean_period: 0.0,
                        worst_negative_error: 0.0,
                        worst_positive_error: 0.0,
                        last_lro: f64::NAN,
                    };
                }
                let samples = self.steps - self.warmup;
                let mut wne = 0.0f64;
                let mut wpe = 0.0f64;
                let mut sum = 0.0f64;
                for n in self.warmup..self.steps {
                    wne = wne.max(trace.delta[n]);
                    wpe = wpe.max(-trace.delta[n]);
                    sum += trace.lro[n];
                }
                LaneSummary {
                    samples: samples as u64,
                    mean_period: sum / samples as f64,
                    worst_negative_error: wne,
                    worst_positive_error: wpe,
                    last_lro: trace.lro[self.steps - 1],
                }
            })
            .collect()
    }
}

/// Welford's online mean/variance accumulator with Chan's parallel
/// merge — the streaming first two moments of a Monte Carlo statistic.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Fold in one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Merge another accumulator (Chan et al.'s pairwise update).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        self.m2 += other.m2 + d * d * (self.n as f64 * other.n as f64 / n as f64);
        self.mean += d * (other.n as f64 / n as f64);
        self.n = n;
    }

    /// Samples folded in.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0 while empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample standard deviation (0 with fewer than two samples).
    pub fn sigma(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        (self.m2 / (self.n - 1) as f64).sqrt()
    }
}

/// Streaming panel statistics over per-instance summaries: required
/// safety margin and mean period first moments plus a margin quantile
/// sketch.
#[derive(Debug, Clone)]
pub struct McStats {
    /// Instances folded in.
    pub samples: u64,
    /// Required safety margin (`worst_negative_error`) moments.
    pub margin: Welford,
    /// Mean adapted period moments.
    pub period: Welford,
    /// Margin quantiles (deterministically mergeable).
    pub margin_sketch: QuantileSketch,
}

impl Default for McStats {
    fn default() -> Self {
        Self::new()
    }
}

impl McStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        McStats {
            samples: 0,
            margin: Welford::new(),
            period: Welford::new(),
            margin_sketch: QuantileSketch::new(),
        }
    }

    /// Fold a slice of per-instance summaries (in instance order).
    pub fn push_all(&mut self, summaries: &[LaneSummary]) {
        for s in summaries {
            self.samples += 1;
            self.margin.push(s.required_margin());
            self.period.push(s.mean_period);
            self.margin_sketch.record(s.required_margin());
        }
    }

    /// Merge chunk statistics (in chunk order for bit-stable moments;
    /// the sketch merge is order-invariant either way).
    pub fn merge(&mut self, other: &McStats) {
        self.samples += other.samples;
        self.margin.merge(&other.margin);
        self.period.merge(&other.period);
        self.margin_sketch.merge(&other.margin_sketch);
    }

    /// Timing yield at deployed margin `m`: the fraction of instances
    /// whose required margin is at most `m`, over the sketch's retained
    /// population (exact while the panel fits the sketch capacity).
    pub fn yield_at(&self, summaries: &[LaneSummary], m: f64) -> f64 {
        if summaries.is_empty() {
            return 1.0;
        }
        summaries
            .iter()
            .filter(|s| s.required_margin() <= m)
            .count() as f64
            / summaries.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::set_threads;

    fn panel() -> McPanel {
        McPanel {
            spec: ProcessSpec::paper(),
            seed: 0x000C_1A05,
            instances: 37,
            steps: 120,
            warmup: 30,
            chunk: 8,
            sensors: 4,
            setpoint: 64,
            m: 1,
            amplitude: 12.8,
            te_periods: 200.0,
        }
    }

    #[test]
    fn traceless_panel_is_bit_identical_to_naive_per_instance_baseline() {
        let p = panel();
        let t = Telemetry::disabled();
        for scheme in SCHEMES {
            let fast = p.summaries(scheme, &t);
            let naive = p.naive_summaries(scheme);
            assert_eq!(fast.len(), p.instances);
            for (i, (a, b)) in fast.iter().zip(&naive).enumerate() {
                assert_eq!(a.samples, b.samples, "{} lane {i}", scheme.label());
                for (fa, fb, what) in [
                    (a.mean_period, b.mean_period, "mean_period"),
                    (
                        a.worst_negative_error,
                        b.worst_negative_error,
                        "worst_negative_error",
                    ),
                    (
                        a.worst_positive_error,
                        b.worst_positive_error,
                        "worst_positive_error",
                    ),
                    (a.last_lro, b.last_lro, "last_lro"),
                ] {
                    assert_eq!(
                        fa.to_bits(),
                        fb.to_bits(),
                        "{} lane {i} {what}: {fa} vs {fb}",
                        scheme.label()
                    );
                }
            }
        }
    }

    /// FNV-1a-style fold over every bit of every summary, in lane order.
    fn digest(h: u64, summaries: &[LaneSummary]) -> u64 {
        summaries.iter().fold(h, |h, s| {
            [
                s.samples,
                s.mean_period.to_bits(),
                s.worst_negative_error.to_bits(),
                s.worst_positive_error.to_bits(),
                s.last_lro.to_bits(),
            ]
            .iter()
            .fold(h, |h, &w| (h ^ w).wrapping_mul(0x0000_0100_0000_01B3))
        })
    }

    /// The traceless path's exact output for a small 3-scheme panel,
    /// pinned bit for bit. The digest was recorded from the period-major
    /// engine that preceded the tile-major one; the rendered `ext-yield`
    /// table rounds to 4 decimals, so this is what catches a last-bit
    /// change in any summary word.
    #[test]
    fn three_scheme_panel_digest_is_pinned() {
        let t = Telemetry::disabled();
        // Long enough to span several engine tiles, with a warmup that
        // ends mid-tile; 37 lanes leave a scalar tail in every chunk.
        let p = McPanel {
            steps: 1000,
            warmup: 130,
            ..panel()
        };
        let h = SCHEMES.iter().fold(0xCBF2_9CE4_8422_2325, |h, &scheme| {
            digest(h, &p.summaries(scheme, &t))
        });
        assert_eq!(h, PANEL_DIGEST, "panel digest {h:#018x}");
    }

    const PANEL_DIGEST: u64 = 0x266c_9e7b_effb_a250;

    #[test]
    fn panel_is_invariant_under_chunking_and_workers() {
        let t = Telemetry::disabled();
        let mut base = panel();
        let want = base.summaries(Scheme::IntIir, &t);
        for chunk in [1, 5, 37, 64] {
            for workers in [Some(1), Some(3)] {
                base.chunk = chunk;
                set_threads(workers);
                let got = base.summaries(Scheme::IntIir, &t);
                set_threads(None);
                assert_eq!(got, want, "chunk={chunk} workers={workers:?}");
            }
        }
    }

    #[test]
    fn counters_account_samples_batches_and_lane_steps() {
        let t = Telemetry::enabled();
        let p = panel();
        let _ = p.summaries(Scheme::Free, &t);
        let snap = t.snapshot();
        assert_eq!(snap.counter("mc.samples"), Some(37));
        assert_eq!(snap.counter("mc.batches"), Some(5));
        assert_eq!(snap.counter("mc.summary_lane_steps"), Some(37 * 120));
    }

    #[test]
    fn welford_merge_matches_sequential_fold() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 97) as f64 / 9.7).collect();
        let mut whole = Welford::new();
        xs.iter().for_each(|&x| whole.push(x));
        let mut merged = Welford::new();
        for chunk in xs.chunks(111) {
            let mut part = Welford::new();
            chunk.iter().for_each(|&x| part.push(x));
            merged.merge(&part);
        }
        assert_eq!(whole.count(), merged.count());
        assert!((whole.mean() - merged.mean()).abs() < 1e-12);
        assert!((whole.sigma() - merged.sigma()).abs() < 1e-12);
    }

    #[test]
    fn stats_chunk_merge_is_deterministic() {
        let p = panel();
        let t = Telemetry::disabled();
        let summaries = p.summaries(Scheme::IntIir, &t);
        let fold = |chunk: usize| {
            let mut acc = McStats::new();
            for part in summaries.chunks(chunk) {
                let mut s = McStats::new();
                s.push_all(part);
                acc.merge(&s);
            }
            (
                acc.samples,
                acc.margin_sketch.quantile(0.5),
                acc.margin_sketch.quantile(0.99),
            )
        };
        // Quantiles come from the order-invariant sketch merge, so any
        // equal-chunk recombination answers identically; a whole-panel
        // fold agrees because nothing compacts at this size.
        let mut whole = McStats::new();
        whole.push_all(&summaries);
        assert_eq!(fold(8), fold(37));
        assert_eq!(fold(8).1, whole.margin_sketch.quantile(0.5));
        assert_eq!(whole.samples, p.instances as u64);
        assert!(whole.margin.sigma() > 0.0, "process spread must show up");
    }

    #[test]
    fn sampled_instances_actually_differ() {
        let p = panel();
        let offsets = p.sensed_offsets();
        let spread = offsets.iter().cloned().fold(f64::MIN, f64::max)
            - offsets.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread > 0.5, "spread {spread}");
        let t = Telemetry::disabled();
        let s = p.summaries(Scheme::IntIir, &t);
        let margins: Vec<f64> = s.iter().map(|x| x.required_margin()).collect();
        assert!(margins.iter().any(|&m| m != margins[0]));
    }
}
