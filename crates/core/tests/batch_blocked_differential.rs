//! Differential proptest suite for the lane-block batch engine: for
//! arbitrary lane counts (including non-multiples of the block width),
//! mixed control schemes, random fault schedules and resilience configs,
//! every lane of a [`BatchLoop::run`] must be **bit-identical** to its
//! scalar [`DiscreteLoop`] twin — and the whole trace bit-identical to the
//! pre-block scalar SoA engine (`run_scalar`).
//!
//! Lane configurations are derived from a single proptest-drawn seed via
//! splitmix64, so each case is reproducible from `(lanes, seed)` alone and
//! the generator stays in lock-step between the batch under test and the
//! scalar twins.

use adaptive_clock::batch::{
    BatchLoop, BatchTrace, LaneController, LaneSummary, BLOCK_WIDTH, TILE,
};
use adaptive_clock::controller::IirConfig;
use adaptive_clock::loopsim::{constant, step_at, DiscreteLoop, LoopInputs, LoopTrace};
use adaptive_clock::resilience::Resilience;
use adaptive_clock::tdc::Quantization;
use clock_faults::{FaultClass, FaultSchedule};
use proptest::prelude::*;

const STEPS: usize = 400;
const SETPOINT: i64 = 64;

type MuFn = Box<dyn Fn(i64) -> f64>;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything that defines one lane, derived deterministically from the
/// per-lane mix word so the batch lane and its scalar twin are built from
/// the same recipe.
struct LaneSpec {
    m: usize,
    quant: Quantization,
    scheme: usize,
    faults: FaultSchedule,
    resilience: Resilience,
    /// `None` = the shared zero closure (exercises closure dedup);
    /// `Some(k)` = a private `step_at` mismatch step of height `k`.
    mu_step: Option<f64>,
}

impl LaneSpec {
    fn derive(seed: u64, lane: usize) -> LaneSpec {
        let mut s = seed ^ (lane as u64).wrapping_mul(0xA076_1D64_78BD_642F);
        let mix = splitmix(&mut s);
        let scheme = (mix % 4) as usize;
        let m = ((mix >> 8) % 3) as usize;
        let quant = match (mix >> 16) % 3 {
            0 => Quantization::Floor,
            1 => Quantization::Nearest,
            _ => Quantization::None,
        };
        // Roughly a quarter of the lanes carry live fault schedules, so
        // most cases mix blocked and scalar-fallback lanes.
        let faulted = (mix >> 24).is_multiple_of(4);
        let faults = if faulted {
            let class = FaultClass::ALL[((mix >> 32) % FaultClass::ALL.len() as u64) as usize];
            FaultSchedule::random(splitmix(&mut s), class, 30.0, STEPS as u64, 3)
        } else {
            FaultSchedule::default()
        };
        let resilience = if (mix >> 40) & 1 == 1 {
            Resilience::hardened(SETPOINT as f64)
        } else {
            Resilience::default()
        };
        let mu_step = ((mix >> 48) & 1 == 1).then_some(((mix >> 50) % 13) as f64 - 6.0);
        LaneSpec {
            m,
            quant,
            scheme,
            faults,
            resilience,
            mu_step,
        }
    }

    fn controller(&self) -> LaneController {
        let cfg = IirConfig::paper();
        match self.scheme {
            0 => LaneController::int_iir(&cfg, SETPOINT).expect("paper config"),
            1 => LaneController::float_iir(&cfg, SETPOINT as f64).expect("paper config"),
            2 => LaneController::teatime(SETPOINT, 1.0),
            _ => LaneController::free(SETPOINT),
        }
    }
}

/// Run the whole batch through both batch engines and collect per-lane
/// scalar `DiscreteLoop` twins, all from the same derived specs.
fn run_all(lanes: usize, seed: u64) -> (BatchTrace, BatchTrace, Vec<LoopTrace>) {
    let specs: Vec<LaneSpec> = (0..lanes).map(|k| LaneSpec::derive(seed, k)).collect();
    let sp = constant(SETPOINT as f64);
    let e = |n: i64| 7.3 * (std::f64::consts::TAU * n as f64 / 41.0).sin();
    let zero = constant(0.0);
    let mus: Vec<Option<MuFn>> = specs
        .iter()
        .map(|spec| spec.mu_step.map(|amp| Box::new(step_at(25, amp)) as MuFn))
        .collect();
    let inputs: Vec<LoopInputs<'_>> = mus
        .iter()
        .map(|mu| LoopInputs {
            setpoint: &sp,
            homogeneous: &e,
            heterogeneous: mu.as_deref().unwrap_or(&zero),
        })
        .collect();

    let mut blocked = BatchLoop::new();
    let mut scalar_soa = BatchLoop::new();
    for spec in &specs {
        blocked.push_with(
            spec.m,
            spec.controller(),
            spec.quant,
            spec.faults.clone(),
            spec.resilience,
        );
        scalar_soa.push_with(
            spec.m,
            spec.controller(),
            spec.quant,
            spec.faults.clone(),
            spec.resilience,
        );
    }
    let got = blocked.run(&inputs, STEPS);
    let want_soa = scalar_soa.run_scalar(&inputs, STEPS);
    let twins: Vec<LoopTrace> = specs
        .iter()
        .zip(&inputs)
        .map(|(spec, input)| {
            DiscreteLoop::new(spec.m, spec.controller(), spec.quant)
                .with_faults(spec.faults.clone())
                .with_resilience(spec.resilience)
                .run(input, STEPS)
        })
        .collect();
    (got, want_soa, twins)
}

fn assert_lane_bits(got: &LoopTrace, want: &LoopTrace, lane: usize) {
    for n in 0..STEPS {
        assert_eq!(
            got.tau[n].to_bits(),
            want.tau[n].to_bits(),
            "lane {lane} tau[{n}]: {} vs {}",
            got.tau[n],
            want.tau[n]
        );
        assert_eq!(
            got.delta[n].to_bits(),
            want.delta[n].to_bits(),
            "lane {lane} delta[{n}]"
        );
        assert_eq!(
            got.lro[n].to_bits(),
            want.lro[n].to_bits(),
            "lane {lane} lro[{n}]"
        );
    }
}

/// Run the same derived batch through the traceless summary path,
/// folding only periods `warmup..STEPS`.
fn run_all_summaries(lanes: usize, seed: u64, warmup: usize) -> Vec<LaneSummary> {
    let specs: Vec<LaneSpec> = (0..lanes).map(|k| LaneSpec::derive(seed, k)).collect();
    let sp = constant(SETPOINT as f64);
    let e = |n: i64| 7.3 * (std::f64::consts::TAU * n as f64 / 41.0).sin();
    let zero = constant(0.0);
    let mus: Vec<Option<MuFn>> = specs
        .iter()
        .map(|spec| spec.mu_step.map(|amp| Box::new(step_at(25, amp)) as MuFn))
        .collect();
    let inputs: Vec<LoopInputs<'_>> = mus
        .iter()
        .map(|mu| LoopInputs {
            setpoint: &sp,
            homogeneous: &e,
            heterogeneous: mu.as_deref().unwrap_or(&zero),
        })
        .collect();
    let mut batch = BatchLoop::new();
    for spec in &specs {
        batch.push_with(
            spec.m,
            spec.controller(),
            spec.quant,
            spec.faults.clone(),
            spec.resilience,
        );
    }
    batch.run_summaries_after(&inputs, STEPS, warmup)
}

/// Assert that a traceless lane summary carries the same bits as the
/// `metrics::margin` arithmetic computed from the lane's full trace: the
/// required margin is the `fold(0.0, max)` of `c − τ` (which the trace
/// records as `δ`), the worst positive error the fold of `−δ`, and the
/// mean period the step-ordered sum of `l_RO` divided by the step count.
fn assert_summary_matches_trace(got: &LaneSummary, trace: &BatchTrace, lane: usize) {
    let view = trace.lane(lane);
    let margin = view.delta.iter().fold(0.0, |acc: f64, &d| acc.max(d));
    let wpe = view.delta.iter().fold(0.0, |acc: f64, &d| acc.max(-d));
    let mean = view.lro.iter().sum::<f64>() / STEPS as f64;
    assert_eq!(got.samples, STEPS as u64, "lane {lane} samples");
    assert_eq!(
        got.required_margin().to_bits(),
        margin.to_bits(),
        "lane {lane} required margin: {} vs {}",
        got.required_margin(),
        margin
    );
    assert_eq!(
        got.worst_positive_error.to_bits(),
        wpe.to_bits(),
        "lane {lane} worst positive error"
    );
    assert_eq!(
        got.mean_period.to_bits(),
        mean.to_bits(),
        "lane {lane} mean period: {} vs {}",
        got.mean_period,
        mean
    );
    assert_eq!(
        got.last_lro.to_bits(),
        view.lro[STEPS - 1].to_bits(),
        "lane {lane} last l_RO"
    );
}

proptest! {
    /// Arbitrary lane counts and seeds: the blocked engine's every lane is
    /// bit-identical to its scalar `DiscreteLoop` twin and the whole trace
    /// equals the scalar SoA engine's.
    #[test]
    fn blocked_lanes_bit_identical_to_scalar_twins(
        lanes in 1usize..21,
        seed in 0u64..u64::MAX,
    ) {
        let (got, want_soa, twins) = run_all(lanes, seed);
        prop_assert_eq!(&got, &want_soa, "blocked vs scalar-SoA full trace");
        for (lane, twin) in twins.iter().enumerate() {
            assert_lane_bits(&got.lane(lane), twin, lane);
        }
    }

    /// Traceless summaries: for arbitrary lane counts, schemes, and fault
    /// schedules, `run_summaries` is bit-identical both to the engine's
    /// own trace-then-summarize fold (`BatchTrace::summarize`) and to the
    /// `metrics::margin` arithmetic recomputed from the full trace.
    #[test]
    fn traceless_summaries_bit_identical_to_margin_from_trace(
        lanes in 1usize..21,
        seed in 0u64..u64::MAX,
    ) {
        let (trace, _, _) = run_all(lanes, seed);
        let got = run_all_summaries(lanes, seed, 0);
        prop_assert_eq!(&got, &trace.summarize(), "run_summaries vs BatchTrace::summarize");
        for (lane, summary) in got.iter().enumerate() {
            assert_summary_matches_trace(summary, &trace, lane);
        }
    }

    /// The warmup window: folding only periods `warmup..STEPS` on the
    /// traceless path is bit-identical to `summarize_after` on the full
    /// trace, for arbitrary warmup lengths.
    #[test]
    fn warmup_skipping_summaries_match_trace_fold(
        lanes in 1usize..13,
        warmup in 0usize..STEPS,
        seed in 0u64..u64::MAX,
    ) {
        let (trace, _, _) = run_all(lanes, seed);
        let got = run_all_summaries(lanes, seed, warmup);
        prop_assert_eq!(&got, &trace.summarize_after(warmup),
            "run_summaries_after vs BatchTrace::summarize_after (warmup {})", warmup);
    }

    /// Lane counts straddling multiples of the block width, with uniform
    /// schemes to maximize how many full blocks form: tails of every
    /// length against their twins.
    #[test]
    fn block_tails_of_every_length_stay_exact(
        extra in 0usize..(BLOCK_WIDTH + 1),
        seed in 0u64..u64::MAX,
    ) {
        let lanes = 2 * BLOCK_WIDTH + extra;
        let (got, want_soa, twins) = run_all(lanes, seed);
        prop_assert_eq!(&got, &want_soa);
        for (lane, twin) in twins.iter().enumerate() {
            assert_lane_bits(&got.lane(lane), twin, lane);
        }
    }
}

/// One deterministic heavy case beyond the proptest horizon: every scheme,
/// every quantization, every fault class, both resilience configs, at a
/// lane count that forms several full blocks per scheme plus tails.
#[test]
fn kitchen_sink_case_is_bit_exact() {
    let (got, want_soa, twins) = run_all(41, 0xDEAD_BEEF_CAFE_F00D);
    assert_eq!(got, want_soa);
    for (lane, twin) in twins.iter().enumerate() {
        assert_lane_bits(&got.lane(lane), twin, lane);
    }
    // The same kitchen sink through the traceless path: every summary
    // bit-identical to the margin arithmetic over the full trace.
    let summaries = run_all_summaries(41, 0xDEAD_BEEF_CAFE_F00D, 0);
    assert_eq!(summaries, got.summarize());
    for (lane, summary) in summaries.iter().enumerate() {
        assert_summary_matches_trace(summary, &got, lane);
    }
    // And once more with a warmup window.
    let warm = run_all_summaries(41, 0xDEAD_BEEF_CAFE_F00D, 100);
    assert_eq!(warm, got.summarize_after(100));
}

// --- Tile edges -----------------------------------------------------------
//
// The engine runs tile-major: `TILE` periods per block at a time, with the
// input tables carrying the last `max_off − 1` rows across each seam. The
// cases below put every seam the engine has under test: horizons around
// one and two tiles and shorter than the deepest loop delay, warmups that
// end mid-tile and on a tile boundary, blocks whose columns have
// different `m`, per-lane μ closures, and a chained second run.

/// How a tile-edge case builds its lanes.
#[derive(Debug, Clone, Copy)]
struct EdgeShape {
    lanes: usize,
    seed: u64,
    /// `Some(scheme)`: every lane clean and of that scheme, `m = k mod 5`,
    /// so full blocks form and each block's columns have different `m`.
    /// `None`: the derived mixed specs (faults, hardening, tails).
    uniform: Option<usize>,
    /// One distinct μ closure per lane instead of mostly shared ones.
    distinct_mu: bool,
}

impl EdgeShape {
    fn specs(&self) -> Vec<LaneSpec> {
        (0..self.lanes)
            .map(|k| {
                let mut spec = LaneSpec::derive(self.seed, k);
                if let Some(scheme) = self.uniform {
                    spec.scheme = scheme;
                    spec.m = k % 5;
                    spec.quant = Quantization::Floor;
                    spec.faults = FaultSchedule::default();
                    spec.resilience = Resilience::default();
                }
                spec
            })
            .collect()
    }

    fn mus(&self, specs: &[LaneSpec]) -> Vec<Option<MuFn>> {
        specs
            .iter()
            .enumerate()
            .map(|(k, spec)| {
                if self.distinct_mu {
                    let (amp, per) = (0.5 + k as f64 / 7.0, 13.0 + k as f64);
                    Some(Box::new(move |n: i64| {
                        amp * (std::f64::consts::TAU * n as f64 / per).sin()
                    }) as MuFn)
                } else {
                    spec.mu_step.map(|amp| Box::new(step_at(25, amp)) as MuFn)
                }
            })
            .collect()
    }
}

fn batch_of(specs: &[LaneSpec]) -> BatchLoop {
    let mut batch = BatchLoop::new();
    for spec in specs {
        batch.push_with(
            spec.m,
            spec.controller(),
            spec.quant,
            spec.faults.clone(),
            spec.resilience,
        );
    }
    batch
}

/// The margin fold of a scalar twin's trace over `warmup..`.
fn twin_summary(trace: &LoopTrace, warmup: usize) -> LaneSummary {
    let steps = trace.lro.len();
    let (mut wne, mut wpe, mut sum) = (0.0f64, 0.0f64, 0.0f64);
    for n in warmup..steps {
        wne = wne.max(trace.delta[n]);
        wpe = wpe.max(-trace.delta[n]);
        sum += trace.lro[n];
    }
    let samples = steps - warmup;
    LaneSummary {
        samples: samples as u64,
        mean_period: sum / samples as f64,
        worst_negative_error: wne,
        worst_positive_error: wpe,
        last_lro: trace.lro[steps - 1],
    }
}

fn assert_summary_bits(got: &LaneSummary, want: &LaneSummary, what: &str) {
    assert_eq!(got.samples, want.samples, "{what}: samples");
    for (a, b, field) in [
        (got.mean_period, want.mean_period, "mean_period"),
        (
            got.worst_negative_error,
            want.worst_negative_error,
            "worst_negative_error",
        ),
        (
            got.worst_positive_error,
            want.worst_positive_error,
            "worst_positive_error",
        ),
        (got.last_lro, want.last_lro, "last_lro"),
    ] {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: {field}: {a} vs {b}");
    }
}

/// Run `legs` back to back (each `(steps, warmup)`) on one traced batch,
/// one traceless batch and per-lane `DiscreteLoop` twins, asserting every
/// leg bit for bit on both sinks.
fn check_edges(shape: EdgeShape, legs: &[(usize, usize)]) {
    let specs = shape.specs();
    let sp = constant(SETPOINT as f64);
    let e = |n: i64| 7.3 * (std::f64::consts::TAU * n as f64 / 41.0).sin();
    let zero = constant(0.0);
    let mus = shape.mus(&specs);
    let inputs: Vec<LoopInputs<'_>> = mus
        .iter()
        .map(|mu| LoopInputs {
            setpoint: &sp,
            homogeneous: &e,
            heterogeneous: mu.as_deref().unwrap_or(&zero),
        })
        .collect();
    let mut traced = batch_of(&specs);
    let mut traceless = batch_of(&specs);
    let mut twins: Vec<DiscreteLoop> = specs
        .iter()
        .map(|spec| {
            DiscreteLoop::new(spec.m, spec.controller(), spec.quant)
                .with_faults(spec.faults.clone())
                .with_resilience(spec.resilience)
        })
        .collect();
    for (leg, &(steps, warmup)) in legs.iter().enumerate() {
        let got = traced.run(&inputs, steps);
        let sums = traceless.run_summaries_after(&inputs, steps, warmup);
        for (k, twin) in twins.iter_mut().enumerate() {
            let want = twin.run(&inputs[k], steps);
            let view = got.lane(k);
            for n in 0..steps {
                for (a, b, sig) in [
                    (view.tau[n], want.tau[n], "tau"),
                    (view.delta[n], want.delta[n], "delta"),
                    (view.lro[n], want.lro[n], "lro"),
                ] {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{shape:?} leg {leg} ({steps} steps) lane {k} {sig}[{n}]: {a} vs {b}"
                    );
                }
            }
            assert_summary_bits(
                &sums[k],
                &twin_summary(&want, warmup),
                &format!("{shape:?} leg {leg} ({steps} steps, warmup {warmup}) lane {k}"),
            );
        }
    }
}

/// Horizons that put the last tile seam everywhere it can fall, plus
/// horizons shorter than the deepest loop delay (`m + 2` = 6 at `m = 4`).
fn edge_horizon(pick: usize) -> usize {
    match pick {
        0 => TILE - 1,
        1 => TILE,
        2 => TILE + 1,
        3 => 2 * TILE + 3,
        p => p - 3, // 1 ..= 5: inside the pre-start window
    }
}

/// A warmup for `steps`: zero, mid-tile, or exactly on a tile boundary.
fn edge_warmup(steps: usize, pick: usize) -> usize {
    let w = match pick {
        0 => 0,
        1 => TILE / 2 + 1,
        2 => TILE,
        _ => steps / 3,
    };
    if w < steps {
        w
    } else {
        steps - 1
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every horizon and warmup seam, on uniform blocks with mixed `m`
    /// and on mixed fault/tail batches, with shared or per-lane μ.
    #[test]
    fn tile_edges_match_scalar_twins_on_both_sinks(
        lanes in 1usize..14,
        seed in 0u64..u64::MAX,
        horizon in 0usize..9,
        warm in 0usize..4,
        scheme in 0usize..5,
        distinct_mu in 0usize..2,
    ) {
        let steps = edge_horizon(horizon);
        let shape = EdgeShape {
            lanes,
            seed,
            uniform: (scheme < 4).then_some(scheme),
            distinct_mu: distinct_mu == 1,
        };
        check_edges(shape, &[(steps, edge_warmup(steps, warm))]);
    }

    /// A chained second run picks up the written-back controller state:
    /// both legs straddle tile seams differently.
    #[test]
    fn chained_runs_across_tile_seams_match_scalar_twins(
        lanes in 1usize..14,
        seed in 0u64..u64::MAX,
        first in 0usize..9,
        second in 0usize..9,
        scheme in 0usize..5,
    ) {
        let shape = EdgeShape {
            lanes,
            seed,
            uniform: (scheme < 4).then_some(scheme),
            distinct_mu: seed & 1 == 1,
        };
        let (a, b) = (edge_horizon(first), edge_horizon(second));
        check_edges(shape, &[(a, edge_warmup(a, 1)), (b, edge_warmup(b, 2))]);
    }
}

/// The deterministic corners, independent of the proptest draw: every
/// scheme on full mixed-`m` blocks at each seam horizon, with a warmup
/// on the first tile boundary and per-lane μ closures.
#[test]
fn every_scheme_at_every_seam_is_bit_exact() {
    for scheme in 0..4 {
        for horizon in 0..9 {
            let steps = edge_horizon(horizon);
            let shape = EdgeShape {
                lanes: 2 * BLOCK_WIDTH + 1,
                seed: 0x7117_E5EA_u64 + scheme as u64,
                uniform: Some(scheme),
                distinct_mu: true,
            };
            check_edges(
                shape,
                &[
                    (steps, edge_warmup(steps, 2)),
                    (TILE + 1, edge_warmup(TILE + 1, 1)),
                ],
            );
        }
    }
}
