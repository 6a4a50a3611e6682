//! End-to-end tests of the extension features working together: the
//! pipeline error model, the AIMD set-point tuner, generator jitter and
//! multi-domain partitioning — all driven through public APIs only.

use adaptive_clock::pipeline::PipelineModel;
use adaptive_clock::setpoint::{SetPointTuner, TunerConfig};
use adaptive_clock::system::{Scheme, SystemBuilder};
use variation::sources::Harmonic;

/// The tuner, fed by the pipeline model's violation verdicts on real runs,
/// converges to a set-point that clears the true requirement with small
/// margin — closing the loop the paper's §V sketches.
#[test]
fn tuner_converges_against_pipeline_ground_truth() {
    let c_req = 64i64;
    let window = 150usize;
    let model = PipelineModel::new(c_req as f64, 6);
    let mut tuner = SetPointTuner::new(
        90,
        TunerConfig {
            window,
            backoff: 2,
            probe: 1,
            floor: 48,
            ceiling: 128,
        },
    );
    let hodv = Harmonic::new(3.2, 64.0 * 60.0, 0.0);
    let mut trajectory = Vec::new();
    for _ in 0..60 {
        let c_now = tuner.setpoint();
        let run = SystemBuilder::new(c_now)
            .cdn_delay(c_req as f64)
            .scheme(Scheme::iir_paper())
            .build()
            .expect("valid")
            .run(&hodv, window + 100)
            .skip(100);
        let report = model.evaluate(&run);
        if report.violations > 0 {
            tuner.observe(true);
        } else {
            for _ in 0..window {
                tuner.observe(false);
            }
        }
        trajectory.push(c_now);
    }
    let tail: Vec<i64> = trajectory.iter().rev().take(10).copied().collect();
    let avg = tail.iter().sum::<i64>() as f64 / tail.len() as f64;
    assert!(
        (c_req as f64..c_req as f64 + 8.0).contains(&avg),
        "tuner should hunt just above c_req = {c_req}, got {avg}"
    );
    // and it must have actually descended from the conservative start
    assert!(trajectory[0] == 90 && avg < 75.0);
}

/// Jitter sets a margin floor that adaptation cannot reclaim, and the floor
/// adds (approximately in quadrature, but we only check monotonicity and
/// dominance) to the tracking residual.
#[test]
fn jitter_floor_composes_with_tracking_residual() {
    let hodv = Harmonic::new(12.8, 64.0 * 100.0, 0.0);
    let margin = |sigma: f64| -> f64 {
        let mut b = SystemBuilder::new(64)
            .cdn_delay(64.0)
            .scheme(Scheme::iir_paper());
        if sigma > 0.0 {
            b = b.jitter(sigma, 77);
        }
        b.build()
            .expect("valid")
            .run(&hodv, 6000)
            .skip(1000)
            .worst_negative_error()
    };
    let m0 = margin(0.0);
    let m2 = margin(2.0);
    assert!(
        m2 > m0 + 3.0,
        "σ=2 jitter must add a real floor: {m0} -> {m2}"
    );
    // Jitter hurts the margined *fixed* clock identically — it is not an
    // adaptive-clock weakness.
    let fixed = SystemBuilder::new(64)
        .scheme(Scheme::Fixed)
        .jitter(2.0, 77)
        .build()
        .expect("valid")
        .run(&hodv, 6000)
        .skip(1000);
    assert!(
        fixed.worst_negative_error() > 12.8,
        "fixed pays HoDV + jitter"
    );
}

/// Partitioning a die into smaller adaptive domains buys droop tolerance —
/// the clock-domain-size conclusion, end to end.
#[test]
fn finer_partitioning_reduces_worst_margin() {
    let c = 64.0;
    let droop_train = variation::stochastic::SsnBursts::new(
        5,
        variation::stochastic::SsnConfig {
            mean_gap: 150.0 * c,
            amplitude: (0.1 * c, 0.15 * c),
            duration: (8.0 * c, 12.0 * c),
            horizon: 2.0e6,
        },
    );
    // Every domain of a partitioning has the same CDN delay and sees the
    // same droop train, so its worst margin is any one domain's margin.
    let margin = |t_clk: f64| {
        SystemBuilder::new(64)
            .cdn_delay(t_clk)
            .scheme(Scheme::iir_paper())
            .build()
            .expect("valid")
            .run(&droop_train, 10_000)
            .skip(500)
            .worst_negative_error()
    };
    let mc = margin(4.0 * c);
    let mf = margin(0.25 * c);
    assert!(
        mf < 0.75 * mc,
        "fine partitioning margin {mf} vs monolithic {mc}"
    );
}

/// The paper's concluding claim, end to end with a *dynamic heterogeneous*
/// variation: a workload hotspot migrating between cores. The free RO
/// (point sensor at the generator) is blind to it; the IIR loop follows
/// whichever TDC is currently worst.
#[test]
fn migrating_hotspot_defeats_free_ro_but_not_iir() {
    use adaptive_clock::system::SensorSpec;
    use variation::spatial::{MovingHotspot, Position};

    let c = 64i64;
    let hotspot = MovingHotspot::new(
        vec![
            Position::new(0.1, 0.1),
            Position::new(0.9, 0.1),
            Position::new(0.9, 0.9),
            Position::new(0.1, 0.9),
        ],
        2_000.0 * c as f64, // slow migration (thermal time constants)
        -10.0,              // 10 stages slower under the hotspot
        0.2,
    );
    let sensors: Vec<SensorSpec> = Position::grid(9)
        .into_iter()
        .map(|p| SensorSpec {
            offset: 0.0,
            dynamic: Some(std::sync::Arc::new(hotspot.at_position(p))),
            noise: None,
        })
        .collect();
    let run_for = |scheme: Scheme| {
        SystemBuilder::new(c)
            .cdn_delay(c as f64)
            .scheme(scheme)
            .sensors(sensors.clone())
            .build()
            .expect("valid")
            .run(&variation::sources::NoVariation, 16_000)
            .skip(2000)
    };
    let free = run_for(Scheme::FreeRo { extra_length: 0 });
    let iir = run_for(Scheme::iir_paper());
    let m_free = free.worst_negative_error();
    let m_iir = iir.worst_negative_error();
    assert!(
        m_free > 8.0,
        "free RO must pay ≈ the hotspot depth, got {m_free}"
    );
    assert!(
        m_iir < 0.35 * m_free,
        "IIR must track the migrating worst sensor: {m_iir} vs {m_free}"
    );
    // the IIR's RO stretches and relaxes as the hotspot passes sensors
    let lro: Vec<f64> = iir.samples().iter().map(|s| s.lro).collect();
    let lro_span =
        lro.iter().cloned().fold(f64::MIN, f64::max) - lro.iter().cloned().fold(f64::MAX, f64::min);
    assert!(lro_span > 2.0, "RO length must breathe with the hotspot");
}

/// The throughput story is self-consistent: at each scheme's
/// experiment-reported optimum, the pipeline model really does retire more
/// work per unit time for the adaptive clock.
#[test]
fn throughput_optimum_is_real() {
    use experiments::config::PaperParams;
    use experiments::ext_throughput;
    use experiments::runner::RunCtx;
    let r = ext_throughput::run(&RunCtx::new(PaperParams::default()), 8);
    let iir = r.series_named("IIR RO").expect("series");
    let fixed = r.series_named("Fixed clock").expect("series");
    let (iir_c, iir_t) = ext_throughput::optimum(iir);
    let (fixed_c, fixed_t) = ext_throughput::optimum(fixed);
    assert!(iir_t > fixed_t, "IIR optimum {iir_t} vs fixed {fixed_t}");
    assert!(iir_c < fixed_c, "IIR runs closer to the requirement");
    // Re-run the winning configuration independently and confirm the score.
    let model = PipelineModel::new(64.0, 8);
    let hodv = Harmonic::new(12.8, 64.0 * 50.0, 0.0);
    let run = SystemBuilder::new(iir_c as i64)
        .cdn_delay(64.0)
        .scheme(Scheme::iir_paper())
        .build()
        .expect("valid")
        .run(&hodv, 7000)
        .skip(1000);
    let score = model.evaluate(&run).relative_throughput(64.0);
    assert!(
        (score - iir_t).abs() < 0.02,
        "independent re-run {score} vs experiment {iir_t}"
    );
}
