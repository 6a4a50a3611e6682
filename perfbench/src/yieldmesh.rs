//! `yield-mesh`: the engines at scale, no cache.
//!
//! One operation is a round of seeded Monte Carlo timing-yield panels —
//! the three `ext-yield` schemes at process-σ scales {0.5, 1, 2}, each
//! 4096 instances × 8000 periods on the traceless blocked-lane path,
//! folded into `McStats` and a yield curve — followed by seeded
//! `Mesh::run`s on a 16-domain ring, a 16×16 grid and a 64×64 grid built
//! from `DomainBank` + `Topology`. The seed picks the process draw, each
//! mesh's scenario and target domain, and the static variation.

use std::collections::BTreeMap;
use std::time::Instant;

use adaptive_clock::bank::DomainBank;
use adaptive_clock::batch::LaneSummary;
use adaptive_clock::cdn::Cdn;
use adaptive_clock::controller::{IirConfig, IntIirControl};
use adaptive_clock::resilience::Resilience;
use adaptive_clock::tdc::Quantization;
use clock_faults::FaultSchedule;
use clock_mesh::{Mesh, MeshRun, Scenario, Topology};
use clock_telemetry::Telemetry;
use experiments::config::PaperParams;
use experiments::ext_yield::{MARGIN_GRID, SENSORS};
use experiments::montecarlo::{McPanel, McStats, SCHEMES};
use variation::process::ProcessSpec;

use crate::harness::{
    closed_loop, timed, timed_setup, Checks, Config, OpCost, Outcome, Phase, Size,
};
use crate::spans::{self, Trace};
use crate::sys::SplitMix;

/// Process-σ scales of the yield panels (as `ext-yield` full).
const SIGMA_SCALES: [f64; 3] = [0.5, 1.0, 2.0];
/// Lanes per dispatch chunk (as `ext-yield`).
const CHUNK: usize = 128;
/// Background HoDV period in clock periods (as `ext-yield`).
const TE_PERIODS: f64 = 200.0;
/// Leading lanes of every panel re-run on the naive reference path.
const CHECKED_LANES: usize = 16;

struct Sizes {
    instances: usize,
    steps: usize,
    meshes: &'static [(&'static str, usize, usize)],
    mesh_steps: usize,
}

fn sizes(size: Size) -> Sizes {
    match size {
        Size::Full => Sizes {
            instances: 4096,
            steps: 8000,
            meshes: &[
                ("ring-16", 16, 1),
                ("grid-16x16", 16, 16),
                ("grid-64x64", 64, 64),
            ],
            mesh_steps: 500,
        },
        Size::Tiny => Sizes {
            instances: 40,
            steps: 1500,
            meshes: &[("ring-4", 4, 1), ("grid-3x3", 3, 3)],
            mesh_steps: 400,
        },
    }
}

/// A built mesh and the scenario the seed gave it.
struct MeshCase {
    name: &'static str,
    mesh: Option<Mesh>,
    scenario: Scenario,
}

struct State {
    panels: Vec<McPanel>,
    meshes: Vec<MeshCase>,
    mesh_steps: usize,
    build_s: f64,
}

fn panels(cfg: &Config, s: &Sizes) -> Vec<McPanel> {
    let params = PaperParams::default();
    let seed = SplitMix::new(cfg.seed, 0x1E1D).next_u64();
    SIGMA_SCALES
        .iter()
        .map(|&scale| McPanel {
            spec: ProcessSpec::paper().scaled(scale),
            seed,
            instances: s.instances,
            steps: s.steps,
            warmup: params.warmup.min(s.steps / 2),
            chunk: CHUNK,
            sensors: SENSORS,
            setpoint: params.setpoint,
            m: 1,
            amplitude: params.amplitude(),
            te_periods: TE_PERIODS,
        })
        .collect()
}

fn build_mesh(cols: usize, rows: usize, rng: &mut SplitMix) -> (Mesh, Scenario) {
    let c = PaperParams::default().setpoint;
    let cdn = Cdn::new(c as f64).expect("one set-point period is a valid CDN delay");
    let topo = if rows == 1 {
        Topology::ring(cols, cdn)
    } else {
        Topology::grid(cols, rows, cdn)
    };
    let n = topo.domains();
    let mut bank = DomainBank::new();
    for d in 0..n {
        let ctrl = IntIirControl::new(IirConfig::paper(), c)
            .expect("paper IIR gains are a valid configuration");
        bank.push_with(
            1,
            ctrl,
            Quantization::Floor,
            FaultSchedule::default(),
            Resilience::hardened(c as f64),
        );
        // Static variation in [-2.5, 2.5] stages, inside the boundary
        // tolerance so nominal skews never quarantine.
        bank.set_variation(d, rng.below(11) as f64 / 2.0 - 2.5);
    }
    let domain = rng.below(n);
    let scenario = match rng.below(3) {
        0 => Scenario::DomainFailure {
            domain,
            at: 150,
            stages: 16.0,
        },
        1 => Scenario::Byzantine {
            domain,
            at: 120,
            seed: rng.next_u64(),
        },
        _ => Scenario::PowerEvent {
            at: 200,
            droop: 10.0,
            duration: 120,
        },
    };
    let mesh = Mesh::new(bank, topo, c as f64)
        .expect("bank is built to the topology's size")
        .with_boundary(8.0, 2.0, 3);
    (mesh, scenario)
}

fn setup(cfg: &Config) -> State {
    let s = sizes(cfg.size);
    let mut rng = SplitMix::new(cfg.seed, 0x6A15);
    let t0 = Instant::now();
    let meshes = s
        .meshes
        .iter()
        .map(|&(name, cols, rows)| {
            let (mesh, scenario) = build_mesh(cols, rows, &mut rng);
            MeshCase {
                name,
                mesh: Some(mesh),
                scenario,
            }
        })
        .collect();
    let build_s = t0.elapsed().as_secs_f64();
    let mut state = State {
        panels: panels(cfg, &s),
        meshes,
        mesh_steps: s.mesh_steps,
        build_s,
    };
    // Warm-up: every scheme on a reduced panel and every mesh for a
    // short horizon, so first-touch costs land in set-up.
    for scheme in SCHEMES {
        let mut warm = state.panels[0].clone();
        warm.instances = warm.instances.min(1024);
        warm.steps = warm.steps.min(2000);
        warm.warmup = warm.warmup.min(warm.steps / 2);
        std::hint::black_box(warm.summaries(scheme, &Telemetry::disabled()));
    }
    for case in &mut state.meshes {
        if let Some(mesh) = case.mesh.as_mut() {
            std::hint::black_box(mesh.run(&case.scenario, state.mesh_steps / 4));
            mesh.reset();
        }
    }
    state
}

fn digest_summaries(h: u64, summaries: &[LaneSummary]) -> u64 {
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

fn same_bits(a: &LaneSummary, b: &LaneSummary) -> bool {
    a.samples == b.samples
        && a.mean_period.to_bits() == b.mean_period.to_bits()
        && a.worst_negative_error.to_bits() == b.worst_negative_error.to_bits()
        && a.worst_positive_error.to_bits() == b.worst_positive_error.to_bits()
        && a.last_lro.to_bits() == b.last_lro.to_bits()
}

fn mesh_finite(run: &MeshRun) -> bool {
    run.domains.iter().all(|d| {
        let r = &d.report;
        r.dropped == 0
            && [
                r.violation_rate,
                r.worst_excursion,
                r.mean_time_to_relock,
                r.max_time_to_relock,
            ]
            .iter()
            .all(|x| x.is_finite())
    }) && run.boundaries.iter().all(|b| {
        let r = &b.report;
        [r.worst_skew, r.min_slack, r.mean_metastability_risk]
            .iter()
            .all(|x| x.is_finite())
    })
}

/// Work and timings of one round.
#[derive(Default)]
struct Round {
    ms: f64,
    summaries_s: f64,
    fold_s: f64,
    mesh_s: f64,
    lane_steps: u64,
    domain_steps: u64,
    boundary_violations: u64,
    digest: u64,
}

fn round(
    state: &mut State,
    telemetry: &Telemetry,
    checks: &mut Checks,
    reference: &mut Option<Vec<Vec<LaneSummary>>>,
) -> Round {
    let mut r = Round {
        digest: 0xCBF2_9CE4_8422_2325,
        ..Round::default()
    };
    let mut firsts = Vec::new();
    for panel in &state.panels {
        for scheme in SCHEMES {
            let t0 = Instant::now();
            let summaries = {
                let _scope = telemetry.scope("mc.summaries");
                panel.summaries(scheme, telemetry)
            };
            let t1 = Instant::now();
            let yields: Vec<f64> = {
                let _scope = telemetry.scope("mc.fold");
                let mut stats = McStats::new();
                for part in summaries.chunks(CHUNK) {
                    let mut s = McStats::new();
                    s.push_all(part);
                    stats.merge(&s);
                }
                MARGIN_GRID
                    .iter()
                    .map(|&m| stats.yield_at(&summaries, m))
                    .collect()
            };
            let t2 = Instant::now();
            r.summaries_s += (t1 - t0).as_secs_f64();
            r.fold_s += (t2 - t1).as_secs_f64();
            r.lane_steps += (panel.instances * panel.steps) as u64;
            checks.check(
                summaries.len() == panel.instances
                    && yields.iter().all(|y| (0.0..=1.0).contains(y)),
                || format!("{} panel returned a malformed summary set", scheme.label()),
            );
            r.digest = digest_summaries(r.digest, &summaries);
            firsts.push(summaries[..CHECKED_LANES.min(summaries.len())].to_vec());
        }
    }
    reference.get_or_insert(firsts);
    for case in &mut state.meshes {
        let Some(mut mesh) = case.mesh.take() else {
            continue;
        };
        mesh = mesh.with_telemetry(telemetry.clone());
        mesh.reset();
        let before = mesh.bank().total_steps();
        let t0 = Instant::now();
        let run = {
            let _scope = telemetry.scope("mesh.run");
            mesh.run(&case.scenario, state.mesh_steps)
        };
        r.mesh_s += t0.elapsed().as_secs_f64();
        r.domain_steps += mesh.bank().total_steps() - before;
        r.boundary_violations += run.boundary_violations;
        checks.check(mesh_finite(&run), || {
            format!(
                "{} mesh report is not finite under {}",
                case.name,
                case.scenario.label()
            )
        });
        drop(run);
        case.mesh = Some(mesh);
    }
    r.ms = (r.summaries_s + r.fold_s + r.mesh_s) * 1e3;
    r
}

fn phase(
    state: &mut State,
    traced: bool,
    seconds: f64,
    checks: &mut Checks,
    counters: &mut BTreeMap<String, u64>,
    reference: &mut Option<Vec<Vec<LaneSummary>>>,
) -> Phase {
    let mut layers = BTreeMap::new();
    let mut phase = closed_loop(seconds, || {
        let telemetry = if traced {
            spans::traced_telemetry()
        } else {
            Telemetry::disabled()
        };
        let (r, cost) = timed(|| round(state, &telemetry, checks, reference));
        checks.same_counter(counters, "mc.lane_steps", r.lane_steps);
        checks.same_counter(counters, "mc.summary_digest", r.digest);
        checks.same_counter(counters, "mesh.domain_steps", r.domain_steps);
        checks.same_counter(counters, "mesh.boundary_violations", r.boundary_violations);
        if traced {
            let trace = Trace::new(telemetry.trace_spans());
            let snap = telemetry.snapshot();
            checks.check(
                snap.counter("mc.summary_lane_steps") == Some(r.lane_steps)
                    && snap.counter("mesh.boundary_violations") == Some(r.boundary_violations),
                || "program counters disagree with the benchmark's work accounting".to_owned(),
            );
            spans::add(&mut layers, "mc.summaries_s", trace.total_s("mc.summaries"));
            spans::add(&mut layers, "mc.fold_s", trace.total_s("mc.fold"));
            spans::add(
                &mut layers,
                "batch.dispatch_s",
                trace.total_s("batch.dispatch"),
            );
            spans::add(
                &mut layers,
                "batch.recombine_s",
                trace.total_s("batch.recombine"),
            );
            spans::add(&mut layers, "mesh.run_s", trace.total_s("mesh.run"));
            spans::add(&mut layers, "mc.lane_steps", r.lane_steps as f64);
            spans::add(&mut layers, "mesh.domain_steps", r.domain_steps as f64);
            spans::add(
                &mut layers,
                "mesh.boundary_violations",
                r.boundary_violations as f64,
            );
        }
        // The round's own checks and digests stay out of its time.
        OpCost { ms: r.ms, ..cost }
    });
    let n = phase.op_ms.len() as f64;
    let mut layers: BTreeMap<String, f64> = layers.into_iter().map(|(k, v)| (k, v / n)).collect();
    if traced {
        let per = |a: &str, b: &str| {
            layers.get(a).copied().unwrap_or(0.0)
                / layers.get(b).copied().unwrap_or(0.0).max(1e-300)
        };
        let mc_rate = per("mc.lane_steps", "mc.summaries_s");
        let mesh_rate = per("mesh.domain_steps", "mesh.run_s");
        layers.insert("mc.lane_steps_per_s".to_owned(), mc_rate);
        layers.insert("mc.ns_per_lane_step".to_owned(), 1e9 / mc_rate.max(1e-300));
        layers.insert("mesh.domain_steps_per_s".to_owned(), mesh_rate);
        layers.insert(
            "mesh.ns_per_domain_step".to_owned(),
            1e9 / mesh_rate.max(1e-300),
        );
        layers.insert("mesh.build_s".to_owned(), state.build_s);
    }
    phase.layers = layers;
    phase
}

/// Run the workload.
///
/// # Errors
///
/// None today; the signature matches the other workloads.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let (setup, mut state) = timed_setup(|_| Ok(setup(cfg)))?;
    let mut checks = Checks::default();
    let mut counters = BTreeMap::new();
    let mut reference = None;
    let (untraced, traced) = if cfg.traced {
        let half = cfg.seconds / 2.0;
        let u = phase(
            &mut state,
            false,
            half,
            &mut checks,
            &mut counters,
            &mut reference,
        );
        let t = phase(
            &mut state,
            true,
            half,
            &mut checks,
            &mut counters,
            &mut reference,
        );
        (u, Some(t))
    } else {
        let u = phase(
            &mut state,
            false,
            cfg.seconds,
            &mut checks,
            &mut counters,
            &mut reference,
        );
        (u, None)
    };
    // Reference check: the leading lanes of every panel, re-run one
    // scalar loop per instance, must match the traceless summaries bit
    // for bit.
    let reference = reference.unwrap_or_default();
    let mut i = 0;
    for panel in &state.panels {
        for scheme in SCHEMES {
            let mut small = panel.clone();
            small.instances = CHECKED_LANES.min(panel.instances);
            let naive = small.naive_summaries(scheme);
            let ok = reference.get(i).is_some_and(|fast| {
                fast.len() == naive.len() && fast.iter().zip(&naive).all(|(a, b)| same_bits(a, b))
            });
            checks.check(ok, || {
                format!(
                    "{} traceless summaries differ from the naive reference at sigma scale {}",
                    scheme.label(),
                    panel.spec.canonical_id()
                )
            });
            i += 1;
        }
    }
    Ok(Outcome {
        setup,
        untraced,
        traced,
        counters,
        checks,
    })
}
