//! Differential suite pinning the fused, sharded `Mesh::run` to the
//! two-pass engine it replaced.
//!
//! [`oracle`] is that engine, kept verbatim: per period, one pass over
//! every link in link order (boundary monitor + coupling sum), then one
//! pass stepping every domain through the whole-bank `BankRunner`. It
//! carries its own copy of the boundary monitor as it was (one `exp` per
//! sample), so the risk memo in `clock_metrics` is checked here too.
//!
//! The engine under test must agree with it **bit for bit** — every
//! τ/δ/l_RO sample, every boundary report, the violation, injection and
//! re-lock totals, and the per-domain step counters — on ring, grid,
//! tree and hand-wired topologies with zero, multi-period and asymmetric
//! CDNs, mixed clean/faulted/hardened domains, all four scenarios, and
//! 1, 2 and 3 workers (meshes large enough to shard, split unevenly).

use std::sync::Mutex;

use adaptive_clock::bank::DomainBank;
use adaptive_clock::cdn::Cdn;
use adaptive_clock::controller::{
    Controller, FloatIir, FreeRunning, IirConfig, IntIirControl, TeaTime,
};
use adaptive_clock::resilience::Resilience;
use adaptive_clock::tdc::Quantization;
use adaptive_clock::threads::set_threads;
use clock_faults::{FaultClass, FaultSchedule};
use clock_mesh::{Mesh, MeshRun, Scenario, Topology};
use clock_telemetry::Telemetry;

use proptest::prelude::*;

const SETPOINT: i64 = 64;

/// The worker count is process-wide; runs that set it take this lock.
static WORKERS: Mutex<()> = Mutex::new(());

/// The mesh's tunables, shared by the oracle and the engine under test.
#[derive(Debug, Clone, Copy)]
struct Params {
    setpoint: f64,
    coupling: f64,
    tolerance: f64,
    sync_window: f64,
    quarantine_after: usize,
    margin: f64,
    lock_tolerance: f64,
    lock_run: usize,
}

/// The two-pass mesh engine, as it stood before the fused rewrite.
mod oracle {
    use adaptive_clock::bank::DomainBank;
    use clock_faults::{FaultEvent, FaultKind, FaultSchedule};
    use clock_mesh::{BoundaryOutcome, DomainOutcome, MeshRun, Scenario, Topology};
    use clock_metrics::{metastability_risk, violation_report, BoundaryReport};

    use super::Params;

    /// The boundary monitor before the risk memo: `exp` per sample.
    #[derive(Debug, Clone)]
    pub struct BoundaryMonitor {
        tolerance: f64,
        window: f64,
        quarantine_after: usize,
        samples: usize,
        violations: usize,
        consecutive: usize,
        worst_skew: f64,
        min_slack: f64,
        risk_sum: f64,
        quarantined_at: Option<u64>,
    }

    impl BoundaryMonitor {
        pub fn new(tolerance: f64, window: f64, quarantine_after: usize) -> Self {
            BoundaryMonitor {
                tolerance,
                window,
                quarantine_after,
                samples: 0,
                violations: 0,
                consecutive: 0,
                worst_skew: 0.0,
                min_slack: f64::INFINITY,
                risk_sum: 0.0,
                quarantined_at: None,
            }
        }

        pub fn observe(&mut self, n: u64, skew: f64) -> bool {
            if self.quarantined_at.is_some() {
                return false;
            }
            self.samples += 1;
            let magnitude = skew.abs();
            let violation = !magnitude.is_finite() || magnitude > self.tolerance;
            let slack = if magnitude.is_finite() {
                if magnitude > self.worst_skew {
                    self.worst_skew = magnitude;
                }
                (self.tolerance - magnitude).max(0.0)
            } else {
                0.0
            };
            if slack < self.min_slack {
                self.min_slack = slack;
            }
            self.risk_sum += metastability_risk(slack, self.window);
            if violation {
                self.violations += 1;
                self.consecutive += 1;
                if self.quarantine_after > 0 && self.consecutive >= self.quarantine_after {
                    self.quarantined_at = Some(n);
                }
            } else {
                self.consecutive = 0;
            }
            violation
        }

        pub fn quarantined(&self) -> bool {
            self.quarantined_at.is_some()
        }

        pub fn report(&self) -> BoundaryReport {
            BoundaryReport {
                samples: self.samples,
                violations: self.violations,
                worst_skew: self.worst_skew,
                min_slack: if self.min_slack.is_finite() {
                    self.min_slack
                } else {
                    0.0
                },
                mean_metastability_risk: if self.samples > 0 {
                    self.risk_sum / self.samples as f64
                } else {
                    0.0
                },
                quarantined_at: self.quarantined_at,
            }
        }
    }

    fn byzantine_word(i: i64, setpoint: f64, seed: u64) -> f64 {
        let x = (i as u64)
            .wrapping_add(seed)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        setpoint * 1.5 + ((x >> 58) as f64) / 4.0 - 8.0
    }

    /// `Mesh::run` of the two-pass engine over `bank` wired by `topo`.
    pub fn run(
        bank: &mut DomainBank,
        topo: &Topology,
        p: &Params,
        scenario: &Scenario,
        steps: usize,
    ) -> MeshRun {
        let ndom = bank.len();
        let links = topo.links().to_vec();

        let mut saved: Option<(usize, FaultSchedule)> = None;
        match *scenario {
            Scenario::DomainFailure { domain, at, stages } => {
                let mut composed = bank.faults(domain).clone();
                composed.push(FaultEvent {
                    at,
                    duration: 1,
                    kind: FaultKind::RoStageFailure { stages },
                });
                saved = Some((domain, bank.faults(domain).clone()));
                bank.set_faults(domain, composed);
            }
            Scenario::Byzantine { domain, at, seed } => {
                let mut composed = bank.faults(domain).clone();
                for k in 0..3u64 {
                    composed.push(FaultEvent {
                        at: at + 350 * k,
                        duration: 1,
                        kind: FaultKind::SeuLroWord {
                            bit: 3 + ((seed >> (8 * k)) % 16) as u32,
                        },
                    });
                }
                saved = Some((domain, bank.faults(domain).clone()));
                bank.set_faults(domain, composed);
            }
            Scenario::Nominal | Scenario::PowerEvent { .. } => {}
        }

        let byz = match *scenario {
            Scenario::Byzantine { domain, at, seed } => Some((domain, at as i64, seed)),
            _ => None,
        };
        let e_at = |i: i64| -> f64 {
            if let Scenario::PowerEvent {
                at,
                droop,
                duration,
            } = *scenario
            {
                if i >= at as i64 && i < (at + duration) as i64 {
                    return -droop;
                }
            }
            0.0
        };

        let mm: Vec<i64> = (0..ndom).map(|d| (bank.m(d) + 2) as i64).collect();
        let vars: Vec<f64> = (0..ndom).map(|d| bank.variation(d)).collect();
        let has_in: Vec<bool> = (0..ndom).map(|d| topo.in_degree(d) > 0).collect();
        let delays: Vec<i64> = links
            .iter()
            .map(|l| l.cdn.whole_periods_at(p.setpoint) as i64)
            .collect();
        let mut monitors: Vec<BoundaryMonitor> = links
            .iter()
            .map(|_| BoundaryMonitor::new(p.tolerance, p.sync_window, p.quarantine_after))
            .collect();

        let setpoint = p.setpoint;
        let coupling = p.coupling;
        let mut tau = vec![Vec::with_capacity(steps); ndom];
        let mut delta = vec![Vec::with_capacity(steps); ndom];
        let mut lro = vec![Vec::with_capacity(steps); ndom];
        let mut inject = vec![0.0f64; ndom];
        let mut boundary_violations = 0u64;

        let mut runner = bank.runner();
        for n in 0..steps as i64 {
            for (l, link) in links.iter().enumerate() {
                if monitors[l].quarantined() {
                    continue;
                }
                let i = n - 1 - delays[l];
                let advertised = match byz {
                    Some((bd, bat, seed)) if link.from == bd && i >= bat => {
                        byzantine_word(i, setpoint, seed)
                    }
                    _ => runner.lro(link.from, i),
                };
                let skew = advertised - runner.lro(link.to, n - 1);
                if monitors[l].observe(n as u64, skew) {
                    boundary_violations += 1;
                }
                if !monitors[l].quarantined() {
                    inject[link.to] += coupling * skew;
                }
            }
            for d in 0..ndom {
                let gen = n - mm[d];
                let mut mu = vars[d];
                if has_in[d] {
                    mu += inject[d];
                    inject[d] = 0.0;
                }
                let out = runner.step(d, n, setpoint, e_at(gen), e_at(n - 1), mu);
                tau[d].push(out.tau);
                delta[d].push(out.delta);
                lro[d].push(out.lro);
            }
        }
        let injected = runner.injected_before(steps as u64);
        let relocks = runner.relocks();
        drop(runner);

        if let Some((domain, schedule)) = saved {
            bank.set_faults(domain, schedule);
        }

        let domains = (0..ndom)
            .map(|d| {
                let report =
                    violation_report(setpoint, &tau[d], p.margin, p.lock_tolerance, p.lock_run);
                DomainOutcome {
                    tau: std::mem::take(&mut tau[d]),
                    delta: std::mem::take(&mut delta[d]),
                    lro: std::mem::take(&mut lro[d]),
                    report,
                }
            })
            .collect();
        let boundaries = links
            .iter()
            .zip(&monitors)
            .map(|(link, mon)| BoundaryOutcome {
                from: link.from,
                to: link.to,
                report: mon.report(),
            })
            .collect();
        MeshRun {
            domains,
            boundaries,
            boundary_violations,
            injected,
            relocks,
        }
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn below(s: &mut u64, n: u64) -> u64 {
    splitmix(s) % n
}

/// A domain of any scheme, CDN depth and quantization; clean, faulted or
/// hardened (or both).
fn push_domain(bank: &mut DomainBank, s: &mut u64, steps: usize) {
    let cfg = IirConfig::paper();
    let controller: Controller = match below(s, 4) {
        0 | 1 => IntIirControl::new(cfg, SETPOINT).unwrap().into(),
        2 => FloatIir::from_config(&cfg, SETPOINT as f64).unwrap().into(),
        _ => {
            if below(s, 2) == 0 {
                TeaTime::new(SETPOINT).into()
            } else {
                FreeRunning::new(SETPOINT).into()
            }
        }
    };
    let quant = match below(s, 3) {
        0 => Quantization::Floor,
        1 => Quantization::Nearest,
        _ => Quantization::None,
    };
    let faults = if below(s, 3) == 0 {
        let class = FaultClass::ALL[below(s, FaultClass::ALL.len() as u64) as usize];
        FaultSchedule::random(splitmix(s), class, 20.0, steps as u64, 2)
    } else {
        FaultSchedule::default()
    };
    let resilience = if below(s, 2) == 0 {
        Resilience::hardened(SETPOINT as f64)
    } else {
        Resilience::default()
    };
    let m = below(s, 3) as usize;
    let d = bank.push_with(m, controller, quant, faults, resilience);
    bank.set_variation(d, below(s, 13) as f64 / 2.0 - 3.0);
}

/// A boundary CDN of `k` quarter set-point periods (0 = abutting).
fn quarter_cdn(k: u64) -> Cdn {
    Cdn::new(k as f64 * SETPOINT as f64 / 4.0).unwrap()
}

/// One generated mesh configuration: a bank, its topology, the tunables
/// and the scenario.
struct Case {
    bank: DomainBank,
    topo: Topology,
    params: Params,
    scenario: Scenario,
    steps: usize,
    label: String,
}

impl Case {
    /// Derive a configuration of `domains` domains from `seed`.
    fn derive(seed: u64, domains: usize, steps: usize) -> Case {
        let mut s = seed;
        let s = &mut s;
        // Uniform CDNs of 0, 1 or 3 periods, or per-link asymmetric ones.
        let cdn_kind = below(s, 4);
        let uniform = quarter_cdn([0, 4, 12, 4][cdn_kind as usize]);
        let kind = below(s, 4);
        let mut topo = match kind {
            0 => Topology::ring(domains, uniform),
            1 => {
                // The squarest grid: the largest divisor up to √domains.
                let rows = (1..=domains)
                    .filter(|r| domains.is_multiple_of(*r) && r * r <= domains)
                    .max()
                    .unwrap_or(1);
                Topology::grid(domains / rows, rows, uniform)
            }
            2 => Topology::tree(domains, 1 + below(s, 3) as usize, uniform),
            _ => Topology::new(domains),
        };
        if kind == 3 && domains >= 2 {
            // Hand-wired: random directed links, parallel links allowed.
            for _ in 0..domains * 2 {
                let from = below(s, domains as u64) as usize;
                let to = below(s, domains as u64) as usize;
                if from != to {
                    let cdn = if cdn_kind == 3 {
                        quarter_cdn(below(s, 14))
                    } else {
                        uniform
                    };
                    topo.connect(from, to, cdn).unwrap();
                }
            }
        } else if cdn_kind == 3 && domains >= 2 {
            // Asymmetric extras on a regular topology.
            for _ in 0..domains / 2 + 1 {
                let from = below(s, domains as u64) as usize;
                let to = (from + 1 + below(s, domains as u64 - 1) as usize) % domains;
                topo.connect(from, to, quarter_cdn(below(s, 14))).unwrap();
            }
        }
        let mut bank = DomainBank::new();
        for _ in 0..domains {
            push_domain(&mut bank, s, steps);
        }
        let domain = below(s, domains as u64) as usize;
        let at = below(s, steps as u64 * 3 / 4);
        let scenario = match below(s, 4) {
            0 => Scenario::Nominal,
            1 => Scenario::DomainFailure {
                domain,
                at,
                stages: 4.0 + below(s, 20) as f64,
            },
            2 => Scenario::Byzantine {
                domain,
                at,
                seed: splitmix(s),
            },
            _ => Scenario::PowerEvent {
                at,
                droop: below(s, 24) as f64 / 2.0,
                duration: 1 + below(s, 150),
            },
        };
        let params = Params {
            setpoint: SETPOINT as f64,
            coupling: [0.05, 0.2, 0.0, 0.5][below(s, 4) as usize],
            tolerance: [8.0, 3.0, 16.0][below(s, 3) as usize],
            sync_window: [2.0, 0.5][below(s, 2) as usize],
            quarantine_after: below(s, 4) as usize,
            margin: 6.0,
            lock_tolerance: 2.0,
            lock_run: 20,
        };
        let label = format!(
            "seed {seed:#x}: {domains} domains, topology kind {kind}, cdn kind {cdn_kind}, \
             {} links, {scenario:?}, {params:?}",
            topo.links().len()
        );
        Case {
            bank,
            topo,
            params,
            scenario,
            steps,
            label,
        }
    }

    fn mesh(&self, telemetry: &Telemetry) -> Mesh {
        let p = &self.params;
        Mesh::new(self.bank.clone(), self.topo.clone(), p.setpoint)
            .unwrap()
            .with_coupling(p.coupling)
            .with_boundary(p.tolerance, p.sync_window, p.quarantine_after)
            .with_lock_policy(p.margin, p.lock_tolerance, p.lock_run)
            .with_telemetry(telemetry.clone())
    }
}

fn assert_same_bits(label: &str, what: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{label}: {what} length");
    for (n, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{label}: {what}[{n}]: {g} vs {w}");
    }
}

/// Everything a run produces, compared bit for bit.
fn assert_runs_equal(label: &str, got: &MeshRun, want: &MeshRun) {
    assert_eq!(got.domains.len(), want.domains.len(), "{label}");
    for (d, (g, w)) in got.domains.iter().zip(&want.domains).enumerate() {
        let at = format!("{label}, domain {d}");
        assert_same_bits(&at, "tau", &g.tau, &w.tau);
        assert_same_bits(&at, "delta", &g.delta, &w.delta);
        assert_same_bits(&at, "lro", &g.lro, &w.lro);
        assert_eq!(
            format!("{:?}", g.report),
            format!("{:?}", w.report),
            "{at}: violation report"
        );
    }
    assert_eq!(got.boundaries.len(), want.boundaries.len(), "{label}");
    for (l, (g, w)) in got.boundaries.iter().zip(&want.boundaries).enumerate() {
        assert_eq!(
            (g.from, g.to),
            (w.from, w.to),
            "{label}: link {l} endpoints"
        );
        let (g, w) = (g.report, w.report);
        assert_eq!(
            (g.samples, g.violations, g.quarantined_at),
            (w.samples, w.violations, w.quarantined_at),
            "{label}: link {l} counts"
        );
        for (name, a, b) in [
            ("worst_skew", g.worst_skew, w.worst_skew),
            ("min_slack", g.min_slack, w.min_slack),
            (
                "mean_metastability_risk",
                g.mean_metastability_risk,
                w.mean_metastability_risk,
            ),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "{label}: link {l} {name}");
        }
    }
    assert_eq!(
        got.boundary_violations, want.boundary_violations,
        "{label}: boundary violations"
    );
    assert_eq!(got.injected, want.injected, "{label}: injected");
    assert_eq!(got.relocks, want.relocks, "{label}: relocks");
}

/// The `workers` attribute of the run's `engine.mesh` span.
fn span_workers(telemetry: &Telemetry) -> usize {
    let spans = telemetry.trace_spans();
    let span = spans
        .iter()
        .rev()
        .find(|s| s.name == "engine.mesh")
        .expect("the run records an engine.mesh span");
    span.attrs
        .iter()
        .find(|(k, _)| k == "workers")
        .expect("engine.mesh carries a workers attribute")
        .1
        .parse()
        .unwrap()
}

/// Run `case` through the oracle once and through the engine under each
/// worker count; every run must match the oracle bit for bit. Returns the
/// shard counts the engine actually used.
fn check(case: &Case, workers: &[usize]) -> Vec<usize> {
    let mut oracle_bank = case.bank.clone();
    let want = oracle::run(
        &mut oracle_bank,
        &case.topo,
        &case.params,
        &case.scenario,
        case.steps,
    );
    let mut used = Vec::new();
    for &w in workers {
        let telemetry = Telemetry::enabled();
        telemetry.enable_tracing();
        let mut mesh = case.mesh(&telemetry);
        let got = {
            let _guard = WORKERS.lock().unwrap_or_else(|e| e.into_inner());
            set_threads(Some(w));
            let got = mesh.run(&case.scenario, case.steps);
            set_threads(None);
            got
        };
        let label = format!("{} on {w} workers", case.label);
        assert_runs_equal(&label, &got, &want);
        for d in 0..case.bank.len() {
            assert_eq!(
                mesh.bank().steps(d),
                oracle_bank.steps(d),
                "{label}: step counter of domain {d}"
            );
            assert_eq!(
                mesh.bank().faults(d),
                oracle_bank.faults(d),
                "{label}: domain {d}'s schedule is restored"
            );
        }
        assert_eq!(
            telemetry.snapshot().counter("mesh.domain_steps"),
            Some(mesh.bank().total_steps()),
            "{label}: domain-step counter"
        );
        used.push(span_workers(&telemetry));
    }
    used
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Small meshes (the serial path) of every topology, CDN mix, domain
    /// mix and scenario match the two-pass oracle bit for bit.
    #[test]
    fn small_meshes_match_the_two_pass_oracle(
        seed in 0u64..u64::MAX,
        domains in 1usize..40,
        steps in 1usize..400,
    ) {
        let case = Case::derive(seed, domains, steps);
        let used = check(&case, &[1, 3]);
        prop_assert_eq!(used, vec![1, 1]);
    }
}

/// Meshes above the sharding grain split across 2 and 3 workers — evenly
/// and unevenly — and still match the oracle bit for bit.
#[test]
fn sharded_meshes_match_the_two_pass_oracle() {
    for (k, domains) in [512usize, 769, 801, 1030].into_iter().enumerate() {
        for variant in 0..2u64 {
            let seed = 0x5EED_0000 + 16 * k as u64 + variant;
            let case = Case::derive(seed, domains, 48);
            let used = check(&case, &[1, 2, 3]);
            let full = domains / clock_mesh::sim::SHARD_GRAIN;
            assert_eq!(used, vec![1, 2, 3.min(full)], "{}", case.label);
        }
    }
}
