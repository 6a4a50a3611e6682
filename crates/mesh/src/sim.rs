//! The mesh engine: lockstep stepping of a coupled domain bank.
//!
//! A [`Mesh`] owns a [`DomainBank`] and a [`Topology`] and advances every
//! domain period by period through the bank's scalar
//! [`BankRunner`] — the same stepping
//! strategy the scalar `DiscreteLoop` drives, which is what makes a
//! one-domain mesh bit-identical to it.
//!
//! # One fused pass per period
//!
//! For each consumer domain `d`, in one pass:
//!
//! 1. **boundaries** — walk `d`'s in-links in ascending link index (a CSR
//!    of the topology, built once per run). Each live link reads the
//!    producer's RO length as of `delay + 1` periods ago (`delay` is the
//!    link CDN in whole set-point periods; the extra period is the
//!    synchronizer's capture register), forms the *relative* skew against
//!    `d`'s own length at `n − 1`, feeds the link's [`BoundaryMonitor`],
//!    and — unless the monitor has quarantined the link — adds
//!    `gain · skew` to `d`'s coupling sum;
//! 2. **step** — `d` steps through the shared Fig. 4 recurrence with the
//!    coupling sum on its heterogeneous input. Domains with no in-links
//!    skip the add *structurally* (no `+ 0.0`), preserving bit-identity
//!    with the uncoupled engines.
//!
//! Every neighbour read is of a period `≤ n − 1`, all of them already
//! stepped whatever the domain order, so fusing the two passes changes
//! no result; and a consumer sums its links in link-index order, the same
//! order as a separate link pass would, so the floating-point sums agree
//! bit for bit. The reads come from a small period-major ring of recent
//! `l_RO`s instead of the per-domain histories, and τ/δ/l_RO are staged
//! eight periods at a time before they are appended to the traces.
//!
//! # Shards
//!
//! A mesh of `N` domains runs on `min(workers, N / SHARD_GRAIN)`
//! contiguous shards of consumers ([`SHARD_GRAIN`]; `workers` is the
//! process-wide count, `repro --threads` / `REPRO_THREADS`). Each shard
//! owns a [`BankRunner`] over its slice of the bank, its consumers'
//! monitors and its trace columns; the shards meet at one barrier per
//! period. One barrier is enough because period `n` writes only ring slot
//! `n + 1` and reads only slots `≤ n − 1`: once every shard has finished
//! period `n − 1`, everything period `n` reads is in place, and the ring
//! is deep enough that no shard's write can reach a slot another shard is
//! still reading. The result is independent of the shard count, bit for
//! bit (`tests/mesh_oracle_differential.rs`), and every allocation of a
//! run happens on the calling thread before the period loop starts.
//!
//! The engine is deterministic by construction — scenario injections
//! ([`Scenario`]) are all seeded or explicit.

use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use adaptive_clock::bank::{BankRunner, DomainBank};
use adaptive_clock::cdn::Cdn;
use adaptive_clock::threads::worker_count;
use clock_faults::{FaultEvent, FaultKind, FaultSchedule};
use clock_metrics::{violation_report, BoundaryMonitor, BoundaryReport, ViolationReport};
use clock_telemetry::Telemetry;

use crate::topology::Topology;
use crate::MeshError;

/// Fewest domains per shard: a mesh of `N` domains runs on
/// `min(workers, N / SHARD_GRAIN)` shards, so meshes of fewer than
/// `2 · SHARD_GRAIN` domains stay on the calling thread. Each shard pays
/// one barrier wait per period, a thread wake-up of a few to tens of µs;
/// a shard of 256 hardened domains steps for ≈ 30 µs per period. Measured
/// on a 2-core x86-64 host, hardened grids, 500 periods, best of 25:
/// two shards of 256 domains ran 1.0–1.3× faster than one thread, two of
/// 32 domains 1.5× slower.
pub const SHARD_GRAIN: usize = 256;

/// What the mesh is subjected to during a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scenario {
    /// No injected disturbance (static per-domain variation still
    /// applies).
    Nominal,
    /// Domain `domain` permanently loses `stages` RO stages at period
    /// `at` — a hard local failure the domain's own loop compensates,
    /// which drags its operating point away from its neighbours' until
    /// the boundaries quarantine it.
    DomainFailure {
        /// The failing domain.
        domain: usize,
        /// Failure period.
        at: u64,
        /// RO stages lost (permanently).
        stages: f64,
    },
    /// Domain `domain` turns Byzantine at period `at`: it advertises
    /// deterministic garbage lengths to every boundary it feeds *and*
    /// suffers a seeded SEU strike plan internally. Healthy neighbours
    /// must quarantine it and re-lock.
    Byzantine {
        /// The faulty domain.
        domain: usize,
        /// First Byzantine period.
        at: u64,
        /// Seed for the internal strike plan and the advertised garbage.
        seed: u64,
    },
    /// A global supply droop: every domain's homogeneous variation drops
    /// by `droop` stages for `duration` periods starting at `at`, then
    /// recovers — the whole mesh must re-lock.
    PowerEvent {
        /// Droop onset period.
        at: u64,
        /// Droop depth in stages (positive = slower gates).
        droop: f64,
        /// Droop duration in periods.
        duration: u64,
    },
}

impl Scenario {
    /// Stable kebab-case label (table rows, cache keys).
    pub fn label(&self) -> &'static str {
        match self {
            Scenario::Nominal => "nominal",
            Scenario::DomainFailure { .. } => "domain-failure",
            Scenario::Byzantine { .. } => "byzantine",
            Scenario::PowerEvent { .. } => "power-event",
        }
    }
}

/// Deterministic garbage a Byzantine domain advertises at read index `i`.
fn byzantine_word(i: i64, setpoint: f64, seed: u64) -> f64 {
    let x = (i as u64)
        .wrapping_add(seed)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // setpoint·1.5 ± a couple of stages of wobble: far enough off any
    // plausible operating point to blow the boundary tolerance, varied
    // enough that it cannot be mistaken for a re-locked neighbour.
    setpoint * 1.5 + ((x >> 58) as f64) / 4.0 - 8.0
}

/// One domain's outcome of a mesh run.
#[derive(Debug, Clone)]
pub struct DomainOutcome {
    /// TDC readings `τ[n]`.
    pub tau: Vec<f64>,
    /// Adaptation errors `δ[n]`.
    pub delta: Vec<f64>,
    /// RO lengths `l_RO[n]`.
    pub lro: Vec<f64>,
    /// Violation / re-lock accounting against the mesh's margin policy.
    pub report: ViolationReport,
}

/// One directed link's outcome of a mesh run.
#[derive(Debug, Clone, Copy)]
pub struct BoundaryOutcome {
    /// Producer domain.
    pub from: usize,
    /// Consumer domain.
    pub to: usize,
    /// The link's boundary statistics.
    pub report: BoundaryReport,
}

/// The recorded outcome of one [`Mesh::run`].
#[derive(Debug, Clone)]
pub struct MeshRun {
    /// Per-domain traces and reports, indexed like the bank.
    pub domains: Vec<DomainOutcome>,
    /// Per-link boundary reports, indexed like the topology's links.
    pub boundaries: Vec<BoundaryOutcome>,
    /// Total handshake violations across all links.
    pub boundary_violations: u64,
    /// Fault events injected into the bank's domains before the horizon.
    pub injected: u64,
    /// Watchdog re-lock events across the bank's hardened domains.
    pub relocks: u64,
}

impl MeshRun {
    /// Number of links the quarantine policy cut off.
    pub fn quarantined_links(&self) -> usize {
        self.boundaries
            .iter()
            .filter(|b| b.report.quarantined_at.is_some())
            .count()
    }

    /// Whether every link fed by domain `d` ended quarantined (and there
    /// was at least one) — the mesh's definition of "domain `d` is
    /// contained".
    pub fn is_contained(&self, d: usize) -> bool {
        let mut any = false;
        for b in &self.boundaries {
            if b.from == d {
                any = true;
                if b.report.quarantined_at.is_none() {
                    return false;
                }
            }
        }
        any
    }
}

/// A multi-domain GALS clock mesh (see the module docs).
#[derive(Debug)]
pub struct Mesh {
    bank: DomainBank,
    topo: Topology,
    telemetry: Telemetry,
    setpoint: f64,
    coupling: f64,
    tolerance: f64,
    sync_window: f64,
    quarantine_after: usize,
    margin: f64,
    lock_tolerance: f64,
    lock_run: usize,
}

impl Mesh {
    /// A mesh of `bank`'s domains wired by `topo`, all regulating toward
    /// `setpoint` stages.
    ///
    /// # Errors
    ///
    /// [`MeshError::DomainCountMismatch`] unless the bank and topology
    /// agree on the number of domains.
    pub fn new(bank: DomainBank, topo: Topology, setpoint: f64) -> Result<Self, MeshError> {
        if bank.len() != topo.domains() {
            return Err(MeshError::DomainCountMismatch {
                bank: bank.len(),
                topology: topo.domains(),
            });
        }
        Ok(Mesh {
            bank,
            topo,
            telemetry: Telemetry::disabled(),
            setpoint,
            coupling: 0.05,
            tolerance: 8.0,
            sync_window: 2.0,
            quarantine_after: 3,
            margin: 6.0,
            lock_tolerance: 2.0,
            lock_run: 20,
        })
    }

    /// Attach an instrumentation handle: span `engine.mesh` (attributes
    /// `steps`, `domains`, `links`, `workers`) and counters `mesh.domains`,
    /// `mesh.domain_steps` (domains × periods) and
    /// `mesh.boundary_violations` (handshake violations across all links).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Set the coupling gain: stages of heterogeneous perturbation per
    /// stage of boundary skew.
    #[must_use]
    pub fn with_coupling(mut self, gain: f64) -> Self {
        self.coupling = gain;
        self
    }

    /// Configure the boundary monitors: capture `tolerance` (stages),
    /// synchronizer resolution `window` (stages), and the quarantine
    /// threshold in consecutive violations (`0` disables quarantine).
    #[must_use]
    pub fn with_boundary(mut self, tolerance: f64, window: f64, quarantine_after: usize) -> Self {
        self.tolerance = tolerance;
        self.sync_window = window;
        self.quarantine_after = quarantine_after;
        self
    }

    /// Configure the per-domain violation accounting: deployed safety
    /// `margin`, lock `tolerance`, and the consecutive in-tolerance run
    /// that counts as re-locked.
    #[must_use]
    pub fn with_lock_policy(mut self, margin: f64, tolerance: f64, run: usize) -> Self {
        self.margin = margin;
        self.lock_tolerance = tolerance;
        self.lock_run = run;
        self
    }

    /// The domain bank (per-domain step counters live here).
    pub fn bank(&self) -> &DomainBank {
        &self.bank
    }

    /// Mutable access to the bank (variation, faults, hardening).
    pub fn bank_mut(&mut self) -> &mut DomainBank {
        &mut self.bank
    }

    /// The link graph.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Reset every domain's controller (lifetime step counters survive).
    pub fn reset(&mut self) {
        self.bank.reset();
    }

    /// Run `steps` periods under `scenario` and record every domain and
    /// boundary.
    pub fn run(&mut self, scenario: &Scenario, steps: usize) -> MeshRun {
        let ndom = self.bank.len();
        let links = self.topo.links();
        let workers = worker_count(ndom / SHARD_GRAIN);
        let mut span = self.telemetry.scope("engine.mesh");
        span.attr("steps", steps);
        span.attr("domains", ndom);
        span.attr("links", links.len());
        span.attr("workers", workers);
        self.telemetry.counter("mesh.domains").add(ndom as u64);

        // Compose the scenario's strike plan into the affected domain's
        // schedule for the duration of the run; restored afterwards so a
        // mesh can be re-run (or run under another scenario) cleanly.
        let mut saved: Option<(usize, FaultSchedule)> = None;
        match *scenario {
            Scenario::DomainFailure { domain, at, stages } => {
                let mut composed = self.bank.faults(domain).clone();
                composed.push(FaultEvent {
                    at,
                    duration: 1, // permanent: RO stage failures never heal
                    kind: FaultKind::RoStageFailure { stages },
                });
                saved = Some((domain, self.bank.faults(domain).clone()));
                self.bank.set_faults(domain, composed);
            }
            Scenario::Byzantine { domain, at, seed } => {
                let mut composed = self.bank.faults(domain).clone();
                for k in 0..3u64 {
                    composed.push(FaultEvent {
                        at: at + 350 * k,
                        duration: 1,
                        kind: FaultKind::SeuLroWord {
                            bit: 3 + ((seed >> (8 * k)) % 16) as u32,
                        },
                    });
                }
                saved = Some((domain, self.bank.faults(domain).clone()));
                self.bank.set_faults(domain, composed);
            }
            Scenario::Nominal | Scenario::PowerEvent { .. } => {}
        }

        let wiring = Wiring::new(&self.topo, self.setpoint);
        let ctx = Shared {
            ring: LroRing::new(wiring.max_delay, ndom),
            wiring,
            mm: (0..ndom).map(|d| (self.bank.m(d) + 2) as i64).collect(),
            vars: (0..ndom).map(|d| self.bank.variation(d)).collect(),
            scenario: *scenario,
            byz: match *scenario {
                Scenario::Byzantine { domain, at, seed } => Some((domain, at as i64, seed)),
                _ => None,
            },
            setpoint: self.setpoint,
            coupling: self.coupling,
        };
        let bounds: Vec<usize> = (0..=workers).map(|k| k * ndom / workers).collect();
        // Every allocation of the run happens here, on the calling thread;
        // the period loop only writes into it.
        let shards: Vec<Shard<'_>> = self
            .bank
            .shards(&bounds)
            .into_iter()
            .zip(bounds.windows(2))
            .map(|(runner, w)| {
                for d in w[0]..w[1] {
                    ctx.ring.seed(d, runner.lro(d, -1), runner.lro(d, 0));
                }
                let monitor =
                    BoundaryMonitor::new(self.tolerance, self.sync_window, self.quarantine_after);
                let csr = ctx.wiring.start[w[0]]..ctx.wiring.start[w[1]];
                Shard {
                    runner,
                    domains: w[0]..w[1],
                    csr_lo: csr.start,
                    monitors: vec![monitor; csr.len()],
                    traces: std::array::from_fn(|_| {
                        (w[0]..w[1]).map(|_| Vec::with_capacity(steps)).collect()
                    }),
                    stage: std::array::from_fn(|_| vec![0.0; (w[1] - w[0]) * CHUNK]),
                    violations: 0,
                }
            })
            .collect();

        let policy = (self.margin, self.lock_tolerance, self.lock_run);
        let outputs: Vec<ShardOutput> = if shards.len() == 1 {
            shards
                .into_iter()
                .map(|s| s.run(&ctx, steps, None, policy))
                .collect()
        } else {
            let barrier = Barrier::new(shards.len());
            let (ctx, barrier) = (&ctx, &barrier);
            std::thread::scope(|scope| {
                let mut shards = shards.into_iter();
                let first = shards.next().expect("at least two shards");
                let rest: Vec<_> = shards
                    .map(|s| scope.spawn(move || s.run(ctx, steps, Some(barrier), policy)))
                    .collect();
                let mut outputs = vec![first.run(ctx, steps, Some(barrier), policy)];
                for handle in rest {
                    outputs.push(handle.join().unwrap_or_else(|p| resume_unwind(p)));
                }
                outputs
            })
        };

        if let Some((domain, schedule)) = saved {
            self.bank.set_faults(domain, schedule);
        }

        // Monitors come back in CSR (consumer) order; put them back in
        // link order for the outcome.
        let mut by_link: Vec<Option<BoundaryReport>> = vec![None; links.len()];
        let mut domains = Vec::with_capacity(ndom);
        let (mut boundary_violations, mut injected, mut relocks) = (0u64, 0u64, 0u64);
        for out in outputs {
            for (k, mon) in out.monitors.iter().enumerate() {
                by_link[ctx.wiring.link[out.csr_lo + k]] = Some(mon.report());
            }
            domains.extend(out.domains);
            boundary_violations += out.violations;
            injected += out.injected;
            relocks += out.relocks;
        }
        let boundaries = links
            .iter()
            .zip(by_link)
            .map(|(link, report)| BoundaryOutcome {
                from: link.from,
                to: link.to,
                report: report.expect("every link has exactly one consumer shard"),
            })
            .collect();
        self.telemetry
            .counter("mesh.boundary_violations")
            .add(boundary_violations);
        self.telemetry
            .counter("mesh.domain_steps")
            .add((ndom * steps) as u64);
        MeshRun {
            domains,
            boundaries,
            boundary_violations,
            injected,
            relocks,
        }
    }
}

/// Periods of τ/δ/l_RO staged per shard before they are appended to the
/// per-domain traces (one 64-byte line per domain and signal).
const CHUNK: usize = 8;

/// The link graph as the period loop reads it: every consumer's in-links
/// contiguous (CSR), in ascending link index, so a consumer's coupling sum
/// adds in exactly the order the links were declared.
struct Wiring {
    /// Consumer `d`'s in-links are CSR positions `start[d]..start[d + 1]`.
    start: Vec<usize>,
    /// Per CSR position: the link's index in the topology.
    link: Vec<usize>,
    /// Per CSR position: the producer.
    from: Vec<usize>,
    /// Per CSR position: the link CDN in whole set-point periods.
    delay: Vec<i64>,
    max_delay: usize,
}

impl Wiring {
    fn new(topo: &Topology, setpoint: f64) -> Self {
        let links = topo.links();
        let mut start = vec![0usize; topo.domains() + 1];
        for l in links {
            start[l.to + 1] += 1;
        }
        for d in 0..topo.domains() {
            start[d + 1] += start[d];
        }
        let mut next = start.clone();
        let mut link = vec![0; links.len()];
        for (l, lk) in links.iter().enumerate() {
            link[next[lk.to]] = l;
            next[lk.to] += 1;
        }
        let from = link.iter().map(|&l| links[l].from).collect();
        let periods: Vec<usize> = link
            .iter()
            .map(|&l| links[l].cdn.whole_periods_at(setpoint))
            .collect();
        Wiring {
            start,
            link,
            from,
            max_delay: periods.iter().copied().max().unwrap_or(0),
            delay: periods.into_iter().map(|p| p as i64).collect(),
        }
    }
}

/// Every domain's recent `l_RO`, period-major: slot `i mod depth` holds
/// `l_RO[i]` of all domains side by side. Period `n` reads slots
/// `n − 1 − max_delay ..= n − 1` and writes slot `n + 1`, so a depth of at
/// least `max_delay + 4` keeps the written slot clear of every slot still
/// being read while shards are up to one period apart.
///
/// The slots are relaxed atomics only so that shards on different threads
/// may share the ring without `unsafe`; the per-period barrier orders
/// every write before the reads that need it.
struct LroRing {
    slots: Vec<AtomicU64>,
    mask: usize,
    width: usize,
}

impl LroRing {
    fn new(max_delay: usize, width: usize) -> Self {
        let depth = (max_delay + 4).next_power_of_two();
        LroRing {
            slots: (0..depth * width).map(|_| AtomicU64::new(0)).collect(),
            mask: depth - 1,
            width,
        }
    }

    /// Seed domain `d`: `initial` in every pre-start slot, `first` (the
    /// controller output at session start) in slot 0.
    fn seed(&self, d: usize, initial: f64, first: f64) {
        for slot in 1..=self.mask {
            self.slots[slot * self.width + d].store(initial.to_bits(), Ordering::Relaxed);
        }
        self.slots[d].store(first.to_bits(), Ordering::Relaxed);
    }

    #[inline]
    fn at(&self, i: i64, d: usize) -> &AtomicU64 {
        // Two's complement makes `i & mask` the right slot for i < 0 too.
        &self.slots[(i as usize & self.mask) * self.width + d]
    }

    #[inline]
    fn get(&self, i: i64, d: usize) -> f64 {
        f64::from_bits(self.at(i, d).load(Ordering::Relaxed))
    }

    #[inline]
    fn set(&self, i: i64, d: usize, v: f64) {
        self.at(i, d).store(v.to_bits(), Ordering::Relaxed);
    }
}

/// What every shard reads during a run.
struct Shared {
    wiring: Wiring,
    ring: LroRing,
    mm: Vec<i64>,
    vars: Vec<f64>,
    scenario: Scenario,
    byz: Option<(usize, i64, u64)>,
    setpoint: f64,
    coupling: f64,
}

impl Shared {
    /// The homogeneous variation `e[i]` the scenario imposes.
    #[inline]
    fn e_at(&self, i: i64) -> f64 {
        if let Scenario::PowerEvent {
            at,
            droop,
            duration,
        } = self.scenario
        {
            if i >= at as i64 && i < (at + duration) as i64 {
                return -droop;
            }
        }
        0.0
    }
}

/// One contiguous range of consumers, stepped by one thread.
struct Shard<'a> {
    runner: BankRunner<'a>,
    domains: Range<usize>,
    /// CSR position of `monitors[0]`.
    csr_lo: usize,
    /// The monitors of the shard's in-links, in CSR order.
    monitors: Vec<BoundaryMonitor>,
    /// τ, δ, l_RO per domain of the shard.
    traces: [Vec<Vec<f64>>; 3],
    /// τ, δ, l_RO staged `CHUNK` periods at a time, `CHUNK` per domain.
    stage: [Vec<f64>; 3],
    violations: u64,
}

/// A finished shard.
struct ShardOutput {
    csr_lo: usize,
    monitors: Vec<BoundaryMonitor>,
    domains: Vec<DomainOutcome>,
    violations: u64,
    injected: u64,
    relocks: u64,
}

impl Shard<'_> {
    /// Step the shard's domains through `steps` periods, meeting the
    /// other shards at `barrier` after each one.
    fn run(
        mut self,
        ctx: &Shared,
        steps: usize,
        barrier: Option<&Barrier>,
        (margin, lock_tolerance, lock_run): (f64, f64, usize),
    ) -> ShardOutput {
        let wiring = &ctx.wiring;
        let lo = self.domains.start;
        for n in 0..steps as i64 {
            let k = n as usize % CHUNK;
            let e_n1 = ctx.e_at(n - 1);
            for d in self.domains.clone() {
                let mut mu = ctx.vars[d];
                let links = wiring.start[d]..wiring.start[d + 1];
                if !links.is_empty() {
                    // Structural skip: a domain with no in-links never
                    // sees this add, keeping its bits identical to an
                    // uncoupled scalar run.
                    let own = ctx.ring.get(n - 1, d);
                    let mut inject = 0.0;
                    for c in links {
                        let mon = &mut self.monitors[c - self.csr_lo];
                        if mon.quarantined() {
                            continue;
                        }
                        let i = n - 1 - wiring.delay[c];
                        let from = wiring.from[c];
                        let advertised = match ctx.byz {
                            Some((bd, bat, seed)) if from == bd && i >= bat => {
                                byzantine_word(i, ctx.setpoint, seed)
                            }
                            _ => ctx.ring.get(i, from),
                        };
                        let skew = advertised - own;
                        if mon.observe(n as u64, skew) {
                            self.violations += 1;
                        }
                        if !mon.quarantined() {
                            inject += ctx.coupling * skew;
                        }
                    }
                    mu += inject;
                }
                let out = self
                    .runner
                    .step(d, n, ctx.setpoint, ctx.e_at(n - ctx.mm[d]), e_n1, mu);
                ctx.ring.set(n + 1, d, out.next);
                let at = (d - lo) * CHUNK + k;
                self.stage[0][at] = out.tau;
                self.stage[1][at] = out.delta;
                self.stage[2][at] = out.lro;
            }
            if k + 1 == CHUNK || n + 1 == steps as i64 {
                for (trace, stage) in self.traces.iter_mut().zip(&self.stage) {
                    for (col, staged) in trace.iter_mut().zip(stage.chunks_exact(CHUNK)) {
                        col.extend_from_slice(&staged[..=k]);
                    }
                }
            }
            if let Some(barrier) = barrier {
                // No shard can leave the loop early: the step body has no
                // reachable panic (SEU bit indices are masked, float casts
                // saturate), and a shard that did panic would leave the
                // others waiting here.
                barrier.wait();
            }
        }
        let [tau, delta, lro] = self.traces;
        let domains = tau
            .into_iter()
            .zip(delta)
            .zip(lro)
            .map(|((tau, delta), lro)| DomainOutcome {
                report: violation_report(ctx.setpoint, &tau, margin, lock_tolerance, lock_run),
                tau,
                delta,
                lro,
            })
            .collect();
        ShardOutput {
            csr_lo: self.csr_lo,
            monitors: self.monitors,
            domains,
            violations: self.violations,
            injected: self.runner.injected_before(steps as u64),
            relocks: self.runner.relocks(),
        }
    }
}

/// A convenience used across the tests and the `ext-mesh` experiment: a
/// link CDN of one nominal set-point period.
pub fn unit_cdn(setpoint: f64) -> Cdn {
    Cdn::new(setpoint).expect("a positive set-point is a valid CDN delay")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use adaptive_clock::controller::{IirConfig, IntIirControl};
    use adaptive_clock::resilience::Resilience;
    use adaptive_clock::tdc::Quantization;

    const C: i64 = 64;

    fn hardened_bank(n: usize, spread: &[f64]) -> DomainBank {
        let mut bank = DomainBank::new();
        for d in 0..n {
            let ctrl = IntIirControl::new(IirConfig::paper(), C).unwrap();
            bank.push_with(
                1,
                ctrl,
                Quantization::Floor,
                FaultSchedule::default(),
                Resilience::hardened(C as f64),
            );
            bank.set_variation(d, spread[d % spread.len()]);
        }
        bank
    }

    fn ring_mesh(n: usize) -> Mesh {
        let topo = Topology::ring(n, unit_cdn(C as f64));
        Mesh::new(hardened_bank(n, &[0.0, 1.5, -2.0, 0.5]), topo, C as f64).unwrap()
    }

    #[test]
    fn nominal_ring_stays_locked_with_quiet_boundaries() {
        let mut mesh = ring_mesh(6);
        let run = mesh.run(&Scenario::Nominal, 800);
        assert_eq!(run.quarantined_links(), 0);
        assert_eq!(run.relocks, 0);
        for (d, out) in run.domains.iter().enumerate() {
            assert!(!out.report.unresolved, "domain {d} must end locked");
            assert_eq!(out.report.violations, 0, "domain {d}");
        }
        for b in &run.boundaries {
            assert!(b.report.worst_skew <= 4.0, "{} → {}", b.from, b.to);
        }
    }

    #[test]
    fn byzantine_neighbour_is_contained_and_rest_relock() {
        let mut mesh = ring_mesh(6);
        let scen = Scenario::Byzantine {
            domain: 2,
            at: 100,
            seed: 0xB12A,
        };
        let run = mesh.run(&scen, 1500);
        assert!(run.is_contained(2), "faulty domain must be quarantined");
        for (d, out) in run.domains.iter().enumerate() {
            if d != 2 {
                assert!(!out.report.unresolved, "healthy domain {d} must re-lock");
            }
        }
        assert!(run.boundary_violations > 0);
        // Deterministic: a fresh mesh reproduces the run bit for bit.
        let rerun = ring_mesh(6).run(&scen, 1500);
        for d in 0..6 {
            assert_eq!(run.domains[d].tau, rerun.domains[d].tau, "domain {d}");
        }
        assert_eq!(run.boundary_violations, rerun.boundary_violations);
    }

    #[test]
    fn domain_failure_is_quarantined_once_compensation_skews_it() {
        let mut mesh = ring_mesh(5);
        let scen = Scenario::DomainFailure {
            domain: 0,
            at: 150,
            stages: 16.0,
        };
        let run = mesh.run(&scen, 1500);
        // The failed domain compensates internally (its own loop re-locks
        // at a longer RO), which drags its advertised length ~16 stages
        // off its neighbours' — past the 8-stage boundary tolerance.
        assert!(run.is_contained(0), "failed domain must be contained");
        assert!(run.injected >= 1);
        for (d, out) in run.domains.iter().enumerate() {
            assert!(!out.report.unresolved, "domain {d} must end locked");
        }
    }

    #[test]
    fn global_power_event_common_modes_out_and_relocks() {
        let mut mesh = ring_mesh(6);
        let run = mesh.run(
            &Scenario::PowerEvent {
                at: 200,
                droop: 10.0,
                duration: 120,
            },
            1200,
        );
        // The droop is homogeneous, the skew relative: no boundary may
        // quarantine, and every domain must re-lock after recovery.
        assert_eq!(run.quarantined_links(), 0);
        for (d, out) in run.domains.iter().enumerate() {
            assert!(!out.report.unresolved, "domain {d} must re-lock");
        }
    }

    #[test]
    fn mismatched_bank_and_topology_is_rejected() {
        let bank = hardened_bank(3, &[0.0]);
        let topo = Topology::ring(4, unit_cdn(C as f64));
        assert!(matches!(
            Mesh::new(bank, topo, C as f64),
            Err(MeshError::DomainCountMismatch {
                bank: 3,
                topology: 4
            })
        ));
    }

    #[test]
    fn mesh_telemetry_counts_domains_and_violations() {
        let t = Telemetry::enabled();
        let topo = Topology::ring(4, unit_cdn(C as f64));
        let mut mesh = Mesh::new(hardened_bank(4, &[0.0, 1.0]), topo, C as f64)
            .unwrap()
            .with_telemetry(t.clone());
        let run = mesh.run(
            &Scenario::Byzantine {
                domain: 1,
                at: 50,
                seed: 7,
            },
            600,
        );
        let snap = t.snapshot();
        assert_eq!(snap.counter("mesh.domains"), Some(4));
        assert_eq!(
            snap.counter("mesh.boundary_violations"),
            Some(run.boundary_violations)
        );
        // Per-domain step counters credit the mesh run.
        for d in 0..4 {
            assert_eq!(mesh.bank().steps(d), 600);
        }
    }
}
