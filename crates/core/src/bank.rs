//! The domain bank: shared per-domain loop state for every engine.
//!
//! A [`DomainBank`] owns the per-domain configuration and state of `N`
//! independent Fig. 4 loops — controller, CDN depth, TDC quantization,
//! fault schedule, hardening config, and a bank-held static variation
//! offset — in one structure-of-arrays record per domain. The engines are
//! *stepping strategies* over the same bank:
//!
//! * [`DiscreteLoop`](crate::loopsim::DiscreteLoop) drives a one-domain
//!   bank through the scalar per-period path;
//! * [`BatchLoop`](crate::batch::BatchLoop) owns a bank and advances all
//!   of it per period, packing clean same-scheme domains into SoA lane
//!   blocks internally (a bank-layout concern, not a caller one);
//! * `clock-mesh` steps a bank in lockstep through one [`BankRunner`]
//!   per shard ([`DomainBank::shards`]), injecting inter-domain coupling
//!   between periods.
//!
//! All three paths share one per-period step body, `step_domain`: the
//! clean recurrence and the faulted
//! [`FaultPath`] three-call protocol live in
//! exactly one place, which is what keeps every strategy bit-identical to
//! every other on the same domain (pinned by the differential suites).
//!
//! The bank also keeps **per-domain step counters**: lifetime totals of
//! how many periods each domain has been advanced, across every strategy
//! and every run. [`DomainBank::reset`] deliberately leaves them alone —
//! they answer "how much work has this domain cost", not "where is the
//! controller".

use clock_faults::FaultSchedule;

use crate::controller::Controller;
use crate::resilience::{FaultPath, Resilience};
use crate::tdc::Quantization;

/// One domain of a [`DomainBank`]: the per-operating-point configuration
/// and state of the Fig. 4 recurrence.
#[derive(Debug, Clone)]
pub(crate) struct Domain {
    pub(crate) m: usize,
    pub(crate) quantization: Quantization,
    pub(crate) controller: Controller,
    pub(crate) initial_length: f64,
    pub(crate) faults: FaultSchedule,
    pub(crate) resilience: Resilience,
    /// Bank-held static heterogeneous offset (stages): the domain's
    /// sampled process variation. The core engines receive μ through
    /// their input closures and never read this field; bank-level
    /// consumers (the mesh) fold it into the μ they pass per period.
    pub(crate) variation: f64,
}

/// Advance one domain one period: the single definition of the per-period
/// step body every engine strategy runs.
///
/// Callers supply the recurrence inputs for measurement period `n`
/// (`gen = n − mm` is the generation period): `l_RO[n−mm]`, `e[n−mm]`,
/// `e[n−1]`, `μ[n−mm]`, and the set-point `c[n]`. With a live fault path
/// the [`FaultPath`] three-call protocol runs; otherwise the clean
/// arithmetic, in the fixed association order
/// `((l_RO + e[n−mm]) − e[n−1]) + μ[n−mm]`. Returns
/// `(τ[n], δ[n], l_RO[n+1])`.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn step_domain(
    quantization: Quantization,
    controller: &mut Controller,
    path: Option<&mut FaultPath>,
    n: i64,
    gen: i64,
    lro_past: f64,
    e_nmm: f64,
    e_n1: f64,
    mu_nmm: f64,
    setpoint: f64,
) -> (f64, f64, f64) {
    if let Some(fp) = path {
        let raw = fp.raw(n, gen, lro_past, e_nmm, e_n1, mu_nmm);
        let (tau, valid) = fp.measure(n, raw, quantization);
        let (delta, next) = fp.control(n, setpoint, tau, valid, controller);
        (tau, delta, next)
    } else {
        let raw = lro_past + e_nmm - e_n1 + mu_nmm;
        let tau = quantization.apply(raw);
        let delta = setpoint - tau;
        let next = controller.step(delta);
        (tau, delta, next)
    }
}

/// Build the per-run [`FaultPath`] of a domain, or `None` when the domain
/// is clean *and* unhardened — the gate every engine uses to keep clean
/// domains on the original arithmetic.
pub(crate) fn fault_path(d: &Domain) -> Option<FaultPath> {
    let p = FaultPath::new(
        d.faults.clone(),
        d.resilience,
        d.quantization.apply(d.initial_length),
    );
    (!p.is_inert()).then_some(p)
}

/// A bank of `N` independent clock domains (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct DomainBank {
    pub(crate) domains: Vec<Domain>,
    /// Lifetime periods stepped per domain, across all strategies.
    steps: Vec<u64>,
}

impl DomainBank {
    /// An empty bank.
    pub fn new() -> Self {
        DomainBank::default()
    }

    /// Append a clean, unhardened domain with CDN delay `m` whole
    /// periods; returns its index.
    pub fn push(
        &mut self,
        m: usize,
        controller: impl Into<Controller>,
        quantization: Quantization,
    ) -> usize {
        self.push_with(
            m,
            controller,
            quantization,
            FaultSchedule::default(),
            Resilience::default(),
        )
    }

    /// Append a domain with a fault schedule and hardening configuration.
    /// An empty schedule plus [`Resilience::default`] keeps the domain on
    /// the engines' original (fault-free) arithmetic, exactly like
    /// [`push`](Self::push).
    pub fn push_with(
        &mut self,
        m: usize,
        controller: impl Into<Controller>,
        quantization: Quantization,
        faults: FaultSchedule,
        resilience: Resilience,
    ) -> usize {
        let controller = controller.into();
        let initial_length = controller.length();
        self.domains.push(Domain {
            m,
            quantization,
            controller,
            initial_length,
            faults,
            resilience,
            variation: 0.0,
        });
        self.steps.push(0);
        self.domains.len() - 1
    }

    /// Number of domains.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// Whether the bank has no domains.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Reset every domain's controller to its initial state. Step
    /// counters are lifetime totals and survive (see the module docs).
    pub fn reset(&mut self) {
        for d in &mut self.domains {
            d.controller.reset();
        }
    }

    /// CDN delay of domain `d` in whole periods.
    ///
    /// # Panics
    ///
    /// Panics when `d` is out of range (as do all per-domain accessors).
    pub fn m(&self, d: usize) -> usize {
        self.domains[d].m
    }

    /// Current controller output (RO length, stages) of domain `d`.
    pub fn length(&self, d: usize) -> f64 {
        self.domains[d].controller.length()
    }

    /// Bank-held static variation offset of domain `d` (stages).
    pub fn variation(&self, d: usize) -> f64 {
        self.domains[d].variation
    }

    /// Set domain `d`'s static variation offset (stages).
    pub fn set_variation(&mut self, d: usize, variation: f64) {
        self.domains[d].variation = variation;
    }

    /// Replace domain `d`'s fault schedule (applies from the next run).
    pub fn set_faults(&mut self, d: usize, faults: FaultSchedule) {
        self.domains[d].faults = faults;
    }

    /// Domain `d`'s current fault schedule.
    pub fn faults(&self, d: usize) -> &FaultSchedule {
        &self.domains[d].faults
    }

    /// Replace domain `d`'s hardening configuration.
    pub fn set_resilience(&mut self, d: usize, resilience: Resilience) {
        self.domains[d].resilience = resilience;
    }

    /// Lifetime periods stepped for domain `d`, across all strategies.
    pub fn steps(&self, d: usize) -> u64 {
        self.steps[d]
    }

    /// Lifetime periods stepped summed over every domain.
    pub fn total_steps(&self) -> u64 {
        self.steps.iter().sum()
    }

    /// Credit `steps` periods to every domain at once (the batched
    /// engines advance all domains in lockstep).
    pub(crate) fn note_steps(&mut self, steps: u64) {
        for s in &mut self.steps {
            *s += steps;
        }
    }

    /// Begin a scalar per-period stepping session over the bank: the
    /// one-shard case of [`shards`](Self::shards).
    pub fn runner(&mut self) -> BankRunner<'_> {
        let len = self.len();
        self.shards(&[0, len])
            .pop()
            .expect("one bound pair yields one shard")
    }

    /// Split the bank into independent stepping sessions over contiguous
    /// domain ranges: shard `k` owns domains `bounds[k]..bounds[k + 1]`.
    /// The shards borrow disjoint parts of the bank, so each can move to
    /// its own thread; each credits its own domains' step counters when
    /// dropped. Domain indices stay global: shard `k` is stepped with
    /// `d ∈ bounds[k]..bounds[k + 1]`.
    ///
    /// # Panics
    ///
    /// Panics unless `bounds` starts at 0, ends at [`len`](Self::len) and
    /// is non-decreasing.
    pub fn shards(&mut self, bounds: &[usize]) -> Vec<BankRunner<'_>> {
        assert!(
            bounds.first() == Some(&0)
                && bounds.last() == Some(&self.len())
                && bounds.windows(2).all(|w| w[0] <= w[1]),
            "shard bounds must run non-decreasing from 0 to {}",
            self.len()
        );
        let mut domains = self.domains.as_mut_slice();
        let mut steps = self.steps.as_mut_slice();
        let mut runners = Vec::with_capacity(bounds.len() - 1);
        for w in bounds.windows(2) {
            let (head, rest) = std::mem::take(&mut domains).split_at_mut(w[1] - w[0]);
            let (count_head, count_rest) = std::mem::take(&mut steps).split_at_mut(w[1] - w[0]);
            domains = rest;
            steps = count_rest;
            runners.push(BankRunner::new(head, count_head, w[0]));
        }
        runners
    }
}

/// The loop outputs of one domain for one period, as produced by
/// [`BankRunner::step`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BankStep {
    /// TDC reading `τ[n]`.
    pub tau: f64,
    /// Adaptation error `δ[n] = c[n] − τ[n]`.
    pub delta: f64,
    /// RO length `l_RO[n]` used for generation at period `n`.
    pub lro: f64,
    /// Commanded RO length `l_RO[n+1]` for the next period.
    pub next: f64,
}

/// A scalar per-period stepping session over a [`DomainBank`] — the
/// strategy behind [`DiscreteLoop`](crate::loopsim::DiscreteLoop) and the
/// mesh engine.
///
/// The runner owns the per-run state the recurrence needs: one
/// [`FaultPath`] per faulted/hardened
/// domain (rebuilt per session, exactly like the other engines) and a
/// fixed ring of each domain's recent `l_RO`, which the `n − mm` gather
/// reads. It allocates only when it is created: stepping never does.
/// Callers advance each domain with [`step`](Self::step), strictly in
/// period order per domain; different domains may interleave freely,
/// which is what lets the mesh step `N` coupled domains in lockstep. A
/// runner covers either the whole bank ([`DomainBank::runner`]) or one
/// contiguous shard of it ([`DomainBank::shards`]). Dropping the runner
/// credits the stepped periods to the bank's lifetime counters.
pub struct BankRunner<'a> {
    domains: &'a mut [Domain],
    /// The bank's lifetime counters of exactly these domains.
    steps: &'a mut [u64],
    /// Global index of `domains[0]`.
    base: usize,
    paths: Vec<Option<FaultPath>>,
    /// `l_RO[i]` of local domain `k` at `hist[k · depth + (i & mask)]`,
    /// for the last `depth` periods; slot 0 starts as the controller's
    /// output at session start. Pre-start reads (`i < 0`) resolve to the
    /// domain's initial length.
    hist: Vec<f64>,
    mask: usize,
    /// Periods stepped this session per local domain: the next `n`.
    count: Vec<u64>,
}

/// Fewest periods of `l_RO` a [`BankRunner`] holds per domain (more when
/// a domain's CDN depth needs it).
pub const HISTORY: usize = 64;

impl<'a> BankRunner<'a> {
    fn new(domains: &'a mut [Domain], steps: &'a mut [u64], base: usize) -> Self {
        let paths = domains.iter().map(fault_path).collect();
        // The gather reads `l_RO[n − mm]` while `l_RO[n]` and `l_RO[n + 1]`
        // are live, so the ring must span `mm + 2` periods.
        let deepest = domains.iter().map(|d| d.m + 4).max().unwrap_or(0);
        let depth = deepest.next_power_of_two().max(HISTORY);
        let mut hist = vec![0.0; domains.len() * depth];
        for (k, d) in domains.iter().enumerate() {
            hist[k * depth] = d.controller.length();
        }
        let count = vec![0u64; domains.len()];
        BankRunner {
            domains,
            steps,
            base,
            paths,
            hist,
            mask: depth - 1,
            count,
        }
    }
}

impl BankRunner<'_> {
    /// Advance domain `d` through measurement period `n`.
    ///
    /// `e_nmm`, `e_n1` and `mu_nmm` are the variation samples `e[n−mm]`,
    /// `e[n−1]`, `μ[n−mm]` (with `mm = m + 2` for the domain's CDN depth
    /// `m`), and `setpoint` is `c[n]` — the caller samples its input
    /// sequences, the runner supplies `l_RO[n−mm]` from its own history.
    ///
    /// # Panics
    ///
    /// Panics when `d` is not one of this session's domains or `n` is not
    /// the domain's next unstepped period (each domain must be stepped
    /// `n = 0, 1, 2, …`).
    pub fn step(
        &mut self,
        d: usize,
        n: i64,
        setpoint: f64,
        e_nmm: f64,
        e_n1: f64,
        mu_nmm: f64,
    ) -> BankStep {
        let k = d - self.base;
        assert_eq!(
            n, self.count[k] as i64,
            "domain {d} must be stepped in period order"
        );
        let dom = &mut self.domains[k];
        let row = k * (self.mask + 1);
        let mm = (dom.m + 2) as i64;
        let gen = n - mm;
        let lro_past = if gen < 0 {
            dom.initial_length
        } else {
            self.hist[row + (gen as usize & self.mask)]
        };
        let (tau, delta, next) = step_domain(
            dom.quantization,
            &mut dom.controller,
            self.paths[k].as_mut(),
            n,
            gen,
            lro_past,
            e_nmm,
            e_n1,
            mu_nmm,
            setpoint,
        );
        let lro = self.hist[row + (n as usize & self.mask)];
        self.hist[row + ((n + 1) as usize & self.mask)] = next;
        self.count[k] += 1;
        BankStep {
            tau,
            delta,
            lro,
            next,
        }
    }

    /// `l_RO[i]` of domain `d`: the initial length for `i < 0`, else the
    /// recorded (or, for the latest entry, commanded) length. Valid for
    /// the newest [`HISTORY`] (or more) periods, the newest being one past
    /// the domain's last stepped period.
    ///
    /// # Panics
    ///
    /// Panics when `i ≥ 0` lies outside that window.
    pub fn lro(&self, d: usize, i: i64) -> f64 {
        let k = d - self.base;
        if i < 0 {
            return self.domains[k].initial_length;
        }
        let newest = self.count[k] as i64;
        assert!(
            i <= newest && newest - i <= self.mask as i64,
            "l_RO[{i}] of domain {d} is outside the held history (newest {newest})"
        );
        self.hist[k * (self.mask + 1) + (i as usize & self.mask)]
    }

    /// Bank-held static variation offset of domain `d` (stages).
    pub fn variation(&self, d: usize) -> f64 {
        self.domains[d - self.base].variation
    }

    /// Whether any domain runs with a live fault path this session.
    pub fn is_faulted(&self) -> bool {
        self.paths.iter().any(Option::is_some)
    }

    /// Fault events scheduled before `horizon` summed over the faulted
    /// domains (the engines' `faults.injected` accounting).
    pub fn injected_before(&self, horizon: u64) -> u64 {
        self.paths
            .iter()
            .flatten()
            .map(|fp| fp.schedule().injected_before(horizon))
            .sum()
    }

    /// Watchdog re-lock events summed over the faulted domains.
    pub fn relocks(&self) -> u64 {
        self.paths.iter().flatten().map(FaultPath::relocks).sum()
    }
}

impl Drop for BankRunner<'_> {
    fn drop(&mut self) {
        for (s, c) in self.steps.iter_mut().zip(&self.count) {
            *s += c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{IirConfig, IntIirControl};
    use crate::loopsim::{constant, step_at, DiscreteLoop, LoopInputs};

    fn iir(c: i64) -> Controller {
        IntIirControl::new(IirConfig::paper(), c).unwrap().into()
    }

    /// A bank runner stepping one domain must reproduce the scalar
    /// `DiscreteLoop` bit for bit — clean and faulted.
    #[test]
    fn runner_matches_discrete_loop_bitwise() {
        use clock_faults::{FaultClass, FaultSchedule};
        let steps = 600usize;
        let schedule = FaultSchedule::random(7, FaultClass::TdcDropout, 4.0, steps as u64, 3);
        for (faults, resilience) in [
            (FaultSchedule::default(), Resilience::default()),
            (schedule.clone(), Resilience::hardened(64.0)),
        ] {
            let c = constant(64.0);
            let e = |n: i64| 5.0 * (std::f64::consts::TAU * n as f64 / 90.0).sin();
            let mu = step_at(25, -7.0);
            let inputs = LoopInputs {
                setpoint: &c,
                homogeneous: &e,
                heterogeneous: &mu,
            };
            let want = DiscreteLoop::new(1, iir(64), Quantization::Floor)
                .with_faults(faults.clone())
                .with_resilience(resilience)
                .run(&inputs, steps);
            let mut bank = DomainBank::new();
            bank.push_with(1, iir(64), Quantization::Floor, faults, resilience);
            let mm = 3i64;
            let mut runner = bank.runner();
            for n in 0..steps as i64 {
                let out = runner.step(0, n, 64.0, e(n - mm), e(n - 1), mu(n - mm));
                let k = n as usize;
                assert_eq!(out.tau.to_bits(), want.tau[k].to_bits(), "tau at {n}");
                assert_eq!(out.delta.to_bits(), want.delta[k].to_bits(), "delta at {n}");
                assert_eq!(out.lro.to_bits(), want.lro[k].to_bits(), "lro at {n}");
            }
        }
    }

    #[test]
    fn step_counters_accumulate_across_sessions_and_survive_reset() {
        let mut bank = DomainBank::new();
        bank.push(1, iir(64), Quantization::Floor);
        bank.push(0, iir(64), Quantization::Floor);
        {
            let mut runner = bank.runner();
            for n in 0..10 {
                runner.step(0, n, 64.0, 0.0, 0.0, 0.0);
            }
            for n in 0..4 {
                runner.step(1, n, 64.0, 0.0, 0.0, 0.0);
            }
        }
        assert_eq!(bank.steps(0), 10);
        assert_eq!(bank.steps(1), 4);
        bank.reset();
        assert_eq!(bank.total_steps(), 14, "reset keeps lifetime counters");
        {
            let mut runner = bank.runner();
            runner.step(0, 0, 64.0, 0.0, 0.0, 0.0);
        }
        assert_eq!(bank.total_steps(), 15);
    }

    #[test]
    #[should_panic(expected = "period order")]
    fn out_of_order_step_panics() {
        let mut bank = DomainBank::new();
        bank.push(1, iir(64), Quantization::Floor);
        let mut runner = bank.runner();
        runner.step(0, 1, 64.0, 0.0, 0.0, 0.0);
    }

    #[test]
    fn variation_and_config_setters_roundtrip() {
        use clock_faults::{FaultEvent, FaultKind, FaultSchedule};
        let mut bank = DomainBank::new();
        let d = bank.push(2, iir(64), Quantization::Floor);
        assert_eq!(bank.variation(d), 0.0);
        assert_eq!(bank.m(d), 2);
        assert_eq!(bank.length(d), 64.0);
        bank.set_variation(d, -3.5);
        assert_eq!(bank.variation(d), -3.5);
        assert!(bank.faults(d).is_empty());
        bank.set_faults(
            d,
            FaultSchedule::new(1).with(FaultEvent {
                at: 10,
                duration: 2,
                kind: FaultKind::ClockGlitch { stages: 4.0 },
            }),
        );
        assert!(!bank.faults(d).is_empty());
        bank.set_resilience(d, Resilience::hardened(64.0));
        let mut runner = bank.runner();
        assert!(runner.is_faulted());
        assert_eq!(runner.variation(d), -3.5);
        let _ = runner.step(d, 0, 64.0, 0.0, 0.0, 0.0);
        assert_eq!(runner.lro(d, -1), 64.0);
    }

    /// The history window: the newest `HISTORY` periods read back, older
    /// ones are refused.
    #[test]
    fn history_holds_a_window_of_recent_periods() {
        let mut bank = DomainBank::new();
        bank.push(1, iir(64), Quantization::Floor);
        let mut runner = bank.runner();
        let mut lro = Vec::new();
        for n in 0..200 {
            let e = if n % 17 == 0 { 5.0 } else { 0.0 };
            lro.push(runner.step(0, n, 64.0, e, 0.0, 0.0).next);
        }
        // l_RO[i + 1] is the `next` of step i.
        for i in 201 - HISTORY as i64..=200 {
            assert_eq!(runner.lro(0, i).to_bits(), lro[i as usize - 1].to_bits());
        }
        assert_eq!(runner.lro(0, -3), 64.0);
        let stale = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            runner.lro(0, 200 - HISTORY as i64)
        }));
        assert!(stale.is_err(), "a period older than the window is refused");
    }

    /// Shards step disjoint domain ranges with global indices and credit
    /// exactly their own domains' counters; the results match one
    /// whole-bank runner bit for bit.
    #[test]
    fn shards_match_the_whole_bank_runner() {
        let build = || {
            let mut bank = DomainBank::new();
            for d in 0..5 {
                bank.push_with(
                    d % 3,
                    iir(64),
                    Quantization::Floor,
                    clock_faults::FaultSchedule::default(),
                    Resilience::hardened(64.0),
                );
            }
            bank
        };
        let drive = |runner: &mut BankRunner<'_>, d: usize| -> Vec<u64> {
            (0..40)
                .map(|n| {
                    let e = if n == 7 { -9.0 } else { 0.0 };
                    runner
                        .step(d, n, 64.0, e, 0.0, 0.5 * d as f64)
                        .lro
                        .to_bits()
                })
                .collect()
        };
        let mut whole = build();
        let want: Vec<Vec<u64>> = {
            let mut r = whole.runner();
            (0..5).map(|d| drive(&mut r, d)).collect()
        };
        let mut bank = build();
        {
            let mut shards = bank.shards(&[0, 2, 2, 5]);
            assert_eq!(shards.len(), 3);
            for (k, range) in [(0, 0..2), (2, 2..5)] {
                for d in range {
                    assert_eq!(drive(&mut shards[k], d), want[d], "domain {d}");
                }
            }
            drop(shards.remove(1));
        }
        assert_eq!(bank.total_steps(), 200);
        for d in 0..5 {
            assert_eq!(bank.steps(d), 40);
        }
    }

    #[test]
    #[should_panic(expected = "shard bounds")]
    fn shard_bounds_must_cover_the_bank() {
        let mut bank = DomainBank::new();
        bank.push(1, iir(64), Quantization::Floor);
        bank.push(1, iir(64), Quantization::Floor);
        let _ = bank.shards(&[0, 1]);
    }
}
