//! High-level system assembly: pick a clock generation scheme, a CDN delay
//! and a sensor layout; run it under a variation waveform.
//!
//! This is the crate's main entry point. A [`SystemBuilder`] validates the
//! configuration once; the resulting [`System`] can be run any number of
//! times (each [`System::run`] starts from a pristine equilibrium state, so
//! parameter sweeps are independent and reproducible).

use std::sync::Arc;

use clock_telemetry::Telemetry;
use variation::sources::Waveform;

use crate::cdn::Cdn;
use crate::controller::{FloatIir, FreeRunning, IirConfig, IntIirControl, TeaTime};
use crate::error::Error;
use crate::event::{EventLoop, Generator, PeriodJitter, Sample};
use crate::ro::{Coupling, RingOscillator, RoBounds};
use crate::tdc::{Quantization, SensorBank, Tdc};

/// The clock generation schemes evaluated in the paper's §IV.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Scheme {
    /// Fixed-period (PLL-style) clock — the baseline.
    Fixed,
    /// Free-running ring oscillator with a design-time extra length (its
    /// safety margin, in stages).
    FreeRo {
        /// Extra stages added to the set-point at design time.
        extra_length: i64,
    },
    /// TEAtime sign-increment control.
    TeaTime,
    /// The paper's integer power-of-two IIR control block.
    Iir(IirConfig),
    /// The IIR control block in exact `f64` arithmetic (linear reference).
    IirFloat(IirConfig),
}

impl Scheme {
    /// The paper's IIR scheme with its published gains.
    pub fn iir_paper() -> Self {
        Scheme::Iir(IirConfig::paper())
    }

    /// Short display label, matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::Fixed => "Fixed clock",
            Scheme::FreeRo { .. } => "Free RO",
            Scheme::TeaTime => "TEAtime RO",
            Scheme::Iir(_) => "IIR RO",
            Scheme::IirFloat(_) => "IIR RO (float)",
        }
    }

    /// Whether the generated period tracks local variation (an RO) or not
    /// (a fixed source).
    pub fn is_ro_based(&self) -> bool {
        !matches!(self, Scheme::Fixed)
    }

    /// A canonical, stable serialization of the scheme and every parameter
    /// that affects its arithmetic. Result caches hash this string, so its
    /// format is a compatibility contract: changing it (or the numeric
    /// behaviour behind a given id) must invalidate old cache entries,
    /// which is exactly what a changed string does.
    pub fn canonical_id(&self) -> String {
        match self {
            Scheme::Fixed => "fixed".to_owned(),
            Scheme::FreeRo { extra_length } => format!("free-ro/extra={extra_length}"),
            Scheme::TeaTime => "teatime".to_owned(),
            Scheme::Iir(cfg) => format!("iir/{}", cfg.canonical_id()),
            Scheme::IirFloat(cfg) => format!("iir-float/{}", cfg.canonical_id()),
        }
    }
}

/// Per-sensor specification: a static mismatch offset `μ` plus an optional
/// dynamic mismatch waveform.
#[derive(Clone, Default)]
pub struct SensorSpec {
    /// Static mismatch between this sensor's stages and the RO's stages.
    pub offset: f64,
    /// Additional time-varying local mismatch.
    pub dynamic: Option<Arc<dyn Waveform + Send + Sync>>,
    /// Measurement noise as `(sigma, seed)`, if any.
    pub noise: Option<(f64, u64)>,
}

impl std::fmt::Debug for SensorSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SensorSpec")
            .field("offset", &self.offset)
            .field("has_dynamic", &self.dynamic.is_some())
            .field("noise", &self.noise)
            .finish()
    }
}

impl SensorSpec {
    /// A sensor with only a static offset.
    pub fn offset(offset: f64) -> Self {
        SensorSpec {
            offset,
            dynamic: None,
            noise: None,
        }
    }

    /// Add measurement noise to this sensor.
    #[must_use]
    pub fn with_noise(mut self, sigma: f64, seed: u64) -> Self {
        self.noise = Some((sigma, seed));
        self
    }

    /// An ideal sensor (no mismatch).
    pub fn ideal() -> Self {
        SensorSpec::default()
    }
}

/// Waveform adapter combining a sensor's static offset and dynamic part.
struct SensorMu {
    offset: f64,
    dynamic: Option<Arc<dyn Waveform + Send + Sync>>,
}

impl Waveform for SensorMu {
    fn value(&self, t: f64) -> f64 {
        self.offset + self.dynamic.as_ref().map_or(0.0, |d| d.value(t))
    }
    fn amplitude_bound(&self) -> f64 {
        self.offset.abs() + self.dynamic.as_ref().map_or(0.0, |d| d.amplitude_bound())
    }
}

/// Builder for a validated [`System`].
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    setpoint: i64,
    t_clk: f64,
    scheme: Scheme,
    bounds: Option<RoBounds>,
    quantization: Quantization,
    sensors: Vec<SensorSpec>,
    jitter: Option<(f64, u64)>,
    coupling: Coupling,
    initial_length: Option<i64>,
    telemetry: Telemetry,
}

impl SystemBuilder {
    /// Start building a system with set-point `c` (stages).
    pub fn new(setpoint: i64) -> Self {
        SystemBuilder {
            setpoint,
            t_clk: setpoint.max(0) as f64,
            scheme: Scheme::iir_paper(),
            bounds: None,
            quantization: Quantization::Floor,
            sensors: vec![SensorSpec::ideal()],
            jitter: None,
            coupling: Coupling::Additive,
            initial_length: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach an instrumentation handle; every run of the built system
    /// reports counters and structured events through it. The default
    /// (disabled) handle records nothing.
    #[must_use]
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Clock-distribution delay `t_clk` in stage units (default: `c`, one
    /// nominal period).
    #[must_use]
    pub fn cdn_delay(mut self, t_clk: f64) -> Self {
        self.t_clk = t_clk;
        self
    }

    /// Clock generation scheme (default: the paper's IIR).
    #[must_use]
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Ring-oscillator length bounds (default: [`RoBounds::around`] the
    /// set-point).
    #[must_use]
    pub fn ro_bounds(mut self, bounds: RoBounds) -> Self {
        self.bounds = Some(bounds);
        self
    }

    /// TDC quantization mode (default: floor, i.e. completed stages).
    #[must_use]
    pub fn quantization(mut self, q: Quantization) -> Self {
        self.quantization = q;
        self
    }

    /// Replace the sensor layout (default: one ideal sensor).
    #[must_use]
    pub fn sensors(mut self, sensors: Vec<SensorSpec>) -> Self {
        self.sensors = sensors;
        self
    }

    /// Convenience: one sensor with a static mismatch `μ`.
    #[must_use]
    pub fn single_sensor_mu(self, mu: f64) -> Self {
        self.sensors(vec![SensorSpec::offset(mu)])
    }

    /// Start the RO and the controller from a non-equilibrium length
    /// (default: the set-point, i.e. released-from-reset equilibrium).
    /// Use for cold-start / lock-time studies.
    #[must_use]
    pub fn initial_length(mut self, length: i64) -> Self {
        self.initial_length = Some(length);
        self
    }

    /// Select the variation coupling model for both the RO and the TDCs
    /// (default: additive, the paper's Fig. 4 model).
    #[must_use]
    pub fn coupling(mut self, coupling: Coupling) -> Self {
        self.coupling = coupling;
        self
    }

    /// Add cycle-to-cycle generator period jitter (RO phase noise) of the
    /// given standard deviation, seeded for reproducibility. The sigma is
    /// validated in [`build`](Self::build).
    #[must_use]
    pub fn jitter(mut self, sigma: f64, seed: u64) -> Self {
        self.jitter = Some((sigma, seed));
        self
    }

    /// Validate and produce the system.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidSetPoint`], [`Error::InvalidCdnDelay`],
    /// [`Error::InvalidRoBounds`], [`Error::NoSensors`],
    /// [`Error::InvalidNoise`], or an IIR configuration error.
    pub fn build(self) -> Result<System, Error> {
        if self.setpoint <= 0 {
            return Err(Error::InvalidSetPoint {
                value: self.setpoint,
            });
        }
        let cdn = Cdn::new(self.t_clk)?;
        let bounds = match self.bounds {
            Some(b) => {
                // The free RO's design length must also fit the bounds.
                let design_len = match self.scheme {
                    Scheme::FreeRo { extra_length } => self.setpoint + extra_length.max(0),
                    _ => self.setpoint,
                };
                b.validate(self.setpoint)?;
                b.validate(design_len)?;
                b
            }
            None => {
                let design_len = match self.scheme {
                    Scheme::FreeRo { extra_length } => self.setpoint + extra_length.max(0),
                    _ => self.setpoint,
                };
                RoBounds::around(design_len.max(self.setpoint))
            }
        };
        if self.sensors.is_empty() {
            return Err(Error::NoSensors);
        }
        // Validate IIR configs eagerly.
        match &self.scheme {
            Scheme::Iir(cfg) | Scheme::IirFloat(cfg) => cfg.validate()?,
            _ => {}
        }
        if let Some(init) = self.initial_length {
            if init < bounds.min || init > bounds.max {
                return Err(Error::InvalidRoBounds {
                    min: bounds.min,
                    max: bounds.max,
                    setpoint: init,
                });
            }
        }
        // Every noise sigma is validated here, once, so the run path can
        // construct sensors infallibly.
        let jitter = match self.jitter {
            Some((sigma, seed)) => Some(PeriodJitter::new(sigma, seed)?),
            None => None,
        };
        for spec in &self.sensors {
            if let Some((sigma, _)) = spec.noise {
                if !sigma.is_finite() || sigma < 0.0 {
                    return Err(Error::InvalidNoise { sigma });
                }
            }
        }
        Ok(System {
            setpoint: self.setpoint,
            cdn,
            scheme: self.scheme,
            bounds,
            quantization: self.quantization,
            sensors: self.sensors,
            jitter,
            coupling: self.coupling,
            initial_length: self.initial_length,
            telemetry: self.telemetry,
        })
    }
}

/// A validated, runnable adaptive (or fixed) clock system.
#[derive(Debug, Clone)]
pub struct System {
    setpoint: i64,
    cdn: Cdn,
    scheme: Scheme,
    bounds: RoBounds,
    quantization: Quantization,
    sensors: Vec<SensorSpec>,
    jitter: Option<PeriodJitter>,
    coupling: Coupling,
    initial_length: Option<i64>,
    telemetry: Telemetry,
}

impl System {
    /// The set-point `c`.
    pub fn setpoint(&self) -> i64 {
        self.setpoint
    }

    /// The CDN delay in stage units.
    pub fn cdn_delay(&self) -> f64 {
        self.cdn.delay()
    }

    /// The scheme in use.
    pub fn scheme(&self) -> &Scheme {
        &self.scheme
    }

    fn sensor_bank(&self) -> SensorBank {
        self.sensors
            .iter()
            .map(|s| {
                let tdc = Tdc::new(
                    SensorMu {
                        offset: s.offset,
                        dynamic: s.dynamic.clone(),
                    },
                    self.quantization,
                )
                .with_coupling(self.coupling);
                match s.noise {
                    Some((sigma, seed)) => tdc
                        .with_noise(sigma, seed)
                        .expect("sigma validated in SystemBuilder::build"),
                    None => tdc,
                }
            })
            .collect()
    }

    fn event_loop(&self) -> EventLoop {
        let c = self.setpoint;
        let start = self.initial_length.unwrap_or(c);
        let (generator, controller): (Generator, Option<crate::controller::Controller>) =
            match &self.scheme {
                Scheme::Fixed => (Generator::Fixed { period: c as f64 }, None),
                Scheme::FreeRo { extra_length } => {
                    let len = self.bounds.clamp(c + extra_length);
                    (
                        Generator::Ro(
                            RingOscillator::new(len, self.bounds)
                                .expect("bounds validated at build time")
                                .with_coupling(self.coupling),
                        ),
                        Some(FreeRunning::new(len).into()),
                    )
                }
                Scheme::TeaTime => (
                    Generator::Ro(
                        RingOscillator::new(start, self.bounds)
                            .expect("bounds validated at build time")
                            .with_coupling(self.coupling),
                    ),
                    Some(TeaTime::new(start).into()),
                ),
                Scheme::Iir(cfg) => (
                    Generator::Ro(
                        RingOscillator::new(start, self.bounds)
                            .expect("bounds validated at build time")
                            .with_coupling(self.coupling),
                    ),
                    Some(
                        IntIirControl::new(cfg.clone(), start)
                            .expect("config validated at build time")
                            .into(),
                    ),
                ),
                Scheme::IirFloat(cfg) => (
                    Generator::Ro(
                        RingOscillator::new(start, self.bounds)
                            .expect("bounds validated at build time")
                            .with_coupling(self.coupling),
                    ),
                    Some(
                        FloatIir::from_config(cfg, start as f64)
                            .expect("config validated at build time")
                            .into(),
                    ),
                ),
            };
        let el = EventLoop::new(c, generator, self.cdn, self.sensor_bank(), controller)
            .with_telemetry(self.telemetry.clone());
        match self.jitter {
            Some(j) => el.with_jitter(j),
            None => el,
        }
    }

    /// Run the system from equilibrium for `n_samples` delivered periods
    /// under homogeneous variation `e`.
    pub fn run<W: Waveform + ?Sized>(&self, e: &W, n_samples: usize) -> RunTrace {
        let samples = self.event_loop().run(e, n_samples);
        RunTrace {
            setpoint: self.setpoint as f64,
            samples,
        }
    }
}

/// Recorded run of a [`System`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace {
    setpoint: f64,
    samples: Vec<Sample>,
}

impl RunTrace {
    /// Construct from raw samples (mainly for tests and adapters).
    pub fn from_samples(setpoint: f64, samples: Vec<Sample>) -> Self {
        RunTrace { setpoint, samples }
    }

    /// The set-point the run used.
    pub fn setpoint(&self) -> f64 {
        self.setpoint
    }

    /// The recorded samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Drop the first `n` samples (warm-up transient).
    #[must_use]
    pub fn skip(&self, n: usize) -> RunTrace {
        RunTrace {
            setpoint: self.setpoint,
            samples: self.samples.get(n..).unwrap_or_default().to_vec(),
        }
    }

    /// Keep samples with index in `[start, end)`.
    #[must_use]
    pub fn window(&self, start: usize, end: usize) -> RunTrace {
        let end = end.min(self.samples.len());
        let start = start.min(end);
        RunTrace {
            setpoint: self.setpoint,
            samples: self.samples[start..end].to_vec(),
        }
    }

    /// The timing-error series `τ − c` (the paper's Fig. 7 y-axis).
    pub fn timing_errors(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.tau - self.setpoint).collect()
    }

    /// The worst negative timing error `max(c − τ)`, clamped at 0 — "equal,
    /// in absolute value, to the needed safety margin" (paper §IV-A).
    pub fn worst_negative_error(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| self.setpoint - s.tau)
            .fold(0.0, f64::max)
    }

    /// The largest positive timing error `max(τ − c)` (performance left on
    /// the table), clamped at 0.
    pub fn worst_positive_error(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| s.tau - self.setpoint)
            .fold(0.0, f64::max)
    }

    /// Mean generated period over the recorded samples.
    pub fn mean_period(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.period).sum::<f64>() / self.samples.len() as f64
    }

    /// Number of timing violations (`τ < c − margin`).
    pub fn violations(&self, margin: f64) -> usize {
        self.samples
            .iter()
            .filter(|s| s.tau < self.setpoint - margin)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use variation::sources::{Harmonic, NoVariation};

    #[test]
    fn builder_validates() {
        assert!(matches!(
            SystemBuilder::new(0).build(),
            Err(Error::InvalidSetPoint { .. })
        ));
        assert!(matches!(
            SystemBuilder::new(64).cdn_delay(-1.0).build(),
            Err(Error::InvalidCdnDelay { .. })
        ));
        assert!(matches!(
            SystemBuilder::new(64).sensors(vec![]).build(),
            Err(Error::NoSensors)
        ));
        assert!(matches!(
            SystemBuilder::new(64).jitter(-0.5, 1).build(),
            Err(Error::InvalidNoise { .. })
        ));
        assert!(matches!(
            SystemBuilder::new(64)
                .sensors(vec![SensorSpec::ideal().with_noise(f64::NAN, 1)])
                .build(),
            Err(Error::InvalidNoise { .. })
        ));
        assert!(SystemBuilder::new(64).build().is_ok());
    }

    #[test]
    fn builder_rejects_bad_iir() {
        let bad = IirConfig {
            kexp_exp: 3,
            k_star_exp: -3,
            tap_exps: vec![1, 0],
        };
        assert!(SystemBuilder::new(64)
            .scheme(Scheme::Iir(bad))
            .build()
            .is_err());
    }

    #[test]
    fn scheme_labels_match_paper_legends() {
        assert_eq!(Scheme::Fixed.label(), "Fixed clock");
        assert_eq!(Scheme::FreeRo { extra_length: 0 }.label(), "Free RO");
        assert_eq!(Scheme::TeaTime.label(), "TEAtime RO");
        assert_eq!(Scheme::iir_paper().label(), "IIR RO");
        assert!(!Scheme::Fixed.is_ro_based());
        assert!(Scheme::TeaTime.is_ro_based());
    }

    #[test]
    fn quiescent_run_is_clean_for_all_schemes() {
        for scheme in [
            Scheme::Fixed,
            Scheme::FreeRo { extra_length: 0 },
            Scheme::TeaTime,
            Scheme::iir_paper(),
        ] {
            let sys = SystemBuilder::new(64)
                .scheme(scheme.clone())
                .build()
                .unwrap();
            let run = sys.run(&NoVariation, 300);
            assert_eq!(run.len(), 300);
            // TEAtime dithers ±1 around the target; others are exact.
            let bound = if matches!(scheme, Scheme::TeaTime) {
                1.5
            } else {
                1e-9
            };
            assert!(
                run.worst_negative_error() <= bound,
                "{}: {}",
                scheme.label(),
                run.worst_negative_error()
            );
        }
    }

    #[test]
    fn runs_are_reproducible() {
        let sys = SystemBuilder::new(64).build().unwrap();
        let e = Harmonic::new(12.8, 64.0 * 37.5, 0.0);
        let a = sys.run(&e, 500);
        let b = sys.run(&e, 500);
        assert_eq!(a, b);
    }

    #[test]
    fn free_ro_margin_shifts_readings() {
        let sys = SystemBuilder::new(64)
            .scheme(Scheme::FreeRo { extra_length: 10 })
            .build()
            .unwrap();
        let run = sys.run(&NoVariation, 100);
        // longer RO -> τ = 74 -> timing error +10
        assert!((run.worst_positive_error() - 10.0).abs() < 1e-9);
        assert_eq!(run.violations(0.0), 0);
        assert!((run.mean_period() - 74.0).abs() < 1e-9);
    }

    #[test]
    fn trace_window_and_skip() {
        let sys = SystemBuilder::new(64).build().unwrap();
        let run = sys.run(&NoVariation, 100);
        assert_eq!(run.skip(90).len(), 10);
        assert_eq!(run.window(10, 20).len(), 10);
        assert_eq!(run.skip(1000).len(), 0);
        assert!(run.skip(1000).is_empty());
        assert_eq!(run.timing_errors().len(), 100);
    }

    #[test]
    fn adaptive_beats_fixed_for_slow_hodv() {
        // Headline behaviour: under a slow HoDV the IIR RO needs a much
        // smaller margin than the fixed clock.
        let c = 64i64;
        let e = Harmonic::new(0.2 * c as f64, 50.0 * c as f64, 0.0);
        let fixed = SystemBuilder::new(c)
            .scheme(Scheme::Fixed)
            .build()
            .unwrap()
            .run(&e, 4000);
        let iir = SystemBuilder::new(c)
            .scheme(Scheme::iir_paper())
            .build()
            .unwrap()
            .run(&e, 4000);
        let m_fixed = fixed.worst_negative_error();
        let m_iir = iir.worst_negative_error();
        assert!(
            m_iir < 0.6 * m_fixed,
            "IIR margin {m_iir} vs fixed {m_fixed}"
        );
    }

    #[test]
    fn mismatch_hurts_free_ro_not_iir() {
        let c = 64i64;
        let mu = -0.15 * c as f64;
        let free = SystemBuilder::new(c)
            .scheme(Scheme::FreeRo { extra_length: 0 })
            .single_sensor_mu(mu)
            .build()
            .unwrap()
            .run(&NoVariation, 2000);
        let iir = SystemBuilder::new(c)
            .scheme(Scheme::iir_paper())
            .single_sensor_mu(mu)
            .build()
            .unwrap()
            .run(&NoVariation, 2000);
        // Free RO: persistent error = |μ|. IIR: compensated after transient.
        assert!(free.worst_negative_error() > 0.9 * mu.abs());
        assert!(iir.skip(500).worst_negative_error() <= 1.0);
    }

    #[test]
    fn small_domain_tolerates_faster_variation() {
        // Fast HoDV: Te = 8c. Small domain t_clk = 0.25c, large t_clk = 4c
        // (= Te/2, the Eq. 2 worst case).
        let margin = |t_clk: f64| {
            SystemBuilder::new(64)
                .cdn_delay(t_clk)
                .scheme(Scheme::FreeRo { extra_length: 0 })
                .build()
                .unwrap()
                .run(&Harmonic::new(6.4, 8.0 * 64.0, 0.0), 6000)
                .skip(500)
                .worst_negative_error()
        };
        let (small, large) = (margin(16.0), margin(256.0));
        assert!(
            small < 0.6 * large,
            "small domain margin {small} vs large {large}"
        );
    }

    #[test]
    fn period_spread_reflects_domain_conditions() {
        // Two IIR domains with different static sensor mismatches settle at
        // different mean periods; the hot one stretches its RO by ~8 stages.
        let mean_period = |mu: f64| {
            SystemBuilder::new(64)
                .cdn_delay(64.0)
                .scheme(Scheme::iir_paper())
                .single_sensor_mu(mu)
                .build()
                .unwrap()
                .run(&NoVariation, 3000)
                .skip(1500)
                .mean_period()
        };
        let spread = (mean_period(-8.0) - mean_period(0.0)).abs();
        assert!(
            (spread - 8.0).abs() < 1.5,
            "expected ≈ 8 stages of spread, got {spread}"
        );
    }

    #[test]
    fn canonical_ids_are_stable_and_distinct() {
        // These strings feed result-cache keys: they must never drift for a
        // given configuration, and distinct configurations must differ.
        assert_eq!(Scheme::Fixed.canonical_id(), "fixed");
        assert_eq!(
            Scheme::FreeRo { extra_length: 13 }.canonical_id(),
            "free-ro/extra=13"
        );
        assert_eq!(Scheme::TeaTime.canonical_id(), "teatime");
        assert_eq!(
            Scheme::iir_paper().canonical_id(),
            "iir/kexp=3/kstar=-2/taps=1,0,-1,-2,-3,-3"
        );
        assert_eq!(
            Scheme::IirFloat(IirConfig::paper()).canonical_id(),
            "iir-float/kexp=3/kstar=-2/taps=1,0,-1,-2,-3,-3"
        );
        let mut other = IirConfig::paper();
        other.tap_exps[0] = 2;
        assert_ne!(
            Scheme::Iir(other).canonical_id(),
            Scheme::iir_paper().canonical_id()
        );
    }
}
