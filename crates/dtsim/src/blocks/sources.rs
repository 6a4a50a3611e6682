//! Source blocks (no inputs, one output).

use crate::block::{Block, StepContext};

/// Emits a constant value.
#[derive(Debug, Clone)]
pub struct Constant {
    name: String,
    value: f64,
}

impl Constant {
    /// A source that always outputs `value`.
    pub fn new(name: impl Into<String>, value: f64) -> Self {
        Constant {
            name: name.into(),
            value,
        }
    }
}

impl Block for Constant {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        0
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn direct_feedthrough(&self) -> bool {
        false
    }
    fn output(&mut self, _ctx: &StepContext, _inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = self.value;
    }
}

/// Step source: `initial` before `step_time`, `final_value` at and after it.
#[derive(Debug, Clone)]
pub struct Step {
    name: String,
    step_time: f64,
    initial: f64,
    final_value: f64,
}

impl Step {
    /// A Heaviside-style step at `step_time` from `initial` to `final_value`.
    pub fn new(name: impl Into<String>, step_time: f64, initial: f64, final_value: f64) -> Self {
        Step {
            name: name.into(),
            step_time,
            initial,
            final_value,
        }
    }
}

impl Block for Step {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        0
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn direct_feedthrough(&self) -> bool {
        false
    }
    fn output(&mut self, ctx: &StepContext, _inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = if ctx.time >= self.step_time {
            self.final_value
        } else {
            self.initial
        };
    }
}

/// Ramp source: `slope * max(0, t - start_time)`.
#[derive(Debug, Clone)]
pub struct Ramp {
    name: String,
    slope: f64,
    start_time: f64,
}

impl Ramp {
    /// A ramp of the given `slope` beginning at `start_time`.
    pub fn new(name: impl Into<String>, slope: f64, start_time: f64) -> Self {
        Ramp {
            name: name.into(),
            slope,
            start_time,
        }
    }
}

impl Block for Ramp {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        0
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn direct_feedthrough(&self) -> bool {
        false
    }
    fn output(&mut self, ctx: &StepContext, _inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = self.slope * (ctx.time - self.start_time).max(0.0);
    }
}

/// Sine source: `amplitude * sin(2π t / period + phase)`.
#[derive(Debug, Clone)]
pub struct Sine {
    name: String,
    amplitude: f64,
    period: f64,
    phase: f64,
}

impl Sine {
    /// A sinusoid with the given amplitude, period (in time units, not
    /// radians) and phase (radians).
    ///
    /// # Panics
    ///
    /// Panics if `period` is not strictly positive.
    pub fn new(name: impl Into<String>, amplitude: f64, period: f64, phase: f64) -> Self {
        assert!(period > 0.0, "sine period must be positive");
        Sine {
            name: name.into(),
            amplitude,
            period,
            phase,
        }
    }
}

impl Block for Sine {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        0
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn direct_feedthrough(&self) -> bool {
        false
    }
    fn output(&mut self, ctx: &StepContext, _inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] =
            self.amplitude * (std::f64::consts::TAU * ctx.time / self.period + self.phase).sin();
    }
}

/// Rectangular pulse train.
#[derive(Debug, Clone)]
pub struct Pulse {
    name: String,
    amplitude: f64,
    period: f64,
    duty: f64,
    start_time: f64,
}

impl Pulse {
    /// A pulse train of the given `amplitude`, repetition `period`, duty
    /// cycle `duty ∈ [0, 1]` and phase origin `start_time`.
    ///
    /// # Panics
    ///
    /// Panics if `period <= 0` or `duty` is outside `[0, 1]`.
    pub fn new(
        name: impl Into<String>,
        amplitude: f64,
        period: f64,
        duty: f64,
        start_time: f64,
    ) -> Self {
        assert!(period > 0.0, "pulse period must be positive");
        assert!((0.0..=1.0).contains(&duty), "duty cycle must be in [0, 1]");
        Pulse {
            name: name.into(),
            amplitude,
            period,
            duty,
            start_time,
        }
    }
}

impl Block for Pulse {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        0
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn direct_feedthrough(&self) -> bool {
        false
    }
    fn output(&mut self, ctx: &StepContext, _inputs: &[f64], outputs: &mut [f64]) {
        let t = ctx.time - self.start_time;
        let high = t >= 0.0 && (t / self.period).fract() < self.duty;
        outputs[0] = if high { self.amplitude } else { 0.0 };
    }
}

/// Single triangular pulse: rises from 0 to `amplitude` over the first half
/// of `duration`, falls back to 0 over the second half, then stays at 0.
///
/// This is the "single event HoDV" waveform of the paper (Eq. 3): a fast
/// voltage droop of duration `T_ν` and amplitude `ν₀`.
#[derive(Debug, Clone)]
pub struct TriangularPulse {
    name: String,
    amplitude: f64,
    duration: f64,
    start_time: f64,
}

impl TriangularPulse {
    /// A single triangular event of the given `amplitude` and `duration`
    /// starting at `start_time`.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is not strictly positive.
    pub fn new(name: impl Into<String>, amplitude: f64, duration: f64, start_time: f64) -> Self {
        assert!(duration > 0.0, "pulse duration must be positive");
        TriangularPulse {
            name: name.into(),
            amplitude,
            duration,
            start_time,
        }
    }
}

impl Block for TriangularPulse {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        0
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn direct_feedthrough(&self) -> bool {
        false
    }
    fn output(&mut self, ctx: &StepContext, _inputs: &[f64], outputs: &mut [f64]) {
        let t = ctx.time - self.start_time;
        outputs[0] = if t < 0.0 || t > self.duration {
            0.0
        } else {
            let x = t / self.duration;
            self.amplitude * (1.0 - (2.0 * x - 1.0).abs())
        };
    }
}

/// Source driven by an arbitrary function of time.
pub struct FunctionSource {
    name: String,
    f: Box<dyn FnMut(f64) -> f64>,
}

impl std::fmt::Debug for FunctionSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FunctionSource")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl FunctionSource {
    /// A source emitting `f(t)` at simulation time `t`.
    pub fn new(name: impl Into<String>, f: impl FnMut(f64) -> f64 + 'static) -> Self {
        FunctionSource {
            name: name.into(),
            f: Box::new(f),
        }
    }
}

impl Block for FunctionSource {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        0
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn direct_feedthrough(&self) -> bool {
        false
    }
    fn output(&mut self, ctx: &StepContext, _inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = (self.f)(ctx.time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample<B: Block>(block: &mut B, times: &[f64]) -> Vec<f64> {
        times
            .iter()
            .map(|&t| {
                let ctx = StepContext {
                    step: 0,
                    time: t,
                    dt: 1.0,
                };
                let mut out = [0.0];
                block.output(&ctx, &[], &mut out);
                out[0]
            })
            .collect()
    }

    #[test]
    fn constant_is_constant() {
        let mut c = Constant::new("c", 2.5);
        assert_eq!(sample(&mut c, &[0.0, 1.0, 99.0]), vec![2.5, 2.5, 2.5]);
    }

    #[test]
    fn step_switches_at_step_time() {
        let mut s = Step::new("s", 2.0, -1.0, 1.0);
        assert_eq!(
            sample(&mut s, &[0.0, 1.9, 2.0, 3.0]),
            vec![-1.0, -1.0, 1.0, 1.0]
        );
    }

    #[test]
    fn ramp_starts_at_start_time() {
        let mut r = Ramp::new("r", 2.0, 1.0);
        assert_eq!(
            sample(&mut r, &[0.0, 1.0, 2.0, 3.0]),
            vec![0.0, 0.0, 2.0, 4.0]
        );
    }

    #[test]
    fn sine_hits_quarter_points() {
        let mut s = Sine::new("s", 2.0, 4.0, 0.0);
        let v = sample(&mut s, &[0.0, 1.0, 2.0, 3.0]);
        assert!((v[0] - 0.0).abs() < 1e-12);
        assert!((v[1] - 2.0).abs() < 1e-12);
        assert!((v[2] - 0.0).abs() < 1e-12);
        assert!((v[3] + 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn sine_rejects_zero_period() {
        let _ = Sine::new("s", 1.0, 0.0, 0.0);
    }

    #[test]
    fn pulse_duty_cycle() {
        let mut p = Pulse::new("p", 1.0, 4.0, 0.5, 0.0);
        assert_eq!(
            sample(&mut p, &[0.0, 1.0, 2.0, 3.0, 4.0]),
            vec![1.0, 1.0, 0.0, 0.0, 1.0]
        );
    }

    #[test]
    fn triangular_pulse_shape() {
        let mut p = TriangularPulse::new("t", 4.0, 8.0, 2.0);
        let v = sample(&mut p, &[0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0]);
        assert_eq!(v, vec![0.0, 0.0, 2.0, 4.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn function_source_tracks_time() {
        let mut f = FunctionSource::new("f", |t| t * t);
        assert_eq!(sample_fn(&mut f, &[0.0, 2.0, 3.0]), vec![0.0, 4.0, 9.0]);
    }

    fn sample_fn(block: &mut FunctionSource, times: &[f64]) -> Vec<f64> {
        times
            .iter()
            .map(|&t| {
                let ctx = StepContext {
                    step: 0,
                    time: t,
                    dt: 1.0,
                };
                let mut out = [0.0];
                block.output(&ctx, &[], &mut out);
                out[0]
            })
            .collect()
    }
}
