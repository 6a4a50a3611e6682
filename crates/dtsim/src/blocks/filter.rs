//! Linear filter blocks.

use std::collections::VecDeque;

use crate::block::{Block, StepContext};

/// Finite-impulse-response filter: `y[n] = Σ b_k · u[n−k]`.
///
/// Direct feedthrough (uses `b₀·u[n]`), so it cannot break loops on its
/// own; put a [`super::UnitDelay`] in series where needed.
#[derive(Debug, Clone)]
pub struct FirFilter {
    name: String,
    taps: Vec<f64>,
    history: VecDeque<f64>,
}

impl FirFilter {
    /// A FIR filter with coefficients `[b₀, b₁, …]`.
    ///
    /// # Panics
    ///
    /// Panics if `taps` is empty.
    pub fn new(name: impl Into<String>, taps: Vec<f64>) -> Self {
        assert!(!taps.is_empty(), "FIR filter needs at least one tap");
        let history = VecDeque::from(vec![0.0; taps.len() - 1]);
        FirFilter {
            name: name.into(),
            taps,
            history,
        }
    }
}

impl Block for FirFilter {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn output(&mut self, _ctx: &StepContext, inputs: &[f64], outputs: &mut [f64]) {
        let mut acc = self.taps[0] * inputs[0];
        for (k, b) in self.taps.iter().enumerate().skip(1) {
            acc += b * self.history[k - 1];
        }
        outputs[0] = acc;
    }
    fn update(&mut self, _ctx: &StepContext, inputs: &[f64]) {
        if !self.history.is_empty() {
            self.history.pop_back();
            self.history.push_front(inputs[0]);
        }
    }
    fn reset(&mut self) {
        for h in &mut self.history {
            *h = 0.0;
        }
    }
}

/// Infinite-impulse-response filter in direct form II transposed:
/// `y[n] = (Σ b_k u[n−k] − Σ_{k≥1} a_k y[n−k]) / a₀`.
///
/// Direct feedthrough via `b₀`.
#[derive(Debug, Clone)]
pub struct IirFilter {
    name: String,
    b: Vec<f64>,
    a: Vec<f64>,
    /// Transposed state registers, length `max(len(a), len(b)) − 1`.
    state: Vec<f64>,
}

impl IirFilter {
    /// An IIR filter with numerator `b` and denominator `a` coefficients
    /// (ascending delay powers). Coefficients are normalized by `a₀`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is empty or `a₀ == 0`, or `b` is empty.
    pub fn new(name: impl Into<String>, b: Vec<f64>, a: Vec<f64>) -> Self {
        assert!(!b.is_empty(), "IIR filter needs numerator coefficients");
        assert!(
            !a.is_empty() && a[0] != 0.0,
            "IIR filter needs a nonzero leading denominator coefficient"
        );
        let a0 = a[0];
        let n = a.len().max(b.len());
        let mut bb = vec![0.0; n];
        let mut aa = vec![0.0; n];
        for (i, &v) in b.iter().enumerate() {
            bb[i] = v / a0;
        }
        for (i, &v) in a.iter().enumerate() {
            aa[i] = v / a0;
        }
        IirFilter {
            name: name.into(),
            b: bb,
            a: aa,
            state: vec![0.0; n - 1],
        }
    }

    fn compute(&self, u: f64) -> f64 {
        if self.state.is_empty() {
            self.b[0] * u
        } else {
            self.b[0] * u + self.state[0]
        }
    }
}

impl Block for IirFilter {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn output(&mut self, _ctx: &StepContext, inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = self.compute(inputs[0]);
    }
    fn update(&mut self, _ctx: &StepContext, inputs: &[f64]) {
        let u = inputs[0];
        let y = self.compute(u);
        let n = self.state.len();
        for k in 0..n {
            let next = if k + 1 < n { self.state[k + 1] } else { 0.0 };
            self.state[k] = next + self.b[k + 1] * u - self.a[k + 1] * y;
        }
    }
    fn reset(&mut self) {
        for s in &mut self.state {
            *s = 0.0;
        }
    }
}

/// Discrete-time integrator (accumulator): `y[n] = y[n−1] + gain·u[n−1]`.
///
/// No direct feedthrough — usable to break loops.
#[derive(Debug, Clone)]
pub struct Integrator {
    name: String,
    gain: f64,
    initial: f64,
    state: f64,
}

impl Integrator {
    /// An accumulator with the given per-step gain and initial output.
    pub fn new(name: impl Into<String>, gain: f64, initial: f64) -> Self {
        Integrator {
            name: name.into(),
            gain,
            initial,
            state: initial,
        }
    }
}

impl Block for Integrator {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn direct_feedthrough(&self) -> bool {
        false
    }
    fn output(&mut self, _ctx: &StepContext, _inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = self.state;
    }
    fn update(&mut self, _ctx: &StepContext, inputs: &[f64]) {
        self.state += self.gain * inputs[0];
    }
    fn reset(&mut self) {
        self.state = self.initial;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::{FunctionSource, Probe};
    use crate::GraphBuilder;

    fn drive(block: impl Block + 'static, input: Vec<f64>) -> Vec<f64> {
        let mut g = GraphBuilder::new();
        let n = input.len();
        let src = g.add(FunctionSource::new("src", move |t| {
            input[(t as usize).min(n - 1)]
        }));
        let name = block.name().to_owned();
        let b = g.add(block);
        let p = g.add(Probe::new("p"));
        g.connect(src, 0, b, 0).unwrap();
        g.connect(b, 0, p, 0).unwrap();
        let _ = name;
        let mut sim = g.build().unwrap();
        sim.run(n as u64).unwrap();
        sim.trace("p").unwrap().samples().to_vec()
    }

    #[test]
    fn fir_impulse_response_is_taps() {
        let taps = vec![1.0, 0.5, 0.25];
        let mut input = vec![0.0; 6];
        input[0] = 1.0;
        let y = drive(FirFilter::new("fir", taps.clone()), input);
        assert_eq!(&y[..3], &taps[..]);
        assert_eq!(&y[3..], &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn fir_single_tap_is_gain() {
        let y = drive(FirFilter::new("fir", vec![3.0]), vec![1.0, 2.0, 3.0]);
        assert_eq!(y, vec![3.0, 6.0, 9.0]);
    }

    #[test]
    fn iir_one_pole_impulse() {
        // H = 1 / (1 - 0.5 z^-1): h[k] = 0.5^k
        let mut input = vec![0.0; 8];
        input[0] = 1.0;
        let y = drive(IirFilter::new("iir", vec![1.0], vec![1.0, -0.5]), input);
        for (k, v) in y.iter().enumerate() {
            assert!((v - 0.5f64.powi(k as i32)).abs() < 1e-12, "k={k}");
        }
    }

    #[test]
    fn iir_matches_zdomain_reference() {
        // a randomly chosen stable biquad, compared against the difference
        // equation evaluated directly
        let b = vec![0.3, -0.2, 0.1];
        let a = vec![1.0, -0.6, 0.25];
        let input: Vec<f64> = (0..30).map(|k| ((k * 7 % 5) as f64) - 2.0).collect();
        let y = drive(IirFilter::new("iir", b.clone(), a.clone()), input.clone());
        let mut want = vec![0.0; 30];
        for k in 0..30 {
            let mut acc = 0.0;
            for (i, &bi) in b.iter().enumerate() {
                if k >= i {
                    acc += bi * input[k - i];
                }
            }
            for (i, &ai) in a.iter().enumerate().skip(1) {
                if k >= i {
                    acc -= ai * want[k - i];
                }
            }
            want[k] = acc;
        }
        for k in 0..30 {
            assert!(
                (y[k] - want[k]).abs() < 1e-12,
                "k={k}: {} vs {}",
                y[k],
                want[k]
            );
        }
    }

    #[test]
    fn iir_normalizes_a0() {
        let mut input = vec![0.0; 4];
        input[0] = 2.0;
        let y = drive(IirFilter::new("iir", vec![2.0], vec![2.0]), input);
        assert_eq!(y[0], 2.0); // (2/2)·2
    }

    #[test]
    #[should_panic(expected = "nonzero leading denominator")]
    fn iir_rejects_zero_a0() {
        let _ = IirFilter::new("iir", vec![1.0], vec![0.0, 1.0]);
    }

    #[test]
    fn integrator_accumulates_with_delay() {
        let y = drive(Integrator::new("int", 2.0, 10.0), vec![1.0, 1.0, 1.0, 1.0]);
        assert_eq!(y, vec![10.0, 12.0, 14.0, 16.0]);
    }

    #[test]
    fn integrator_breaks_loops() {
        let mut g = GraphBuilder::new();
        let int = g.add(Integrator::new("int", -0.5, 4.0));
        let p = g.add(Probe::new("p"));
        // negative feedback of the integrator on itself: y -> int -> y
        g.connect(int, 0, int, 0).unwrap();
        g.connect(int, 0, p, 0).unwrap();
        let mut sim = g.build().unwrap();
        sim.run(30).unwrap();
        // y[n+1] = y[n](1 - 0.5) -> geometric decay to 0
        let s = sim.trace("p").unwrap().samples();
        assert_eq!(s[0], 4.0);
        assert!((s[1] - 2.0).abs() < 1e-12);
        assert!(s[29].abs() < 1e-6);
    }

    #[test]
    fn filters_reset_cleanly() {
        let mut f = FirFilter::new("f", vec![1.0, 1.0]);
        let ctx = StepContext::initial(1.0);
        f.update(&ctx, &[5.0]);
        let mut out = [0.0];
        f.output(&ctx, &[0.0], &mut out);
        assert_eq!(out[0], 5.0);
        f.reset();
        f.output(&ctx, &[0.0], &mut out);
        assert_eq!(out[0], 0.0);
    }
}
