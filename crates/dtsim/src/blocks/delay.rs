//! Delay blocks — the only state-bearing primitives, and the only blocks
//! allowed to break feedback loops (`direct_feedthrough() == false`).

use std::collections::VecDeque;

use crate::block::{Block, StepContext};

/// One-step delay: `y[n] = u[n-1]`, `y[0] = initial`.
#[derive(Debug, Clone)]
pub struct UnitDelay {
    name: String,
    initial: f64,
    state: f64,
}

impl UnitDelay {
    /// A `z⁻¹` element with the given initial output.
    pub fn new(name: impl Into<String>, initial: f64) -> Self {
        UnitDelay {
            name: name.into(),
            initial,
            state: initial,
        }
    }
}

impl Block for UnitDelay {
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
        self.state = inputs[0];
    }
    fn reset(&mut self) {
        self.state = self.initial;
    }
}

/// Fixed N-step delay: `y[n] = u[n-N]`.
///
/// Models the clock distribution network of the paper's Fig. 4 (`z⁻ᴹ`) when
/// the CDN delay is a fixed number of clock periods.
#[derive(Debug, Clone)]
pub struct DelayN {
    name: String,
    initial: f64,
    line: VecDeque<f64>,
    depth: usize,
}

impl DelayN {
    /// A `z⁻ᴺ` element (`depth = N`) with all taps initialized to `initial`.
    ///
    /// A depth of zero is a wire — but note that a zero-depth delay still
    /// reports no direct feedthrough would be wrong, so depth 0 is rejected.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0` (use a direct connection instead).
    pub fn new(name: impl Into<String>, depth: usize, initial: f64) -> Self {
        assert!(depth > 0, "DelayN depth must be at least 1");
        DelayN {
            name: name.into(),
            initial,
            line: VecDeque::from(vec![initial; depth]),
            depth,
        }
    }

    /// The configured delay depth `N`.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

impl Block for DelayN {
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
        outputs[0] = *self.line.front().expect("delay line is never empty");
    }
    fn update(&mut self, _ctx: &StepContext, inputs: &[f64]) {
        self.line.pop_front();
        self.line.push_back(inputs[0]);
    }
    fn reset(&mut self) {
        self.line.clear();
        self.line
            .extend(std::iter::repeat_n(self.initial, self.depth));
    }
}

/// Delay whose (possibly fractional) depth is set by a second input.
///
/// `y[n] = u[n - d[n]]` with linear interpolation between taps for
/// non-integer `d[n]`. The requested delay is clamped into
/// `[0, max_depth]`. A delay of zero reproduces the input sampled on the
/// *previous* step (the block never has direct feedthrough, so the loop can
/// stay well-formed even at zero requested delay).
///
/// This models the paper's CDN when `M[n] = t_clk / T_clk[n]` varies with
/// the instantaneous clock period.
#[derive(Debug, Clone)]
pub struct VariableDelay {
    name: String,
    initial: f64,
    /// history[0] is the most recent sample (u[n-1] during the output phase).
    history: VecDeque<f64>,
    max_depth: usize,
}

impl VariableDelay {
    /// A variable delay holding up to `max_depth` past samples.
    ///
    /// # Panics
    ///
    /// Panics if `max_depth == 0`.
    pub fn new(name: impl Into<String>, max_depth: usize, initial: f64) -> Self {
        assert!(max_depth > 0, "VariableDelay max_depth must be at least 1");
        VariableDelay {
            name: name.into(),
            initial,
            history: VecDeque::from(vec![initial; max_depth + 1]),
            max_depth,
        }
    }
}

impl Block for VariableDelay {
    fn name(&self) -> &str {
        &self.name
    }
    /// Port 0: signal input. Port 1: requested delay (in steps).
    fn num_inputs(&self) -> usize {
        2
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn direct_feedthrough(&self) -> bool {
        false
    }
    fn output(&mut self, _ctx: &StepContext, inputs: &[f64], outputs: &mut [f64]) {
        // inputs here are the values latched on the previous update phase;
        // the delay request is re-read from the latched value too.
        let d = inputs[1].clamp(0.0, self.max_depth as f64);
        let lo = d.floor() as usize;
        let hi = (lo + 1).min(self.max_depth);
        let frac = d - lo as f64;
        let a = self.history[lo];
        let b = self.history[hi];
        outputs[0] = a + frac * (b - a);
    }
    fn update(&mut self, _ctx: &StepContext, inputs: &[f64]) {
        self.history.pop_back();
        self.history.push_front(inputs[0]);
    }
    fn reset(&mut self) {
        self.history.clear();
        self.history
            .extend(std::iter::repeat_n(self.initial, self.max_depth + 1));
    }
}

/// Delay line exposing every tap as its own output port.
///
/// Output port `k` carries `u[n - (k+1)]`. Useful for building transversal
/// (FIR) structures and the feedback tap bank of the paper's IIR control
/// block (Fig. 5).
#[derive(Debug, Clone)]
pub struct TappedDelayLine {
    name: String,
    initial: f64,
    line: VecDeque<f64>,
    taps: usize,
}

impl TappedDelayLine {
    /// A delay line with `taps` unit-delay stages, all initialized to
    /// `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `taps == 0`.
    pub fn new(name: impl Into<String>, taps: usize, initial: f64) -> Self {
        assert!(taps > 0, "TappedDelayLine needs at least one tap");
        TappedDelayLine {
            name: name.into(),
            initial,
            line: VecDeque::from(vec![initial; taps]),
            taps,
        }
    }
}

impl Block for TappedDelayLine {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        self.taps
    }
    fn direct_feedthrough(&self) -> bool {
        false
    }
    fn output(&mut self, _ctx: &StepContext, _inputs: &[f64], outputs: &mut [f64]) {
        for (o, v) in outputs.iter_mut().zip(self.line.iter()) {
            *o = *v;
        }
    }
    fn update(&mut self, _ctx: &StepContext, inputs: &[f64]) {
        self.line.pop_back();
        self.line.push_front(inputs[0]);
    }
    fn reset(&mut self) {
        self.line.clear();
        self.line
            .extend(std::iter::repeat_n(self.initial, self.taps));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::{Constant, FunctionSource, Probe};
    use crate::GraphBuilder;

    #[test]
    fn unit_delay_shifts_by_one() {
        let mut g = GraphBuilder::new();
        let src = g.add(FunctionSource::new("src", |t| t + 10.0));
        let d = g.add(UnitDelay::new("d", -1.0));
        let p = g.add(Probe::new("p"));
        g.chain(&[src, d, p]).unwrap();
        let mut sim = g.build().unwrap();
        sim.run(4).unwrap();
        assert_eq!(sim.trace("p").unwrap().samples(), &[-1.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn delay_n_shifts_by_n() {
        let mut g = GraphBuilder::new();
        let src = g.add(FunctionSource::new("src", |t| t));
        let d = g.add(DelayN::new("d", 3, 0.0));
        let p = g.add(Probe::new("p"));
        g.chain(&[src, d, p]).unwrap();
        let mut sim = g.build().unwrap();
        sim.run(6).unwrap();
        assert_eq!(
            sim.trace("p").unwrap().samples(),
            &[0.0, 0.0, 0.0, 0.0, 1.0, 2.0]
        );
    }

    #[test]
    #[should_panic(expected = "depth must be at least 1")]
    fn delay_n_rejects_zero_depth() {
        let _ = DelayN::new("d", 0, 0.0);
    }

    #[test]
    fn variable_delay_integer_depths() {
        let mut g = GraphBuilder::new();
        let src = g.add(FunctionSource::new("src", |t| t));
        let depth = g.add(Constant::new("depth", 2.0));
        let d = g.add(VariableDelay::new("d", 8, 0.0));
        let p = g.add(Probe::new("p"));
        g.connect(src, 0, d, 0).unwrap();
        g.connect(depth, 0, d, 1).unwrap();
        g.connect(d, 0, p, 0).unwrap();
        let mut sim = g.build().unwrap();
        sim.run(6).unwrap();
        // y[n] = u[n-1-2] with history latched one step behind:
        // history[k] = u[n-1-k]; depth=2 reads u[n-3].
        assert_eq!(
            sim.trace("p").unwrap().samples(),
            &[0.0, 0.0, 0.0, 0.0, 1.0, 2.0]
        );
    }

    #[test]
    fn variable_delay_interpolates_fractional_depth() {
        let mut g = GraphBuilder::new();
        let src = g.add(FunctionSource::new("src", |t| t));
        let depth = g.add(Constant::new("depth", 1.5));
        let d = g.add(VariableDelay::new("d", 8, 0.0));
        let p = g.add(Probe::new("p"));
        g.connect(src, 0, d, 0).unwrap();
        g.connect(depth, 0, d, 1).unwrap();
        g.connect(d, 0, p, 0).unwrap();
        let mut sim = g.build().unwrap();
        sim.run(6).unwrap();
        // at n=5: history = [u4, u3, u2, ...] = [4,3,2]; d=1.5 → (3+2)/2 = 2.5
        let s = sim.trace("p").unwrap().samples().to_vec();
        assert!((s[5] - 2.5).abs() < 1e-12, "got {s:?}");
    }

    #[test]
    fn variable_delay_clamps_request() {
        let mut g = GraphBuilder::new();
        let src = g.add(FunctionSource::new("src", |t| t));
        let depth = g.add(Constant::new("depth", 100.0));
        let d = g.add(VariableDelay::new("d", 2, -5.0));
        let p = g.add(Probe::new("p"));
        g.connect(src, 0, d, 0).unwrap();
        g.connect(depth, 0, d, 1).unwrap();
        g.connect(d, 0, p, 0).unwrap();
        let mut sim = g.build().unwrap();
        sim.run(5).unwrap();
        // clamped to max_depth=2 → u[n-3]
        assert_eq!(
            sim.trace("p").unwrap().samples(),
            &[-5.0, -5.0, -5.0, 0.0, 1.0]
        );
    }

    #[test]
    fn tapped_delay_line_taps() {
        let mut g = GraphBuilder::new();
        let src = g.add(FunctionSource::new("src", |t| t));
        let tdl = g.add(TappedDelayLine::new("tdl", 3, 0.0));
        let p1 = g.add(Probe::new("p1"));
        let p3 = g.add(Probe::new("p3"));
        g.connect(src, 0, tdl, 0).unwrap();
        g.connect(tdl, 0, p1, 0).unwrap();
        g.connect(tdl, 2, p3, 0).unwrap();
        let mut sim = g.build().unwrap();
        sim.run(5).unwrap();
        assert_eq!(
            sim.trace("p1").unwrap().samples(),
            &[0.0, 0.0, 1.0, 2.0, 3.0]
        );
        assert_eq!(
            sim.trace("p3").unwrap().samples(),
            &[0.0, 0.0, 0.0, 0.0, 1.0]
        );
    }

    #[test]
    fn reset_restores_initial_taps() {
        let mut g = GraphBuilder::new();
        let src = g.add(FunctionSource::new("src", |t| t + 1.0));
        let d = g.add(DelayN::new("d", 2, 7.0));
        let p = g.add(Probe::new("p"));
        g.chain(&[src, d, p]).unwrap();
        let mut sim = g.build().unwrap();
        sim.run(4).unwrap();
        sim.reset();
        sim.run(2).unwrap();
        assert_eq!(sim.trace("p").unwrap().samples(), &[7.0, 7.0]);
    }
}
