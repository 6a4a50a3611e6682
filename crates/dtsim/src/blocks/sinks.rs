//! Sink blocks.

use crate::block::{Block, StepContext};
use crate::trace::Trace;

/// Records its input signal every step.
///
/// The recorded series is retrieved with
/// [`Simulation::trace`](crate::Simulation::trace) using the probe's name.
/// Resetting the simulation clears the recording.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    name: String,
    trace: Trace,
}

impl Probe {
    /// A recording probe named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Probe {
            name: name.into(),
            trace: Trace::new(),
        }
    }
}

impl Block for Probe {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        0
    }
    fn output(&mut self, _ctx: &StepContext, _inputs: &[f64], _outputs: &mut [f64]) {}
    fn update(&mut self, ctx: &StepContext, inputs: &[f64]) {
        self.trace.push(ctx.time, inputs[0]);
    }
    fn reset(&mut self) {
        self.trace.clear();
    }
    fn trace(&self) -> Option<&Trace> {
        Some(&self.trace)
    }
}

/// Swallows a signal (for outputs that must be connected nowhere).
#[derive(Debug, Clone)]
pub struct Terminator {
    name: String,
}

impl Terminator {
    /// A sink that ignores its input.
    pub fn new(name: impl Into<String>) -> Self {
        Terminator { name: name.into() }
    }
}

impl Block for Terminator {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        0
    }
    fn output(&mut self, _ctx: &StepContext, _inputs: &[f64], _outputs: &mut [f64]) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::FunctionSource;
    use crate::GraphBuilder;

    #[test]
    fn probe_records_time_and_value() {
        let mut g = GraphBuilder::new();
        let src = g.add(FunctionSource::new("src", |t| 2.0 * t));
        let p = g.add(Probe::new("p"));
        g.connect(src, 0, p, 0).unwrap();
        let mut sim = g.build().unwrap();
        sim.run(3).unwrap();
        let tr = sim.trace("p").unwrap();
        assert_eq!(tr.times(), &[0.0, 1.0, 2.0]);
        assert_eq!(tr.samples(), &[0.0, 2.0, 4.0]);
    }

    #[test]
    fn terminator_accepts_anything() {
        let mut g = GraphBuilder::new();
        let src = g.add(FunctionSource::new("src", |t| t));
        let t = g.add(Terminator::new("t"));
        g.connect(src, 0, t, 0).unwrap();
        let mut sim = g.build().unwrap();
        assert!(sim.run(10).is_ok());
    }
}
