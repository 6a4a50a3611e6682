/// Per-step execution context handed to every block.
///
/// The engine advances `step` by one and `time` by `dt` on every call to
/// [`crate::Simulation::step`]. Blocks that model time-dependent sources
/// (e.g. sine waves) should read `time` rather than counting steps so that
/// variable-step drivers behave correctly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepContext {
    /// Zero-based index of the current step.
    pub step: u64,
    /// Simulation time at the beginning of the current step.
    pub time: f64,
    /// Duration of the current step.
    pub dt: f64,
}

impl StepContext {
    /// Context for the first step of a fixed-step simulation.
    pub fn initial(dt: f64) -> Self {
        StepContext {
            step: 0,
            time: 0.0,
            dt,
        }
    }
}

/// A simulation block: a node in the signal-flow graph.
///
/// Blocks follow two-phase synchronous semantics. During the output phase the
/// engine calls [`Block::output`]; the block must fill `outputs` from
/// `inputs` and its current state without modifying state observable by
/// `output`. During the update phase the engine calls [`Block::update`] once
/// per block so the block can advance its state for the next step.
///
/// If a block's outputs do not depend on the *current* step's inputs (e.g. a
/// unit delay), it must return `false` from [`Block::direct_feedthrough`];
/// this is what allows feedback loops.
pub trait Block {
    /// Stable, unique name of the block instance (used in errors and traces).
    fn name(&self) -> &str;

    /// Number of input ports.
    fn num_inputs(&self) -> usize;

    /// Number of output ports.
    fn num_outputs(&self) -> usize;

    /// Whether outputs depend on the current step's inputs.
    fn direct_feedthrough(&self) -> bool {
        true
    }

    /// Output phase: compute `outputs` from `inputs` and current state.
    ///
    /// For non-feedthrough blocks, `inputs` contains the values sampled on
    /// the *previous* update phase and must be ignored here.
    fn output(&mut self, ctx: &StepContext, inputs: &[f64], outputs: &mut [f64]);

    /// Update phase: advance internal state using this step's inputs.
    fn update(&mut self, _ctx: &StepContext, _inputs: &[f64]) {}

    /// Reset internal state to initial conditions.
    fn reset(&mut self) {}

    /// For probe-like blocks: borrow the recorded trace.
    ///
    /// Non-recording blocks return `None` (the default).
    fn trace(&self) -> Option<&crate::Trace> {
        None
    }

    /// For externally-driven blocks (e.g. [`blocks::Inport`]): accept a
    /// value pushed from outside the simulation. Returns `true` if the
    /// block consumed it (the default implementation refuses).
    ///
    /// [`blocks::Inport`]: crate::blocks::Inport
    fn set_value(&mut self, _value: f64) -> bool {
        false
    }
}
