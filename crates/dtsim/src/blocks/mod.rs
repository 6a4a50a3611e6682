//! Built-in block library.
//!
//! All blocks operate on scalar `f64` signals. Blocks whose output does not
//! depend on the current step's input (delays) report
//! `direct_feedthrough() == false` and may be used to break feedback loops.

mod arith;
mod custom;
mod delay;
mod filter;
mod io;
mod logic;
mod nonlinear;
mod sinks;
mod sources;

pub use arith::{
    Abs, Gain, Max, Min, Negate, Offset, Product, Quantizer, Rounding, Saturate, Sign, Sum,
};
pub use custom::{FnBlock, StatefulFnBlock};
pub use delay::{DelayN, TappedDelayLine, UnitDelay, VariableDelay};
pub use filter::{FirFilter, IirFilter, Integrator};
pub use io::{Inport, Subsystem};
pub use logic::{Comparator, Counter, SampleHold, Switch};
pub use nonlinear::{DeadZone, RateLimiter, Relay};
pub use sinks::{Probe, Terminator};
pub use sources::{Constant, FunctionSource, Pulse, Ramp, Sine, Step, TriangularPulse};
