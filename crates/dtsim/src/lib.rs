//! `dtsim` — a fixed-step discrete-time block-diagram simulation engine.
//!
//! This crate is a from-scratch substitute for the discrete-time subset of
//! MATLAB/Simulink that the SOCC 2012 adaptive-clock paper used as its
//! evaluation substrate. A model is a directed graph of [`Block`]s connected
//! through scalar signal ports. Execution follows the classic two-phase
//! synchronous semantics:
//!
//! 1. **Output phase** — every block computes its outputs from its inputs
//!    and its *current* state, in an order that respects direct-feedthrough
//!    dependencies (a topological order of the feedthrough sub-graph).
//! 2. **Update phase** — every block advances its internal state using the
//!    inputs sampled during the output phase.
//!
//! Feedback loops are legal as long as every cycle is broken by at least one
//! non-feedthrough block (e.g. a [`blocks::UnitDelay`]); a purely
//! combinational cycle is an *algebraic loop* and is rejected at build time.
//!
//! [`Simulation`] is the crate's one engine: an interpreter that calls each
//! boxed block in schedule order. Its consumer is the cross-validation in
//! `adaptive_clock::dtmodel`, which builds the paper's Fig. 4 loop as a
//! block diagram and checks it sample for sample against the discrete loop.
//!
//! # Example
//!
//! A discrete accumulator `y[n] = y[n-1] + u[n-1]` built from a sum and a
//! unit delay in feedback:
//!
//! ```
//! use dtsim::{GraphBuilder, blocks::{Constant, Sum, UnitDelay, Probe}};
//!
//! # fn main() -> Result<(), dtsim::Error> {
//! let mut g = GraphBuilder::new();
//! let one = g.add(Constant::new("one", 1.0));
//! let sum = g.add(Sum::new("sum", "++"));
//! let dly = g.add(UnitDelay::new("dly", 0.0));
//! let probe = g.add(Probe::new("acc"));
//!
//! g.connect(one, 0, sum, 0)?;
//! g.connect(dly, 0, sum, 1)?;
//! g.connect(sum, 0, dly, 0)?;
//! g.connect(dly, 0, probe, 0)?;
//!
//! let mut sim = g.build()?;
//! sim.run(4)?;
//! assert_eq!(sim.trace("acc").unwrap().samples(), &[0.0, 1.0, 2.0, 3.0]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
pub mod blocks;
mod error;
mod graph;
mod sim;
mod trace;

pub use block::{Block, StepContext};
pub use error::Error;
pub use graph::{BlockId, GraphBuilder, PortRef};

/// Numeric-behaviour revision of this engine.
///
/// Result caches mix this into their content keys; bump it only when a
/// change alters the numbers an identical graph produces, so stale cached
/// results become misses. See `adaptive_clock::ENGINE_REV` for the policy.
pub const ENGINE_REV: u32 = 1;
pub use sim::{BlockCost, ScheduleStats, SimReport, Simulation};
pub use trace::Trace;
