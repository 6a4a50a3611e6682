//! `clock-mesh` — a multi-domain GALS network of adaptive clock loops.
//!
//! The paper studies a *single* self-adaptive clock domain; a real SoC
//! couples many of them, each with its own ring oscillator, sensors, and
//! control loop, exchanging data across clock-boundary synchronizers.
//! This crate builds that layer on top of the core engines:
//!
//! * a [`Topology`] describes the directed links
//!   between domains (ring / grid / tree constructors, or hand-wired),
//!   each link carrying its own boundary
//!   [`Cdn`](adaptive_clock::cdn::Cdn) — zero-delay and asymmetric
//!   boundaries included, self-loops rejected;
//! * a [`Mesh`] steps a whole
//!   [`DomainBank`](adaptive_clock::bank::DomainBank) in lockstep through
//!   the bank's scalar runner — one fused boundary-and-step pass per
//!   consumer, sharded across the worker threads on large meshes —
//!   injecting inter-domain coupling between periods: each link
//!   advertises the producer's RO length as of `delay + 1` periods ago,
//!   and the *relative skew* against the consumer's own length perturbs
//!   the consumer's heterogeneous input;
//! * every link is watched by a
//!   [`BoundaryMonitor`](clock_metrics::BoundaryMonitor) that accounts
//!   handshake violations and metastability risk, and implements the
//!   FATAL+-style **quarantine** policy: a boundary that stays
//!   unsynchronizable for a run of consecutive periods is cut off, which
//!   contains a Byzantine-faulty or dead neighbour and lets the healthy
//!   domains re-lock.
//!
//! Determinism is load-bearing: a mesh run is a pure function of the bank
//! configuration, topology, and [`Scenario`], so scenario
//! sweeps cache cleanly and CI replays byte-identically. A one-domain
//! mesh with no links is *bit-identical* to the scalar
//! [`DiscreteLoop`](adaptive_clock::loopsim::DiscreteLoop) — coupling is
//! structurally skipped for domains without in-edges, not added as zero —
//! and the differential suite pins that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sim;
pub mod topology;

pub use sim::{BoundaryOutcome, DomainOutcome, Mesh, MeshRun, Scenario};
pub use topology::{Link, Topology};

/// Errors constructing a topology or a mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshError {
    /// A link connected a domain to itself — a clock domain needs no
    /// synchronizer to talk to itself, and a self-edge would feed a
    /// loop's own skew back as coupling.
    SelfLoop {
        /// The offending domain index.
        domain: usize,
    },
    /// A link endpoint named a domain the topology does not have.
    DomainOutOfRange {
        /// The offending domain index.
        domain: usize,
        /// Number of domains in the topology.
        domains: usize,
    },
    /// The bank and the topology disagree on the number of domains.
    DomainCountMismatch {
        /// Domains in the bank.
        bank: usize,
        /// Domains in the topology.
        topology: usize,
    },
}

impl std::fmt::Display for MeshError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeshError::SelfLoop { domain } => {
                write!(f, "self-loop on domain {domain} is not a clock boundary")
            }
            MeshError::DomainOutOfRange { domain, domains } => {
                write!(f, "domain {domain} out of range (topology has {domains})")
            }
            MeshError::DomainCountMismatch { bank, topology } => write!(
                f,
                "bank has {bank} domains but the topology expects {topology}"
            ),
        }
    }
}

impl std::error::Error for MeshError {}
