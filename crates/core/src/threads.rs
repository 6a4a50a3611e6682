//! The process-wide worker-count setting shared by every parallel engine.
//!
//! One knob governs all parallelism in the workspace: the experiment
//! sweeps, the lane-chunk dispatcher and the `clock-mesh` shards all size
//! their worker pools with [`worker_count`]. The `repro` CLI sets it from
//! `--threads N` / `REPRO_THREADS`; left unset it is
//! `available_parallelism`.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide worker-count override (0 = automatic).
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Override the worker count (`repro --threads N` / `REPRO_THREADS`).
/// `None` (or `Some(0)`) restores the automatic choice,
/// `available_parallelism`. The effective count is always additionally
/// clamped to the number of dispatchable units (see [`worker_count`]).
pub fn set_threads(n: Option<usize>) {
    THREADS.store(n.unwrap_or(0), Ordering::Relaxed);
}

/// The current worker-count override, when one is set.
pub fn thread_override() -> Option<usize> {
    match THREADS.load(Ordering::Relaxed) {
        0 => None,
        n => Some(n),
    }
}

/// Workers to use for `pending` dispatchable units: the override (or
/// `available_parallelism`), clamped to `1..=pending`.
pub fn worker_count(pending: usize) -> usize {
    let base = thread_override().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    });
    base.min(pending).max(1)
}
