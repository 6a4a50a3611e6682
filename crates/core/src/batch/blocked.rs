//! The fixed-width lane-block engine behind [`BatchLoop::run`].
//!
//! Clean lanes of a batch are grouped by control scheme and packed into
//! [`BLOCK_WIDTH`]-wide structure-of-arrays blocks (`[f64; W]` /
//! `[i64; W]` columns). A block advances with straight-line kernels —
//! TDC sample, error computation, controller update, period write-back —
//! whose per-lane arithmetic is a verbatim transcription of the shared
//! [`Controller`] step bodies, so a blocked lane produces the same bit
//! pattern as its scalar [`DiscreteLoop`](crate::loopsim::DiscreteLoop)
//! twin:
//!
//! * integer shifts ([`shift`]) are exact, so the Fig. 5 integer IIR
//!   cannot diverge;
//! * the float IIR accumulates `δ + Σ wᵢ·kᵢ` in the same tap order per
//!   lane, and f64 addition/multiplication give one correctly-rounded
//!   result regardless of which lanes sit alongside in the block;
//! * TEAtime selects among exactly the values the scalar sign branch
//!   computes, so `±0.0`/NaN payloads cannot leak in;
//! * the IIR delay lines are stepped by head rotation over the same
//!   window the scalar `rotate_right(1)` maintains.
//!
//! Divergent control flow is handled by *exclusion*, not by masking
//! inside the block: lanes with a live fault schedule or hardening
//! config, and group tails that do not fill a block, run on the per-lane
//! scalar path (the same `FaultPath` call sequence as the scalar
//! engines). What remains inside a block is branch-free except for
//! selects, which is what lets the kernels vectorize on a stable
//! toolchain without `std::simd`.
//!
//! # Tile-major order
//!
//! The run is cut into tiles of [`TILE`] periods, and each tile runs in
//! four steps:
//!
//! 1. **Tabulate.** Every unique input closure is sampled once per row
//!    into a small column-major tile table, which also carries the last
//!    `max_off − 1` rows of the previous tile so reads at `n − mm`
//!    resolve across the seam.
//! 2. **Blocks.** Each block does one `match` on its kernel, and a
//!    monomorphic loop steps it through the whole tile with `l_RO[n]`,
//!    the kernel state and the sink's folds in locals; they are written
//!    back to the block at the end of the tile.
//! 3. **Scalar lanes.** Faulted, hardened and tail lanes run lane-outer,
//!    period-inner through [`crate::bank::step_domain`].
//! 4. **Sink.** The traced sink appends its `T × B` staging tile in
//!    period order; the traceless sink keeps its per-column folds and
//!    writes them to lane order once, at the end of the run.
//!
//! Reordering the work this way is exact: lanes never interact, each
//! lane still sees its own periods in order with unchanged arithmetic
//! and fold order, and each unique closure is called once per row, in the
//! same sequence a period-by-period loop would call it. The closures are
//! pure in `n` (see [`LoopInputs`]), so nothing else can tell the orders
//! apart.
//!
//! Input closures are deduplicated by reference identity
//! ([`std::ptr::eq`] on the fat pointer: same closure object *and* same
//! vtable). Sweeps whose lanes share a variation source — the common
//! case — pay for each `sin` row once instead of once per lane; closures
//! that merely look alike are conservatively kept separate.

use std::ops::Range;

use crate::controller::kernel::shift;
use crate::controller::Controller;
use crate::loopsim::LoopInputs;
use crate::resilience::FaultPath;
use crate::tdc::Quantization;

use super::{BatchLoop, BatchTrace, LaneSummary};

/// Lane-block width `W`: how many lanes one SoA block advances per
/// period. Four f64 columns are two 128-bit register rows on the
/// x86-64-v2 target `.cargo/config.toml` builds for (SSE4.2, no AVX), and
/// a width of four lets the common mixed-scheme banks — which split `B`
/// lanes into four same-scheme groups of `B/4` — form full blocks from 16
/// lanes up; tails shorter than `W` fall back to the scalar path rather
/// than stepping masked-off ghost lanes.
///
/// W = 8 measured no faster with the tile-major body (2-core Xeon host,
/// single-threaded Monte Carlo panels of 4096 lanes × 8000 periods,
/// medians of 4 interleaved runs): Free RO 3.6 → 5.0 ns and TEAtime
/// 4.6 → 6.1 ns per lane-step, the integer IIR unchanged at 17 ns.
pub const BLOCK_WIDTH: usize = 4;

const W: usize = BLOCK_WIDTH;

/// Periods per tile `T`. Each block steps a whole tile with its state in
/// registers before the next block runs, so the per-tile costs — the
/// kernel `match`, loading and storing the block's state, slicing its
/// inputs — are paid once per `T` periods; the tile tables
/// (`(max_off − 1 + T)` rows per unique closure) and the traced sink's
/// `3 × T × B` staging tile stay cache-resident.
///
/// Chosen by measurement (2-core Xeon host, medians of 4 interleaved
/// runs): the single-threaded Monte Carlo panels cost the same per
/// lane-step from T = 128 to 1024 and about 10% more at 64, while the
/// traced 256-lane bench case took 6.7 ms at T = 64–128, 8.1 ms at 256
/// and 11.5 ms at 1024, as its staging tile outgrew the L2 cache.
pub const TILE: usize = 128;

/// Scheme key for grouping blockable lanes: lanes in one block must share
/// a kernel shape (same law, same delay-line length) and TDC quantization
/// so the block body is uniform straight-line code.
#[derive(PartialEq, Eq)]
enum GroupKey {
    IntIir { taps: usize },
    FloatIir { taps: usize },
    TeaTime,
    Free,
}

fn group_key(c: &Controller) -> GroupKey {
    match c {
        Controller::IntIir(k) => GroupKey::IntIir {
            taps: k.state().len(),
        },
        Controller::FloatIir(k) => GroupKey::FloatIir {
            taps: k.state().len(),
        },
        Controller::TeaTime(_) => GroupKey::TeaTime,
        Controller::Free(_) => GroupKey::Free,
    }
}

/// SoA controller state of one block: the `Controller` arithmetic with
/// the lane index innermost, one monomorphic [`Step`] body per variant.
/// In the IIR variants `state[t][j]` is delay word `t` of lane column
/// `j`, most recent first relative to `head` — `head` rotation replaces
/// the scalar `rotate_right(1)` (the scalar window `s[0..T]` is always
/// `state[(head+t) % T]` here, so stepping `head ← head−1; state[head] ←
/// w_new` is the same delay line without moving `T·W` words every
/// period).
enum Kernel {
    UniformIntIir(UniformIntIir),
    MixedIntIir(MixedIntIir),
    FloatIir(FloatIir),
    TeaTime(TeaTime),
    Free(Free),
}

/// Visit the delay line's window in scalar order — `state[(head + t) mod
/// t_len]` for `t = 0, 1, …` — each row with its tap row: the rows from
/// `head` on, then the rows before it. Two straight slice walks instead
/// of a wrapped, bounds-checked index per tap.
#[inline(always)]
fn each_tap<S, T>(state: &[S], taps: &[T], head: usize, mut f: impl FnMut(&T, &S)) {
    let k = state.len() - head;
    for (te, row) in taps[..k].iter().zip(&state[head..]) {
        f(te, row);
    }
    for (te, row) in taps[k..].iter().zip(&state[..head]) {
        f(te, row);
    }
}

/// Rotate the delay line one period: the new head is the row that held
/// the oldest word (`(head − 1) mod t_len`).
#[inline(always)]
fn rotate(head: usize, t_len: usize) -> usize {
    if head == 0 {
        t_len - 1
    } else {
        head - 1
    }
}

/// One kernel body: advance every lane column one period, consuming
/// `δ[n]` per lane and producing the unclamped `l_RO[n+1]`. Each
/// implementation mirrors the matching [`Controller::step`] body bit for
/// bit. A block's single `match` per tile picks the implementation, so
/// the per-period loop carries no enum dispatch. `Default` is an empty
/// placeholder: the tile loop takes the state out of the block, steps it
/// as a local and puts it back.
trait Step: Default {
    fn step(&mut self, delta: &[f64; W], next: &mut [f64; W]);

    /// Column `j`'s state, written back into its lane's controller.
    fn store(&self, j: usize, ctrl: &mut Controller);
}

/// Column `j` of a head-rotated delay line, in the scalar window order.
fn window<S: Copy>(state: &[[S; W]], head: usize, j: usize) -> impl Iterator<Item = S> + '_ {
    state[head..]
        .iter()
        .chain(&state[..head])
        .map(move |row| row[j])
}

/// Integer IIR with one `(kexp, k*, taps)` exponent set for the whole
/// block — the shape of every Monte Carlo panel and of any batch built
/// from a single config. Each exponent is read once per tap row instead
/// of per column, so the shift direction check hoists out of the inner
/// loops and the tap accumulation runs branch-free. Same [`shift`]
/// arithmetic, bit-identical output.
#[derive(Default)]
struct UniformIntIir {
    kexp: i32,
    kstar: i32,
    taps: Vec<[i32; W]>,
    state: Vec<[i64; W]>,
    head: usize,
}

impl Step for UniformIntIir {
    #[inline(always)]
    fn step(&mut self, delta: &[f64; W], next: &mut [f64; W]) {
        let t_len = self.state.len();
        let ke = self.kexp;
        let mut acc = [0i64; W];
        for j in 0..W {
            acc[j] = (delta[j].round() as i64) << ke;
        }
        each_tap(&self.state, &self.taps, self.head, |te, row| {
            let e = te[0];
            if e >= 0 {
                for j in 0..W {
                    acc[j] += row[j] << e;
                }
            } else {
                let s = -e;
                for j in 0..W {
                    acc[j] += row[j] >> s;
                }
            }
        });
        self.head = rotate(self.head, t_len);
        let row = &mut self.state[self.head];
        let ks = self.kstar;
        if ks >= 0 {
            for j in 0..W {
                let w_new = acc[j] << ks;
                row[j] = w_new;
                next[j] = (w_new >> ke) as f64;
            }
        } else {
            let s = -ks;
            for j in 0..W {
                let w_new = acc[j] >> s;
                row[j] = w_new;
                next[j] = (w_new >> ke) as f64;
            }
        }
    }

    fn store(&self, j: usize, ctrl: &mut Controller) {
        let Controller::IntIir(c) = ctrl else {
            unreachable!("block kernel / lane controller scheme mismatch");
        };
        c.state_mut()
            .iter_mut()
            .zip(window(&self.state, self.head, j))
            .for_each(|(s, w)| *s = w);
    }
}

/// Integer IIR whose columns carry different exponent sets.
#[derive(Default)]
struct MixedIntIir {
    kexp: [i32; W],
    kstar: [i32; W],
    taps: Vec<[i32; W]>,
    state: Vec<[i64; W]>,
    head: usize,
}

impl Step for MixedIntIir {
    #[inline(always)]
    fn step(&mut self, delta: &[f64; W], next: &mut [f64; W]) {
        let t_len = self.state.len();
        let mut acc = [0i64; W];
        for j in 0..W {
            acc[j] = shift(delta[j].round() as i64, self.kexp[j]);
        }
        each_tap(&self.state, &self.taps, self.head, |te, row| {
            for j in 0..W {
                acc[j] += shift(row[j], te[j]);
            }
        });
        self.head = rotate(self.head, t_len);
        let row = &mut self.state[self.head];
        for j in 0..W {
            let w_new = shift(acc[j], self.kstar[j]);
            row[j] = w_new;
            next[j] = shift(w_new, -self.kexp[j]) as f64;
        }
    }

    fn store(&self, j: usize, ctrl: &mut Controller) {
        let Controller::IntIir(c) = ctrl else {
            unreachable!("block kernel / lane controller scheme mismatch");
        };
        c.state_mut()
            .iter_mut()
            .zip(window(&self.state, self.head, j))
            .for_each(|(s, w)| *s = w);
    }
}

/// Floating-point IIR: `δ + Σ wᵢ·kᵢ` in the scalar tap order per lane.
#[derive(Default)]
struct FloatIir {
    kstar: [f64; W],
    taps: Vec<[f64; W]>,
    state: Vec<[f64; W]>,
    head: usize,
}

impl Step for FloatIir {
    #[inline(always)]
    fn step(&mut self, delta: &[f64; W], next: &mut [f64; W]) {
        let t_len = self.state.len();
        let mut acc = *delta;
        each_tap(&self.state, &self.taps, self.head, |te, row| {
            for j in 0..W {
                acc[j] += row[j] * te[j];
            }
        });
        self.head = rotate(self.head, t_len);
        let row = &mut self.state[self.head];
        for j in 0..W {
            let w_new = acc[j] * self.kstar[j];
            row[j] = w_new;
            next[j] = w_new;
        }
    }

    fn store(&self, j: usize, ctrl: &mut Controller) {
        let Controller::FloatIir(c) = ctrl else {
            unreachable!("block kernel / lane controller scheme mismatch");
        };
        c.state_mut()
            .iter_mut()
            .zip(window(&self.state, self.head, j))
            .for_each(|(s, w)| *s = w);
    }
}

#[derive(Default)]
struct TeaTime {
    step: [f64; W],
    length: [f64; W],
}

impl Step for TeaTime {
    #[inline(always)]
    fn step(&mut self, delta: &[f64; W], next: &mut [f64; W]) {
        for j in 0..W {
            // A select among the scalar branch's three outcomes, each
            // computed by the same operation the branch performs (not
            // `length += select(±step, 0)`: adding a signed zero could
            // alter the sign of a ±0.0 length, and a NaN δ must leave the
            // length word untouched). The select compiles branch-free;
            // a bang-bang δ's sign is not predictable.
            let (up, down) = (self.length[j] + self.step[j], self.length[j] - self.step[j]);
            self.length[j] = if delta[j] > 0.0 {
                up
            } else if delta[j] < 0.0 {
                down
            } else {
                self.length[j]
            };
            next[j] = self.length[j];
        }
    }

    fn store(&self, j: usize, ctrl: &mut Controller) {
        let Controller::TeaTime(c) = ctrl else {
            unreachable!("block kernel / lane controller scheme mismatch");
        };
        c.set_length(self.length[j]);
    }
}

#[derive(Default)]
struct Free {
    length: [f64; W],
}

impl Step for Free {
    #[inline(always)]
    fn step(&mut self, _delta: &[f64; W], next: &mut [f64; W]) {
        *next = self.length;
    }

    fn store(&self, _j: usize, _ctrl: &mut Controller) {}
}

/// One packed block: `W` same-scheme lanes with their per-lane loop
/// parameters in column order.
struct Block {
    /// Batch lane index per column (the sink's lane order).
    lane: [usize; W],
    /// Loop delay `mm = m + 2` per column.
    mm: [i64; W],
    /// Unique-closure index per column, per input role.
    h_idx: [usize; W],
    mu_idx: [usize; W],
    sp_idx: [usize; W],
    /// Static per-column heterogeneous offset (the `static_mu` mode);
    /// zeros — and never read — in closure mode.
    mu_c: [f64; W],
    /// TDC quantization, uniform across the block (part of the group key).
    quant: Quantization,
    /// `l_RO[n]` of the next period to generate, per column.
    cur: [f64; W],
    /// Block-local `l_RO` history ring: row `n mod hist.len()` holds
    /// `l_RO[n]`. The gather reads `hist[(n − mm) & mask]` instead of the
    /// flat trace — a few cache-hot rows instead of a streamed megabyte
    /// vector, no pre-start branch (every row is prefilled with the lane's
    /// initial length, which is exactly what `l_RO[i]`, `i < 0`, means).
    /// `hist.len()` is the power-of-two global ring depth ≥ every `mm`, and
    /// each period gathers before it writes, so row `n` can never clobber a
    /// row the block still reads.
    hist: Vec<[f64; W]>,
    kernel: Kernel,
}

impl Block {
    /// Pack `W` lanes (indices `members`, all sharing a group key) into
    /// column order, lifting each lane's controller state into the SoA
    /// kernel.
    fn pack(
        batch: &BatchLoop,
        members: &[usize],
        h_idx: &[usize],
        mu_idx: &[usize],
        sp_idx: &[usize],
        static_mu: Option<&[f64]>,
        hist_rows: usize,
    ) -> Block {
        debug_assert_eq!(members.len(), W);
        let mut lane = [0usize; W];
        let mut mm = [0i64; W];
        let mut init = [0.0f64; W];
        let mut h = [0usize; W];
        let mut mu = [0usize; W];
        let mut sp = [0usize; W];
        let mut mu_c = [0.0f64; W];
        let mut cur = [0.0f64; W];
        for (j, &k) in members.iter().enumerate() {
            let l = &batch.bank.domains[k];
            lane[j] = k;
            mm[j] = (l.m + 2) as i64;
            init[j] = l.initial_length;
            h[j] = h_idx[k];
            mu[j] = mu_idx[k];
            sp[j] = sp_idx[k];
            if let Some(ms) = static_mu {
                mu_c[j] = ms[k];
            }
            cur[j] = l.controller.length();
        }
        let kernel = match &batch.bank.domains[members[0]].controller {
            Controller::IntIir(c0) => {
                let t_len = c0.state().len();
                let mut kexp = [0i32; W];
                let mut kstar = [0i32; W];
                let mut taps = vec![[0i32; W]; t_len];
                let mut state = vec![[0i64; W]; t_len];
                for (j, &k) in members.iter().enumerate() {
                    let Controller::IntIir(c) = &batch.bank.domains[k].controller else {
                        unreachable!("group key guarantees a uniform scheme");
                    };
                    kexp[j] = c.config().kexp_exp as i32;
                    kstar[j] = c.config().k_star_exp;
                    for t in 0..t_len {
                        taps[t][j] = c.config().tap_exps[t];
                        state[t][j] = c.state()[t];
                    }
                }
                let uniform = kexp.iter().all(|&e| e == kexp[0])
                    && kstar.iter().all(|&e| e == kstar[0])
                    && taps.iter().all(|row| row.iter().all(|&e| e == row[0]));
                if uniform {
                    Kernel::UniformIntIir(UniformIntIir {
                        kexp: kexp[0],
                        kstar: kstar[0],
                        taps,
                        state,
                        head: 0,
                    })
                } else {
                    Kernel::MixedIntIir(MixedIntIir {
                        kexp,
                        kstar,
                        taps,
                        state,
                        head: 0,
                    })
                }
            }
            Controller::FloatIir(c0) => {
                let t_len = c0.state().len();
                let mut kstar = [0.0f64; W];
                let mut taps = vec![[0.0f64; W]; t_len];
                let mut state = vec![[0.0f64; W]; t_len];
                for (j, &k) in members.iter().enumerate() {
                    let Controller::FloatIir(c) = &batch.bank.domains[k].controller else {
                        unreachable!("group key guarantees a uniform scheme");
                    };
                    kstar[j] = c.k_star();
                    for t in 0..t_len {
                        taps[t][j] = c.taps()[t];
                        state[t][j] = c.state()[t];
                    }
                }
                Kernel::FloatIir(FloatIir {
                    kstar,
                    taps,
                    state,
                    head: 0,
                })
            }
            Controller::TeaTime(_) => {
                let mut step = [0.0f64; W];
                let mut length = [0.0f64; W];
                for (j, &k) in members.iter().enumerate() {
                    let Controller::TeaTime(c) = &batch.bank.domains[k].controller else {
                        unreachable!("group key guarantees a uniform scheme");
                    };
                    step[j] = c.step_size();
                    length[j] = c.length();
                }
                Kernel::TeaTime(TeaTime { step, length })
            }
            Controller::Free(_) => {
                let mut length = [0.0f64; W];
                for (j, &k) in members.iter().enumerate() {
                    length[j] = batch.bank.domains[k].controller.length();
                }
                Kernel::Free(Free { length })
            }
        };
        Block {
            lane,
            mm,
            h_idx: h,
            mu_idx: mu,
            sp_idx: sp,
            mu_c,
            quant: batch.bank.domains[members[0]].quantization,
            cur,
            hist: vec![init; hist_rows],
            kernel,
        }
    }

    /// Write column `j`'s kernel state back into the lane's controller so
    /// `BatchLoop` state after a blocked run is indistinguishable from a
    /// scalar run (chained runs, `length()` queries, later resets).
    fn store_lane(&self, j: usize, ctrl: &mut Controller) {
        match &self.kernel {
            Kernel::UniformIntIir(k) => k.store(j, ctrl),
            Kernel::MixedIntIir(k) => k.store(j, ctrl),
            Kernel::FloatIir(k) => k.store(j, ctrl),
            Kernel::TeaTime(k) => k.store(j, ctrl),
            Kernel::Free(k) => k.store(j, ctrl),
        }
    }
}

/// Append `tile` onto `v` (capacity already reserved for the whole run),
/// with non-temporal stores when `stream` is set.
///
/// The trace is written exactly once and read back only after the run,
/// but a normal store still *reads* each fresh cache line first
/// (read-for-ownership) — so a cacheable trace costs double its size in
/// DRAM traffic and evicts the hot kernel state on its way through the
/// hierarchy. `_mm_stream_pd` writes around the cache through
/// write-combining buffers instead; the appends are perfectly
/// sequential, so consecutive tiles merge into full-line bursts. Stores
/// move bit patterns verbatim, so the trace is bit-identical either
/// way. Off x86-64, or when the tile geometry breaks 16-byte store
/// alignment, this is a plain `extend_from_slice`.
#[allow(unsafe_code)]
#[inline]
fn append_tile(v: &mut Vec<f64>, tile: &[f64], stream: bool) {
    #[cfg(target_arch = "x86_64")]
    if stream {
        // SAFETY: capacity for the full run was reserved up front (debug
        // assert below); `stream` implies an even tile length and a
        // 16-byte-aligned destination (base alignment checked by the
        // caller, preserved because every tile is `len × B` f64s with an
        // even `B`).
        unsafe {
            use core::arch::x86_64::{_mm_loadu_pd, _mm_stream_pd};
            let len = v.len();
            debug_assert!(len + tile.len() <= v.capacity());
            let dst = v.as_mut_ptr().add(len);
            debug_assert_eq!(dst as usize % 16, 0);
            let mut i = 0;
            while i + 2 <= tile.len() {
                _mm_stream_pd(dst.add(i), _mm_loadu_pd(tile.as_ptr().add(i)));
                i += 2;
            }
            v.set_len(len + tile.len());
        }
        return;
    }
    let _ = stream;
    v.extend_from_slice(tile);
}

/// Deduplicate input closures by fat-pointer identity. Returns the unique
/// closures in first-seen order plus a per-lane index into them.
///
/// [`std::ptr::eq`] compares data pointer *and* vtable: two references to
/// the same closure object always dedup, while a false positive would
/// require the same address and the same vtable — i.e. behaviorally the
/// same function. A missed match (e.g. the same generic closure
/// instantiated twice) merely forfeits sharing; correctness never depends
/// on deduplication because unique closures are sampled identically.
fn dedup<'a>(
    fns: impl Iterator<Item = &'a dyn Fn(i64) -> f64>,
) -> (Vec<&'a dyn Fn(i64) -> f64>, Vec<usize>) {
    let mut uniq: Vec<&'a dyn Fn(i64) -> f64> = Vec::new();
    let mut idx = Vec::new();
    for f in fns {
        match uniq.iter().position(|&u| std::ptr::eq(u, f)) {
            Some(p) => idx.push(p),
            None => {
                idx.push(uniq.len());
                uniq.push(f);
            }
        }
    }
    (uniq, idx)
}

/// Where a lane's per-period results go: the staging tile of a traced
/// run or the fold registers of a traceless one. `t` is the
/// period's offset within the tile; `N` is [`W`] for a block and 1 for
/// a scalar-path lane.
trait Cols<const N: usize> {
    fn put(&mut self, t: usize, tau: &[f64; N], delta: &[f64; N], lro: &[f64; N]);
}

/// Per-column margin folds, in the exact operation order
/// [`BatchTrace::summarize`] uses on a materialized trace: `max` over `δ`
/// (worst negative error), `max` over `−δ` (worst positive), a
/// period-ordered sum of `l_RO`, and the last `l_RO` seen.
#[derive(Clone, Copy)]
struct Fold<const N: usize> {
    wne: [f64; N],
    wpe: [f64; N],
    sum: [f64; N],
    last: [f64; N],
}

impl<const N: usize> Fold<N> {
    const EMPTY: Self = Fold {
        wne: [0.0; N],
        wpe: [0.0; N],
        sum: [0.0; N],
        last: [f64::NAN; N],
    };
}

impl<const N: usize> Cols<N> for Fold<N> {
    #[inline(always)]
    fn put(&mut self, _t: usize, _tau: &[f64; N], delta: &[f64; N], lro: &[f64; N]) {
        for j in 0..N {
            self.wne[j] = self.wne[j].max(delta[j]);
            self.wpe[j] = self.wpe[j].max(-delta[j]);
            self.sum[j] += lro[j];
            self.last[j] = lro[j];
        }
    }
}

/// Scatter into a traced run's `T × B` staging tile (row `t`, column
/// `lane[j]`).
struct Stage<'a, const N: usize> {
    lane: [usize; N],
    b: usize,
    tau: &'a mut [f64],
    delta: &'a mut [f64],
    lro: &'a mut [f64],
}

impl<const N: usize> Cols<N> for Stage<'_, N> {
    #[inline(always)]
    fn put(&mut self, t: usize, tau: &[f64; N], delta: &[f64; N], lro: &[f64; N]) {
        for j in 0..N {
            let i = t * self.b + self.lane[j];
            self.tau[i] = tau[j];
            self.delta[i] = delta[j];
            self.lro[i] = lro[j];
        }
    }
}

/// A lane or block ready to step a range of the current tile's periods
/// into any [`Cols`]. The sink picks the ranges and the destination (a
/// traceless sink splits a tile at the warmup boundary), which is why
/// this is a trait with a generic method rather than a closure.
///
/// `run` takes the stepping state and the columns by value and hands
/// them back: inside it they are plain locals, which the optimizer keeps
/// in registers for the whole range. Behind a `&mut` they would be
/// stored back every period, because any bounds-check panic in the loop
/// could observe them.
trait Advance<const N: usize>: Sized {
    fn run<C: Cols<N>>(self, range: Range<usize>, cols: C) -> (Self, C);
}

/// The heterogeneous input of one block: a static per-column constant
/// or per-column tile-table slices already offset to row `n − mm`.
trait MuCols: Copy {
    /// Clip table slices to `end` periods, so the loop's index is
    /// provably in bounds.
    fn upto(self, end: usize) -> Self;
    fn add(&self, t: usize, raw: &mut [f64; W]);
}

#[derive(Clone, Copy)]
struct StaticMu([f64; W]);

impl MuCols for StaticMu {
    fn upto(self, _end: usize) -> Self {
        self
    }

    #[inline(always)]
    fn add(&self, _t: usize, raw: &mut [f64; W]) {
        for (r, m) in raw.iter_mut().zip(&self.0) {
            *r += m;
        }
    }
}

#[derive(Clone, Copy)]
struct TableMu<'a>([&'a [f64]; W]);

impl MuCols for TableMu<'_> {
    fn upto(self, end: usize) -> Self {
        TableMu(self.0.map(|s| &s[..end]))
    }

    #[inline(always)]
    fn add(&self, t: usize, raw: &mut [f64; W]) {
        for (r, col) in raw.iter_mut().zip(&self.0) {
            *r += col[t];
        }
    }
}

/// One block stepping through a tile: its kernel and its [`BlockIo`].
struct BlockRun<'a, K, M> {
    kernel: &'a mut K,
    io: BlockIo<'a, M>,
}

/// A block's `l_RO` state and per-column input slices for one tile
/// (`e[n − mm]`, `e[n − 1]`, `c[n]`, indexed by the tile offset `t`):
/// everything but the kernel, so it is built once whatever the scheme.
struct BlockIo<'a, M> {
    cur: [f64; W],
    hist: &'a mut [[f64; W]],
    mm: [i64; W],
    quant: Quantization,
    n0: i64,
    e_nmm: [&'a [f64]; W],
    e_n1: [&'a [f64]; W],
    sp: [&'a [f64]; W],
    mu: M,
}

impl<K: Step, M: MuCols> Advance<W> for BlockRun<'_, K, M> {
    fn run<C: Cols<W>>(mut self, range: Range<usize>, cols: C) -> (Self, C) {
        // Fresh locals, not the arguments' memory: see `Advance`.
        let mut cols = cols;
        let mut kernel = std::mem::take(self.kernel);
        let io = &mut self.io;
        let mut cur = io.cur;
        let (mm, quant, n0, end) = (io.mm, io.quant, io.n0, range.end);
        let e_nmm = io.e_nmm.map(|s| &s[..end]);
        let e_n1 = io.e_n1.map(|s| &s[..end]);
        let sp = io.sp.map(|s| &s[..end]);
        let mu = io.mu.upto(end);
        let hist = &mut *io.hist;
        let hist_mask = hist.len() - 1;
        for t in range {
            let n = n0 + t as i64;
            // Gather: l_RO[n−mm] from the block-local history ring, in
            // the scalar engines' association order
            // ((l_RO + e[n−mm]) − e[n−1]) + μ[n−mm].
            let mut raw = [0.0f64; W];
            for j in 0..W {
                let lro_past = hist[(n - mm[j]) as usize & hist_mask][j];
                raw[j] = lro_past + e_nmm[j][t] - e_n1[j][t];
            }
            mu.add(t, &mut raw);
            let mut tau = [0.0f64; W];
            let mut delta = [0.0f64; W];
            for j in 0..W {
                tau[j] = quant.apply(raw[j]);
                delta[j] = sp[j][t] - tau[j];
            }
            let mut next = [0.0f64; W];
            kernel.step(&delta, &mut next);
            hist[n as usize & hist_mask] = cur;
            cols.put(t, &tau, &delta, &cur);
            cur = next;
        }
        io.cur = cur;
        *self.kernel = kernel;
        (self, cols)
    }
}

/// The heterogeneous input of one scalar-path lane.
#[derive(Clone, Copy)]
enum LaneMu<'a> {
    Static(f64),
    /// The lane's tile-table slice, already offset to row `n − mm`.
    Table(&'a [f64]),
}

/// One scalar-path lane stepping through a tile on the shared
/// [`crate::bank::step_domain`] body, with its `FaultPath` if it has one.
struct LaneRun<'a> {
    quant: Quantization,
    controller: &'a mut Controller,
    path: Option<&'a mut FaultPath>,
    cur: f64,
    hist: &'a mut [f64],
    mm: i64,
    n0: i64,
    e_nmm: &'a [f64],
    e_n1: &'a [f64],
    sp: &'a [f64],
    mu: LaneMu<'a>,
}

impl Advance<1> for LaneRun<'_> {
    fn run<C: Cols<1>>(mut self, range: Range<usize>, mut cols: C) -> (Self, C) {
        let hist_mask = self.hist.len() - 1;
        for t in range {
            let n = self.n0 + t as i64;
            let i = n - self.mm;
            let mu_nmm = match self.mu {
                LaneMu::Static(mu) => mu,
                LaneMu::Table(col) => col[t],
            };
            let (tau, delta, next) = crate::bank::step_domain(
                self.quant,
                self.controller,
                self.path.as_deref_mut(),
                n,
                i,
                self.hist[i as usize & hist_mask],
                self.e_nmm[t],
                self.e_n1[t],
                mu_nmm,
                self.sp[t],
            );
            cols.put(t, &[tau], &[delta], &[self.cur]);
            self.hist[n as usize & hist_mask] = self.cur;
            self.cur = next;
        }
        (self, cols)
    }
}

/// Where each tile's results go. The engine body ([`run_impl`]) is
/// generic over this sink, so the traced and traceless modes share one
/// tile loop: the per-lane arithmetic, and therefore every recorded or
/// summarized bit, is common by construction; only the destination
/// differs.
trait StepSink {
    /// Called once, after the lane partition: each block's lane columns
    /// and the scalar-path lanes, in the order `block`/`lane` index them.
    fn begin(&mut self, blocks: Vec<[usize; W]>, scalar: &[usize]);

    /// Step block `bi` through periods `n0..n0 + len` of the tile.
    fn block<A: Advance<W>>(&mut self, bi: usize, n0: usize, len: usize, run: A) -> A;

    /// Step scalar-path lane `si` through periods `n0..n0 + len`.
    fn lane<A: Advance<1>>(&mut self, si: usize, n0: usize, len: usize, run: A) -> A;

    /// Every block and lane has stepped the tile's `len` periods.
    fn end_tile(&mut self, len: usize);
}

/// The traced sink: blocks and lanes scatter into a `T × B` staging tile
/// (row-major, so the tile is exactly the next `T` rows of the flat
/// [`BatchTrace`] layout), which is then appended in period order, with
/// non-temporal stores when the row geometry allows.
struct TraceSink {
    trace: BatchTrace,
    stream: bool,
    blocks: Vec<[usize; W]>,
    scalar: Vec<usize>,
    tau: Vec<f64>,
    delta: Vec<f64>,
    lro: Vec<f64>,
}

impl TraceSink {
    fn new(trace: BatchTrace, stream: bool, tile: usize) -> TraceSink {
        let cells = tile * trace.lanes;
        TraceSink {
            trace,
            stream,
            blocks: Vec::new(),
            scalar: Vec::new(),
            tau: vec![0.0; cells],
            delta: vec![0.0; cells],
            lro: vec![0.0; cells],
        }
    }

    fn stage<const N: usize>(&mut self, lane: [usize; N]) -> Stage<'_, N> {
        Stage {
            lane,
            b: self.trace.lanes,
            tau: &mut self.tau,
            delta: &mut self.delta,
            lro: &mut self.lro,
        }
    }
}

impl StepSink for TraceSink {
    fn begin(&mut self, blocks: Vec<[usize; W]>, scalar: &[usize]) {
        self.blocks = blocks;
        self.scalar = scalar.to_vec();
    }

    fn block<A: Advance<W>>(&mut self, bi: usize, _n0: usize, len: usize, run: A) -> A {
        run.run(0..len, self.stage(self.blocks[bi])).0
    }

    fn lane<A: Advance<1>>(&mut self, si: usize, _n0: usize, len: usize, run: A) -> A {
        run.run(0..len, self.stage([self.scalar[si]])).0
    }

    fn end_tile(&mut self, len: usize) {
        let cells = len * self.trace.lanes;
        append_tile(&mut self.trace.tau, &self.tau[..cells], self.stream);
        append_tile(&mut self.trace.delta, &self.delta[..cells], self.stream);
        append_tile(&mut self.trace.lro, &self.lro[..cells], self.stream);
    }
}

/// The traceless sink: each block column and scalar-path lane keeps its
/// [`Fold`] across tiles, stepped in registers within a tile; the folds
/// are written to lane order once, in [`finish`](SummarySink::finish).
/// The results are bit-identical to trace-then-summarize, as the
/// differential suite pins. Periods before `skip` are stepped into a
/// discarded fold (the warmup window of
/// [`BatchLoop::run_summaries_after`]), matching
/// [`BatchTrace::summarize_after`] on a materialized trace; a tile that
/// straddles `skip` is stepped in two ranges.
struct SummarySink {
    skip: usize,
    lanes: usize,
    block_lanes: Vec<[usize; W]>,
    scalar: Vec<usize>,
    blocks: Vec<Fold<W>>,
    scalars: Vec<Fold<1>>,
}

impl SummarySink {
    fn new(lanes: usize, skip: usize) -> SummarySink {
        SummarySink {
            skip,
            lanes,
            block_lanes: Vec::new(),
            scalar: Vec::new(),
            blocks: Vec::new(),
            scalars: Vec::new(),
        }
    }

    /// Step `run` through periods `n0..n0 + len` into `fold`, sending the
    /// part before `skip` to a throwaway fold instead.
    fn fold<const N: usize, A: Advance<N>>(
        skip: usize,
        n0: usize,
        len: usize,
        mut run: A,
        fold: &mut Fold<N>,
    ) -> A {
        let split = skip.clamp(n0, n0 + len) - n0;
        if split > 0 {
            run = run.run(0..split, Fold::EMPTY).0;
        }
        if split < len {
            (run, *fold) = run.run(split..len, *fold);
        }
        run
    }

    fn finish(self, steps: usize) -> Vec<LaneSummary> {
        let samples = steps - self.skip;
        let summary = |wne: f64, wpe: f64, sum: f64, last: f64| LaneSummary {
            samples: samples as u64,
            mean_period: sum / samples as f64,
            worst_negative_error: wne,
            worst_positive_error: wpe,
            last_lro: last,
        };
        let mut out = vec![LaneSummary::EMPTY; self.lanes];
        for (lane, f) in self.block_lanes.iter().zip(&self.blocks) {
            for j in 0..W {
                out[lane[j]] = summary(f.wne[j], f.wpe[j], f.sum[j], f.last[j]);
            }
        }
        for (&k, f) in self.scalar.iter().zip(&self.scalars) {
            out[k] = summary(f.wne[0], f.wpe[0], f.sum[0], f.last[0]);
        }
        out
    }
}

impl StepSink for SummarySink {
    fn begin(&mut self, blocks: Vec<[usize; W]>, scalar: &[usize]) {
        self.blocks = vec![Fold::EMPTY; blocks.len()];
        self.block_lanes = blocks;
        self.scalars = vec![Fold::EMPTY; scalar.len()];
        self.scalar = scalar.to_vec();
    }

    fn block<A: Advance<W>>(&mut self, bi: usize, n0: usize, len: usize, run: A) -> A {
        Self::fold(self.skip, n0, len, run, &mut self.blocks[bi])
    }

    fn lane<A: Advance<1>>(&mut self, si: usize, n0: usize, len: usize, run: A) -> A {
        Self::fold(self.skip, n0, len, run, &mut self.scalars[si])
    }

    fn end_tile(&mut self, _len: usize) {}
}

/// The blocked engine: body of [`BatchLoop::run`] /
/// [`BatchLoop::run_recycled`]. `spare` donates its buffers.
pub(super) fn run(
    batch: &mut BatchLoop,
    inputs: &[LoopInputs<'_>],
    steps: usize,
    spare: BatchTrace,
) -> BatchTrace {
    let b = batch.bank.domains.len();
    let mut run_scope = batch.telemetry.scope("engine.batch");
    run_scope.attr("steps", steps);
    run_scope.attr("lanes", b);
    run_scope.attr("tile", TILE);
    if b == 0 || steps == 0 {
        return BatchTrace {
            lanes: b,
            steps,
            ..BatchTrace::default()
        };
    }

    // The trace is appended one tile at a time from the staging tile
    // (see `TraceSink`). Appending instead of preallocating
    // `vec![0.0; steps·b]` skips a full zero-init pass over a trace that
    // every lane overwrites anyway — at long horizons that pass alone
    // streams megabytes through the cache hierarchy twice. `spare`'s
    // buffers are recycled: cleared (length 0, capacity kept) and grown
    // only if a previous run was smaller. Steady-state repeated runs then
    // write into already-faulted pages instead of paying the page-fault +
    // zero + unmap cycle of a fresh tens-of-megabytes allocation on every
    // run.
    let BatchTrace {
        tau: mut t_tau,
        delta: mut t_delta,
        lro: mut t_lro,
        ..
    } = spare;
    t_tau.clear();
    t_delta.clear();
    t_lro.clear();
    #[cfg(debug_assertions)]
    let donors = [
        (t_tau.capacity(), t_tau.as_ptr() as usize),
        (t_delta.capacity(), t_delta.as_ptr() as usize),
        (t_lro.capacity(), t_lro.as_ptr() as usize),
    ];
    t_tau.reserve(steps * b);
    t_delta.reserve(steps * b);
    t_lro.reserve(steps * b);
    // The contract `run_recycled` documents: a donor buffer whose
    // capacity already covers the run is written in place, never
    // reallocated (equal-size reruns must not touch the allocator).
    #[cfg(debug_assertions)]
    for ((cap, before), after) in donors.into_iter().zip([
        t_tau.as_ptr() as usize,
        t_delta.as_ptr() as usize,
        t_lro.as_ptr() as usize,
    ]) {
        debug_assert!(
            cap < steps * b || before == after,
            "recycled trace buffer with sufficient capacity ({cap} >= {}) was reallocated",
            steps * b
        );
    }
    let trace = BatchTrace {
        lanes: b,
        steps,
        tau: t_tau,
        delta: t_delta,
        lro: t_lro,
    };
    // Streaming eligibility: an even lane count keeps every tile start
    // on a 16-byte boundary once the base is aligned. Nothing reads the
    // trace back during the run — every lane gathers `l_RO[n−mm]` from
    // its own history ring in `run_impl` — so all three arrays stream.
    let stream = cfg!(target_arch = "x86_64")
        && b.is_multiple_of(2)
        && (trace.tau.as_ptr() as usize).is_multiple_of(16)
        && (trace.delta.as_ptr() as usize).is_multiple_of(16)
        && (trace.lro.as_ptr() as usize).is_multiple_of(16);
    let mut sink = TraceSink::new(trace, stream, TILE.min(steps));
    run_impl(batch, inputs, None, steps, &mut sink);
    // Non-temporal stores are weakly ordered: fence once so the trace is
    // globally visible before it can cross a thread boundary (the lane
    // dispatcher hands chunk traces to a recombining thread).
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    if stream {
        // SAFETY: `sfence` is available on every x86-64 CPU.
        unsafe { core::arch::x86_64::_mm_sfence() }
    }
    sink.trace
}

/// The traceless engine: body of [`BatchLoop::run_summaries`] and
/// [`BatchLoop::run_summaries_static`]. Shares [`run_impl`] with the
/// traced path; each lane's results are folded into [`LaneSummary`]
/// accumulators instead of being appended to a [`BatchTrace`] — no
/// trace allocation, no trace-store bandwidth.
///
/// `static_mu`, when set, carries one step-invariant heterogeneous
/// offset per lane and the `heterogeneous` closures in `inputs` are
/// never sampled (see [`run_impl`]).
pub(super) fn run_summaries(
    batch: &mut BatchLoop,
    inputs: &[LoopInputs<'_>],
    static_mu: Option<&[f64]>,
    steps: usize,
    warmup: usize,
) -> Vec<LaneSummary> {
    let b = batch.bank.domains.len();
    let mut run_scope = batch.telemetry.scope("engine.batch.summaries");
    run_scope.attr("steps", steps);
    run_scope.attr("lanes", b);
    run_scope.attr("tile", TILE);
    if b == 0 {
        return Vec::new();
    }
    if steps == 0 {
        return vec![LaneSummary::EMPTY; b];
    }
    let mut sink = SummarySink::new(b, warmup);
    run_impl(batch, inputs, static_mu, steps, &mut sink);
    sink.finish(steps)
}

/// Column-major tile tables of the unique input closures: column `u` of
/// `h`/`mu` holds rows `n0 − max_off ..= n0 + T − 2` of closure `u` (the
/// rows a tile starting at `n0` can read: `n − mm` and `n − 1`), so a
/// lane's `e[n − mm]` over the tile is one contiguous slice starting at
/// offset `max_off − mm`. `sp` holds rows `n0 .. n0 + T`.
struct Tables {
    max_off: usize,
    /// Rows per `h`/`mu` column: `max_off − 1` carried + `T` sampled.
    rows: usize,
    tile: usize,
    h: Vec<f64>,
    mu: Vec<f64>,
    sp: Vec<f64>,
}

impl Tables {
    /// Row `n − lag` of unique closure `u` for the tile's `len` periods:
    /// column `u` of `table` from offset `max_off − lag` on.
    fn lagged<'t>(&self, table: &'t [f64], u: usize, lag: i64, len: usize) -> &'t [f64] {
        &table[u * self.rows + self.max_off - lag as usize..][..len]
    }

    fn e_nmm(&self, u: usize, mm: i64, len: usize) -> &[f64] {
        self.lagged(&self.h, u, mm, len)
    }

    fn e_n1(&self, u: usize, len: usize) -> &[f64] {
        self.lagged(&self.h, u, 1, len)
    }

    fn mu_nmm(&self, u: usize, mm: i64, len: usize) -> &[f64] {
        self.lagged(&self.mu, u, mm, len)
    }

    fn sp(&self, u: usize, len: usize) -> &[f64] {
        &self.sp[u * self.tile..][..len]
    }
}

/// Step block `bi` through one tile: the block's single kernel `match`
/// picks the monomorphic [`Step`] body and the sink drives it through
/// the tile.
fn step_block<S: StepSink, M: MuCols>(
    sink: &mut S,
    bi: usize,
    blk: &mut Block,
    tab: &Tables,
    mu: M,
    n0: usize,
    len: usize,
) {
    let Block {
        mm,
        h_idx,
        sp_idx,
        quant,
        cur,
        hist,
        kernel,
        ..
    } = blk;
    let io = BlockIo {
        cur: *cur,
        hist: &mut hist[..],
        mm: *mm,
        quant: *quant,
        n0: n0 as i64,
        e_nmm: std::array::from_fn(|j| tab.e_nmm(h_idx[j], mm[j], len)),
        e_n1: std::array::from_fn(|j| tab.e_n1(h_idx[j], len)),
        sp: std::array::from_fn(|j| tab.sp(sp_idx[j], len)),
        mu,
    };
    let io = match kernel {
        Kernel::UniformIntIir(kernel) => sink.block(bi, n0, len, BlockRun { kernel, io }).io,
        Kernel::MixedIntIir(kernel) => sink.block(bi, n0, len, BlockRun { kernel, io }).io,
        Kernel::FloatIir(kernel) => sink.block(bi, n0, len, BlockRun { kernel, io }).io,
        Kernel::TeaTime(kernel) => sink.block(bi, n0, len, BlockRun { kernel, io }).io,
        Kernel::Free(kernel) => sink.block(bi, n0, len, BlockRun { kernel, io }).io,
    };
    *cur = io.cur;
}

/// The shared engine body: input dedup and tabulation, lane partition,
/// the tile-major block/lane loop, controller state write-back and
/// telemetry — generic over the [`StepSink`] receiving each lane's
/// results.
///
/// The run is cut into tiles of [`TILE`] periods. Per tile: every unique
/// closure is sampled once per row into the [`Tables`] (in exactly the
/// call sequence of a period-by-period loop: `h(n−1)`, `μ(n−1)`, `c(n)`
/// for each `n`, after the pre-start rows `−max_off ..= −2` once up
/// front); then each block, and then each scalar-path lane, steps
/// through the whole tile into the sink; then the sink takes the tile.
/// Lanes never interact, so reordering lane-major within a tile changes
/// no bit.
///
/// `static_mu`, when set, holds one **step-invariant** heterogeneous
/// offset per lane: the μ closures in `inputs` are never sampled, no μ
/// table is kept, and the gather adds the per-lane constant directly —
/// deleting one indirect call and one table store per lane per period
/// for workloads (Monte Carlo sample panels) whose per-lane mismatch is
/// a sampled constant. Because `μ[n − mm] = μ` for every row, adding
/// the same f64 the equivalent `constant(μ)` closure would have
/// produced, in the same association order, keeps the run bit-identical
/// to the closure form.
fn run_impl<S: StepSink>(
    batch: &mut BatchLoop,
    inputs: &[LoopInputs<'_>],
    static_mu: Option<&[f64]>,
    steps: usize,
    sink: &mut S,
) {
    let b = batch.bank.domains.len();
    debug_assert!(b > 0 && steps > 0, "empty cases are handled by the callers");

    // --- Input plumbing: dedup closures, size the tile tables. ---
    let (h_uniq, h_idx) = dedup(inputs.iter().map(|li| li.homogeneous));
    let (mu_uniq, mu_idx) = match static_mu {
        // Static μ: no closures to dedup or tabulate. The per-lane index
        // vector still exists (blocks capture it) but indexes into
        // nothing; the gather reads the block-resident constants instead.
        Some(mu) => {
            debug_assert_eq!(mu.len(), b, "one static mu per lane required");
            (Vec::new(), vec![0usize; b])
        }
        None => dedup(inputs.iter().map(|li| li.heterogeneous)),
    };
    let (sp_uniq, sp_idx) = dedup(inputs.iter().map(|li| li.setpoint));
    let (nh, nmu, nsp) = (h_uniq.len(), mu_uniq.len(), sp_uniq.len());

    let mm: Vec<i64> = batch
        .bank
        .domains
        .iter()
        .map(|l| (l.m + 2) as i64)
        .collect();
    let max_off = mm.iter().copied().max().expect("at least one lane") as usize;
    let tile = TILE.min(steps);
    let rows = max_off - 1 + tile;
    let mut tab = Tables {
        max_off,
        rows,
        tile,
        h: vec![0.0; nh * rows],
        mu: vec![0.0; nmu * rows],
        sp: vec![0.0; nsp * tile],
    };
    // Pre-start rows −max_off ..= −2 sit at table offsets 0 ..= max_off−2.
    for r in -(max_off as i64)..=-2 {
        let at = (r + max_off as i64) as usize;
        for (u, f) in h_uniq.iter().enumerate() {
            tab.h[u * rows + at] = f(r);
        }
        for (u, f) in mu_uniq.iter().enumerate() {
            tab.mu[u * rows + at] = f(r);
        }
    }

    // --- Partition lanes: faulted/hardened → scalar path; clean lanes
    // grouped by scheme into W-wide blocks, remainders → scalar path. ---
    let mut paths: Vec<Option<FaultPath>> = batch
        .bank
        .domains
        .iter()
        .map(crate::bank::fault_path)
        .collect();
    let mut scalar: Vec<usize> = Vec::new();
    let mut groups: Vec<((GroupKey, Quantization), Vec<usize>)> = Vec::new();
    for (k, lane) in batch.bank.domains.iter().enumerate() {
        if paths[k].is_some() {
            scalar.push(k);
            continue;
        }
        let key = (group_key(&lane.controller), lane.quantization);
        match groups.iter_mut().find(|(g, _)| *g == key) {
            Some((_, members)) => members.push(k),
            None => groups.push((key, vec![k])),
        }
    }
    // `l_RO` history rings (blocks' and scalar lanes'): row `n mod
    // ring_rows` holds `l_RO[n]`, every row prefilled with the lane's
    // initial length (exactly what `l_RO[i]`, `i < 0`, means). The depth
    // is a power of two ≥ every `mm`, so the slot is a mask, and each
    // period gathers its `n − mm` row before writing row `n`, so a row is
    // never clobbered while still readable. This is what frees the engine
    // from reading the trace back during a run.
    let ring_rows = max_off.next_power_of_two();
    let mut blocks: Vec<Block> = Vec::new();
    for (_, members) in &groups {
        let mut chunks = members.chunks_exact(W);
        for chunk in &mut chunks {
            blocks.push(Block::pack(
                batch, chunk, &h_idx, &mu_idx, &sp_idx, static_mu, ring_rows,
            ));
        }
        scalar.extend_from_slice(chunks.remainder());
    }
    // Scalar lanes in batch order. Lanes are independent, so any order
    // would produce the same bits — keeping batch order just makes the
    // fallback path read like the scalar engine it reproduces.
    scalar.sort_unstable();
    sink.begin(blocks.iter().map(|blk| blk.lane).collect(), &scalar);

    let mut block_scope = batch.telemetry.scope("engine.batch.blocked");
    block_scope.attr("blocks", blocks.len());
    block_scope.attr("scalar_lanes", scalar.len());

    let mut sring: Vec<f64> = scalar
        .iter()
        .flat_map(|&k| std::iter::repeat_n(batch.bank.domains[k].initial_length, ring_rows))
        .collect();
    let mut scur: Vec<f64> = scalar
        .iter()
        .map(|&k| batch.bank.domains[k].controller.length())
        .collect();

    let mut n0 = 0usize;
    while n0 < steps {
        let len = tile.min(steps - n0);
        if n0 > 0 {
            // Carry the previous (full) tile's last `max_off − 1` rows to
            // the front: they are this tile's rows n0 − max_off ..= n0 − 2.
            for col in tab
                .h
                .chunks_exact_mut(rows)
                .chain(tab.mu.chunks_exact_mut(rows))
            {
                col.copy_within(tile..rows, 0);
            }
        }
        // 1. Tabulate: row n − 1 of h/μ and row n of the set-point, in
        //    period order.
        for t in 0..len {
            let n = (n0 + t) as i64;
            let at = max_off - 1 + t;
            for (u, f) in h_uniq.iter().enumerate() {
                tab.h[u * rows + at] = f(n - 1);
            }
            for (u, f) in mu_uniq.iter().enumerate() {
                tab.mu[u * rows + at] = f(n - 1);
            }
            for (u, f) in sp_uniq.iter().enumerate() {
                tab.sp[u * tile + t] = f(n);
            }
        }
        // 2. Blocks, each through the whole tile.
        for (bi, blk) in blocks.iter_mut().enumerate() {
            match static_mu {
                Some(_) => step_block(sink, bi, blk, &tab, StaticMu(blk.mu_c), n0, len),
                None => {
                    let mu = TableMu(std::array::from_fn(|j| {
                        tab.mu_nmm(blk.mu_idx[j], blk.mm[j], len)
                    }));
                    step_block(sink, bi, blk, &tab, mu, n0, len);
                }
            }
        }
        // 3. Scalar-path lanes, lane-outer, period-inner.
        for (si, &k) in scalar.iter().enumerate() {
            let lane = &mut batch.bank.domains[k];
            let run = LaneRun {
                quant: lane.quantization,
                controller: &mut lane.controller,
                path: paths[k].as_mut(),
                cur: scur[si],
                hist: &mut sring[si * ring_rows..][..ring_rows],
                mm: mm[k],
                n0: n0 as i64,
                e_nmm: tab.e_nmm(h_idx[k], mm[k], len),
                e_n1: tab.e_n1(h_idx[k], len),
                sp: tab.sp(sp_idx[k], len),
                mu: match static_mu {
                    Some(ms) => LaneMu::Static(ms[k]),
                    None => LaneMu::Table(tab.mu_nmm(mu_idx[k], mm[k], len)),
                },
            };
            scur[si] = sink.lane(si, n0, len, run).cur;
        }
        // 4. Hand the tile over.
        sink.end_tile(len);
        n0 += len;
    }

    // Write the block kernels' final state back into the lane controllers.
    for blk in &blocks {
        for j in 0..W {
            blk.store_lane(j, &mut batch.bank.domains[blk.lane[j]].controller);
        }
    }

    batch.bank.note_steps(steps as u64);
    batch
        .telemetry
        .counter("batch.controller_steps")
        .add((steps * b) as u64);
    batch
        .telemetry
        .counter("batch.blocks")
        .add(blocks.len() as u64);
    batch
        .telemetry
        .counter("batch.scalar_tail_lanes")
        .add(scalar.len() as u64);
    // Closure evaluations: h/μ rows −max_off ..= steps−2, set-point rows
    // 0 .. steps, once per unique closure.
    let hmu_rows = steps + max_off - 1;
    batch
        .telemetry
        .counter("batch.input_samples")
        .add(((nh + nmu) * hmu_rows + nsp * steps) as u64);
    let (injected, relocks) = paths.iter().flatten().fold((0u64, 0u64), |(i, r), fp| {
        (
            i + fp.schedule().injected_before(steps as u64),
            r + fp.relocks(),
        )
    });
    if injected > 0 {
        batch.telemetry.counter("faults.injected").add(injected);
    }
    if relocks > 0 {
        batch.telemetry.counter("controller.relocks").add(relocks);
    }
}
