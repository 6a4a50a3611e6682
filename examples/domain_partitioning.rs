//! Clock-domain partitioning study — the paper's conclusion made concrete:
//! the CDN delay (and with it, the tolerable variation frequency) scales
//! with domain size, so a die partitioned into more, smaller adaptive
//! domains rides out faster supply events.
//!
//! The scenario: one die, hit by an SSN droop train. Partitionings: one
//! monolithic domain (deep clock tree, t_clk = 4c), four quadrants
//! (t_clk = c), sixteen tiles (t_clk = c/4). Each partitioning is scored by
//! the worst per-domain safety margin and the spread of mean periods
//! (inter-domain asynchrony the interconnect must absorb).
//!
//! Run with: `cargo run -p adaptive-clock-examples --example domain_partitioning`

use adaptive_clock::system::{Scheme, SystemBuilder};
use variation::sources::Waveform;
use variation::stochastic::{SsnBursts, SsnConfig};

/// Run `n_domains` IIR domains at CDN delay `t_clk` under the shared
/// waveform `e`, with a static process tilt of `mu_spread` stages spread
/// across them. Returns the worst per-domain safety margin and the spread
/// of mean periods (max − min) after `warmup` samples.
fn partitioning(
    n_domains: usize,
    t_clk: f64,
    mu_spread: f64,
    e: &impl Waveform,
    n_samples: usize,
    warmup: usize,
) -> (f64, f64) {
    let (mut worst, mut lo, mut hi) = (0.0, f64::MAX, f64::MIN);
    for k in 0..n_domains {
        let mu = if n_domains == 1 {
            0.0
        } else {
            mu_spread * (k as f64 / (n_domains - 1) as f64 - 0.5)
        };
        let run = SystemBuilder::new(64)
            .cdn_delay(t_clk)
            .scheme(Scheme::iir_paper())
            .single_sensor_mu(mu)
            .build()
            .expect("valid domain")
            .run(e, n_samples)
            .skip(warmup);
        worst = f64::max(worst, run.worst_negative_error());
        lo = f64::min(lo, run.mean_period());
        hi = f64::max(hi, run.mean_period());
    }
    (worst, hi - lo)
}

fn main() {
    let c = 64.0;
    // SSN droop train: ~8c-long events every ~120c, up to 0.15c deep.
    let droops = SsnBursts::new(
        2026,
        SsnConfig {
            mean_gap: 120.0 * c,
            amplitude: (0.05 * c, 0.15 * c),
            duration: (6.0 * c, 12.0 * c),
            horizon: 3.0e6,
        },
    );
    println!(
        "Domain partitioning under an SSN droop train ({} bursts, IIR RO everywhere)\n",
        droops.len()
    );
    println!(
        "{:<22} | {:>8} | {:>14} | {:>15}",
        "partitioning", "t_clk", "worst margin", "period spread"
    );
    for (label, n, t_clk) in [
        ("1 monolithic domain", 1usize, 4.0 * c),
        ("4 quadrants", 4, c),
        ("16 tiles", 16, 0.25 * c),
    ] {
        let (worst, spread) = partitioning(n, t_clk, 6.0, &droops, 12_000, 1000);
        println!(
            "{label:<22} | {:>7.1}c | {worst:>13.2}  | {spread:>14.2}",
            t_clk / c
        );
    }
    println!(
        "\nSmaller domains see the droop 'from nearby' (t_clk ≪ droop duration), so the\n\
         RO period bends with the droop before the logic feels it — Eq. 3's linear\n\
         attenuation regime. The price is asynchrony: sixteen independent adaptive\n\
         clocks drift apart by the process tilt the loop compensates locally."
    );
}
