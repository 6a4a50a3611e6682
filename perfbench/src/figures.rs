//! `figures-cold`: regenerate the 13 leaves of the `everything` bundle at
//! full grids into a fresh, empty persistent result cache.
//!
//! Each repetition calls every experiment's public `run`, then its
//! `render`, in a seeded order (the paper fixes the grids, so the order
//! is the only thing the seed varies). The text is assembled in bundle
//! order exactly as `repro everything` prints it, which is how the quick
//! pass is checked against the committed golden fixture.

use std::collections::BTreeMap;

use clock_telemetry::Telemetry;
use experiments::cache::SweepCache;
use experiments::config::PaperParams;
use experiments::runner::RunCtx;
use experiments::{
    constraints, ext_coupling, ext_lock, ext_noise, ext_sensitivity, ext_stability, ext_throughput,
    fig2, fig7, fig8, fig9, table1, worked,
};

use crate::harness::{
    closed_loop, fresh_dir, timed, timed_setup, Checks, Config, OpCost, Outcome, Phase, Size,
};
use crate::spans::{self, Trace};
use crate::sys::SplitMix;

/// The leaves of `everything`, in bundle order.
pub const LEAVES: [&str; 13] = [
    "table1",
    "fig2",
    "fig7",
    "fig8",
    "fig9",
    "worked-examples",
    "constraints",
    "ext-sensitivity",
    "ext-throughput",
    "ext-noise",
    "ext-stability",
    "ext-lock",
    "ext-coupling",
];

/// `repro everything --quick` output, byte for byte.
const GOLDEN_QUICK: &str = include_str!("../../tests/golden/everything-quick.txt");

type Render = Box<dyn FnOnce() -> String>;

/// Run leaf `id` and return the thunk that renders it the way the
/// registry prints it.
fn run_leaf(id: &str, ctx: &RunCtx, quick: bool) -> Render {
    let points = |full: usize, small: usize| if quick { small } else { full };
    match id {
        "table1" => Box::new(|| format!("{}\n", table1::render())),
        "fig2" => {
            let r = fig2::run(4.0, 401);
            Box::new(move || format!("{}\n", fig2::render(&r)))
        }
        "fig7" => {
            let panels = fig7::run(ctx);
            Box::new(move || {
                let mut out = String::new();
                for panel in &panels {
                    out.push_str(&format!("{}\n", fig7::render(panel)));
                    out.push_str("needed safety margins (stages):\n");
                    for (label, m) in fig7::panel_margins(panel) {
                        out.push_str(&format!("  {label:<12} {m:.2}\n"));
                    }
                    out.push('\n');
                }
                out
            })
        }
        "fig8" => {
            let upper = fig8::run_upper(ctx, points(17, 9));
            let lower = fig8::run_lower(ctx, points(17, 9));
            Box::new(move || {
                format!(
                    "{}\n{}\n",
                    fig8::render(&upper, "t_clk/c"),
                    fig8::render(&lower, "Te/c")
                )
            })
        }
        "fig9" => {
            let panels = fig9::run(ctx, points(9, 5));
            Box::new(move || {
                panels
                    .iter()
                    .map(|p| format!("{}\n", fig9::render(p)))
                    .collect()
            })
        }
        "worked-examples" => {
            let r = worked::run();
            Box::new(move || format!("{}\n", worked::render(&r)))
        }
        "constraints" => {
            let r = constraints::run(30);
            Box::new(move || format!("{}\n", constraints::render(&r)))
        }
        "ext-sensitivity" => {
            let r = ext_sensitivity::run(ctx, points(13, 7));
            Box::new(move || format!("{}\n", ext_sensitivity::render(&r)))
        }
        "ext-throughput" => {
            let r = ext_throughput::run(ctx, 8);
            Box::new(move || format!("{}\n", ext_throughput::render(&r)))
        }
        "ext-noise" => {
            let seeds: &[u64] = if quick { &[1, 2] } else { &[1, 2, 3, 4, 5] };
            let r = ext_noise::run(ctx, seeds);
            Box::new(move || format!("{}\n", ext_noise::render(&r)))
        }
        "ext-stability" => {
            let r = ext_stability::run(300);
            Box::new(move || format!("{}\n", ext_stability::render(&r)))
        }
        "ext-lock" => {
            let r = ext_lock::run();
            Box::new(move || format!("{}\n", ext_lock::render(&r)))
        }
        "ext-coupling" => {
            let r = ext_coupling::run(ctx);
            Box::new(move || format!("{}\n", ext_coupling::render(&r)))
        }
        other => unreachable!("{other} is not a leaf of everything"),
    }
}

/// Regenerate the bundle: run then render each leaf in `order`, under
/// `experiment` (attribute `id`) and `render` spans on `telemetry`, and
/// return the text in bundle order.
pub fn regenerate(
    order: &[&'static str],
    ctx: &RunCtx,
    quick: bool,
    telemetry: &Telemetry,
) -> String {
    let mut texts: BTreeMap<&str, String> = BTreeMap::new();
    for &id in order {
        let render = {
            let mut scope = telemetry.scope("experiment");
            scope.attr("id", id);
            run_leaf(id, ctx, quick)
        };
        let text = {
            let mut scope = telemetry.scope("render");
            scope.attr("id", id);
            render()
        };
        texts.insert(id, text);
    }
    LEAVES
        .iter()
        .filter_map(|id| {
            texts
                .get(id)
                .map(|t| format!("================ {id} ================\n\n{t}"))
        })
        .collect()
}

fn digest(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn order_for(cfg: &Config) -> Vec<&'static str> {
    let mut order = LEAVES.to_vec();
    SplitMix::new(cfg.seed, 0xF16).shuffle(&mut order);
    order
}

/// Per-layer metrics of one traced regeneration.
fn layers_of(trace: &Trace, layers: &mut BTreeMap<String, f64>) {
    for s in trace.spans().iter().filter(|s| s.name == "experiment") {
        let id = spans::attr_of(s, "id").unwrap_or("?");
        spans::add(
            layers,
            &format!("experiment.{id}.run_s"),
            s.dur_us() as f64 * 1e-6,
        );
    }
    spans::add(layers, "render_s", trace.total_s("render"));
    spans::add(
        layers,
        "sweep.worker_self_s",
        trace.self_s("sweep.worker", "cache."),
    );
    spans::add(layers, "sweep.probe_s", trace.total_s("sweep.probe"));
    spans::add(layers, "sweep.schedule_s", trace.total_s("sweep.schedule"));
    spans::add(layers, "sweep.busy_ratio", trace.busy_ratio("sweep.worker"));
    spans::add(layers, "cache.put_s", trace.total_s("cache.put"));
    spans::add(layers, "cache.get_s", trace.total_s("cache.get"));
}

/// One cold regeneration into a fresh cache directory: the rendered
/// text, the cost of run + render, and the cache traffic.
struct Rep {
    text: String,
    cost: OpCost,
    misses: u64,
    bytes_written: u64,
    telemetry: Telemetry,
}

fn cold_rep(
    cfg: &Config,
    order: &[&'static str],
    dir: &std::path::Path,
    traced: bool,
) -> Result<Rep, String> {
    fresh_dir(dir)?;
    let telemetry = if traced {
        spans::traced_telemetry()
    } else {
        Telemetry::disabled()
    };
    let cache = SweepCache::persistent(dir, &telemetry)
        .map_err(|e| format!("cannot open cache {}: {e}", dir.display()))?;
    let ctx = RunCtx::new(PaperParams::default())
        .with_cache(cache.clone())
        .with_telemetry(telemetry.clone());
    let quick = cfg.size == Size::Tiny;
    let (text, cost) = timed(|| regenerate(order, &ctx, quick, &telemetry));
    let stats = cache.stats().unwrap_or_default();
    drop(ctx);
    drop(cache);
    std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    settle_writeback(dir);
    Ok(Rep {
        text,
        cost,
        misses: stats.misses,
        bytes_written: stats.bytes_written,
        telemetry,
    })
}

/// Flush the filesystem holding `dir` (untimed), so the kernel's
/// writeback of one repetition's cache files does not run during the
/// next one.
fn settle_writeback(dir: &std::path::Path) {
    let target = dir.parent().unwrap_or(dir);
    let _ = std::process::Command::new("sync")
        .arg("-f")
        .arg(target)
        .status();
}

fn phase(
    cfg: &Config,
    order: &[&'static str],
    traced: bool,
    seconds: f64,
    checks: &mut Checks,
    counters: &mut BTreeMap<String, u64>,
    first_digest: &mut Option<u64>,
) -> Phase {
    let dir = cfg.work.join("cache");
    let mut layers = BTreeMap::new();
    let mut phase = closed_loop(seconds, || match cold_rep(cfg, order, &dir, traced) {
        Ok(rep) => {
            let d = digest(&rep.text);
            let expected = *first_digest.get_or_insert(d);
            checks.check(d == expected, || {
                "a full-size repetition rendered differently from the first".to_owned()
            });
            checks.same_counter(counters, "cache.misses", rep.misses);
            checks.same_counter(counters, "cache.bytes_written", rep.bytes_written);
            if traced {
                let trace = Trace::new(rep.telemetry.trace_spans());
                layers_of(&trace, &mut layers);
                let snap = rep.telemetry.snapshot();
                spans::add(
                    &mut layers,
                    "sweep.tail_ms",
                    snap.counter("sweep.tail_ms").unwrap_or(0) as f64,
                );
                spans::add(&mut layers, "cache.misses", rep.misses as f64);
                spans::add(&mut layers, "cache.bytes_written", rep.bytes_written as f64);
                let items = trace.attr_sum_by_ancestor("sweep.probe", "items", "experiment", "id");
                let mut total = 0;
                for (id, n) in &items {
                    checks.same_counter(counters, &format!("sweep.items.{id}"), *n);
                    total += n;
                }
                spans::add(&mut layers, "sweep.items", total as f64);
                let attributed = trace.total_s("experiment") + trace.total_s("render");
                spans::add(
                    &mut layers,
                    "bundle.attributed_ratio",
                    attributed / (rep.cost.ms * 1e-3),
                );
            }
            rep.cost
        }
        Err(e) => {
            checks.check(false, || e);
            OpCost::default()
        }
    });
    let n = phase.op_ms.len() as f64;
    phase.layers = layers.into_iter().map(|(k, v)| (k, v / n)).collect();
    phase
}

/// Run the workload.
///
/// # Errors
///
/// Set-up failures (the scratch directory cannot be created).
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let order = order_for(cfg);
    let mut checks = Checks::default();
    // Set-up: a fresh workspace and one warm-up regeneration without a
    // cache, so lazy process state (thread stacks, allocator arenas) is
    // paid before timing and set-up does no disk I/O.
    let (setup, ()) = timed_setup(|_| {
        fresh_dir(&cfg.work)?;
        let ctx = RunCtx::new(PaperParams::default());
        std::hint::black_box(regenerate(
            &order,
            &ctx,
            cfg.size == Size::Tiny,
            &Telemetry::disabled(),
        ));
        Ok(())
    })?;
    let mut counters = BTreeMap::new();
    let mut first = None;
    let (untraced, traced) = if cfg.traced {
        let half = cfg.seconds / 2.0;
        let u = phase(
            cfg,
            &order,
            false,
            half,
            &mut checks,
            &mut counters,
            &mut first,
        );
        let t = phase(
            cfg,
            &order,
            true,
            half,
            &mut checks,
            &mut counters,
            &mut first,
        );
        (u, Some(t))
    } else {
        let u = phase(
            cfg,
            &order,
            false,
            cfg.seconds,
            &mut checks,
            &mut counters,
            &mut first,
        );
        (u, None)
    };
    // The quick pass must reproduce the committed golden fixture.
    let quick = regenerate(
        &LEAVES,
        &RunCtx::new(PaperParams::default()),
        true,
        &Telemetry::disabled(),
    );
    checks.check(quick == GOLDEN_QUICK, || {
        "quick regeneration differs from tests/golden/everything-quick.txt".to_owned()
    });
    let _ = std::fs::remove_dir_all(&cfg.work);
    Ok(Outcome {
        setup,
        untraced,
        traced,
        counters,
        checks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_regeneration_matches_the_golden_fixture_in_any_order() {
        let ctx = RunCtx::new(PaperParams::default());
        let mut order = LEAVES.to_vec();
        order.reverse();
        let text = regenerate(&order, &ctx, true, &Telemetry::disabled());
        assert!(
            text == GOLDEN_QUICK,
            "quick bundle drifted from the golden fixture"
        );
    }

    #[test]
    fn seed_permutes_the_order_only() {
        let cfg = |seed| Config {
            seed,
            seconds: 1.0,
            traced: false,
            size: Size::Tiny,
            work: std::path::PathBuf::new(),
        };
        let (a, b) = (order_for(&cfg(1)), order_for(&cfg(2)));
        assert_ne!(a, b);
        assert_eq!(a, order_for(&cfg(1)));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        let mut leaves = LEAVES.to_vec();
        leaves.sort_unstable();
        assert_eq!(sorted, leaves);
    }
}
