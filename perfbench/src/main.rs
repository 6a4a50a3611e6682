//! `perfbench` — the repository benchmark: end-to-end timings of the
//! three things a user of the reproduction waits for, and a traced pass
//! that splits them by layer.
//!
//! ```text
//! perfbench --workload <figures-cold|yield-mesh|served-warm> --seed <n>
//!           --seconds <s> --trace <0|1> [--result <file>] [--report <file>]
//! perfbench compare <base-report.json> <new-report.json>
//! perfbench calibrate        # 20 host-speed calibration samples
//! ```
//!
//! A run sets its workload up several times (reporting the median set-up
//! time), measures for `--seconds`, checks every output, and writes one
//! JSON result line (the last line on stdout, or `--result <file>`).
//! `--trace 0` reports the end-to-end metrics of `BENCHMARK.json`;
//! `--trace 1` measures half the time untraced and half traced and
//! reports the per-layer metrics plus the tracing overhead. `--report`
//! writes the full report (run context, deterministic counters, failed
//! checks), which `compare` checks against a baseline.

mod figures;
mod harness;
mod report;
mod served;
mod spans;
mod sys;
mod yieldmesh;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{Config, Outcome, Size};
use report::{Catalogue, Context, Report};

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
    result: Option<PathBuf>,
    report: Option<PathBuf>,
}

fn usage() -> &'static str {
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
     [--result <file>] [--report <file>]\n       perfbench compare <base.json> <new.json>\n       \
     perfbench calibrate"
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        traced: false,
        result: None,
        report: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} expects a non-negative integer, got {v}"))
        };
        match flag.as_str() {
            "--workload" => out.workload = value,
            "--seed" => out.seed = number(&value)?,
            "--seconds" => out.seconds = number(&value)?,
            "--trace" => {
                out.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                }
            }
            "--result" => out.result = Some(PathBuf::from(value)),
            "--report" => out.report = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if out.seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(out)
}

/// Run one workload and fold its outcome into a report. When `previous`
/// is a report of the same code, seed and conditions, the deterministic
/// counters must repeat it exactly.
fn measure(
    workload: &str,
    cfg: &Config,
    catalogue: &Catalogue,
    previous: Option<&Report>,
) -> Result<Report, String> {
    let mut outcome: Outcome = match workload {
        "figures-cold" => figures::run(cfg),
        "yield-mesh" => yieldmesh::run(cfg),
        "served-warm" => served::run(cfg),
        other => {
            return Err(format!(
                "unknown workload {other} (known: {})",
                catalogue.workloads.join(", ")
            ))
        }
    }?;
    let mut sorted = outcome.untraced.op_ms.clone();
    sorted.sort_by(f64::total_cmp);
    eprintln!(
        "perfbench: {} untraced operations, ms min/p25/p50/p75/max = {:.1}/{:.1}/{:.1}/{:.1}/{:.1}",
        sorted.len(),
        sorted.first().copied().unwrap_or(0.0),
        report::quantile(&sorted, 0.25).unwrap_or(0.0),
        report::quantile(&sorted, 0.5).unwrap_or(0.0),
        report::quantile(&sorted, 0.75).unwrap_or(0.0),
        sorted.last().copied().unwrap_or(0.0),
    );
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let context = Context {
        workload: workload.to_owned(),
        seconds: cfg.seconds as u64,
        traced: cfg.traced,
        nproc: sys::nproc(),
        workers: experiments::sweep::thread_override().unwrap_or_else(sys::nproc),
        engine_fingerprint: experiments::cache::engine_fingerprint(),
        git_rev: sys::git_rev(&root),
        source_digest: sys::source_digest(&root),
        seed: cfg.seed,
    };
    if let Some(previous) = previous.filter(|p| p.context.repeats(&context)) {
        let drifted: Vec<String> = outcome
            .counters
            .iter()
            .filter(|(k, v)| previous.counters.get(*k).is_some_and(|p| p != *v))
            .map(|(k, v)| format!("{k}: {} then {v}", previous.counters[k]))
            .collect();
        outcome.checks.check(drifted.is_empty(), || {
            format!(
                "counters differ from the previous run of this seed: {}",
                drifted.join(", ")
            )
        });
    }
    Ok(harness::report(context, outcome, catalogue))
}

fn run(args: &[String]) -> Result<bool, String> {
    let run = parse_run(args)?;
    let catalogue = Catalogue::embedded();
    let cfg = Config {
        seed: run.seed,
        seconds: run.seconds as f64,
        traced: run.traced,
        size: Size::Full,
        work: PathBuf::from(".bench_work").join(&run.workload),
    };
    let previous = run
        .report
        .as_ref()
        .and_then(|p| std::fs::read_to_string(p).ok())
        .and_then(|t| Report::from_json(&t).ok());
    let report = measure(&run.workload, &cfg, &catalogue, previous.as_ref())?;
    eprintln!("{}", harness::render(&report, &catalogue));
    if let Some(path) = &run.report {
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let line = report.result_line(&catalogue);
    match &run.result {
        Some(path) => std::fs::write(path, format!("{line}\n"))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?,
        None => println!("{line}"),
    }
    Ok(report.correct)
}

fn compare(base: &str, new: &str) -> Result<bool, String> {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("cannot read {p}: {e}"))
            .and_then(|t| Report::from_json(&t))
    };
    let cmp = report::compare(&load(base)?, &load(new)?, &Catalogue::embedded())?;
    println!("{}", cmp.render());
    Ok(!cmp.failed())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare(&args[1], &args[2]),
        Some("compare") => Err(usage().to_owned()),
        Some("calibrate") => {
            for _ in 0..20 {
                println!("{:.3} ms", sys::calibration_ms());
            }
            Ok(true)
        }
        _ => run(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: error: {e}\n{}", usage());
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `workload` at tiny size and require every catalogued metric of
    /// the mode, and nothing else, with every check passing.
    fn smoke(workload: &str, traced: bool) {
        let catalogue = Catalogue::embedded();
        let cfg = Config {
            seed: 11,
            seconds: 0.3,
            traced,
            size: Size::Tiny,
            work: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../.bench_work/tests")
                .join(format!("{workload}-{traced}")),
        };
        let report = measure(workload, &cfg, &catalogue, None).expect("tiny run succeeds");
        assert!(report.correct, "{:?}", report.failures);
        assert!(report.attempted >= 1);
        let expected: Vec<&str> = if traced {
            catalogue
                .per_layer
                .iter()
                .map(|m| m.name.as_str())
                .collect()
        } else {
            catalogue
                .end_to_end
                .iter()
                .map(|m| m.name.as_str())
                .collect()
        };
        let mut expected = expected;
        expected.sort_unstable();
        let emitted: Vec<&str> = report.metrics.keys().map(String::as_str).collect();
        assert_eq!(emitted, expected, "{workload} traced={traced}");
        assert!(report.metrics.values().all(|v| v.is_finite()));
        if !traced {
            for name in [
                "setup_s",
                "op_ms_p50",
                "ops_per_s",
                "cpu_ms_per_op",
                "peak_rss_mb",
            ] {
                assert!(
                    report.metrics[name] > 0.0,
                    "{workload}: {name} must be positive"
                );
            }
            assert_eq!(report.metrics["success_ratio"], 1.0);
        }
        let line: serde::Value =
            serde_json::from_str(&report.result_line(&catalogue)).expect("result line is JSON");
        assert!(line.as_object().is_some());
    }

    #[test]
    fn figures_cold_emits_every_metric() {
        smoke("figures-cold", false);
        smoke("figures-cold", true);
    }

    #[test]
    fn yield_mesh_emits_every_metric() {
        smoke("yield-mesh", false);
        smoke("yield-mesh", true);
    }

    #[test]
    fn counters_must_repeat_the_previous_run_of_a_seed() {
        let catalogue = Catalogue::embedded();
        let cfg = Config {
            seed: 5,
            seconds: 0.1,
            traced: false,
            size: Size::Tiny,
            work: PathBuf::from("unused"),
        };
        let first = measure("yield-mesh", &cfg, &catalogue, None).expect("tiny run succeeds");
        assert!(first.counters.contains_key("mc.summary_digest"));
        let again = measure("yield-mesh", &cfg, &catalogue, Some(&first)).expect("rerun");
        assert!(again.correct, "{:?}", again.failures);
        let mut tampered = first.clone();
        *tampered
            .counters
            .get_mut("mesh.domain_steps")
            .expect("mesh work is counted") += 1;
        let drifted = measure("yield-mesh", &cfg, &catalogue, Some(&tampered)).expect("rerun");
        assert!(!drifted.correct);
        // Another seed is not a rerun: its counters may differ.
        tampered.context.seed = 6;
        let other = measure("yield-mesh", &cfg, &catalogue, Some(&tampered)).expect("rerun");
        assert!(other.correct, "{:?}", other.failures);
    }

    #[test]
    fn served_warm_emits_every_metric() {
        smoke("served-warm", false);
        smoke("served-warm", true);
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let cfg = Config {
            seed: 0,
            seconds: 1.0,
            traced: false,
            size: Size::Tiny,
            work: PathBuf::from("unused"),
        };
        assert!(measure("no-such", &cfg, &Catalogue::embedded(), None).is_err());
    }

    #[test]
    fn run_arguments_are_validated() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let ok = parse_run(&args(
            "--workload yield-mesh --seed 4 --seconds 20 --trace 1",
        ))
        .expect("valid arguments");
        assert_eq!((ok.seed, ok.seconds, ok.traced), (4, 20, true));
        assert!(parse_run(&args("--workload x --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_run(&args("--workload x --seed 1 --seconds 5 --trace 2")).is_err());
        assert!(parse_run(&args("--workload x --seed")).is_err());
        assert!(parse_run(&args("--bogus 1")).is_err());
    }
}
