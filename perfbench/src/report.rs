//! Metric catalogue, sample statistics, the run report and the
//! report-to-report comparison.
//!
//! `BENCHMARK.json` at the repository root is the single source of metric
//! names, units, directions and regression bounds; it is compiled into
//! the binary so a report can never name a metric the catalogue does not
//! know.

use std::collections::BTreeMap;

use serde::Value;

/// The benchmark definition, embedded at build time.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, bytes).
    Lower,
    /// Larger values are better (rates, ratios of success).
    Higher,
}

/// One catalogued metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Allowed worsening as a share of the baseline (end-to-end only).
    pub bound: Option<f64>,
}

/// The parsed metric catalogue.
#[derive(Debug, Clone)]
pub struct Catalogue {
    /// Workload names, in definition order.
    pub workloads: Vec<String>,
    /// End-to-end metrics (reported by untraced runs).
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metrics (reported by traced runs).
    pub per_layer: Vec<MetricDef>,
}

fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Result<&'a Value, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing key `{key}`"))
}

fn as_str(v: &Value) -> Result<&str, String> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(format!("expected a string, got {other:?}")),
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::Float(x) => Some(x),
        Value::Int(x) => Some(x as f64),
        Value::UInt(x) => Some(x as f64),
        _ => None,
    }
}

fn metric_defs(list: &Value, with_bound: bool) -> Result<Vec<MetricDef>, String> {
    let items = list.as_array().ok_or("metric list is not an array")?;
    items
        .iter()
        .map(|m| {
            let obj = m.as_object().ok_or("metric entry is not an object")?;
            let better = match as_str(get(obj, "better")?)? {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("unknown direction `{other}`")),
            };
            let bound = if with_bound {
                Some(as_f64(get(obj, "bound")?).ok_or("bound is not a number")?)
            } else {
                None
            };
            Ok(MetricDef {
                name: as_str(get(obj, "name")?)?.to_owned(),
                unit: as_str(get(obj, "unit")?)?.to_owned(),
                better,
                bound,
            })
        })
        .collect()
}

impl Catalogue {
    /// Parse a benchmark definition document.
    ///
    /// # Errors
    ///
    /// Malformed JSON or a missing/ill-typed key.
    pub fn parse(text: &str) -> Result<Catalogue, String> {
        let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let obj = doc.as_object().ok_or("definition is not an object")?;
        let workloads = get(obj, "workloads")?
            .as_array()
            .ok_or("workloads is not an array")?
            .iter()
            .map(|w| {
                let o = w.as_object().ok_or("workload is not an object")?;
                Ok(as_str(get(o, "name")?)?.to_owned())
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Catalogue {
            workloads,
            end_to_end: metric_defs(get(obj, "end_to_end")?, true)?,
            per_layer: metric_defs(get(obj, "per_layer")?, false)?,
        })
    }

    /// The embedded catalogue.
    pub fn embedded() -> Catalogue {
        Catalogue::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed")
    }

    /// Look up any metric by name.
    pub fn find(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `samples` (`None` when
/// empty). Sorts a copy; NaNs are a caller bug and sort last.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median of `samples` (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Whether percentile `q` of `n` samples may be reported: at least
/// [`TAIL_SAMPLES`] samples must lie strictly beyond it.
pub fn percentile_supported(n: usize, q: f64) -> bool {
    let beyond = n as f64 * (1.0 - q);
    beyond + 1e-9 >= TAIL_SAMPLES as f64
}

/// A percentile under the sample-count rule: `None` when fewer than
/// [`TAIL_SAMPLES`] samples lie beyond it.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    if percentile_supported(samples.len(), q) {
        quantile(samples, q)
    } else {
        None
    }
}

/// The conditions a measurement was taken under. Two reports are only
/// comparable when every field but `git_rev`, `source_digest` and `seed`
/// agrees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Context {
    /// Workload name.
    pub workload: String,
    /// Timed-phase length in seconds.
    pub seconds: u64,
    /// Whether the run was traced.
    pub traced: bool,
    /// `available_parallelism` of the host.
    pub nproc: usize,
    /// Sweep worker count the experiments ran with.
    pub workers: usize,
    /// `experiments::cache::engine_fingerprint()`.
    pub engine_fingerprint: String,
    /// Git revision of the checkout (`unknown` outside a git tree).
    pub git_rev: String,
    /// FNV-1a digest of the workspace sources the benchmark built.
    pub source_digest: String,
    /// Workload seed.
    pub seed: u64,
}

impl Context {
    /// Whether `other` is a rerun of this measurement: the same
    /// conditions, seed and sources, so every deterministic counter must
    /// repeat.
    pub fn repeats(&self, other: &Context) -> bool {
        self.comparable_fields() == other.comparable_fields()
            && self.seed == other.seed
            && self.source_digest == other.source_digest
    }

    /// The fields that must agree for a comparison to mean anything.
    fn comparable_fields(&self) -> [(&'static str, String); 6] {
        [
            ("workload", self.workload.clone()),
            ("seconds", self.seconds.to_string()),
            ("traced", self.traced.to_string()),
            ("nproc", self.nproc.to_string()),
            ("workers", self.workers.to_string()),
            ("engine_fingerprint", self.engine_fingerprint.clone()),
        ]
    }
}

/// Everything one run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Measurement conditions.
    pub context: Context,
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted (timed phase and checks).
    pub attempted: u64,
    /// Operations that failed a check, panicked or errored.
    pub failed: u64,
    /// `(name, value)` of every reported metric; units come from the
    /// catalogue.
    pub metrics: BTreeMap<String, f64>,
    /// Deterministic work counters (equal across runs of one seed).
    pub counters: BTreeMap<String, u64>,
    /// The host slowdown the times were scaled by, and the unscaled
    /// end-to-end times (untraced phase).
    pub host: BTreeMap<String, f64>,
    /// Human-readable notes on failed checks.
    pub failures: Vec<String>,
}

fn float_map(map: &BTreeMap<String, f64>) -> Value {
    Value::Object(
        map.iter()
            .map(|(k, &v)| (k.clone(), Value::Float(v)))
            .collect(),
    )
}

fn parse_float_map(o: &[(String, Value)], key: &str) -> Result<BTreeMap<String, f64>, String> {
    get(o, key)?
        .as_object()
        .ok_or_else(|| format!("{key} is not an object"))?
        .iter()
        .map(|(k, v)| {
            as_f64(v)
                .map(|x| (k.clone(), x))
                .ok_or_else(|| format!("{key}.{k} is not a number"))
        })
        .collect()
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

impl Report {
    /// The one-line result the benchmark prints last:
    /// `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
    pub fn result_line(&self, catalogue: &Catalogue) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, &value)| {
                let unit = catalogue.find(name).map_or("", |m| m.unit.as_str());
                (
                    name.clone(),
                    obj(vec![
                        ("value", Value::Float(value)),
                        ("unit", Value::Str(unit.to_owned())),
                    ]),
                )
            })
            .collect();
        let line = obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            ("metrics", Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("metric values are finite")
    }

    /// The full report document (context, counters, failures included).
    pub fn to_json(&self) -> String {
        let c = &self.context;
        let doc = obj(vec![
            (
                "context",
                obj(vec![
                    ("workload", Value::Str(c.workload.clone())),
                    ("seconds", Value::UInt(c.seconds)),
                    ("traced", Value::Bool(c.traced)),
                    ("nproc", Value::UInt(c.nproc as u64)),
                    ("workers", Value::UInt(c.workers as u64)),
                    (
                        "engine_fingerprint",
                        Value::Str(c.engine_fingerprint.clone()),
                    ),
                    ("git_rev", Value::Str(c.git_rev.clone())),
                    ("source_digest", Value::Str(c.source_digest.clone())),
                    ("seed", Value::UInt(c.seed)),
                ]),
            ),
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            ("metrics", float_map(&self.metrics)),
            (
                "counters",
                Value::Object(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), Value::UInt(v)))
                        .collect(),
                ),
            ),
            ("host", float_map(&self.host)),
            (
                "failures",
                Value::Array(self.failures.iter().cloned().map(Value::Str).collect()),
            ),
        ]);
        serde_json::to_string_pretty(&doc).expect("metric values are finite")
    }

    /// Parse a document written by [`Report::to_json`].
    ///
    /// # Errors
    ///
    /// Malformed JSON or a missing/ill-typed key.
    pub fn from_json(text: &str) -> Result<Report, String> {
        let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let o = doc.as_object().ok_or("report is not an object")?;
        let c = get(o, "context")?
            .as_object()
            .ok_or("context is not an object")?;
        let uint = |v: &Value| -> Result<u64, String> {
            match *v {
                Value::UInt(x) => Ok(x),
                Value::Int(x) if x >= 0 => Ok(x as u64),
                _ => Err(format!("expected an unsigned integer, got {v:?}")),
            }
        };
        let boolean = |v: &Value| -> Result<bool, String> {
            match *v {
                Value::Bool(b) => Ok(b),
                _ => Err(format!("expected a boolean, got {v:?}")),
            }
        };
        let context = Context {
            workload: as_str(get(c, "workload")?)?.to_owned(),
            seconds: uint(get(c, "seconds")?)?,
            traced: boolean(get(c, "traced")?)?,
            nproc: uint(get(c, "nproc")?)? as usize,
            workers: uint(get(c, "workers")?)? as usize,
            engine_fingerprint: as_str(get(c, "engine_fingerprint")?)?.to_owned(),
            git_rev: as_str(get(c, "git_rev")?)?.to_owned(),
            source_digest: as_str(get(c, "source_digest")?)?.to_owned(),
            seed: uint(get(c, "seed")?)?,
        };
        let counters = get(o, "counters")?
            .as_object()
            .ok_or("counters is not an object")?
            .iter()
            .map(|(k, v)| uint(v).map(|x| (k.clone(), x)))
            .collect::<Result<_, String>>()?;
        let failures = get(o, "failures")?
            .as_array()
            .ok_or("failures is not an array")?
            .iter()
            .map(|v| as_str(v).map(str::to_owned))
            .collect::<Result<_, String>>()?;
        Ok(Report {
            context,
            correct: boolean(get(o, "correct")?)?,
            attempted: uint(get(o, "attempted")?)?,
            failed: uint(get(o, "failed")?)?,
            metrics: parse_float_map(o, "metrics")?,
            counters,
            host: parse_float_map(o, "host")?,
            failures,
        })
    }
}

/// One metric's verdict in a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Metric name.
    pub name: String,
    /// Baseline value.
    pub base: f64,
    /// Candidate value.
    pub new: f64,
    /// Signed worsening as a share of the baseline (positive = worse).
    pub worse_by: f64,
    /// The catalogue's bound, when the metric has one.
    pub bound: Option<f64>,
}

impl MetricDelta {
    /// Whether the candidate is worse than the bound allows.
    pub fn regressed(&self) -> bool {
        self.bound.is_some_and(|b| self.worse_by > b)
    }
}

/// The outcome of comparing a candidate report against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Every metric present in both reports.
    pub deltas: Vec<MetricDelta>,
    /// Counters that differ although both runs used the same seed.
    pub counter_mismatches: Vec<String>,
}

impl Comparison {
    /// Whether any bounded metric regressed or any counter drifted.
    pub fn failed(&self) -> bool {
        self.deltas.iter().any(MetricDelta::regressed) || !self.counter_mismatches.is_empty()
    }

    /// A plain-text table of the comparison.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<36} {:>14} {:>14} {:>9} {:>7}  verdict\n",
            "metric", "base", "new", "worse by", "bound"
        );
        for d in &self.deltas {
            let bound = d
                .bound
                .map_or("-".to_owned(), |b| format!("{:.0}%", b * 100.0));
            let verdict = if d.regressed() { "REGRESSED" } else { "ok" };
            out.push_str(&format!(
                "{:<36} {:>14.6} {:>14.6} {:>8.1}% {:>7}  {verdict}\n",
                d.name,
                d.base,
                d.new,
                d.worse_by * 100.0,
                bound
            ));
        }
        for m in &self.counter_mismatches {
            out.push_str(&format!("counter mismatch: {m}\n"));
        }
        out
    }
}

/// Compare `new` against `base`.
///
/// # Errors
///
/// Refuses (with the differing fields named) when the two contexts are
/// not comparable: another workload, timed-phase length, tracing mode,
/// core count, sweep worker count or engine fingerprint.
pub fn compare(base: &Report, new: &Report, catalogue: &Catalogue) -> Result<Comparison, String> {
    let differing: Vec<String> = base
        .context
        .comparable_fields()
        .iter()
        .zip(new.context.comparable_fields().iter())
        .filter(|(a, b)| a.1 != b.1)
        .map(|(a, b)| format!("{}: {} vs {}", a.0, a.1, b.1))
        .collect();
    if !differing.is_empty() {
        return Err(format!(
            "refusing to compare reports taken under different conditions ({})",
            differing.join("; ")
        ));
    }
    let deltas = base
        .metrics
        .iter()
        .filter_map(|(name, &b)| {
            let &n = new.metrics.get(name)?;
            let def = catalogue.find(name);
            let better = def.map_or(Better::Lower, |d| d.better);
            let worse_by = if b == 0.0 {
                0.0
            } else {
                match better {
                    Better::Lower => (n - b) / b.abs(),
                    Better::Higher => (b - n) / b.abs(),
                }
            };
            Some(MetricDelta {
                name: name.clone(),
                base: b,
                new: n,
                worse_by,
                bound: def.and_then(|d| d.bound),
            })
        })
        .collect();
    let counter_mismatches = if base.context.seed == new.context.seed {
        let keys: std::collections::BTreeSet<&String> =
            base.counters.keys().chain(new.counters.keys()).collect();
        keys.into_iter()
            .filter(|k| base.counters.get(*k) != new.counters.get(*k))
            .map(|k| {
                format!(
                    "{k}: {:?} vs {:?}",
                    base.counters.get(k),
                    new.counters.get(k)
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    Ok(Comparison {
        deltas,
        counter_mismatches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn context(seed: u64) -> Context {
        Context {
            workload: "yield-mesh".to_owned(),
            seconds: 20,
            traced: false,
            nproc: 2,
            workers: 2,
            engine_fingerprint: "adaptive-clock-repro/0.1.0+core-r1+dtsim-r1".to_owned(),
            git_rev: "abc".to_owned(),
            source_digest: "0123".to_owned(),
            seed,
        }
    }

    fn report(seed: u64, op_ms: f64, ops_per_s: f64) -> Report {
        Report {
            context: context(seed),
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: [
                ("op_ms_p50".to_owned(), op_ms),
                ("ops_per_s".to_owned(), ops_per_s),
            ]
            .into_iter()
            .collect(),
            counters: [("mc.lane_steps".to_owned(), 294_912_000)]
                .into_iter()
                .collect(),
            host: [("slowdown_p50".to_owned(), 1.25)].into_iter().collect(),
            failures: Vec::new(),
        }
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let cat = Catalogue::embedded();
        assert_eq!(
            cat.workloads,
            ["figures-cold", "yield-mesh", "served-warm"],
            "workload line-up"
        );
        let mut seen = std::collections::BTreeSet::new();
        for m in cat.end_to_end.iter().chain(&cat.per_layer) {
            assert!(seen.insert(m.name.clone()), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64, "{}", m.name);
            assert!(
                m.name
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphanumeric()),
                "{}",
                m.name
            );
            assert!(
                m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                m.name
            );
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit of {}",
                m.name
            );
        }
        for m in &cat.end_to_end {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        let setup = cat.find("setup_s").expect("setup_s is catalogued");
        assert_eq!(setup.unit, "s");
        assert_eq!(setup.better, Better::Lower);
        let largest = cat
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
    }

    #[test]
    fn time_units_match_name_suffixes() {
        let cat = Catalogue::embedded();
        for m in cat.end_to_end.iter().chain(&cat.per_layer) {
            let expected = if m.name.ends_with("_per_s") {
                "1/s"
            } else if m.name.ends_with("_s") {
                "s"
            } else if m.name.contains("_ms") {
                "ms"
            } else if m.name.contains("bytes") {
                "B"
            } else {
                continue;
            };
            assert_eq!(m.unit, expected, "{}", m.name);
        }
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert!(percentile_supported(20, 0.5));
        assert!(!percentile_supported(19, 0.5));
        assert!(percentile_supported(100, 0.9));
        assert!(!percentile_supported(99, 0.9));
        assert!(!percentile_supported(999, 0.99));
        assert!(percentile_supported(1000, 0.99));
        let samples: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(tail_percentile(&samples, 0.9), None);
        let samples: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(tail_percentile(&samples, 0.9).is_some());
    }

    #[test]
    fn bounds_flag_only_worsening_past_the_bound() {
        let cat = Catalogue::embedded();
        let bound = |name: &str| cat.find(name).and_then(|m| m.bound).expect("bounded");
        let (op_b, rate_b) = (bound("op_ms_p50"), bound("ops_per_s"));
        let base = report(7, 100.0, 10.0);
        // Half a bound worse on both: inside.
        let ok = compare(
            &base,
            &report(7, 100.0 * (1.0 + op_b / 2.0), 10.0 * (1.0 - rate_b / 2.0)),
            &cat,
        )
        .expect("comparable");
        assert!(!ok.failed(), "{}", ok.render());
        // Twice the bound slower: past the op_ms_p50 bound.
        let slow =
            compare(&base, &report(7, 100.0 * (1.0 + 2.0 * op_b), 10.0), &cat).expect("comparable");
        assert!(slow.failed());
        let d = slow
            .deltas
            .iter()
            .find(|d| d.name == "op_ms_p50")
            .expect("op_ms_p50 compared");
        assert!(d.regressed() && (d.worse_by - 2.0 * op_b).abs() < 1e-12);
        // Throughput is higher-is-better: a drop past the bound regresses,
        // a rise never does.
        assert!(
            compare(&base, &report(7, 100.0, 10.0 * (1.0 - 2.0 * rate_b)), &cat)
                .expect("comparable")
                .failed()
        );
        assert!(!compare(&base, &report(7, 50.0, 30.0), &cat)
            .expect("comparable")
            .failed());
    }

    #[test]
    fn counters_must_repeat_for_the_same_seed() {
        let cat = Catalogue::embedded();
        let base = report(7, 100.0, 10.0);
        let mut drifted = report(7, 100.0, 10.0);
        drifted.counters.insert("mc.lane_steps".to_owned(), 1);
        assert!(compare(&base, &drifted, &cat).expect("comparable").failed());
        // Another seed is allowed other work counts.
        let mut other = drifted.clone();
        other.context.seed = 8;
        assert!(!compare(&base, &other, &cat).expect("comparable").failed());
    }

    #[test]
    fn comparison_refuses_different_conditions() {
        let cat = Catalogue::embedded();
        let base = report(7, 100.0, 10.0);
        let mut one_worker = base.clone();
        one_worker.context.workers = 1;
        let err = compare(&base, &one_worker, &cat).expect_err("worker counts differ");
        assert!(err.contains("workers: 2 vs 1"), "{err}");
        let mut other_engine = base.clone();
        other_engine.context.engine_fingerprint.push('x');
        assert!(compare(&base, &other_engine, &cat).is_err());
        let mut traced = base.clone();
        traced.context.traced = true;
        assert!(compare(&base, &traced, &cat).is_err());
        // Revision, digest and seed are recorded, not compared.
        let mut next_rev = base.clone();
        next_rev.context.git_rev = "def".to_owned();
        next_rev.context.source_digest = "4567".to_owned();
        next_rev.context.seed = 99;
        assert!(compare(&base, &next_rev, &cat).is_ok());
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut r = report(3, 12.5, 80.25);
        r.failures.push("job 4 ended failed".to_owned());
        let back = Report::from_json(&r.to_json()).expect("parses");
        assert_eq!(back, r);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let cat = Catalogue::embedded();
        let line = report(1, 12.5, 80.0).result_line(&cat);
        let v: Value = serde_json::from_str(&line).expect("valid JSON");
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(
            line.contains("\"op_ms_p50\":{\"value\":12.5,\"unit\":\"ms\"}"),
            "{line}"
        );
    }
}
