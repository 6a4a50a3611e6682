//! `served-warm`: the experiment service under two closed-loop clients.
//!
//! An in-process `clock_serve::Server` runs registry experiments through
//! `RegistryExecutor` on a 2-worker pool. Set-up binds the server and
//! pre-fills its persistent result cache with every job in the mix, so
//! the timed jobs read the cache. Two client threads then submit a seeded
//! sequence of leaf ids, quick and full, each waiting for its job's event
//! stream to close before submitting the next. A job's latency runs from
//! sending the submit to observing the terminal state.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use clock_serve::{
    client, DrainReport, JobExecutor, JobHandle, JobOutcome, JobRecord, JobSpec, Server,
    ServerConfig,
};
use clock_telemetry::Telemetry;
use experiments::cache::SweepCache;
use experiments::config::PaperParams;
use experiments::registry::{self, Invocation};
use experiments::runner::RunCtx;
use experiments::service::RegistryExecutor;

use crate::harness::{fresh_dir, timed_setup, Checks, Config, Outcome, Phase, Size};
use crate::report;
use crate::spans;
use crate::sys::{self, SplitMix};

/// Concurrent closed-loop clients.
const CLIENTS: u64 = 2;
/// Server worker threads.
const WORKERS: usize = 2;

/// The job mix: every non-selftest leaf but `bench`, quick and full,
/// except full `ext-yield` (a 2 s cold fill per set-up; `yield-mesh`
/// measures that engine).
fn mix(size: Size) -> Vec<(&'static str, bool)> {
    const IDS: [&str; 16] = [
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
        "ext-faults",
        "ext-yield",
        "ext-mesh",
    ];
    match size {
        Size::Full => IDS
            .iter()
            .flat_map(|&id| [(id, true), (id, false)])
            .filter(|&(id, quick)| quick || id != "ext-yield")
            .collect(),
        Size::Tiny => vec![
            ("table1", true),
            ("fig2", true),
            ("fig7", true),
            ("ext-lock", true),
        ],
    }
}

/// `RegistryExecutor` plus the benchmark's timing of each run: when a
/// worker picked the job up and when the executor returned.
struct TimedExecutor {
    inner: RegistryExecutor,
    telemetry: Telemetry,
    runs: Mutex<HashMap<u64, (Instant, Instant)>>,
}

impl JobExecutor for TimedExecutor {
    fn validate(&self, spec: &JobSpec) -> Result<(), String> {
        self.inner.validate(spec)
    }

    fn dedupe_key(&self, spec: &JobSpec) -> String {
        self.inner.dedupe_key(spec)
    }

    fn run(&self, spec: &JobSpec, handle: &JobHandle) -> JobOutcome {
        let start = Instant::now();
        let outcome = {
            let mut scope = self.telemetry.scope("serve.executor_run");
            scope.attr("job", handle.id);
            self.inner.run(spec, handle)
        };
        let end = Instant::now();
        self.runs
            .lock()
            .expect("run log lock")
            .insert(handle.id, (start, end));
        outcome
    }
}

/// A running server and the handles to stop and observe it.
struct Service {
    addr: String,
    data_dir: PathBuf,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<DrainReport>>,
    executor: Arc<TimedExecutor>,
    telemetry: Telemetry,
}

impl Service {
    fn start(dir: &Path, traced: bool) -> Result<(Service, SweepCache), String> {
        fresh_dir(dir)?;
        let telemetry = if traced {
            spans::traced_telemetry()
        } else {
            Telemetry::disabled()
        };
        let cache = SweepCache::persistent(dir.join("cache"), &Telemetry::disabled())
            .map_err(|e| format!("cannot open cache: {e}"))?;
        let executor = Arc::new(TimedExecutor {
            inner: RegistryExecutor::new(PaperParams::default(), cache.clone()),
            telemetry: telemetry.clone(),
            runs: Mutex::new(HashMap::new()),
        });
        let data_dir = dir.join("serve");
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: WORKERS,
            queue_capacity: 16,
            data_dir: data_dir.clone(),
            default_timeout_ms: 0,
            drain_grace_ms: 5_000,
        };
        let server = Server::bind(config, executor.clone(), telemetry.clone())
            .map_err(|e| format!("cannot bind server: {e}"))?;
        let addr = server.local_addr().to_string();
        let shutdown = server.shutdown_flag();
        let thread = std::thread::spawn(move || server.run());
        let service = Service {
            addr,
            data_dir,
            shutdown,
            thread: Some(thread),
            executor,
            telemetry,
        };
        Ok((service, cache))
    }

    fn stop(&mut self) -> Option<DrainReport> {
        self.shutdown.store(true, Ordering::SeqCst);
        self.thread.take().and_then(|t| t.join().ok())
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// One job as a client saw it.
struct Sample {
    id: u64,
    t0: Instant,
    submitted: Instant,
    terminal: Instant,
    events_bytes: usize,
    record: Option<JobRecord>,
    error: Option<String>,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        (self.terminal - self.t0).as_secs_f64() * 1e3
    }

    /// `(hits, misses)` from the executor's completion detail.
    fn cache_traffic(&self) -> Option<(u64, u64)> {
        let detail = &self.record.as_ref()?.detail;
        let rest = detail.split("cache ").nth(1)?;
        let mut words = rest.split_whitespace();
        let hits = words.next()?.parse().ok()?;
        let misses = words.nth(2)?.parse().ok()?;
        Some((hits, misses))
    }

    /// Why the job does not count as a success, if it does not.
    fn failure(&self) -> Option<String> {
        if let Some(e) = &self.error {
            return Some(e.clone());
        }
        let Some(record) = self.record.as_ref() else {
            return Some(format!("job {}: no record", self.id));
        };
        if record.state.label() != "completed" {
            return Some(format!(
                "job {} ({}) ended {}: {}",
                self.id,
                record.spec.experiment,
                record.state.label(),
                record.detail
            ));
        }
        match self.cache_traffic() {
            Some((_, 0)) => None,
            _ => Some(format!(
                "job {} ({}) did not read a warm cache: {}",
                self.id, record.spec.experiment, record.detail
            )),
        }
    }
}

fn job_id(body: &str) -> Option<u64> {
    let v: serde::Value = serde_json::from_str(body).ok()?;
    v.as_object()?
        .iter()
        .find_map(|(k, v)| match (k.as_str(), v) {
            ("job", serde::Value::UInt(id)) => Some(*id),
            ("job", serde::Value::Int(id)) => u64::try_from(*id).ok(),
            _ => None,
        })
}

/// Submit one job and wait for its event stream to close.
fn job(addr: &str, (id, quick): (&str, bool)) -> Sample {
    let body = format!("{{\"experiment\":\"{id}\",\"quick\":{quick}}}");
    let t0 = Instant::now();
    let mut sample = Sample {
        id: 0,
        t0,
        submitted: t0,
        terminal: t0,
        events_bytes: 0,
        record: None,
        error: None,
    };
    let submit = match client::request(addr, "POST", "/submit", Some(&body)) {
        Ok(r) if r.status == 200 || r.status == 202 => r,
        Ok(r) => {
            sample.error = Some(format!("submit {id}: HTTP {} {}", r.status, r.body.trim()));
            return sample;
        }
        Err(e) => {
            sample.error = Some(format!("submit {id}: {e}"));
            return sample;
        }
    };
    sample.submitted = Instant::now();
    let Some(job) = job_id(&submit.body) else {
        sample.error = Some(format!("submit {id}: no job id in {}", submit.body.trim()));
        return sample;
    };
    sample.id = job;
    match client::request(addr, "GET", &format!("/jobs/{job}/events"), None) {
        Ok(r) if r.status == 200 => sample.events_bytes = r.body.len(),
        Ok(r) => sample.error = Some(format!("events of job {job}: HTTP {}", r.status)),
        Err(e) => sample.error = Some(format!("events of job {job}: {e}")),
    }
    sample.terminal = Instant::now();
    match client::request(addr, "GET", &format!("/jobs/{job}"), None) {
        Ok(r) if r.status == 200 => match serde_json::from_str::<JobRecord>(&r.body) {
            Ok(rec) => sample.record = Some(rec),
            Err(e) => sample.error = Some(format!("job {job} record: {e}")),
        },
        Ok(r) => sample.error = Some(format!("job {job} record: HTTP {}", r.status)),
        Err(e) => sample.error = Some(format!("job {job} record: {e}")),
    }
    sample
}

/// Run the whole mix once straight through the registry into the
/// server's cache (the service would also spool every engine event of
/// these cold runs), then one job through the server to warm its path.
fn prefill(service: &Service, cache: &SweepCache, size: Size) -> Result<(), String> {
    let ctx = RunCtx::new(PaperParams::default()).with_cache(cache.clone());
    for (id, quick) in mix(size) {
        let inv = Invocation {
            ctx: &ctx,
            quick,
            json: false,
            json_path: None,
            compare: None,
            noise: experiments::bench::DEFAULT_COMPARE_NOISE,
        };
        if !registry::run(id, &inv) {
            return Err(format!("cache pre-fill: {id} failed"));
        }
    }
    let warm = job(&service.addr, mix(size)[0]);
    match warm.failure() {
        Some(f) => Err(format!("warm-up job failed: {f}")),
        None => Ok(()),
    }
}

fn phase(
    cfg: &Config,
    service: &mut Service,
    seconds: f64,
    traced: bool,
    checks: &mut Checks,
    counters: &mut BTreeMap<String, u64>,
) -> Phase {
    let specs = mix(cfg.size);
    let mut slowdown: Vec<f64> = (0..3).map(|_| sys::slowdown()).collect();
    let t0 = Instant::now();
    let cpu0 = sys::cpu_seconds();
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let specs = &specs;
                let addr = service.addr.as_str();
                s.spawn(move || {
                    // Each client deals the whole mix in a seeded order,
                    // then reshuffles: the seed varies the sequence while
                    // every run submits the same composition of jobs.
                    let mut rng = SplitMix::new(cfg.seed, 0x5E12 + c);
                    let mut deck: Vec<usize> = Vec::new();
                    let mut out = Vec::new();
                    loop {
                        if deck.is_empty() {
                            deck = (0..specs.len()).collect();
                            rng.shuffle(&mut deck);
                        }
                        let next = deck.pop().expect("the deck was just refilled");
                        out.push(job(addr, specs[next]));
                        if t0.elapsed().as_secs_f64() >= seconds {
                            break out;
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client joins"))
            .collect()
    });
    let cpu_s = sys::cpu_seconds() - cpu0;
    let timed_s = t0.elapsed().as_secs_f64();
    slowdown.extend((0..3).map(|_| sys::slowdown()));
    let mut phase = Phase {
        timed_s,
        cpu_s,
        // Jobs overlap, so CPU is only attributable per phase.
        op_cpu_ms: vec![cpu_s * 1e3 / samples.len().max(1) as f64],
        slowdown,
        // A job's latency is mostly the service's 25 ms poll ticks,
        // which do not scale with host speed.
        compute_bound: false,
        ..Phase::default()
    };
    samples.sort_by_key(|s| s.terminal);
    for s in &samples {
        let failure = s.failure();
        checks.check(failure.is_none(), || failure.unwrap_or_default());
    }
    // Warm jobs never miss, so the phase's miss count is a deterministic 0.
    let misses = samples
        .iter()
        .filter_map(Sample::cache_traffic)
        .map(|(_, m)| m)
        .sum();
    checks.same_counter(counters, "cache.misses", misses);
    phase.op_ms = samples.iter().map(Sample::latency_ms).collect();
    if traced {
        phase.layers = layers(service, &samples);
    }
    let drained = service.stop().is_some_and(|r| r.drained);
    checks.check(drained, || {
        "the server did not drain on shutdown".to_owned()
    });
    phase
}

fn layers(service: &Service, samples: &[Sample]) -> BTreeMap<String, f64> {
    let runs = service.executor.runs.lock().expect("run log lock").clone();
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let p50 = |v: Vec<f64>| report::median(&v).unwrap_or(0.0);
    let timed: Vec<(&Sample, Instant, Instant)> = samples
        .iter()
        .filter_map(|s| runs.get(&s.id).map(|&(a, b)| (s, a, b)))
        .collect();
    let latencies: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
    let (hits, misses) = samples
        .iter()
        .filter_map(Sample::cache_traffic)
        .fold((0, 0), |(h, m), (a, b)| (h + a, m + b));
    let n = samples.len().max(1) as f64;
    let snap = service.telemetry.snapshot();
    let journal = std::fs::metadata(service.data_dir.join("journal.json")).map_or(0, |m| m.len());
    let mut layers = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        layers.insert(k.to_owned(), v);
    };
    put(
        "serve.job_latency_ms_p90",
        report::tail_percentile(&latencies, 0.9).unwrap_or(0.0),
    );
    put(
        "serve.submit_ms_p50",
        p50(samples.iter().map(|s| ms(s.submitted - s.t0)).collect()),
    );
    put(
        "serve.queue_wait_ms_p50",
        p50(timed
            .iter()
            .map(|(s, a, _)| ms(a.saturating_duration_since(s.t0)))
            .collect()),
    );
    put(
        "serve.executor_run_ms_p50",
        p50(timed.iter().map(|(_, a, b)| ms(*b - *a)).collect()),
    );
    put(
        "serve.notify_lag_ms_p50",
        p50(timed
            .iter()
            .map(|(s, _, b)| ms(s.terminal.saturating_duration_since(*b)))
            .collect()),
    );
    put("serve.journal_bytes_final", journal as f64);
    put(
        "serve.events_bytes_per_job",
        samples.iter().map(|s| s.events_bytes as f64).sum::<f64>() / n,
    );
    put(
        "serve.deduped",
        snap.counter("serve.deduped").unwrap_or(0) as f64,
    );
    put("serve.shed", snap.counter("serve.shed").unwrap_or(0) as f64);
    put("cache.hits", hits as f64 / n);
    put("cache.misses", misses as f64 / n);
    put(
        "cache.hit_ratio",
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
    );
    layers
}

/// Run the workload.
///
/// # Errors
///
/// Set-up failures: the server cannot bind or the cache pre-fill fails.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let mut counters = BTreeMap::new();
    let (setup, mut service) = timed_setup(|rep| {
        let (service, cache) = Service::start(&cfg.work.join(format!("untraced-{rep}")), false)?;
        prefill(&service, &cache, cfg.size)?;
        Ok(service)
    })?;
    let (untraced, traced) = if cfg.traced {
        // Both halves start from the same state: a fresh, pre-filled
        // server with an empty job history.
        let half = cfg.seconds / 2.0;
        let u = phase(cfg, &mut service, half, false, &mut checks, &mut counters);
        drop(service);
        let (mut traced_service, cache) = Service::start(&cfg.work.join("traced"), true)?;
        prefill(&traced_service, &cache, cfg.size)?;
        let t = phase(
            cfg,
            &mut traced_service,
            half,
            true,
            &mut checks,
            &mut counters,
        );
        (u, Some(t))
    } else {
        let u = phase(
            cfg,
            &mut service,
            cfg.seconds,
            false,
            &mut checks,
            &mut counters,
        );
        (u, None)
    };
    let _ = std::fs::remove_dir_all(&cfg.work);
    Ok(Outcome {
        setup,
        untraced,
        traced,
        counters,
        checks,
    })
}
