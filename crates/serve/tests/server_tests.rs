//! In-process integration tests for the experiment service: a real
//! listener on a loopback port, a toy [`JobExecutor`] whose behaviour is
//! scripted per experiment name, and the bundled HTTP client.
//!
//! The toy executor understands four job names:
//! - `ok` — completes immediately,
//! - `boom` — panics (supervision must contain it),
//! - `slow` — sleeps in 10 ms slices until cancelled/deadlined,
//! - anything else — fails validation.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use clock_serve::{
    client, JobExecutor, JobHandle, JobOutcome, JobRecord, JobSpec, JobState, Server, ServerConfig,
};
use clock_telemetry::Telemetry;

struct ToyExecutor;

impl JobExecutor for ToyExecutor {
    fn validate(&self, spec: &JobSpec) -> Result<(), String> {
        match spec.experiment.as_str() {
            "ok" | "boom" | "slow" => Ok(()),
            other => Err(format!("unknown toy job '{other}'")),
        }
    }

    fn dedupe_key(&self, spec: &JobSpec) -> String {
        format!("toy:{}:{}", spec.experiment, spec.quick)
    }

    fn run(&self, spec: &JobSpec, handle: &JobHandle) -> JobOutcome {
        match spec.experiment.as_str() {
            "ok" => JobOutcome::Completed {
                detail: "toy ok".to_owned(),
            },
            "boom" => panic!("toy boom"),
            "slow" => {
                let started = Instant::now();
                while started.elapsed() < Duration::from_secs(20) {
                    if handle.is_cancelled() {
                        return JobOutcome::Cancelled;
                    }
                    if handle.deadline().is_some_and(|d| Instant::now() >= d) {
                        return JobOutcome::TimedOut;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                JobOutcome::Completed {
                    detail: "toy slow ran to completion".to_owned(),
                }
            }
            other => unreachable!("validate admits only toy jobs, got {other}"),
        }
    }
}

struct TestServer {
    addr: String,
    shutdown: Arc<std::sync::atomic::AtomicBool>,
    thread: Option<std::thread::JoinHandle<clock_serve::DrainReport>>,
    dir: PathBuf,
    keep_dir: bool,
}

impl TestServer {
    fn start(tag: &str, tweak: impl FnOnce(&mut ServerConfig)) -> TestServer {
        let dir = std::env::temp_dir().join(format!("serve-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = ServerConfig {
            data_dir: dir.clone(),
            ..ServerConfig::default()
        };
        tweak(&mut config);
        let server = Server::bind(config, Arc::new(ToyExecutor), Telemetry::enabled())
            .expect("bind test server");
        let addr = server.local_addr().to_string();
        let shutdown = server.shutdown_flag();
        let thread = std::thread::spawn(move || server.run());
        TestServer {
            addr,
            shutdown,
            thread: Some(thread),
            dir,
            keep_dir: false,
        }
    }

    fn stop(&mut self) -> clock_serve::DrainReport {
        self.shutdown.store(true, Ordering::SeqCst);
        self.thread
            .take()
            .expect("server still running")
            .join()
            .expect("server thread joins")
    }

    /// POST /submit and hand back (status, body).
    fn submit(&self, body: &str) -> (u16, String) {
        let resp =
            client::request(&self.addr, "POST", "/submit", Some(body)).expect("submit request");
        (resp.status, resp.body)
    }

    fn job_state(&self, id: u64) -> String {
        let resp = client::request(&self.addr, "GET", &format!("/jobs/{id}"), None)
            .expect("job status request");
        assert_eq!(resp.status, 200, "{}", resp.body);
        field_str(&resp.body, "state")
    }

    fn wait_for_state(&self, id: u64, want: &str) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let got = self.job_state(id);
            if got == want {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "job {id} stuck in '{got}', wanted '{want}'"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.stop();
        }
        if !self.keep_dir {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

/// Pull a `"key":"value"` or `"key":value` scalar out of a flat JSON body
/// (enough for the fixed shapes these tests assert on).
fn field_str(json: &str, key: &str) -> String {
    let pat = format!("\"{key}\":");
    let rest = json.split(&pat).nth(1).unwrap_or_else(|| {
        panic!("no key '{key}' in {json}");
    });
    let rest = rest.trim_start();
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped.split('"').next().unwrap_or_default().to_owned()
    } else {
        rest.split(&[',', '}', ']'][..])
            .next()
            .unwrap_or_default()
            .trim()
            .to_owned()
    }
}

fn job_id(body: &str) -> u64 {
    field_str(body, "job").parse().expect("job id")
}

#[test]
fn submit_runs_to_completed_and_health_always_answers() {
    let server = TestServer::start("ok", |_| {});
    let health = client::request(&server.addr, "GET", "/health", None).expect("health");
    assert_eq!(health.status, 200);
    let (status, body) = server.submit(r#"{"experiment":"ok"}"#);
    assert_eq!(status, 202, "{body}");
    server.wait_for_state(job_id(&body), "completed");
}

#[test]
fn panicking_job_is_contained_and_server_keeps_serving() {
    let server = TestServer::start("boom", |_| {});
    let (status, body) = server.submit(r#"{"experiment":"boom"}"#);
    assert_eq!(status, 202, "{body}");
    let id = job_id(&body);
    server.wait_for_state(id, "failed");
    let resp = client::request(&server.addr, "GET", &format!("/jobs/{id}"), None).expect("status");
    assert!(resp.body.contains("toy boom"), "{}", resp.body);
    // The worker survived the panic: a follow-up job still runs.
    let (status, body) = server.submit(r#"{"experiment":"ok"}"#);
    assert_eq!(status, 202, "{body}");
    server.wait_for_state(job_id(&body), "completed");
}

#[test]
fn duplicate_submit_is_single_flighted() {
    let server = TestServer::start("dedup", |_| {});
    let (s1, b1) = server.submit(r#"{"experiment":"slow"}"#);
    assert_eq!(s1, 202, "{b1}");
    let (s2, b2) = server.submit(r#"{"experiment":"slow"}"#);
    assert_eq!(s2, 200, "dedup answers 200, got {s2}: {b2}");
    assert_eq!(job_id(&b1), job_id(&b2), "same in-flight job");
    assert_eq!(field_str(&b2, "deduped"), "true", "{b2}");
    // Different work is NOT deduped against it.
    let (s3, b3) = server.submit(r#"{"experiment":"slow","quick":true}"#);
    assert_eq!(s3, 202, "{b3}");
    assert_ne!(job_id(&b1), job_id(&b3));
}

#[test]
fn full_queue_sheds_with_retry_after() {
    let server = TestServer::start("shed", |c| {
        c.workers = 1;
        c.queue_capacity = 1;
    });
    let (s1, b1) = server.submit(r#"{"experiment":"slow"}"#);
    assert_eq!(s1, 202, "{b1}");
    // Occupy the single queue slot with distinct work (quick differs).
    let (s2, b2) = server.submit(r#"{"experiment":"slow","quick":true}"#);
    assert_eq!(s2, 202, "{b2}");
    // Third distinct submission finds the queue full.
    let resp = client::request(
        &server.addr,
        "POST",
        "/submit",
        Some(r#"{"experiment":"ok"}"#),
    )
    .expect("shed submit");
    assert_eq!(resp.status, 429, "{}", resp.body);
    assert!(
        resp.header("retry-after").is_some(),
        "429 must carry Retry-After"
    );
}

#[test]
fn free_workers_count_as_queue_room() {
    let server = TestServer::start("handoff", |c| {
        c.workers = 1;
        c.queue_capacity = 0;
    });
    // With no queue, a submit is admitted only while the worker is free,
    // even if it has not reached its first wait yet.
    let (status, running) = server.submit(r#"{"experiment":"slow"}"#);
    assert_eq!(status, 202, "{running}");
    server.wait_for_state(job_id(&running), "running");
    let (status, body) = server.submit(r#"{"experiment":"ok"}"#);
    assert_eq!(status, 429, "a busy worker leaves no room: {body}");
    let resp = client::request(
        &server.addr,
        "POST",
        &format!("/jobs/{}/cancel", job_id(&running)),
        None,
    )
    .expect("cancel");
    assert_eq!(resp.status, 200, "{}", resp.body);
    server.wait_for_state(job_id(&running), "cancelled");
    let (status, body) = server.submit(r#"{"experiment":"ok"}"#);
    assert_eq!(status, 202, "the worker is free again: {body}");
}

#[test]
fn cancel_running_and_queued_jobs() {
    let server = TestServer::start("cancel", |c| {
        c.workers = 1;
        c.queue_capacity = 8;
    });
    let (_, running) = server.submit(r#"{"experiment":"slow"}"#);
    let running_id = job_id(&running);
    server.wait_for_state(running_id, "running");
    let (_, queued) = server.submit(r#"{"experiment":"slow","quick":true}"#);
    let queued_id = job_id(&queued);
    // Queued job cancels instantly, without ever running.
    let resp = client::request(
        &server.addr,
        "POST",
        &format!("/jobs/{queued_id}/cancel"),
        None,
    )
    .expect("cancel queued");
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(server.job_state(queued_id), "cancelled");
    // Running job gets the flag and unwinds cooperatively.
    let started = Instant::now();
    let resp = client::request(
        &server.addr,
        "POST",
        &format!("/jobs/{running_id}/cancel"),
        None,
    )
    .expect("cancel running");
    assert_eq!(resp.status, 200, "{}", resp.body);
    server.wait_for_state(running_id, "cancelled");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "cooperative cancel must not wait out the 20 s job"
    );
}

#[test]
fn deadline_times_job_out() {
    let server = TestServer::start("deadline", |c| {
        c.default_timeout_ms = 150;
    });
    let (status, body) = server.submit(r#"{"experiment":"slow"}"#);
    assert_eq!(status, 202, "{body}");
    server.wait_for_state(job_id(&body), "timed-out");
}

#[test]
fn per_job_timeout_overrides_default() {
    let server = TestServer::start("timeout-override", |c| {
        c.default_timeout_ms = 600_000;
    });
    let (status, body) = server.submit(r#"{"experiment":"slow","timeout_ms":150}"#);
    assert_eq!(status, 202, "{body}");
    server.wait_for_state(job_id(&body), "timed-out");
}

#[test]
fn malformed_and_unknown_submissions_are_4xx() {
    let server = TestServer::start("malformed", |_| {});
    let (status, _) = server.submit("this is not json");
    assert_eq!(status, 400);
    let (status, body) = server.submit(r#"{"experiment":"no-such-toy"}"#);
    assert_eq!(status, 400);
    assert!(body.contains("no-such-toy"), "{body}");
    let resp = client::request(&server.addr, "GET", "/no/such/route", None).expect("404 route");
    assert_eq!(resp.status, 404);
}

#[test]
fn event_stream_ends_with_terminal_state_line() {
    let server = TestServer::start("events", |_| {});
    let (status, body) = server.submit(r#"{"experiment":"ok"}"#);
    assert_eq!(status, 202, "{body}");
    let id = job_id(&body);
    // The stream blocks until the job is terminal, then closes.
    let resp = client::request(&server.addr, "GET", &format!("/jobs/{id}/events"), None)
        .expect("event stream");
    assert_eq!(resp.status, 200);
    let last = resp.body.lines().last().expect("stream has a final line");
    assert_eq!(field_str(last, "state"), "completed", "{last}");
}

#[test]
fn drain_cancels_queued_and_finishes_running() {
    let mut server = TestServer::start("drain", |c| {
        c.workers = 1;
        c.queue_capacity = 8;
        c.drain_grace_ms = 3_000;
    });
    let (_, running) = server.submit(r#"{"experiment":"slow"}"#);
    let running_id = job_id(&running);
    server.wait_for_state(running_id, "running");
    let (_, queued) = server.submit(r#"{"experiment":"slow","quick":true}"#);
    let queued_id = job_id(&queued);
    let report = server.stop();
    assert!(report.drained, "cooperative jobs drain inside the grace");
    assert_eq!(report.cancelled_queued, 1, "the queued job was shed");
    // The journal records both terminal states.
    let journal = std::fs::read_to_string(server.dir.join("journal.json")).expect("journal");
    assert!(journal.contains("\"id\":") || journal.contains("\"id\": "));
    for id in [running_id, queued_id] {
        assert!(
            journal.contains(&format!("{id}")),
            "job {id} missing from journal"
        );
    }
    assert!(
        !journal.contains("\"running\""),
        "no job left running: {journal}"
    );
    assert!(
        !journal.contains("\"queued\""),
        "no job left queued: {journal}"
    );
}

#[test]
fn restart_replays_journal_without_duplicating_completed_work() {
    let dir;
    let completed_id;
    {
        let mut server = TestServer::start("replay", |_| {});
        dir = server.dir.clone();
        let (_, body) = server.submit(r#"{"experiment":"ok"}"#);
        completed_id = job_id(&body);
        server.wait_for_state(completed_id, "completed");
        let report = server.stop();
        assert!(report.drained);
        // Keep the data dir for the second life.
        server.keep_dir = true;
    }
    let config = ServerConfig {
        data_dir: dir.clone(),
        ..ServerConfig::default()
    };
    let server2 =
        Server::bind(config, Arc::new(ToyExecutor), Telemetry::enabled()).expect("rebind");
    let addr = server2.local_addr().to_string();
    let shutdown = server2.shutdown_flag();
    let thread = std::thread::spawn(move || server2.run());
    let resp = client::request(&addr, "GET", &format!("/jobs/{completed_id}"), None)
        .expect("replayed job");
    assert_eq!(resp.status, 200);
    assert_eq!(field_str(&resp.body, "state"), "completed");
    // New ids never collide with replayed history.
    let resp = client::request(&addr, "POST", "/submit", Some(r#"{"experiment":"ok"}"#))
        .expect("fresh submit");
    assert_eq!(resp.status, 202, "{}", resp.body);
    assert!(job_id(&resp.body) > completed_id);
    shutdown.store(true, Ordering::SeqCst);
    thread.join().expect("second server joins");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_journal_is_set_aside_and_server_starts_fresh() {
    let dir = std::env::temp_dir().join(format!("serve-test-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("journal.json"), b"{\"version\":1,\"jobs\":[tru").expect("corrupt");
    let config = ServerConfig {
        data_dir: dir.clone(),
        ..ServerConfig::default()
    };
    let server = Server::bind(config, Arc::new(ToyExecutor), Telemetry::enabled())
        .expect("bind over corruption");
    let addr = server.local_addr().to_string();
    let shutdown = server.shutdown_flag();
    let thread = std::thread::spawn(move || server.run());
    let resp = client::request(&addr, "GET", "/jobs", None).expect("jobs");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body.trim(), "[]", "fresh start after corruption");
    assert!(
        dir.join("journal.corrupt").exists(),
        "corrupt journal preserved for forensics"
    );
    shutdown.store(true, Ordering::SeqCst);
    thread.join().expect("server joins");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Submit an `ok` job and read its event stream to the end; returns the
/// job id.
fn run_ok_job(server: &TestServer) -> u64 {
    let (status, body) = server.submit(r#"{"experiment":"ok"}"#);
    assert_eq!(status, 202, "{body}");
    let id = job_id(&body);
    let resp = client::request(&server.addr, "GET", &format!("/jobs/{id}/events"), None)
        .expect("event stream");
    assert_eq!(resp.status, 200);
    id
}

#[test]
fn metrics_expose_job_lifecycle_histograms() {
    let server = TestServer::start("lifecycle", |_| {});
    const JOBS: usize = 5;
    for _ in 0..JOBS {
        run_ok_job(&server);
    }
    let text = client::request(&server.addr, "GET", "/metrics", None)
        .expect("metrics")
        .body;
    for name in [
        "serve_queue_wait_ms",
        "serve_run_ms",
        "serve_stream_close_lag_ms",
    ] {
        assert!(
            text.contains(&format!("{name}_count {JOBS}\n")),
            "{name} must count every job: {text}"
        );
        assert!(
            text.contains(&format!("{name}{{quantile=\"0.5\"}} ")),
            "{name} must expose quantiles: {text}"
        );
    }
}

#[test]
fn sequential_jobs_do_not_wait_on_poll_ticks() {
    // Each job is a submit and an event stream to its terminal line. A
    // server that sleeps in 25 ms ticks on that path needs at least two
    // ticks per job, so 20 jobs would take at least 1 s.
    const JOBS: u32 = 20;
    let server = TestServer::start("latency", |_| {});
    let started = Instant::now();
    for _ in 0..JOBS {
        run_ok_job(&server);
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(25) * JOBS,
        "{JOBS} sequential jobs took {elapsed:?}"
    );
}

#[test]
fn bind_compacts_the_journal_log_into_the_snapshot() {
    let dir = std::env::temp_dir().join(format!("serve-test-compact-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    // The log a killed server left behind: job 1 completed, job 2 was
    // still running.
    let record = |id: u64, state: JobState| JobRecord {
        id,
        spec: JobSpec {
            experiment: "ok".to_owned(),
            quick: false,
            timeout_ms: 0,
        },
        state,
        detail: String::new(),
        dedupe_key: format!("toy:{id}"),
        deduped: false,
    };
    let log: String = [
        record(1, JobState::Queued),
        record(2, JobState::Queued),
        record(1, JobState::Completed),
        record(2, JobState::Running),
    ]
    .iter()
    .map(|r| serde_json::to_string(r).expect("record serializes") + "\n")
    .collect();
    std::fs::write(dir.join("journal.log"), log).expect("write log");
    let config = ServerConfig {
        data_dir: dir.clone(),
        ..ServerConfig::default()
    };
    let server =
        Server::bind(config, Arc::new(ToyExecutor), Telemetry::enabled()).expect("bind over a log");
    let log_len = std::fs::metadata(dir.join("journal.log"))
        .expect("log")
        .len();
    assert_eq!(log_len, 0, "bind compaction truncates the log");
    let snapshot = std::fs::read_to_string(dir.join("journal.json")).expect("snapshot");
    assert!(snapshot.contains("\"completed\""), "{snapshot}");
    assert!(snapshot.contains("\"interrupted\""), "{snapshot}");
    assert!(!snapshot.contains("\"running\""), "{snapshot}");
    let addr = server.local_addr().to_string();
    let shutdown = server.shutdown_flag();
    let thread = std::thread::spawn(move || server.run());
    let resp = client::request(&addr, "GET", "/jobs/2", None).expect("replayed job");
    assert_eq!(field_str(&resp.body, "state"), "interrupted");
    let resp = client::request(&addr, "POST", "/submit", Some(r#"{"experiment":"ok"}"#))
        .expect("fresh submit");
    assert_eq!(job_id(&resp.body), 3, "ids advance past the log");
    shutdown.store(true, Ordering::SeqCst);
    thread.join().expect("server joins");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn backoff_delay_grows_and_caps() {
    let base = Duration::from_millis(100);
    let early = client::backoff_delay(base, 0);
    assert!(early >= Duration::from_millis(50) && early <= base);
    let late = client::backoff_delay(base, 20);
    assert!(late <= Duration::from_secs(5), "cap holds: {late:?}");
    assert!(
        late >= Duration::from_millis(2_500),
        "jitter floor: {late:?}"
    );
}
