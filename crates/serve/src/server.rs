//! The experiment service itself: bounded job queue, supervised worker
//! pool, single-flight dedup, journal persistence, graceful drain and the
//! HTTP routes tying them together.
//!
//! # Robustness posture
//!
//! The server assumes arbitrary inputs and arbitrary prior state, in the
//! same spirit the paper's adaptive loop assumes arbitrary variation:
//!
//! * every job runs under `catch_unwind` twice — once inside the executor
//!   (which maps cooperative cancellation), once here as a backstop — so
//!   a panicking experiment marks *that job* `failed` and nothing else;
//! * the queue is bounded; a full queue answers `429` with `Retry-After`
//!   instead of growing without limit;
//! * every state transition is journaled *before* it becomes visible
//!   (write-ahead), so a `kill -9` never yields work the journal does not
//!   know about, and a restart marks in-flight jobs `interrupted` instead
//!   of losing them;
//! * connections carry read timeouts, so a slowloris client costs one
//!   thread for seconds, not forever;
//! * `SIGTERM` (or `POST /shutdown`) drains: queued jobs are cancelled,
//!   running jobs get a grace window, then their cancel flags are raised,
//!   then the process leaves — a hard deadline on top of cooperation.
//!
//! # Wakeups
//!
//! Nothing on the way from submit to terminal state sleeps on a timer. A
//! dedicated acceptor thread blocks in `accept` and hands each connection
//! to a thread of its own. Workers wait on the `work` condvar, which a
//! submit signals. Every terminal transition signals the `ended` condvar,
//! which event streams and the drain wait on; each waiter then re-checks
//! its own job. Journal and index work per transition is O(1): one record
//! appended to the journal log and O(1) index updates (the single-flight
//! index maps a dedupe key straight to its in-flight job).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::BufReader;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use clock_telemetry::{prometheus_text, Histogram, Telemetry};

use crate::http::{self, ChunkedWriter, Request};
use crate::job::{JobExecutor, JobHandle, JobOutcome, JobRecord, JobSpec, JobState};
use crate::journal::Journal;

/// How long a connection may stall between bytes before 408.
const READ_TIMEOUT: Duration = Duration::from_secs(5);
/// How often the shutdown flag is checked, and the longest an event
/// stream waits before re-reading its spool (spool lines written mid-run
/// signal nothing).
const POLL: Duration = Duration::from_millis(25);

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` (0 = ephemeral port).
    pub addr: String,
    /// Job worker threads.
    pub workers: usize,
    /// Bounded queue depth; submits beyond it are shed with 429. Jobs a
    /// free worker is about to claim do not count against it.
    pub queue_capacity: usize,
    /// Journal and per-job event spools live here.
    pub data_dir: PathBuf,
    /// Default per-job deadline when a spec does not set one (0 = none).
    pub default_timeout_ms: u64,
    /// Grace window for the shutdown drain, applied twice: once waiting
    /// for running jobs to finish on their own, once after raising their
    /// cancel flags.
    pub drain_grace_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_capacity: 16,
            data_dir: PathBuf::from(".repro-serve"),
            default_timeout_ms: 0,
            drain_grace_ms: 5_000,
        }
    }
}

/// How the server came down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Whether every in-flight job reached a terminal state before the
    /// hard deadline (false means stragglers were abandoned to process
    /// exit and will replay as `interrupted`).
    pub drained: bool,
    /// Jobs cancelled out of the queue by the drain.
    pub cancelled_queued: usize,
}

/// A job as the server holds it.
struct Job {
    record: JobRecord,
    /// When `record.state` was entered (bind time for replayed jobs):
    /// the origin of the lifecycle histograms.
    since: Instant,
}

struct State {
    jobs: BTreeMap<u64, Job>,
    queue: VecDeque<u64>,
    next_id: u64,
    /// Cancel flags of every non-terminal job.
    cancel_flags: HashMap<u64, Arc<AtomicBool>>,
    /// Single-flight index: dedupe key → the non-terminal job doing it.
    in_flight: HashMap<String, u64>,
    /// Workers not running a job. A submit counts them as extra queue
    /// room: a woken (or still starting) worker may not have claimed its
    /// job yet when the next submit arrives.
    free_workers: usize,
}

/// The job lifecycle histograms on `/metrics`, in milliseconds.
struct Lifecycle {
    /// Submit → a worker claims the job.
    queue_wait: Histogram,
    /// Claim → terminal state.
    run: Histogram,
    /// The later of terminal state and stream start → the stream's final
    /// line.
    stream_close_lag: Histogram,
}

impl Lifecycle {
    fn new(telemetry: &Telemetry) -> Self {
        let ms = |name| telemetry.histogram(name, 0.0, 1_000.0, 100);
        Lifecycle {
            queue_wait: ms("serve.queue_wait_ms"),
            run: ms("serve.run_ms"),
            stream_close_lag: ms("serve.stream_close_lag_ms"),
        }
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for queued work.
    work: Condvar,
    /// Signalled whenever a job reaches a terminal state: event streams
    /// and the drain wait here.
    ended: Condvar,
    journal: Journal,
    config: ServerConfig,
    executor: Arc<dyn JobExecutor>,
    telemetry: Telemetry,
    lifecycle: Lifecycle,
    shutdown: Arc<AtomicBool>,
}

impl Shared {
    fn spool_path(&self, id: u64) -> PathBuf {
        self.config.data_dir.join(format!("job-{id}.events.jsonl"))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("state lock")
    }

    /// Journal one record from inside the state lock, before its change
    /// becomes visible. Failures degrade (warn + keep serving) rather
    /// than kill the server: the journal is a recovery aid, not a
    /// correctness dependency for live traffic.
    fn journal_locked(&self, record: &JobRecord) {
        let written = self.journal.append(record);
        self.journal_outcome(written);
    }

    /// Rewrite the journal snapshot from the full state and start the log
    /// over; the state lock keeps appends out meanwhile.
    fn compact_locked(&self, st: &State) {
        let written = self
            .journal
            .compact(st.next_id, st.jobs.values().map(|j| &j.record));
        self.journal_outcome(written);
    }

    fn journal_outcome(&self, written: std::io::Result<()>) {
        if let Err(e) = written {
            self.telemetry.counter("serve.journal_errors").inc();
            eprintln!(
                "serve: warning: cannot write job journal {}: {e}",
                self.journal.path().display()
            );
        }
    }

    /// Move a non-terminal job to a terminal state under the lock: journal
    /// it and retire its cancel flag and single-flight entry. The caller
    /// signals `ended` once the lock is released.
    fn end_locked(&self, st: &mut State, id: u64, state: JobState, detail: String) {
        let Some(job) = st.jobs.get_mut(&id) else {
            return;
        };
        job.record.state = state;
        job.record.detail = detail;
        job.since = Instant::now();
        self.journal_locked(&job.record);
        if st.in_flight.get(&job.record.dedupe_key) == Some(&id) {
            st.in_flight.remove(&job.record.dedupe_key);
        }
        st.cancel_flags.remove(&id);
    }

    fn finish_job(&self, id: u64, state: JobState, detail: String) {
        let mut st = self.lock();
        if let Some(job) = st.jobs.get(&id) {
            self.lifecycle.run.record(ms_since(job.since));
        }
        self.end_locked(&mut st, id, state, detail);
        // The worker that ran the job is free again.
        st.free_workers += 1;
        drop(st);
        let counter = match state {
            JobState::Completed => "serve.jobs_completed",
            JobState::Failed => "serve.jobs_failed",
            JobState::TimedOut => "serve.jobs_timed_out",
            _ => "serve.jobs_cancelled",
        };
        self.telemetry.counter(counter).inc();
        self.ended.notify_all();
    }

    /// Wait up to `grace` for every in-flight job to reach a terminal
    /// state; true when none is left.
    fn wait_idle(&self, grace: Duration) -> bool {
        let (st, _) = self
            .ended
            .wait_timeout_while(self.lock(), grace, |st| !st.cancel_flags.is_empty())
            .expect("state lock");
        st.cancel_flags.is_empty()
    }
}

/// The bound, journal-replayed, worker-staffed service. [`Server::run`]
/// serves until shutdown, then drains.
pub struct Server {
    shared: Arc<Shared>,
    listener: TcpListener,
    workers: Vec<std::thread::JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl Server {
    /// Bind the listener, replay the journal (marking in-flight jobs of a
    /// previous life `interrupted`) and compact it, and start the worker
    /// pool.
    pub fn bind(
        config: ServerConfig,
        executor: Arc<dyn JobExecutor>,
        telemetry: Telemetry,
    ) -> std::io::Result<Server> {
        std::fs::create_dir_all(&config.data_dir)?;
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let journal = Journal::new(config.data_dir.join("journal.json"));
        let recovered = journal.load();
        if recovered.interrupted > 0 {
            eprintln!(
                "serve: journal replay marked {} in-flight job(s) interrupted",
                recovered.interrupted
            );
            telemetry
                .counter("serve.jobs_interrupted")
                .add(recovered.interrupted as u64);
        }
        let now = Instant::now();
        let state = State {
            jobs: recovered
                .jobs
                .into_iter()
                .map(|record| (record.id, Job { record, since: now }))
                .collect(),
            queue: VecDeque::new(),
            next_id: recovered.next_id,
            cancel_flags: HashMap::new(),
            in_flight: HashMap::new(),
            free_workers: config.workers.max(1),
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(state),
            work: Condvar::new(),
            ended: Condvar::new(),
            journal,
            config,
            executor,
            lifecycle: Lifecycle::new(&telemetry),
            telemetry,
            shutdown: Arc::new(AtomicBool::new(false)),
        });
        // Make the interrupted marks durable, and start the log over,
        // before serving.
        shared.compact_locked(&shared.lock());
        let workers = (0..shared.config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(Server {
            shared,
            listener,
            workers,
            local_addr,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The drain trigger: store `true` (from a signal handler thread, a
    /// test, anywhere) and [`Server::run`] starts its graceful drain.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shared.shutdown)
    }

    /// Serve until the shutdown flag rises, then drain and return.
    pub fn run(self) -> DrainReport {
        let Server {
            shared,
            listener,
            workers,
            local_addr,
        } = self;
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, listener))
        };
        // The flag is a plain atomic its owners store into without a
        // notifier, so it is watched here, off every request's path.
        while !shared.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(POLL);
        }
        // Wake the acceptor out of its blocking accept; it sees the flag
        // and closes the listener. Should the connect fail, it is left to
        // exit on the next connection or with the process.
        if TcpStream::connect(loopback(local_addr)).is_ok() {
            let _ = acceptor.join();
        }
        let report = drain(&shared);
        if report.drained {
            for w in workers {
                let _ = w.join();
            }
        }
        // Undrained workers are abandoned to process exit — the hard
        // deadline. Their jobs replay as interrupted next start.
        report
    }
}

/// Where to connect to reach a listener bound at `addr` (an unspecified
/// bind address is reached through loopback).
fn loopback(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    addr
}

/// The acceptor: block in `accept`, give every connection a thread of
/// its own, and close the listener once the shutdown flag is up.
fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match conn {
            Ok(stream) => {
                let handler = Arc::clone(shared);
                let spawned =
                    std::thread::Builder::new().spawn(move || handle_connection(&handler, stream));
                if spawned.is_err() {
                    // Out of threads: the connection drops, the server
                    // stays up.
                    shared.telemetry.counter("serve.spawn_failures").inc();
                }
            }
            // Accept errors (out of file descriptors, ...) back off
            // instead of spinning.
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// Cancel every queued job, give running jobs a grace window, raise their
/// cancel flags, give them one more window, then give up. Either way the
/// journal is compacted last.
fn drain(shared: &Shared) -> DrainReport {
    shared.work.notify_all();
    let cancelled_queued = {
        let mut st = shared.lock();
        let ids: Vec<u64> = st.queue.drain(..).collect();
        for &id in &ids {
            shared.end_locked(
                &mut st,
                id,
                JobState::Cancelled,
                "server shutting down".to_owned(),
            );
        }
        ids.len()
    };
    shared.ended.notify_all();
    shared
        .telemetry
        .counter("serve.jobs_cancelled")
        .add(cancelled_queued as u64);
    let grace = Duration::from_millis(shared.config.drain_grace_ms);
    let mut drained = shared.wait_idle(grace);
    if !drained {
        // Grace expired: cancel what is left and wait once more.
        for flag in shared.lock().cancel_flags.values() {
            flag.store(true, Ordering::SeqCst);
        }
        drained = shared.wait_idle(grace);
    }
    shared.compact_locked(&shared.lock());
    DrainReport {
        drained,
        cancelled_queued,
    }
}

/// One worker: claim queued jobs, run them supervised, record outcomes.
fn worker_loop(shared: &Shared) {
    loop {
        let claimed = {
            let mut st = shared.lock();
            loop {
                if let Some(id) = st.queue.pop_front() {
                    let flag = st.cancel_flags.get(&id).cloned();
                    let job = st.jobs.get_mut(&id);
                    if let (Some(job), Some(flag)) = (job, flag) {
                        shared.lifecycle.queue_wait.record(ms_since(job.since));
                        job.record.state = JobState::Running;
                        job.since = Instant::now();
                        shared.journal_locked(&job.record);
                        let spec = job.record.spec.clone();
                        st.free_workers -= 1;
                        break Some((id, spec, flag));
                    }
                    continue; // cancelled while queued; nothing to run
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (next, _timeout) = shared
                    .work
                    .wait_timeout(st, Duration::from_millis(200))
                    .expect("state lock");
                st = next;
            }
        };
        let Some((id, spec, flag)) = claimed else {
            return;
        };
        let timeout_ms = if spec.timeout_ms > 0 {
            spec.timeout_ms
        } else {
            shared.config.default_timeout_ms
        };
        let deadline = (timeout_ms > 0).then(|| Instant::now() + Duration::from_millis(timeout_ms));
        let handle = JobHandle::new(id, flag, deadline, shared.spool_path(id));
        // Supervision backstop: the executor already contains its own
        // panics, but even a broken executor must only fail this job.
        let outcome = catch_unwind(AssertUnwindSafe(|| shared.executor.run(&spec, &handle)))
            .unwrap_or_else(|payload| JobOutcome::Failed {
                error: payload_message(&*payload),
            });
        let (state, detail) = match outcome {
            JobOutcome::Completed { detail } => (JobState::Completed, detail),
            JobOutcome::Failed { error } => (JobState::Failed, error),
            JobOutcome::Cancelled => (JobState::Cancelled, "cancelled by request".to_owned()),
            JobOutcome::TimedOut => (
                JobState::TimedOut,
                format!("deadline of {timeout_ms} ms exceeded"),
            ),
        };
        shared.finish_job(id, state, detail);
    }
}

/// A string as a JSON string literal (quotes + escapes).
fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

/// Best-effort panic payload rendering (local copy — the serve crate is
/// experiments-agnostic, so it cannot use the sweep module's helper).
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(READ_TIMEOUT));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    shared.telemetry.counter("serve.requests").inc();
    match http::parse_request(&mut reader) {
        Ok(request) => route(shared, &request, &mut writer),
        Err(e) => {
            shared.telemetry.counter("serve.malformed").inc();
            if let Some((status, reason, detail)) = e.status() {
                let body = format!("{{\"error\":{}}}\n", json_str(detail));
                let _ = http::write_json(&mut writer, status, reason, &[], &body);
            }
        }
    }
}

/// Split a target into non-empty path segments (query string dropped).
fn segments(target: &str) -> Vec<&str> {
    let path = target.split('?').next().unwrap_or("");
    path.split('/').filter(|s| !s.is_empty()).collect()
}

fn route(shared: &Shared, request: &Request, w: &mut TcpStream) {
    let segs = segments(&request.target);
    match (request.method.as_str(), segs.as_slice()) {
        ("GET", ["health"]) => {
            let _ = http::write_json(w, 200, "OK", &[], "{\"status\":\"ok\"}\n");
        }
        ("GET", ["metrics"]) => {
            let text = prometheus_text(&shared.telemetry.snapshot());
            let _ = http::write_response(
                w,
                200,
                "OK",
                &[],
                "text/plain; version=0.0.4",
                text.as_bytes(),
            );
        }
        ("POST", ["submit"]) => submit(shared, request, w),
        ("GET", ["jobs"]) => {
            let st = shared.lock();
            let jobs: Vec<JobRecord> = st.jobs.values().map(|j| j.record.clone()).collect();
            drop(st);
            let body = serde_json::to_string(&jobs).expect("plain data serializes");
            let _ = http::write_json(w, 200, "OK", &[], &body);
        }
        ("GET", ["jobs", id]) => match lookup(shared, id) {
            Some(job) => {
                let body = serde_json::to_string(&job).expect("plain data serializes");
                let _ = http::write_json(w, 200, "OK", &[], &body);
            }
            None => not_found(w),
        },
        ("POST", ["jobs", id, "cancel"]) => cancel(shared, id, w),
        ("GET", ["jobs", id, "events"]) => stream_events(shared, id, w),
        ("POST", ["shutdown"]) => {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.work.notify_all();
            let _ = http::write_json(w, 200, "OK", &[], "{\"draining\":true}\n");
        }
        _ => not_found(w),
    }
}

fn not_found(w: &mut TcpStream) {
    let _ = http::write_json(w, 404, "Not Found", &[], "{\"error\":\"no such route\"}\n");
}

fn lookup(shared: &Shared, id: &str) -> Option<JobRecord> {
    let id: u64 = id.parse().ok()?;
    shared.lock().jobs.get(&id).map(|j| j.record.clone())
}

fn submit_response(job: &JobRecord, deduped: bool) -> String {
    format!(
        "{{\"job\":{},\"state\":\"{}\",\"deduped\":{},\"events\":\"/jobs/{}/events\"}}\n",
        job.id,
        job.state.label(),
        deduped,
        job.id
    )
}

fn submit(shared: &Shared, request: &Request, w: &mut TcpStream) {
    let body = String::from_utf8_lossy(&request.body);
    let spec = match JobSpec::from_submit_json(&body) {
        Ok(s) => s,
        Err(e) => {
            shared.telemetry.counter("serve.malformed").inc();
            let body = format!("{{\"error\":{}}}\n", json_str(&e));
            let _ = http::write_json(w, 400, "Bad Request", &[], &body);
            return;
        }
    };
    if let Err(e) = shared.executor.validate(&spec) {
        let body = format!("{{\"error\":{}}}\n", json_str(&e));
        let _ = http::write_json(w, 400, "Bad Request", &[], &body);
        return;
    }
    let dedupe_key = shared.executor.dedupe_key(&spec);
    let mut st = shared.lock();
    // Checked under the lock, so the drain's sweep of the queue cannot
    // miss a job submitted as the flag rises.
    if shared.shutdown.load(Ordering::SeqCst) {
        drop(st);
        let _ = http::write_json(
            w,
            503,
            "Service Unavailable",
            &[],
            "{\"error\":\"server is draining\"}\n",
        );
        return;
    }
    // Single-flight: an identical spec already queued or running answers
    // with that job instead of doing the work twice.
    if let Some(existing) = st.in_flight.get(&dedupe_key).copied() {
        if let Some(job) = st.jobs.get_mut(&existing) {
            if !job.record.deduped {
                job.record.deduped = true;
                shared.journal_locked(&job.record);
            }
            let body = submit_response(&job.record, true);
            drop(st);
            shared.telemetry.counter("serve.deduped").inc();
            let _ = http::write_json(w, 200, "OK", &[], &body);
            return;
        }
    }
    if st.queue.len() >= shared.config.queue_capacity + st.free_workers {
        drop(st);
        shared.telemetry.counter("serve.shed").inc();
        let _ = http::write_json(
            w,
            429,
            "Too Many Requests",
            &["Retry-After: 1"],
            "{\"error\":\"job queue full, retry later\"}\n",
        );
        return;
    }
    let id = st.next_id;
    st.next_id += 1;
    let record = JobRecord {
        id,
        spec,
        state: JobState::Queued,
        detail: String::new(),
        dedupe_key,
        deduped: false,
    };
    // Write-ahead: journal the queued job before any worker can see it.
    shared.journal_locked(&record);
    let body = submit_response(&record, false);
    st.in_flight.insert(record.dedupe_key.clone(), id);
    st.cancel_flags.insert(id, Arc::new(AtomicBool::new(false)));
    st.jobs.insert(
        id,
        Job {
            record,
            since: Instant::now(),
        },
    );
    st.queue.push_back(id);
    drop(st);
    shared.telemetry.counter("serve.submitted").inc();
    shared.work.notify_one();
    let _ = http::write_json(w, 202, "Accepted", &[], &body);
}

fn cancel(shared: &Shared, id: &str, w: &mut TcpStream) {
    let Ok(id) = id.parse::<u64>() else {
        not_found(w);
        return;
    };
    let mut st = shared.lock();
    let Some(state) = st.jobs.get(&id).map(|j| j.record.state) else {
        drop(st);
        not_found(w);
        return;
    };
    match state {
        JobState::Queued => {
            st.queue.retain(|&q| q != id);
            shared.end_locked(
                &mut st,
                id,
                JobState::Cancelled,
                "cancelled before start".to_owned(),
            );
            drop(st);
            shared.telemetry.counter("serve.jobs_cancelled").inc();
            shared.ended.notify_all();
            let _ = http::write_json(w, 200, "OK", &[], "{\"state\":\"cancelled\"}\n");
        }
        JobState::Running => {
            if let Some(flag) = st.cancel_flags.get(&id) {
                flag.store(true, Ordering::SeqCst);
            }
            drop(st);
            let _ = http::write_json(
                w,
                200,
                "OK",
                &[],
                "{\"state\":\"running\",\"cancel_requested\":true}\n",
            );
        }
        terminal => {
            drop(st);
            let body = format!("{{\"state\":\"{}\"}}\n", terminal.label());
            let _ = http::write_json(w, 200, "OK", &[], &body);
        }
    }
}

/// Tail a job's JSONL event spool over a chunked response until the job
/// reaches a terminal state, then append one final status line. Between
/// spool reads the stream sleeps on the `ended` condvar, so the job's
/// terminal transition wakes it at once. A client that disconnects mid-stream just
/// ends the tail (write errors are the signal); the job itself is
/// unaffected.
fn stream_events(shared: &Shared, id: &str, w: &mut TcpStream) {
    let Ok(id) = id.parse::<u64>() else {
        not_found(w);
        return;
    };
    let Some((mut state, mut since)) = lookup_state(shared, id) else {
        not_found(w);
        return;
    };
    let started = Instant::now();
    // The write timeout set in `handle_connection` stays on: a stream
    // lasts as long as its job, but a client that stops reading is shed
    // after READ_TIMEOUT.
    let Ok(mut chunked) = ChunkedWriter::start(&mut *w, "application/jsonl") else {
        return;
    };
    let path = shared.spool_path(id);
    let mut offset = 0u64;
    loop {
        // `state` was read before the spool: once it is terminal, this
        // read sees every line the job wrote.
        let chunk = read_from(&path, offset);
        if !chunk.is_empty() {
            offset += chunk.len() as u64;
            if chunked.write_chunk(&chunk).is_err() {
                return; // client went away; nothing more to do
            }
            continue;
        }
        if state.is_terminal() {
            break;
        }
        let (st, _) = shared
            .ended
            .wait_timeout_while(shared.lock(), POLL, |st| {
                st.jobs
                    .get(&id)
                    .is_some_and(|j| !j.record.state.is_terminal())
            })
            .expect("state lock");
        if let Some(job) = st.jobs.get(&id) {
            (state, since) = (job.record.state, job.since);
        }
    }
    shared
        .lifecycle
        .stream_close_lag
        .record(ms_since(since.max(started)));
    let line = format!("{{\"job\":{id},\"state\":\"{}\"}}\n", state.label());
    let _ = chunked.write_chunk(line.as_bytes());
    let _ = chunked.finish();
}

fn lookup_state(shared: &Shared, id: u64) -> Option<(JobState, Instant)> {
    shared
        .lock()
        .jobs
        .get(&id)
        .map(|j| (j.record.state, j.since))
}

/// Read everything after `offset` (empty on any error — a not-yet-created
/// spool reads as empty, not as a failure).
fn read_from(path: &std::path::Path, offset: u64) -> Vec<u8> {
    use std::io::{Read, Seek, SeekFrom};
    let Ok(mut f) = std::fs::File::open(path) else {
        return Vec::new();
    };
    if f.seek(SeekFrom::Start(offset)).is_err() {
        return Vec::new();
    }
    let mut buf = Vec::new();
    let _ = f.take(256 * 1024).read_to_end(&mut buf);
    buf
}

/// SIGTERM/SIGINT wiring: raise `flag` from a C signal handler via one
/// relay atomic. Unix only; a no-op elsewhere (tests use `/shutdown`).
#[cfg(unix)]
pub fn install_termination_handler(flag: Arc<AtomicBool>) {
    use std::sync::OnceLock;
    static RELAY: AtomicBool = AtomicBool::new(false);
    static WATCHER: OnceLock<()> = OnceLock::new();

    extern "C" fn on_signal(_sig: i32) {
        // Only the store below is allowed here: atomics are
        // async-signal-safe, Mutex/alloc are not.
        RELAY.store(true, Ordering::SeqCst);
    }

    #[allow(unsafe_code)]
    fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        // SAFETY: libc `signal` with a handler that only touches a static
        // atomic; both signal numbers are the POSIX constants for the
        // platforms this builds on (linux, macOS).
        unsafe {
            signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
            signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
        }
    }

    install();
    // One watcher thread forwards the relay to the server's drain flag
    // (the handler itself must not touch non-trivial state).
    WATCHER.get_or_init(|| {
        std::thread::spawn(move || loop {
            if RELAY.load(Ordering::SeqCst) {
                flag.store(true, Ordering::SeqCst);
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        });
    });
}

/// Non-unix stub: signals are not wired; `/shutdown` still works.
#[cfg(not(unix))]
pub fn install_termination_handler(_flag: Arc<AtomicBool>) {}
