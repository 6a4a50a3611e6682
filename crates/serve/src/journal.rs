//! The write-ahead job journal: a compacted snapshot plus an append-only
//! log of transitions, so journaling one transition costs one record, not
//! the whole job history.
//!
//! * `journal.json` — the snapshot: a header line
//!   `{"version":2,"next_id":N}` followed by one job record per line, id
//!   ordered. Only [`Journal::compact`] writes it, streaming the records
//!   one at a time into a temp file that is then renamed over the
//!   snapshot (the rescache discipline).
//! * `journal.log` — one JSON record per line, appended by
//!   [`Journal::append`] for every state transition. Compaction truncates
//!   it, since the new snapshot holds every transition logged so far.
//!
//! Write-ahead means a job is journaled as `Queued` *before* it is
//! visible to any worker, so a crash can never run work the journal does
//! not know about. On restart, [`Journal::load`] replays the snapshot,
//! then the log (the last line per id wins), and marks every non-terminal
//! job `Interrupted`: completed work is kept (never re-run — resubmitting
//! the same spec is answered by the result cache), and half-done work is
//! visible as such instead of silently vanishing.
//!
//! Corruption tolerance matches rescache: a truncated or garbled snapshot
//! (a crash mid-rename on an exotic filesystem, a stray editor) is set
//! aside as `journal.corrupt` and treated as absent rather than fatal —
//! the service must start from arbitrary on-disk state. A log whose last
//! line lacks its newline was cut by a crash mid-append; that torn line is
//! dropped on replay and cut off the file before the next append, so a
//! later line can never land glued onto it. Any other unparseable log line
//! sets the whole log aside as `journal.log.corrupt`. A v1 snapshot (one
//! JSON object holding every record) still replays, and the next
//! compaction rewrites it as v2.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::job::{JobRecord, JobState};

/// The snapshot schema this build writes.
const VERSION: u64 = 2;

/// The first line of a v2 snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Header {
    /// Schema version.
    version: u64,
    /// The next job id to assign.
    next_id: u64,
}

/// A v1 snapshot: one JSON object holding every record.
#[derive(Debug, Clone, PartialEq, Deserialize)]
struct SnapshotV1 {
    next_id: u64,
    jobs: Vec<JobRecord>,
}

/// Snapshot + append log at a fixed path.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    log_path: PathBuf,
    /// The log, opened for append on first use.
    log: Mutex<Option<File>>,
    seq: AtomicU64,
}

/// What [`Journal::load`] recovered.
#[derive(Debug)]
pub struct Recovered {
    /// The next job id to assign (1 on a fresh journal).
    pub next_id: u64,
    /// Replayed records, id-ordered, with every non-terminal state marked
    /// [`JobState::Interrupted`].
    pub jobs: Vec<JobRecord>,
    /// How many jobs were marked interrupted during replay.
    pub interrupted: usize,
}

/// How reading a line-oriented journal file went.
#[derive(Debug, PartialEq, Eq)]
enum Replay {
    Missing,
    Clean,
    Corrupt,
}

/// Feed every line of `path` (newline stripped) to `apply`. A line that
/// is not UTF-8 or that `apply` rejects makes the file corrupt — unless
/// `torn_tail_ok` and it is the final line and lacks its newline: a torn
/// append, dropped.
fn replay_lines(path: &Path, torn_tail_ok: bool, mut apply: impl FnMut(&str) -> bool) -> Replay {
    let Ok(file) = File::open(path) else {
        return Replay::Missing;
    };
    let mut reader = BufReader::new(file);
    let mut line = Vec::new();
    loop {
        line.clear();
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => return Replay::Clean,
            Ok(_) => {}
            Err(_) => return Replay::Corrupt,
        }
        let complete = line.last() == Some(&b'\n');
        let body = if complete {
            &line[..line.len() - 1]
        } else {
            &line[..]
        };
        let accepted = std::str::from_utf8(body).is_ok_and(&mut apply);
        if !accepted {
            return if torn_tail_ok && !complete {
                Replay::Clean
            } else {
                Replay::Corrupt
            };
        }
    }
}

fn to_line(value: &impl Serialize) -> std::io::Result<String> {
    let mut line =
        serde_json::to_string(value).map_err(|e| std::io::Error::other(e.to_string()))?;
    line.push('\n');
    Ok(line)
}

impl Journal {
    /// A journal whose snapshot lives at `path`, with the log beside it
    /// (same name, extension `log`). Nothing is read or written yet.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        Journal {
            log_path: path.with_extension("log"),
            path,
            log: Mutex::new(None),
            seq: AtomicU64::new(0),
        }
    }

    /// The snapshot file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Replay the snapshot, then the log. Missing files are empty
    /// journals; corrupt ones are set aside (see the module docs). Jobs
    /// left `Queued`/`Running` by a dead server come back `Interrupted`
    /// with the reason in `detail`.
    pub fn load(&self) -> Recovered {
        let mut jobs = BTreeMap::new();
        let mut next_id = None;
        let snapshot = replay_lines(&self.path, false, |line| match next_id {
            None => match parse_head(line) {
                Some((n, v1_jobs)) => {
                    next_id = Some(n);
                    jobs.extend(v1_jobs.into_iter().map(|j| (j.id, j)));
                    true
                }
                None => false,
            },
            Some(_) => insert_record(&mut jobs, line),
        });
        if snapshot == Replay::Corrupt || (snapshot == Replay::Clean && next_id.is_none()) {
            // Start fresh, but keep the evidence aside instead of
            // overwriting it.
            let _ = std::fs::rename(&self.path, self.path.with_extension("corrupt"));
            jobs.clear();
            next_id = None;
        }
        // The log applies only if all of it parses: a garbled line in the
        // middle means none of its lines can be trusted.
        let mut logged = BTreeMap::new();
        match replay_lines(&self.log_path, true, |line| {
            insert_record(&mut logged, line)
        }) {
            Replay::Corrupt => {
                let _ =
                    std::fs::rename(&self.log_path, self.log_path.with_extension("log.corrupt"));
            }
            Replay::Clean | Replay::Missing => jobs.append(&mut logged),
        }
        let mut interrupted = 0;
        for job in jobs.values_mut() {
            if !job.state.is_terminal() {
                job.state = JobState::Interrupted;
                job.detail = "server stopped while the job was in flight".to_owned();
                interrupted += 1;
            }
        }
        let max_id = jobs.keys().next_back().copied().unwrap_or(0);
        Recovered {
            next_id: next_id.unwrap_or(1).max(max_id + 1),
            jobs: jobs.into_values().collect(),
            interrupted,
        }
    }

    /// Append one transition's record to the log. Errors are returned,
    /// not panicked: the server degrades to journal-less operation (and
    /// says so) rather than dying on a full disk. A failed append is cut
    /// back off, so it cannot leave a torn line ahead of later ones.
    pub fn append(&self, record: &JobRecord) -> std::io::Result<()> {
        let line = to_line(record)?;
        let mut log = self.log.lock().expect("journal log lock");
        let file = match &mut *log {
            Some(file) => file,
            empty => empty.insert(self.open_log()?),
        };
        let len = file.metadata()?.len();
        file.write_all(line.as_bytes()).inspect_err(|_| {
            let _ = file.set_len(len);
        })
    }

    fn open_log(&self) -> std::io::Result<File> {
        if let Some(parent) = self.log_path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&self.log_path)?;
        cut_torn_tail(&mut file)?;
        Ok(file)
    }

    /// Write `jobs` as the new snapshot, one record at a time, and
    /// truncate the log. The caller must keep appends out until this
    /// returns (the server holds its state lock), so the snapshot holds
    /// every logged transition. An error before the rename leaves the
    /// previous snapshot and the log in place; after it, a log left
    /// untruncated only replays states the new snapshot already holds.
    pub fn compact<'a>(
        &self,
        next_id: u64,
        jobs: impl IntoIterator<Item = &'a JobRecord>,
    ) -> std::io::Result<()> {
        if let Some(parent) = self.path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        // Unique temp name (pid + per-journal sequence) so concurrent
        // compactions never collide, then the atomic rename.
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .path
            .with_extension(format!("tmp-{}-{seq}", std::process::id()));
        let written = (|| {
            let mut w = BufWriter::new(File::create(&tmp)?);
            w.write_all(
                to_line(&Header {
                    version: VERSION,
                    next_id,
                })?
                .as_bytes(),
            )?;
            for job in jobs {
                w.write_all(to_line(job)?.as_bytes())?;
            }
            w.into_inner().map_err(|e| e.into_error())?;
            std::fs::rename(&tmp, &self.path)
        })();
        if let Err(e) = written {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        let mut log = self.log.lock().expect("journal log lock");
        let file = match &mut *log {
            Some(file) => file,
            empty => empty.insert(self.open_log()?),
        };
        file.set_len(0)
    }
}

/// Cut a final line that lacks its newline (a crash mid-append) off
/// `file`, so the next append starts a line of its own instead of turning
/// the torn one into a corrupt middle line.
fn cut_torn_tail(file: &mut File) -> std::io::Result<()> {
    let len = file.metadata()?.len();
    let mut buf = [0u8; 4096];
    // Scan back from the end for the last newline; keep what precedes it.
    let mut end = len;
    let mut keep = 0;
    while end > 0 {
        let start = end.saturating_sub(buf.len() as u64);
        let chunk = &mut buf[..(end - start) as usize];
        file.seek(SeekFrom::Start(start))?;
        file.read_exact(chunk)?;
        if let Some(i) = chunk.iter().rposition(|&b| b == b'\n') {
            keep = start + i as u64 + 1;
            break;
        }
        end = start;
    }
    if keep < len {
        file.set_len(keep)?;
    }
    Ok(())
}

/// Parse a snapshot's first line: a v2 header, or a whole v1 snapshot.
fn parse_head(line: &str) -> Option<(u64, Vec<JobRecord>)> {
    let value: serde::Value = serde_json::from_str(line).ok()?;
    let fields = value.as_object()?;
    if fields.iter().any(|(k, _)| k == "jobs") {
        let v1 = SnapshotV1::deserialize_value(&value).ok()?;
        return Some((v1.next_id, v1.jobs));
    }
    let header = Header::deserialize_value(&value).ok()?;
    (header.version == VERSION).then_some((header.next_id, Vec::new()))
}

fn insert_record(jobs: &mut BTreeMap<u64, JobRecord>, line: &str) -> bool {
    match serde_json::from_str::<JobRecord>(line) {
        Ok(job) => {
            jobs.insert(job.id, job);
            true
        }
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;

    fn record(id: u64, state: JobState) -> JobRecord {
        JobRecord {
            id,
            spec: JobSpec {
                experiment: "fig8".to_owned(),
                quick: true,
                timeout_ms: 0,
            },
            state,
            detail: String::new(),
            dedupe_key: format!("key-{id}"),
            deduped: false,
        }
    }

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("serve-journal-{tag}-{}", std::process::id()))
    }

    fn fresh_journal(tag: &str) -> (PathBuf, Journal) {
        let dir = tmp_path(tag);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let j = Journal::new(dir.join("journal.json"));
        (dir, j)
    }

    fn line(job: &JobRecord) -> String {
        to_line(job).expect("record serializes")
    }

    #[test]
    fn missing_journal_is_empty() {
        let j = Journal::new(tmp_path("missing").join("journal.json"));
        let r = j.load();
        assert_eq!(r.next_id, 1);
        assert!(r.jobs.is_empty());
    }

    #[test]
    fn round_trip_marks_inflight_interrupted() {
        let dir = tmp_path("roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let j = Journal::new(dir.join("journal.json"));
        let jobs = vec![
            record(1, JobState::Completed),
            record(2, JobState::Running),
            record(3, JobState::Queued),
            record(4, JobState::Cancelled),
        ];
        j.compact(5, &jobs).expect("compact");
        let r = j.load();
        assert_eq!(r.next_id, 5);
        assert_eq!(r.interrupted, 2);
        assert_eq!(r.jobs[0].state, JobState::Completed);
        assert_eq!(r.jobs[1].state, JobState::Interrupted);
        assert_eq!(r.jobs[2].state, JobState::Interrupted);
        assert_eq!(r.jobs[3].state, JobState::Cancelled);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_journal_starts_fresh_and_keeps_evidence() {
        let dir = tmp_path("corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("journal.json");
        std::fs::write(&path, b"{\"version\":1,\"next_id\":9,\"jo").expect("write");
        let j = Journal::new(&path);
        let r = j.load();
        assert_eq!(r.next_id, 1);
        assert!(r.jobs.is_empty());
        assert!(
            path.with_extension("corrupt").exists(),
            "corrupt snapshot must be kept aside"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn next_id_never_collides_with_replayed_ids() {
        let dir = tmp_path("nextid");
        let _ = std::fs::remove_dir_all(&dir);
        let j = Journal::new(dir.join("journal.json"));
        // A snapshot whose next_id lags its own records (e.g. written by
        // an older build with a bug) must still come back collision-free.
        j.compact(2, &[record(7, JobState::Completed)])
            .expect("compact");
        let r = j.load();
        assert_eq!(r.next_id, 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn log_replays_over_snapshot_last_line_wins() {
        let (dir, j) = fresh_journal("log-wins");
        j.compact(2, &[record(1, JobState::Running)])
            .expect("compact");
        j.append(&record(1, JobState::Completed)).expect("append");
        j.append(&record(2, JobState::Queued)).expect("append");
        j.append(&record(2, JobState::Running)).expect("append");
        j.append(&record(2, JobState::Failed)).expect("append");
        let r = j.load();
        assert_eq!(r.next_id, 3);
        assert_eq!(r.interrupted, 0);
        let states: Vec<JobState> = r.jobs.iter().map(|job| job.state).collect();
        assert_eq!(states, [JobState::Completed, JobState::Failed]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_log_line_is_dropped() {
        let (dir, j) = fresh_journal("torn");
        j.append(&record(1, JobState::Queued)).expect("append");
        j.append(&record(1, JobState::Completed)).expect("append");
        // A crash mid-append: the next transition's line is cut short.
        let torn = line(&record(2, JobState::Queued));
        let mut log = OpenOptions::new()
            .append(true)
            .open(&j.log_path)
            .expect("open log");
        log.write_all(&torn.as_bytes()[..torn.len() / 2])
            .expect("torn write");
        let r = j.load();
        assert_eq!(r.jobs.len(), 1, "{:?}", r.jobs);
        assert_eq!(r.jobs[0].state, JobState::Completed);
        assert_eq!(r.next_id, 2);
        assert!(!j.log_path.with_extension("log.corrupt").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_after_a_torn_tail_cuts_it_off_first() {
        let (dir, j) = fresh_journal("torn-append");
        // A crash mid-append left a torn line, and the restart's compaction
        // failed, so the next life appends straight onto the torn log.
        let torn = line(&record(2, JobState::Queued));
        let text = format!(
            "{}{}",
            line(&record(1, JobState::Completed)),
            &torn[..torn.len() / 2]
        );
        std::fs::write(&j.log_path, text).expect("write log");
        j.append(&record(3, JobState::Queued)).expect("append");
        let r = j.load();
        let ids: Vec<u64> = r.jobs.iter().map(|job| job.id).collect();
        assert_eq!(ids, [1, 3], "earlier lines survive: {:?}", r.jobs);
        assert_eq!(r.jobs[0].state, JobState::Completed);
        assert_eq!(r.next_id, 4);
        assert!(!j.log_path.with_extension("log.corrupt").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_longer_than_a_read_chunk_is_cut_whole() {
        let (dir, j) = fresh_journal("torn-long");
        let kept = line(&record(1, JobState::Completed));
        let text = format!("{kept}{}", "x".repeat(10_000));
        std::fs::write(&j.log_path, text).expect("write log");
        j.append(&record(2, JobState::Queued)).expect("append");
        let log = std::fs::read_to_string(&j.log_path).expect("read log");
        assert_eq!(log, format!("{kept}{}", line(&record(2, JobState::Queued))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_middle_log_line_sets_the_log_aside() {
        let (dir, j) = fresh_journal("log-corrupt");
        j.compact(2, &[record(1, JobState::Completed)])
            .expect("compact");
        let text = format!(
            "{}{{\"id\":2,\"garbage\n{}",
            line(&record(2, JobState::Queued)),
            line(&record(3, JobState::Queued))
        );
        std::fs::write(&j.log_path, text).expect("write log");
        let r = j.load();
        assert_eq!(r.jobs.len(), 1, "only the snapshot replays: {:?}", r.jobs);
        assert_eq!(r.jobs[0].id, 1);
        assert_eq!(r.next_id, 2);
        assert!(
            j.log_path.with_extension("log.corrupt").exists(),
            "corrupt log must be kept aside"
        );
        assert!(!j.log_path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_snapshot_replays_then_compacts_to_v2() {
        let (dir, j) = fresh_journal("v1");
        // The single-object snapshot an older server wrote.
        let jobs = [record(1, JobState::Completed), record(2, JobState::Running)];
        let v1 = format!(
            "{{\"version\":1,\"next_id\":3,\"jobs\":[{},{}]}}",
            serde_json::to_string(&jobs[0]).expect("ser"),
            serde_json::to_string(&jobs[1]).expect("ser")
        );
        std::fs::write(j.path(), v1).expect("write v1");
        let r = j.load();
        assert_eq!(r.next_id, 3);
        assert_eq!(r.interrupted, 1);
        assert_eq!(r.jobs[0].state, JobState::Completed);
        assert_eq!(r.jobs[1].state, JobState::Interrupted);
        j.compact(r.next_id, &r.jobs).expect("compact");
        let text = std::fs::read_to_string(j.path()).expect("read snapshot");
        assert_eq!(
            text.lines().next(),
            Some("{\"version\":2,\"next_id\":3}"),
            "{text}"
        );
        assert_eq!(text.lines().count(), 3, "{text}");
        let again = j.load();
        assert_eq!(again.jobs, r.jobs);
        assert_eq!(again.next_id, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_truncates_the_log() {
        let (dir, j) = fresh_journal("compact");
        j.append(&record(1, JobState::Queued)).expect("append");
        j.append(&record(1, JobState::Completed)).expect("append");
        let r = j.load();
        j.compact(r.next_id, &r.jobs).expect("compact");
        assert_eq!(std::fs::metadata(&j.log_path).expect("log").len(), 0);
        // Appends after a compaction start the log over.
        j.append(&record(2, JobState::Queued)).expect("append");
        let log = std::fs::read_to_string(&j.log_path).expect("read log");
        assert_eq!(log, line(&record(2, JobState::Queued)));
        let r = j.load();
        assert_eq!(r.jobs.len(), 2);
        assert_eq!(r.jobs[1].state, JobState::Interrupted);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
