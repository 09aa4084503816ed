//! Crash-safe run journal: an append-only log of per-scenario outcomes.
//!
//! A multi-hour sweep interrupted at scenario 30 of 36 should not re-spend
//! cloud time on the first 30. The journal records each scenario's outcome
//! *as it finishes* — one compact JSON object per record of a
//! [`RecordLog`], appended before the append returns — so a killed run
//! leaves a readable prefix. `collect --resume` replays the journal and
//! collects only the remainder; the resumed dataset is byte-identical to an
//! uninterrupted run because entries carry the full [`DataPoint`] and are
//! keyed by the same content fingerprint the cache uses.
//!
//! Corruption tolerance is the record log's: a torn tail — the normal shape
//! of a crash mid-append — drops only that record, and an unrecognizable
//! file starts cold with the `recovered` flag set. Journals written before
//! the framed format (a `{"version": 1}` header, then one JSON line per
//! entry) still replay and are rewritten framed on the first append.

use crate::cache::Fingerprint;
use crate::dataset::{value_to_point, write_point, DataPoint};
use crate::record_log::{open_journal, RecordLog};
use crate::scenario::ScenarioStatus;
use hpcadvisor_formats::json::{self, JsonWriter};
use std::collections::HashMap;
use std::path::Path;

/// Magic that opens a framed run journal.
const MAGIC: [u8; 8] = *b"HPCAJRN1";

/// One journaled scenario outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Content fingerprint of the scenario execution (the cache key).
    pub fingerprint: Fingerprint,
    /// Scenario id at the time of the run (diagnostic only — resume matches
    /// by fingerprint, so renumbered grids still replay).
    pub scenario_id: u32,
    /// Terminal status the scenario reached.
    pub status: ScenarioStatus,
    /// Attempts spent on the scenario (1 = no retries; 0 = replayed).
    pub attempts: u32,
    /// Total simulated backoff seconds spent on the scenario.
    pub backoff_secs: f64,
    /// Failure reason, for failed scenarios.
    pub fail_reason: Option<String>,
    /// The finished data point, for completed scenarios.
    pub point: Option<DataPoint>,
}

fn entry_to_line(e: &JournalEntry) -> String {
    let mut out = String::new();
    let mut w = JsonWriter::compact(&mut out);
    w.begin_object();
    w.key("fp").str_display(&e.fingerprint);
    w.key("id").int(i64::from(e.scenario_id));
    w.key("status").str(e.status.as_str());
    w.key("attempts").int(i64::from(e.attempts));
    w.key("backoff_secs").float(e.backoff_secs);
    if let Some(reason) = &e.fail_reason {
        w.key("fail_reason").str(reason);
    }
    if let Some(point) = &e.point {
        w.key("point");
        write_point(&mut w, point);
    }
    w.end_object();
    out
}

/// A journal entry together with its encoded record. Encoding is the
/// costly part of an append, so callers sharing one journal across threads
/// build this before taking the journal's lock.
#[derive(Debug)]
pub struct EncodedEntry {
    entry: JournalEntry,
    line: String,
}

impl From<JournalEntry> for EncodedEntry {
    fn from(entry: JournalEntry) -> Self {
        let line = entry_to_line(&entry);
        EncodedEntry { entry, line }
    }
}

fn line_to_entry(line: &str) -> Option<JournalEntry> {
    let v = json::parse(line).ok()?;
    let fingerprint = Fingerprint::from_hex(v.get("fp")?.as_str()?)?;
    let status = ScenarioStatus::parse(v.get("status")?.as_str()?)?;
    let point = match v.get("point") {
        Some(pv) => Some(value_to_point(pv).ok()?),
        None => None,
    };
    Some(JournalEntry {
        fingerprint,
        scenario_id: v.get("id")?.as_int()? as u32,
        status,
        attempts: v.get("attempts")?.as_int()? as u32,
        backoff_secs: v.get("backoff_secs")?.as_f64()?,
        fail_reason: v
            .get("fail_reason")
            .and_then(|r| r.as_str())
            .map(str::to_string),
        point,
    })
}

/// The append-only run journal.
#[derive(Debug, Default)]
pub struct RunJournal {
    /// Backing log; `None` for an in-memory journal.
    log: Option<RecordLog>,
    /// Insertion-ordered entries as read/written; later entries for the
    /// same fingerprint win in [`RunJournal::lookup`].
    entries: Vec<JournalEntry>,
    by_fp: HashMap<Fingerprint, usize>,
    recovered: bool,
    /// The file holds something other than exactly `entries` in the framed
    /// format (legacy JSONL, a damaged header, an undecodable record): the
    /// next append rewrites it from `entries` instead of appending.
    rotate: bool,
}

impl RunJournal {
    /// A purely in-memory journal (for tests; nothing persists).
    pub fn in_memory() -> Self {
        RunJournal::default()
    }

    /// Opens a file-backed journal, replaying whatever prefix survives.
    /// A missing file starts empty; an unrecognizable file starts empty
    /// with `recovered` set (it is rewritten on the first append); a torn
    /// tail is dropped alone and truncated away by the next append. A
    /// legacy JSONL journal replays as-is and is rewritten framed on the
    /// first append.
    pub fn open(path: impl AsRef<Path>) -> Self {
        let (log, replay) = open_journal(path, MAGIC, line_to_entry);
        let mut journal = RunJournal {
            log: Some(log),
            recovered: replay.recovered,
            rotate: replay.rotate,
            ..RunJournal::default()
        };
        for entry in replay.records {
            journal.push(entry);
        }
        journal
    }

    /// Opens a file-backed journal after deleting any existing file — the
    /// non-resume collect path, which must not replay a previous run.
    pub fn open_fresh(path: impl AsRef<Path>) -> Self {
        RunJournal {
            log: Some(RecordLog::fresh(path, MAGIC)),
            ..RunJournal::default()
        }
    }

    fn push(&mut self, entry: JournalEntry) {
        self.by_fp.insert(entry.fingerprint, self.entries.len());
        self.entries.push(entry);
    }

    /// Appends one outcome; the record reaches the OS before this returns.
    /// IO errors are swallowed: journalling is best-effort and must never
    /// fail the collection it protects. Passing an [`EncodedEntry`] keeps
    /// the encoding out of any lock the caller holds around the journal.
    pub fn append(&mut self, entry: impl Into<EncodedEntry>) {
        let EncodedEntry { entry, line } = entry.into();
        self.push(entry);
        if let Some(log) = &mut self.log {
            if self.rotate {
                self.rotate = log.rotate(self.entries.iter().map(entry_to_line)).is_err();
            } else {
                let _ = log.append(line.as_bytes());
            }
        }
    }

    /// Latest entry for a fingerprint, if any.
    pub fn lookup(&self, fp: Fingerprint) -> Option<&JournalEntry> {
        self.by_fp.get(&fp).map(|&i| &self.entries[i])
    }

    /// All entries in append order.
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// Number of journaled outcomes (duplicates counted once each).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is journaled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if damage was detected (and skipped) while opening.
    pub fn recovered(&self) -> bool {
        self.recovered
    }

    /// The backing file, if any.
    pub fn path(&self) -> Option<&Path> {
        self.log.as_ref().map(RecordLog::path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::point;
    use std::path::PathBuf;

    fn fp(n: u128) -> Fingerprint {
        Fingerprint::from_hex(&format!("{n:032x}")).unwrap()
    }

    fn completed(id: u32, raw: u128) -> JournalEntry {
        JournalEntry {
            fingerprint: fp(raw),
            scenario_id: id,
            status: ScenarioStatus::Completed,
            attempts: 1,
            backoff_secs: 0.0,
            fail_reason: None,
            point: Some(point(id, "lammps", "Standard_HC44rs", 2, 88, 10.0, 0.5)),
        }
    }

    fn tempfile(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "hpcadvisor-journal-test-{tag}-{}.jsonl",
            std::process::id()
        ))
    }

    /// The journal line as built through a `Value` tree: the reference
    /// [`entry_to_line`] is tested against.
    fn value_line(e: &JournalEntry) -> String {
        use crate::dataset::point_to_value;
        use hpcadvisor_formats::{OrderedMap, Value};
        let mut m = OrderedMap::new();
        m.insert("fp", Value::str(e.fingerprint.to_string()));
        m.insert("id", Value::Int(i64::from(e.scenario_id)));
        m.insert("status", Value::str(e.status.as_str()));
        m.insert("attempts", Value::Int(i64::from(e.attempts)));
        m.insert("backoff_secs", Value::Float(e.backoff_secs));
        if let Some(reason) = &e.fail_reason {
            m.insert("fail_reason", Value::str(reason));
        }
        if let Some(point) = &e.point {
            m.insert("point", point_to_value(point));
        }
        json::to_string(&Value::Map(m))
    }

    proptest::proptest! {
        /// A journal line, built directly or through [`EncodedEntry`], is
        /// byte-identical to the `Value`-built line.
        #[test]
        fn lines_match_the_value_route(
            raw in proptest::prelude::any::<u64>(),
            id in proptest::prelude::any::<u32>(),
            attempts in 0..9u32,
            backoff_secs in crate::dataset::arb::float(),
            reason in crate::dataset::arb::text(),
            point in crate::dataset::arb::point(),
        ) {
            let fp_raw = u128::from(raw) << 64 | u128::from(id);
            let entry = JournalEntry {
                fingerprint: fp(fp_raw),
                scenario_id: id,
                status: point.status,
                attempts,
                backoff_secs,
                fail_reason: (attempts % 2 == 0).then_some(reason),
                point: (attempts % 3 != 0).then_some(point),
            };
            let line = entry_to_line(&entry);
            proptest::prop_assert_eq!(&line, &value_line(&entry));
            let head = format!("{{\"fp\":\"{fp_raw:032x}\",\"id\":{id},");
            proptest::prop_assert!(line.starts_with(&head), "{}", line);
            let encoded = EncodedEntry::from(entry.clone());
            proptest::prop_assert_eq!(&encoded.line, &line);
        }
    }

    #[test]
    fn entries_roundtrip_through_lines() {
        let entry = JournalEntry {
            attempts: 3,
            backoff_secs: 87.5,
            ..completed(7, 0xabc)
        };
        assert_eq!(line_to_entry(&entry_to_line(&entry)), Some(entry.clone()));
        let failed = JournalEntry {
            status: ScenarioStatus::Failed,
            fail_reason: Some("quota exceeded".into()),
            point: None,
            ..entry
        };
        assert_eq!(line_to_entry(&entry_to_line(&failed)), Some(failed));
        assert!(line_to_entry("not json").is_none());
        assert!(line_to_entry("{\"fp\": \"zz\"}").is_none());
    }

    #[test]
    fn append_then_reopen_replays() {
        let path = tempfile("replay");
        let _ = std::fs::remove_file(&path);
        let mut journal = RunJournal::open(&path);
        assert!(journal.is_empty() && !journal.recovered());
        journal.append(completed(1, 1));
        journal.append(completed(2, 2));

        let back = RunJournal::open(&path);
        assert_eq!(back.len(), 2);
        assert!(!back.recovered());
        assert_eq!(back.lookup(fp(1)), Some(&completed(1, 1)));
        assert_eq!(back.lookup(fp(3)), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn legacy_jsonl_replays_and_rotates_on_first_append() {
        let path = tempfile("legacy");
        let _ = std::fs::remove_file(&path);
        let legacy = format!(
            "{{\"version\": 1}}\n{}\n{}\n",
            entry_to_line(&completed(1, 1)),
            entry_to_line(&completed(2, 2))
        );
        std::fs::write(&path, legacy).unwrap();
        let mut journal = RunJournal::open(&path);
        assert!(!journal.recovered());
        assert_eq!(journal.entries(), &[completed(1, 1), completed(2, 2)]);
        journal.append(completed(3, 3));
        assert!(std::fs::read(&path).unwrap().starts_with(&MAGIC));
        assert!(!crate::record_log::temp_path(&path).exists());
        let back = RunJournal::open(&path);
        assert!(!back.recovered());
        assert_eq!(
            back.entries(),
            &[completed(1, 1), completed(2, 2), completed(3, 3)]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unrecognizable_file_starts_cold_and_heals_on_append() {
        let path = tempfile("header");
        std::fs::write(&path, "garbage header\nmore garbage\n").unwrap();
        let mut journal = RunJournal::open(&path);
        assert!(journal.is_empty());
        assert!(journal.recovered());
        journal.append(completed(1, 1));
        let back = RunJournal::open(&path);
        assert!(!back.recovered(), "first append rewrote the file");
        assert_eq!(back.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interrupted_rotation_keeps_the_journal_intact() {
        let path = tempfile("rotation");
        let _ = std::fs::remove_file(&path);
        let mut journal = RunJournal::open(&path);
        journal.append(completed(1, 1));
        journal.append(completed(2, 2));
        let before = journal.entries().to_vec();
        // A rotation killed before it moved its temp file into place.
        let bytes = std::fs::read(&path).unwrap();
        let tmp = crate::record_log::temp_path(&path);
        std::fs::write(&tmp, &bytes[..bytes.len() / 2]).unwrap();

        let back = RunJournal::open(&path);
        assert!(!back.recovered());
        assert_eq!(back.entries(), &before[..]);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&tmp);
    }

    #[test]
    fn open_fresh_discards_previous_run() {
        let path = tempfile("fresh");
        let mut journal = RunJournal::open(&path);
        journal.append(completed(1, 1));
        let fresh = RunJournal::open_fresh(&path);
        assert!(fresh.is_empty());
        assert!(RunJournal::open(&path).lookup(fp(1)).is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn duplicate_fingerprints_last_wins() {
        let mut journal = RunJournal::in_memory();
        journal.append(JournalEntry {
            status: ScenarioStatus::Failed,
            fail_reason: Some("first try".into()),
            point: None,
            ..completed(1, 9)
        });
        journal.append(completed(1, 9));
        assert_eq!(journal.len(), 2);
        assert_eq!(
            journal.lookup(fp(9)).unwrap().status,
            ScenarioStatus::Completed
        );
    }
}
