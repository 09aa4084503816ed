//! Durable daemon state: an append-only service journal.
//!
//! The PR 6 daemon kept tenant spend and the in-flight job manifest only
//! in memory, so a crash forgot who had spent what and silently dropped
//! every admitted job. This module gives [`crate::service::AdvisorService`]
//! the same crash-safety discipline the collection layer already has in
//! [`crate::journal`]: one compact JSON payload per record, appended as
//! state changes, with torn-tail salvage on reopen — a killed daemon
//! leaves a readable prefix, and the next start replays it.
//!
//! Three record kinds cover the whole admission lifecycle:
//!
//! * `spend` — a tenant was charged some newly-provisioned dollars when a
//!   job finished. Replay sums these per tenant, so budgets survive
//!   restarts and a resubmitted all-hits run cannot be double-billed.
//! * `admitted` — a request passed admission: its idempotency key, tenant,
//!   seed, worker count and the full config (as the canonical YAML from
//!   [`crate::config::UserConfig::to_yaml`]).
//! * `done` — the job reached a terminal state (finished, failed, or was
//!   deliberately abandoned). An `admitted` with no matching `done` is an
//!   interrupted job the restarted daemon must re-serve.
//!
//! Records live in a [`RecordLog`] (one compact JSON payload per record).
//! Once the done/spend history has grown well past the live state, an
//! append instead rotates the log to the replayed state (one cumulative
//! `spend` per tenant plus the still-pending `admitted` records), so the
//! journal stays bounded by live state, not daemon uptime. Rotation writes
//! a temp file and moves it into place: a daemon killed mid-rotation
//! keeps the previous journal, never a truncated one.

use crate::cache::CachePolicy;
use crate::record_log::{open_journal, RecordLog};
use hpcadvisor_formats::{json, OrderedMap, Value};
use std::collections::HashMap;
use std::path::Path;

/// Magic that opens a framed service journal.
const MAGIC: [u8; 8] = *b"HPCASVC1";

/// An admitted-but-unfinished request, exactly as needed to re-admit it.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingJob {
    /// Idempotency key the client (or the service) assigned the request.
    pub key: String,
    /// Tenant the request is accounted against.
    pub tenant: String,
    /// Experiment seed.
    pub seed: u64,
    /// Worker threads for the job's own collection.
    pub workers: usize,
    /// The full configuration, serialized with `UserConfig::to_yaml`.
    pub config_yaml: String,
    /// Placement regions of the job's grid, denormalized from the config
    /// so an operator reading the journal (or a restarted daemon deciding
    /// re-admission order) sees the placement dimension without parsing
    /// YAML. Empty for single-region jobs, and then omitted from the
    /// journal line so pre-placement journals replay byte-identically.
    pub regions: Vec<String>,
    /// Cache-policy override, if the request carried one.
    pub cache_policy: Option<CachePolicy>,
}

/// One journaled state change.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceRecord {
    /// `tenant` was charged `dollars` of newly-provisioned pool time.
    Spend {
        /// Tenant charged.
        tenant: String,
        /// Newly provisioned dollars (never negative).
        dollars: f64,
    },
    /// A request passed admission and entered the queue.
    Admitted(PendingJob),
    /// The job with this key reached a terminal state.
    Done {
        /// Idempotency key of the finished job.
        key: String,
    },
}

fn parse_cache_policy(s: &str) -> Option<CachePolicy> {
    match s {
        "read-write" => Some(CachePolicy::ReadWrite),
        "read-only" => Some(CachePolicy::ReadOnly),
        "off" => Some(CachePolicy::Off),
        _ => None,
    }
}

fn record_to_line(r: &ServiceRecord) -> String {
    let mut m = OrderedMap::new();
    match r {
        ServiceRecord::Spend { tenant, dollars } => {
            m.insert("rec", Value::str("spend"));
            m.insert("tenant", Value::str(tenant));
            m.insert("dollars", Value::Float(*dollars));
        }
        ServiceRecord::Admitted(job) => {
            m.insert("rec", Value::str("admitted"));
            m.insert("key", Value::str(&job.key));
            m.insert("tenant", Value::str(&job.tenant));
            m.insert("seed", Value::Int(job.seed as i64));
            m.insert("workers", Value::Int(job.workers as i64));
            m.insert("config_yaml", Value::str(&job.config_yaml));
            if !job.regions.is_empty() {
                m.insert(
                    "regions",
                    Value::Seq(job.regions.iter().map(Value::str).collect()),
                );
            }
            if let Some(policy) = job.cache_policy {
                m.insert("cache_policy", Value::str(policy.as_str()));
            }
        }
        ServiceRecord::Done { key } => {
            m.insert("rec", Value::str("done"));
            m.insert("key", Value::str(key));
        }
    }
    json::to_string(&Value::Map(m))
}

fn line_to_record(line: &str) -> Option<ServiceRecord> {
    let v = json::parse(line).ok()?;
    match v.get("rec")?.as_str()? {
        "spend" => Some(ServiceRecord::Spend {
            tenant: v.get("tenant")?.as_str()?.to_string(),
            dollars: v.get("dollars")?.as_f64()?,
        }),
        "admitted" => Some(ServiceRecord::Admitted(PendingJob {
            key: v.get("key")?.as_str()?.to_string(),
            tenant: v.get("tenant")?.as_str()?.to_string(),
            seed: v.get("seed")?.as_int()? as u64,
            workers: v.get("workers")?.as_int()?.max(1) as usize,
            config_yaml: v.get("config_yaml")?.as_str()?.to_string(),
            regions: match v.get("regions") {
                Some(Value::Seq(items)) => items
                    .iter()
                    .map(|r| Some(r.as_str()?.to_string()))
                    .collect::<Option<Vec<_>>>()?,
                _ => Vec::new(),
            },
            cache_policy: match v.get("cache_policy") {
                Some(p) => Some(parse_cache_policy(p.as_str()?)?),
                None => None,
            },
        })),
        "done" => Some(ServiceRecord::Done {
            key: v.get("key")?.as_str()?.to_string(),
        }),
        _ => None,
    }
}

/// The replayed view of the journal: what a restarted daemon needs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceState {
    /// tenant → cumulative newly-provisioned dollars across all restarts.
    pub spent: HashMap<String, f64>,
    /// Admitted jobs with no terminal record, in admission order (one per
    /// key — a re-admission of the same key replaces the earlier entry).
    pub pending: Vec<PendingJob>,
}

/// The append-only service journal (see the module docs).
#[derive(Debug, Default)]
pub struct ServiceJournal {
    /// Backing log; `None` for an in-memory journal.
    log: Option<RecordLog>,
    state: ServiceState,
    /// Raw record count since the last rewrite — the compaction trigger.
    raw_records: usize,
    recovered: bool,
    /// The file holds something other than the framed records replayed
    /// (legacy JSONL, an unrecognizable file, an undecodable record): the
    /// next append rotates instead of appending.
    rotate: bool,
}

impl ServiceJournal {
    /// A purely in-memory journal (nothing persists; for tests).
    pub fn in_memory() -> Self {
        ServiceJournal::default()
    }

    /// Opens a file-backed journal, replaying whatever prefix survives. A
    /// missing file starts empty; an unrecognizable file starts empty with
    /// `recovered` set; a torn tail — the normal shape of a crash
    /// mid-append — is dropped alone and truncated by the next append. A
    /// legacy JSONL journal replays and is rotated on the first append.
    pub fn open(path: impl AsRef<Path>) -> Self {
        let (log, replay) = open_journal(path, MAGIC, line_to_record);
        let mut journal = ServiceJournal {
            log: Some(log),
            raw_records: replay.records.len(),
            recovered: replay.recovered,
            rotate: replay.rotate,
            ..ServiceJournal::default()
        };
        for record in replay.records {
            journal.apply(record);
        }
        journal
    }

    fn apply(&mut self, record: ServiceRecord) {
        match record {
            ServiceRecord::Spend { tenant, dollars } => {
                *self.state.spent.entry(tenant).or_insert(0.0) += dollars;
            }
            ServiceRecord::Admitted(job) => {
                self.state.pending.retain(|p| p.key != job.key);
                self.state.pending.push(job);
            }
            ServiceRecord::Done { key } => {
                self.state.pending.retain(|p| p.key != key);
            }
        }
    }

    /// The records a compacted rewrite preserves: cumulative spend per
    /// tenant (sorted for deterministic files) plus pending admissions.
    fn live_records(&self) -> Vec<ServiceRecord> {
        let mut tenants: Vec<(&String, &f64)> = self.state.spent.iter().collect();
        tenants.sort_by(|a, b| a.0.cmp(b.0));
        let mut records: Vec<ServiceRecord> = tenants
            .into_iter()
            .map(|(tenant, dollars)| ServiceRecord::Spend {
                tenant: tenant.clone(),
                dollars: *dollars,
            })
            .collect();
        records.extend(
            self.state
                .pending
                .iter()
                .cloned()
                .map(ServiceRecord::Admitted),
        );
        records
    }

    /// True when the done/spend history has outgrown the live state enough
    /// that a rewrite pays for itself.
    fn wants_compaction(&self) -> bool {
        let live = self.state.spent.len() + self.state.pending.len();
        self.raw_records > 2 * live + 16
    }

    /// Appends one record; it reaches the OS before this returns. IO
    /// errors are swallowed: journalling is best-effort and must never
    /// fail the service it protects.
    pub fn append(&mut self, record: ServiceRecord) {
        self.apply(record.clone());
        self.raw_records += 1;
        if self.log.is_none() {
            return;
        }
        // A rotation rewrites the compacted live state, which already
        // includes `record`.
        let rotate = self.rotate || self.wants_compaction();
        let lines: Vec<String> = if rotate {
            self.live_records().iter().map(record_to_line).collect()
        } else {
            vec![record_to_line(&record)]
        };
        let log = self.log.as_mut().expect("file-backed journal");
        if !rotate {
            let _ = log.append_all(&lines);
        } else if log.rotate(&lines).is_ok() {
            self.rotate = false;
            self.raw_records = lines.len();
        }
    }

    /// The replayed state: cumulative spend and interrupted jobs.
    pub fn state(&self) -> &ServiceState {
        &self.state
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
    use crate::config::UserConfig;
    use crate::record_log::{temp_path, Contents};
    use std::path::PathBuf;

    fn tempfile(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "hpcadvisor-service-journal-{tag}-{}.jsonl",
            std::process::id()
        ))
    }

    fn admitted(key: &str, tenant: &str) -> ServiceRecord {
        ServiceRecord::Admitted(PendingJob {
            key: key.into(),
            tenant: tenant.into(),
            seed: 42,
            workers: 2,
            config_yaml: UserConfig::example_lammps_small().to_yaml(),
            regions: Vec::new(),
            cache_policy: Some(CachePolicy::ReadWrite),
        })
    }

    #[test]
    fn placed_jobs_journal_their_regions() {
        let job = PendingJob {
            key: "k".into(),
            tenant: "acme".into(),
            seed: 7,
            workers: 4,
            config_yaml: UserConfig::example_lammps_small().to_yaml(),
            regions: vec!["southcentralus".into(), "westeurope".into()],
            cache_policy: None,
        };
        let line = record_to_line(&ServiceRecord::Admitted(job.clone()));
        assert!(line.contains("\"regions\""), "{line}");
        assert_eq!(line_to_record(&line), Some(ServiceRecord::Admitted(job)));
        // Single-region jobs keep the pre-placement line shape.
        let legacy = record_to_line(&admitted("k2", "acme"));
        assert!(!legacy.contains("regions"), "{legacy}");
    }

    #[test]
    fn records_roundtrip_through_lines() {
        for record in [
            ServiceRecord::Spend {
                tenant: "acme".into(),
                dollars: 12.5,
            },
            admitted("k1", "acme"),
            ServiceRecord::Done { key: "k1".into() },
        ] {
            assert_eq!(line_to_record(&record_to_line(&record)), Some(record));
        }
        assert!(line_to_record("not json").is_none());
        assert!(line_to_record("{\"rec\": \"mystery\"}").is_none());
    }

    #[test]
    fn replay_restores_spend_and_pending_jobs() {
        let path = tempfile("replay");
        let _ = std::fs::remove_file(&path);
        let mut journal = ServiceJournal::open(&path);
        journal.append(admitted("k1", "acme"));
        journal.append(admitted("k2", "acme"));
        journal.append(ServiceRecord::Spend {
            tenant: "acme".into(),
            dollars: 3.0,
        });
        journal.append(ServiceRecord::Done { key: "k1".into() });
        journal.append(ServiceRecord::Spend {
            tenant: "acme".into(),
            dollars: 2.0,
        });

        let back = ServiceJournal::open(&path);
        assert!(!back.recovered());
        let state = back.state();
        assert_eq!(state.spent.get("acme"), Some(&5.0));
        assert_eq!(state.pending.len(), 1, "k1 done, k2 interrupted");
        assert_eq!(state.pending[0].key, "k2");
        let config = UserConfig::from_yaml(&state.pending[0].config_yaml).unwrap();
        assert_eq!(config, UserConfig::example_lammps_small());
        let _ = std::fs::remove_file(&path);
    }

    fn spend(tenant: &str, dollars: f64) -> ServiceRecord {
        ServiceRecord::Spend {
            tenant: tenant.into(),
            dollars,
        }
    }

    /// Framed records currently on disk.
    fn records_on_disk(path: &Path) -> usize {
        match RecordLog::open(path, MAGIC).1 {
            Contents::Framed { records, .. } => records.len(),
            other => panic!("expected a framed journal, got {other:?}"),
        }
    }

    #[test]
    fn legacy_jsonl_replays_and_rotates_on_first_append() {
        let path = tempfile("legacy");
        let legacy = format!(
            "{{\"version\": 1}}\n{}\n{}\n{}\n",
            record_to_line(&spend("acme", 2.5)),
            record_to_line(&admitted("k1", "acme")),
            record_to_line(&admitted("k2", "bob")),
        );
        std::fs::write(&path, legacy).unwrap();
        let mut journal = ServiceJournal::open(&path);
        assert!(!journal.recovered());
        assert_eq!(journal.state().spent.get("acme"), Some(&2.5));
        assert_eq!(journal.state().pending.len(), 2);
        journal.append(ServiceRecord::Done { key: "k1".into() });
        assert!(std::fs::read(&path).unwrap().starts_with(&MAGIC));
        let back = ServiceJournal::open(&path);
        assert!(!back.recovered());
        assert_eq!(back.state(), journal.state());
        assert_eq!(back.state().pending[0].key, "k2");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unrecognizable_file_starts_cold() {
        let path = tempfile("header");
        std::fs::write(&path, "garbage\n").unwrap();
        let journal = ServiceJournal::open(&path);
        assert!(journal.recovered());
        assert_eq!(journal.state(), &ServiceState::default());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_bounds_the_file_by_live_state() {
        let path = tempfile("compact");
        let _ = std::fs::remove_file(&path);
        let mut journal = ServiceJournal::open(&path);
        // Churn many short-lived jobs for one tenant.
        for i in 0..60 {
            journal.append(admitted(&format!("k{i}"), "acme"));
            journal.append(spend("acme", 1.0));
            journal.append(ServiceRecord::Done {
                key: format!("k{i}"),
            });
        }
        let records = records_on_disk(&path);
        assert!(
            records < 40,
            "history compacted away, got {records} records"
        );
        let back = ServiceJournal::open(&path);
        assert_eq!(back.state().spent.get("acme"), Some(&60.0));
        assert!(back.state().pending.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interrupted_rotation_keeps_the_replayed_state() {
        let path = tempfile("rotation");
        let _ = std::fs::remove_file(&path);
        let mut journal = ServiceJournal::open(&path);
        journal.append(admitted("pending", "bob"));
        journal.append(spend("acme", 0.5));
        // Churn spend until the next append rotates.
        let bound = 2 * (journal.state().spent.len() + journal.state().pending.len()) + 16;
        while journal.raw_records < bound {
            journal.append(spend("acme", 0.5));
        }
        assert_eq!(records_on_disk(&path), bound, "no rotation yet");
        let before = journal.state().clone();
        // The daemon dies mid-rotation: the temp file holds half of the
        // compacted log and was never moved over the journal.
        let lines: Vec<String> = journal.live_records().iter().map(record_to_line).collect();
        let mut tmp = RecordLog::fresh(temp_path(&path), MAGIC);
        tmp.append_all(&lines).unwrap();
        let bytes = std::fs::read(temp_path(&path)).unwrap();
        std::fs::write(temp_path(&path), &bytes[..bytes.len() / 2]).unwrap();

        let mut back = ServiceJournal::open(&path);
        assert!(!back.recovered());
        assert_eq!(back.state(), &before, "no spend or admission was lost");
        // The restarted daemon's next append completes a rotation cleanly.
        back.append(spend("acme", 0.5));
        assert!(!temp_path(&path).exists());
        assert_eq!(
            records_on_disk(&path),
            2,
            "acme's spend plus the pending admission"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn in_memory_journal_tracks_state_without_files() {
        let mut journal = ServiceJournal::in_memory();
        journal.append(admitted("k", "t"));
        assert!(journal.path().is_none());
        assert_eq!(journal.state().pending.len(), 1);
    }
}
