//! Content-addressed scenario-result cache for incremental collection.
//!
//! The paper's Algorithm 1 re-executes the full VM-type × node-count ×
//! input grid on every invocation. The companion tool paper motivates
//! *appending to and reusing* prior data points instead of re-running
//! multi-hour cloud jobs; this module is that layer. Every scenario gets a
//! deterministic **fingerprint** — a stable hash over everything that can
//! change its simulated result:
//!
//! * the scenario itself (SKU, node count, processes per node, app inputs)
//!   and the application name,
//! * the experiment noise seed,
//! * the SKU-catalog/pricing revision ([`cloudsim::SkuCatalog::revision`]),
//! * the application setup/run script content,
//! * the app-model version constant ([`appmodel::MODEL_VERSION`]).
//!
//! The cache maps fingerprints to finished [`DataPoint`]s. A warm
//! collection consults it before provisioning anything: hits bypass the
//! batch/cloud simulators entirely and are merged id-ordered, so a warm
//! run's dataset is byte-identical to a cold run's. Whenever a fingerprint
//! input changes (a new seed, a price update, a model bump, an edited
//! script), the key changes and the stale entry is simply never found —
//! invalidation is automatic and needs no bookkeeping.
//!
//! Identity-only fields of a data point — its scenario id, tags, and
//! deployment name — are **not** fingerprinted: they do not influence the
//! simulation, and a cached point is re-stamped with the current values on
//! hit (see [`rehydrate_point`]). This is what lets a widened grid (which
//! shifts scenario ids) still reuse every already-known point.
//!
//! Persistence is a binary [`RecordLog`] under the CLI work directory's
//! `cache/` folder: one checksummed `(fingerprint, point)` record per entry.
//! Saving appends only the records added since the last save — O(new
//! entries), not O(store) — and rotates the log (a temp file moved into place)
//! once superseded records outnumber live ones. A torn log tail salvages
//! every intact record and is truncated by the next save — never a cold
//! run. Legacy whole-file JSON stores are still read and are rewritten as a
//! log on the next save; only an unrecognizable store degrades to cold
//! instead of erroring.
//!
//! Concurrency: fingerprinting and lookup happen once, up front, on the
//! coordinating thread; shard workers only ever see the miss list and
//! accumulate their results into per-shard output buffers. New entries are
//! inserted after the merge barrier, so the hot path takes no lock.

use crate::dataset::{point_json, value_to_point, DataPoint};
use crate::error::ToolError;
use crate::record_log::{Contents, RecordLog};
use crate::scenario::{Scenario, ScenarioStatus};
use hpcadvisor_formats::json;
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Version of the legacy JSON store schema. JSON files of a different
/// schema are discarded wholesale (treated as a cold cache).
const STORE_VERSION: i64 = 1;

/// Magic that opens the binary record log.
const LOG_MAGIC: [u8; 8] = *b"HPCAV001";

/// On-disk format of a persistent store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreFormat {
    /// Binary record log (every store once saved).
    #[default]
    Binary,
    /// Legacy whole-file JSON, read as-is and rewritten as a binary log on
    /// the next save.
    Json,
}

impl StoreFormat {
    /// Short human-readable name (`binary`, `json`).
    pub fn as_str(&self) -> &'static str {
        match self {
            StoreFormat::Binary => "binary",
            StoreFormat::Json => "json",
        }
    }
}

/// One record payload: the 16-byte big-endian fingerprint followed by the
/// point's compact JSON.
fn encode_payload(fp: u128, point: &DataPoint) -> Vec<u8> {
    let json = point_json(point);
    let mut payload = Vec::with_capacity(16 + json.len());
    payload.extend_from_slice(&fp.to_be_bytes());
    payload.extend_from_slice(json.as_bytes());
    payload
}

fn decode_payload(payload: &[u8]) -> Option<(u128, DataPoint)> {
    let fp = u128::from_be_bytes(payload.get(..16)?.try_into().ok()?);
    let text = std::str::from_utf8(&payload[16..]).ok()?;
    let point = value_to_point(&json::parse(text).ok()?).ok()?;
    Some((fp, point))
}

/// How a collection run uses the scenario cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// Consult the cache before running and store new results (default).
    #[default]
    ReadWrite,
    /// Consult the cache but never store anything new.
    ReadOnly,
    /// Ignore the cache entirely: every scenario runs cold.
    Off,
}

impl CachePolicy {
    /// True if lookups are allowed.
    pub fn reads(&self) -> bool {
        !matches!(self, CachePolicy::Off)
    }

    /// True if new results should be stored.
    pub fn writes(&self) -> bool {
        matches!(self, CachePolicy::ReadWrite)
    }

    /// Short human-readable name (`read-write`, `read-only`, `off`).
    pub fn as_str(&self) -> &'static str {
        match self {
            CachePolicy::ReadWrite => "read-write",
            CachePolicy::ReadOnly => "read-only",
            CachePolicy::Off => "off",
        }
    }
}

/// A 128-bit content fingerprint of one scenario execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(u128);

impl Fingerprint {
    /// Parses the hex spelling ([`Fingerprint`]'s `Display`: 32 lowercase
    /// digits, the JSON store key and the journal's `fp`).
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(Fingerprint)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Incremental 128-bit FNV-1a hasher. FNV is not cryptographic, but the
/// cache only needs collision resistance across at most a few million
/// honest keys, where 128 bits is far beyond sufficient — and the hash is
/// bit-stable across platforms and Rust versions, unlike `DefaultHasher`.
#[derive(Debug, Clone)]
struct Fnv128 {
    state: u128,
}

impl Fnv128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;

    fn new() -> Self {
        Fnv128 {
            state: Self::OFFSET,
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state ^ b as u128).wrapping_mul(Self::PRIME);
        }
    }

    /// Writes a field followed by a separator byte, so adjacent fields
    /// cannot alias (`"ab" + "c"` vs `"a" + "bc"`).
    fn field(&mut self, bytes: &[u8]) {
        self.write(bytes);
        self.write(&[0x1f]);
    }

    fn finish(&self) -> u128 {
        self.state
    }
}

/// Computes scenario fingerprints for one collection run. Construct once
/// per run (the collection-level inputs are folded in eagerly), then call
/// [`Fingerprinter::scenario`] per grid point.
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    base: Fnv128,
}

impl Fingerprinter {
    /// Folds in every collection-level fingerprint input.
    pub fn new(appname: &str, script: &str, experiment_seed: u64, catalog_revision: u64) -> Self {
        let mut base = Fnv128::new();
        base.field(&appmodel::MODEL_VERSION.to_le_bytes());
        base.field(appname.as_bytes());
        base.field(script.as_bytes());
        base.field(&experiment_seed.to_le_bytes());
        base.field(&catalog_revision.to_le_bytes());
        Fingerprinter { base }
    }

    /// Folds the run's capacity class into the fingerprint. Dedicated is
    /// the implicit default and folds nothing, so fingerprints of ordinary
    /// runs are unchanged; spot results can never shadow dedicated ones
    /// (their eviction overhead makes them different measurements).
    pub fn with_capacity(mut self, capacity: cloudsim::Capacity) -> Self {
        if capacity != cloudsim::Capacity::Dedicated {
            self.base.field(capacity.as_str().as_bytes());
        }
        self
    }

    /// Fingerprints one scenario under this run's collection inputs.
    ///
    /// The placement region folds in last, and only when the scenario pins
    /// one: default-region scenarios keep their pre-placement fingerprints,
    /// so caches populated before multi-region grids existed stay warm.
    /// (No aliasing with the appinput pairs is possible — appinputs always
    /// contribute an even number of fields, the region exactly one.)
    pub fn scenario(&self, s: &Scenario) -> Fingerprint {
        let mut h = self.base.clone();
        h.field(s.sku.as_bytes());
        h.field(&s.nnodes.to_le_bytes());
        h.field(&s.ppn.to_le_bytes());
        for (k, v) in &s.appinputs {
            h.field(k.as_bytes());
            h.field(v.as_bytes());
        }
        if let Some(region) = &s.region {
            h.field(region.as_bytes());
        }
        Fingerprint(h.finish())
    }
}

/// Re-stamps a cached point with the identity-only fields of the current
/// run: scenario id, tags, and deployment. These are exactly the
/// [`DataPoint`] fields excluded from the fingerprint, so after this call
/// the point is byte-for-byte what a cold run of `scenario` would produce.
pub fn rehydrate_point(
    mut point: DataPoint,
    scenario: &Scenario,
    tags: &[(String, String)],
    deployment: &str,
) -> DataPoint {
    point.scenario_id = scenario.id;
    point.tags = tags.to_vec();
    point.deployment = deployment.to_string();
    point
}

/// Summary counters of a cache store (the CLI's `cache stats`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheStoreStats {
    /// Entries currently held.
    pub entries: usize,
    /// Backing file, if the cache is persistent.
    pub path: Option<PathBuf>,
    /// True if the backing file was damaged: an unrecognizable store
    /// started cold, a torn binary log salvaged its intact prefix.
    pub recovered: bool,
    /// On-disk format of the backing store.
    pub format: StoreFormat,
}

/// The content-addressed scenario-result store.
///
/// In-memory by default; [`ScenarioCache::open`] binds it to a
/// [`RecordLog`]. [`ScenarioCache::save`] appends only the records added
/// since the last save, and rotates the log when compaction is due or the
/// file on disk is not yet a log (legacy JSON, unrecognizable, cleared).
#[derive(Debug, Default)]
pub struct ScenarioCache {
    entries: HashMap<u128, DataPoint>,
    log: Option<RecordLog>,
    recovered: bool,
    /// True when the in-memory entries differ from the backing file:
    /// [`ScenarioCache::save`] skips the rewrite entirely when clean, so a
    /// warm all-hits run never touches the store. Damaged, legacy and
    /// dead-heavy opens start dirty — the next save heals the file.
    dirty: bool,
    format: StoreFormat,
    /// Fingerprints inserted or changed since the last save — the records
    /// the next save appends.
    pending: Vec<u128>,
    /// Records in the on-disk log, live and superseded. Once superseded
    /// records would outnumber live ones, the next save rotates instead of
    /// appending.
    records: usize,
    /// The next save must rotate: the file is not exactly a log of the
    /// saved entries (legacy JSON, undecodable records, or a clear).
    rotate: bool,
    /// A `<store>.idx` sidecar index left by older versions, seen on open
    /// and deleted by the next save.
    stale_index: Option<PathBuf>,
}

impl ScenarioCache {
    /// An empty, purely in-memory cache (results live for the collector's
    /// lifetime only).
    pub fn in_memory() -> Self {
        ScenarioCache::default()
    }

    /// Opens a file-backed cache. A missing file starts an empty store; a
    /// record log loads every intact record (last record per fingerprint
    /// wins; a torn tail is flagged `recovered` and truncated by the next
    /// save — never cold); anything else is read as a legacy JSON store and
    /// rewritten as a log on the next save. Only an unparsable legacy file
    /// starts cold, with the `recovered` flag set — never an error, since a
    /// damaged cache must cost a re-run, not a failure.
    pub fn open(path: impl AsRef<Path>) -> Self {
        let (log, contents) = RecordLog::open(path, LOG_MAGIC);
        let mut index = log.path().as_os_str().to_owned();
        index.push(".idx");
        let index = PathBuf::from(index);
        let mut cache = ScenarioCache {
            log: Some(log),
            stale_index: index.exists().then_some(index),
            ..ScenarioCache::default()
        };
        match contents {
            Contents::Missing => {}
            Contents::Framed { records, torn } => {
                cache.records = records.len();
                for payload in &records {
                    match decode_payload(payload) {
                        Some((fp, point)) => {
                            cache.entries.insert(fp, point);
                        }
                        None => cache.rotate = true,
                    }
                }
                cache.recovered = torn || cache.rotate;
                cache.dirty = cache.recovered || cache.compaction_due(0);
            }
            Contents::Foreign(bytes) => {
                match std::str::from_utf8(&bytes)
                    .map_err(|_| ())
                    .and_then(|text| parse_store(text).map_err(|_| ()))
                {
                    Ok(entries) => cache.entries = entries,
                    Err(()) => cache.recovered = true,
                }
                cache.format = StoreFormat::Json;
                cache.dirty = true;
                cache.rotate = true;
            }
        }
        cache
    }

    /// Number of cached points.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The backing file, if any.
    pub fn path(&self) -> Option<&Path> {
        self.log.as_ref().map(RecordLog::path)
    }

    /// True if a damaged backing file was discarded (unrecognizable store)
    /// or salvaged (torn or undecodable log records) on open.
    pub fn recovered(&self) -> bool {
        self.recovered
    }

    /// On-disk format of the backing file.
    pub fn format(&self) -> StoreFormat {
        self.format
    }

    /// Store summary for status displays.
    pub fn stats(&self) -> CacheStoreStats {
        CacheStoreStats {
            entries: self.entries.len(),
            path: self.path().map(Path::to_path_buf),
            recovered: self.recovered,
            format: self.format,
        }
    }

    /// Looks a fingerprint up, returning a clone of the stored point.
    pub fn lookup(&self, fp: Fingerprint) -> Option<DataPoint> {
        self.entries.get(&fp.0).cloned()
    }

    /// Stores a finished point. Only completed points are cacheable —
    /// failures may be transient (injected faults, quota) and must re-run.
    /// A point identical to the stored one is a no-op that leaves the
    /// store clean, so redundant inserts never force a file rewrite.
    /// Returns whether the store changed.
    pub fn insert(&mut self, fp: Fingerprint, point: &DataPoint) -> bool {
        if point.status != ScenarioStatus::Completed {
            return false;
        }
        if self.entries.get(&fp.0) == Some(point) {
            return false;
        }
        self.entries.insert(fp.0, point.clone());
        self.pending.push(fp.0);
        self.dirty = true;
        true
    }

    /// Drops every entry (the CLI's `cache clear`). The backing file is
    /// rewritten empty on the next [`ScenarioCache::save`].
    pub fn clear(&mut self) {
        if !self.entries.is_empty() {
            self.dirty = true;
            self.rotate = true;
        }
        self.entries.clear();
        self.pending.clear();
    }

    /// True when the in-memory entries differ from the backing file.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// True when appending `appends` more records would leave superseded
    /// records outnumbering live ones.
    fn compaction_due(&self, appends: usize) -> bool {
        self.records + appends > 2 * self.entries.len()
    }

    /// Writes the store to its backing file (no-op for in-memory caches
    /// and for clean stores — an all-hits warm run rewrites nothing).
    ///
    /// Appends one record per entry inserted since the last save, in one
    /// write; rotates the whole log (one record per live entry, in
    /// fingerprint order) when the file is not yet a log of the saved
    /// entries or compaction is due.
    ///
    /// Also deletes the `<store>.idx` sidecar index older versions wrote,
    /// if one was there on open: nothing reads it any more.
    pub fn save(&mut self) -> Result<(), ToolError> {
        if let Some(index) = self.stale_index.take() {
            // Best-effort: a leftover index is harmless, so failing to
            // delete it must not fail the save.
            let _ = std::fs::remove_file(index);
        }
        if !self.dirty || self.log.is_none() {
            return Ok(());
        }
        let mut fresh = self.pending.clone();
        fresh.sort_unstable();
        fresh.dedup();
        fresh.retain(|fp| self.entries.contains_key(fp));
        let rotate = self.rotate || self.compaction_due(fresh.len());
        if rotate {
            fresh = self.entries.keys().copied().collect();
            fresh.sort_unstable();
        }
        let entries = &self.entries;
        let payloads = fresh.iter().map(|fp| encode_payload(*fp, &entries[fp]));
        let log = self.log.as_mut().expect("file-backed store");
        if rotate {
            log.rotate(payloads)?;
            self.records = fresh.len();
            self.rotate = false;
        } else {
            log.append_all(payloads)?;
            self.records += fresh.len();
        }
        self.pending.clear();
        self.format = StoreFormat::Binary;
        self.recovered = false;
        self.dirty = false;
        Ok(())
    }
}

/// A scenario cache shared by many sessions — the daemon's cross-tenant
/// dedup point. Clones are handles to the same store; every consult and
/// insert takes the internal lock, so concurrent jobs that ask about the
/// same scenarios pay for one simulation and hit on the rest.
///
/// The collector holds its cache through this type even when unshared (a
/// plain CLI run is simply a share group of one).
#[derive(Debug, Clone, Default)]
pub struct SharedScenarioCache {
    inner: Arc<Mutex<ScenarioCache>>,
}

impl SharedScenarioCache {
    /// Wraps an existing cache into a shareable handle.
    pub fn new(cache: ScenarioCache) -> Self {
        SharedScenarioCache {
            inner: Arc::new(Mutex::new(cache)),
        }
    }

    /// A shareable handle over an empty in-memory cache.
    pub fn in_memory() -> Self {
        SharedScenarioCache::new(ScenarioCache::in_memory())
    }

    /// Opens a file-backed cache (see [`ScenarioCache::open`]) behind a
    /// shareable handle.
    pub fn open(path: impl AsRef<Path>) -> Self {
        SharedScenarioCache::new(ScenarioCache::open(path))
    }

    /// Locks the underlying store for direct access.
    pub fn lock(&self) -> MutexGuard<'_, ScenarioCache> {
        self.inner.lock()
    }

    /// Number of cached points.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// True if a damaged backing file was discarded on open.
    pub fn recovered(&self) -> bool {
        self.lock().recovered()
    }

    /// Store summary for status displays.
    pub fn stats(&self) -> CacheStoreStats {
        self.lock().stats()
    }

    /// Persists the underlying store (see [`ScenarioCache::save`]).
    pub fn save(&self) -> Result<(), ToolError> {
        self.lock().save()
    }
}

fn parse_store(text: &str) -> Result<HashMap<u128, DataPoint>, ToolError> {
    let doc = json::parse(text)?;
    let version = doc
        .get("version")
        .and_then(|v| v.as_int())
        .ok_or_else(|| ToolError::Config("cache store missing version".into()))?;
    if version != STORE_VERSION {
        return Err(ToolError::Config(format!(
            "cache store version {version} != {STORE_VERSION}"
        )));
    }
    let entries = doc
        .get("entries")
        .and_then(|v| v.as_map())
        .ok_or_else(|| ToolError::Config("cache store missing entries".into()))?;
    let mut out = HashMap::with_capacity(entries.len());
    for (key, value) in entries.iter() {
        let fp = Fingerprint::from_hex(key)
            .ok_or_else(|| ToolError::Config(format!("bad cache key '{key}'")))?;
        out.insert(fp.0, value_to_point(value)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{point, point_to_value};

    fn scenario(id: u32, sku: &str, nnodes: u32) -> Scenario {
        Scenario {
            id,
            sku: sku.into(),
            nnodes,
            ppn: 120,
            appinputs: vec![("BOXFACTOR".into(), "8".into())],
            region: None,
            status: ScenarioStatus::Pending,
        }
    }

    fn tempfile(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "hpcadvisor-cache-test-{tag}-{}.json",
            std::process::id()
        ))
    }

    #[test]
    fn fingerprints_are_stable_and_sensitive() {
        let fpr = Fingerprinter::new("lammps", "script", 42, 7);
        let s = scenario(1, "Standard_HB120rs_v3", 4);
        assert_eq!(fpr.scenario(&s), fpr.scenario(&s), "deterministic");
        // Identity-only fields do not move the fingerprint...
        let mut renumbered = s.clone();
        renumbered.id = 99;
        assert_eq!(fpr.scenario(&s), fpr.scenario(&renumbered));
        // ...but every simulation input does.
        let mut other = s.clone();
        other.nnodes = 8;
        assert_ne!(fpr.scenario(&s), fpr.scenario(&other));
        let mut other = s.clone();
        other.appinputs[0].1 = "9".into();
        assert_ne!(fpr.scenario(&s), fpr.scenario(&other));
        for different in [
            Fingerprinter::new("wrf", "script", 42, 7),
            Fingerprinter::new("lammps", "other script", 42, 7),
            Fingerprinter::new("lammps", "script", 43, 7),
            Fingerprinter::new("lammps", "script", 42, 8),
            Fingerprinter::new("lammps", "script", 42, 7).with_capacity(cloudsim::Capacity::Spot),
        ] {
            assert_ne!(fpr.scenario(&s), different.scenario(&s));
        }
        // Dedicated is the implicit default: folding it changes nothing, so
        // pre-capacity cache entries stay addressable.
        let dedicated = Fingerprinter::new("lammps", "script", 42, 7)
            .with_capacity(cloudsim::Capacity::Dedicated);
        assert_eq!(fpr.scenario(&s), dedicated.scenario(&s));
    }

    #[test]
    fn region_folds_only_when_pinned() {
        let fpr = Fingerprinter::new("lammps", "script", 42, 7);
        let s = scenario(1, "Standard_HB120rs_v3", 4);
        // Placement moves the fingerprint: results from different regions
        // are different measurements and must not collide in the cache.
        let mut placed = s.clone();
        placed.region = Some("westeurope".into());
        assert_ne!(fpr.scenario(&s), fpr.scenario(&placed));
        let mut elsewhere = s.clone();
        elsewhere.region = Some("japaneast".into());
        assert_ne!(fpr.scenario(&placed), fpr.scenario(&elsewhere));
        // Back-compat: a region-less scenario folds nothing, so its
        // fingerprint is exactly what pre-placement versions computed —
        // existing caches stay warm.
        let mut unpinned = placed.clone();
        unpinned.region = None;
        assert_eq!(fpr.scenario(&s), fpr.scenario(&unpinned));
        // The region field cannot alias an appinput pair: a region never
        // collides with a scenario whose extra appinput spells the same
        // bytes, because pairs fold two fields and the region folds one.
        let mut inputish = s.clone();
        inputish.appinputs.push(("westeurope".into(), "".into()));
        assert_ne!(fpr.scenario(&placed), fpr.scenario(&inputish));
    }

    #[test]
    fn adjacent_fields_do_not_alias() {
        let a = Fingerprinter::new("ab", "c", 1, 1);
        let b = Fingerprinter::new("a", "bc", 1, 1);
        let s = scenario(1, "Standard_HB120rs_v3", 1);
        assert_ne!(a.scenario(&s), b.scenario(&s));
    }

    #[test]
    fn hex_roundtrip() {
        let fpr = Fingerprinter::new("lammps", "s", 1, 2);
        let fp = fpr.scenario(&scenario(1, "Standard_HC44rs", 2));
        assert_eq!(Fingerprint::from_hex(&fp.to_string()), Some(fp));
        assert_eq!(fp.to_string().len(), 32);
        assert_eq!(Fingerprint::from_hex("xyz"), None);
        assert_eq!(Fingerprint::from_hex(""), None);
    }

    #[test]
    fn store_roundtrip_and_policy_gates() {
        let path = tempfile("roundtrip");
        let _ = std::fs::remove_file(&path);
        let fpr = Fingerprinter::new("lammps", "s", 42, 1);
        let s = scenario(3, "Standard_HB120rs_v3", 4);
        let fp = fpr.scenario(&s);
        let mut cache = ScenarioCache::open(&path);
        assert!(cache.is_empty() && !cache.recovered());
        let p = point(3, "lammps", "Standard_HB120rs_v3", 4, 120, 12.5, 0.05);
        assert!(cache.insert(fp, &p));
        cache.save().unwrap();

        let warm = ScenarioCache::open(&path);
        assert_eq!(warm.len(), 1);
        assert_eq!(warm.lookup(fp), Some(p.clone()));
        assert_eq!(
            warm.lookup(fpr.scenario(&scenario(3, "Standard_HC44rs", 4))),
            None
        );

        // Failed points never enter the cache.
        let mut failed = p;
        failed.status = ScenarioStatus::Failed;
        let mut cache = ScenarioCache::in_memory();
        assert!(!cache.insert(fp, &failed));
        assert!(cache.is_empty());
        assert!(cache.save().is_ok(), "in-memory save is a no-op");

        assert!(CachePolicy::ReadWrite.reads() && CachePolicy::ReadWrite.writes());
        assert!(CachePolicy::ReadOnly.reads() && !CachePolicy::ReadOnly.writes());
        assert!(!CachePolicy::Off.reads() && !CachePolicy::Off.writes());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_or_truncated_store_recovers_cold() {
        for (tag, garbage) in [
            ("garbage", "this is not json"),
            ("truncated", "{\"version\": 1, \"entries\": {\"00"),
            ("wrong-version", "{\"version\": 999, \"entries\": {}}"),
            ("wrong-shape", "[1, 2, 3]"),
            (
                "bad-point",
                "{\"version\": 1, \"entries\": {\"0123456789abcdef0123456789abcdef\": {\"nope\": 1}}}",
            ),
        ] {
            let path = tempfile(tag);
            std::fs::write(&path, garbage).unwrap();
            let mut cache = ScenarioCache::open(&path);
            assert!(cache.is_empty(), "{tag}: damaged store starts cold");
            assert!(cache.recovered(), "{tag}: recovery is flagged");
            assert!(cache.is_dirty(), "{tag}: recovered stores save eagerly");
            // And saving over the damage produces a loadable store again.
            cache.save().unwrap();
            assert!(!ScenarioCache::open(&path).recovered(), "{tag}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn clean_stores_skip_the_rewrite() {
        let path = tempfile("dirty");
        let _ = std::fs::remove_file(&path);
        let fpr = Fingerprinter::new("lammps", "s", 42, 1);
        let s = scenario(1, "Standard_HB120rs_v3", 4);
        let fp = fpr.scenario(&s);
        let p = point(1, "lammps", "Standard_HB120rs_v3", 4, 120, 12.5, 0.05);

        let mut cache = ScenarioCache::open(&path);
        assert!(!cache.is_dirty(), "fresh open is clean");
        assert!(cache.insert(fp, &p));
        assert!(cache.is_dirty());
        cache.save().unwrap();
        assert!(!cache.is_dirty(), "save clears the flag");
        let saved_at = std::fs::metadata(&path).unwrap().modified().unwrap();

        // Re-inserting the identical point keeps the store clean: the
        // warm path's post-merge insert loop must not force a rewrite.
        assert!(!cache.insert(fp, &p), "identical insert is a no-op");
        assert!(!cache.is_dirty());
        cache.save().unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().modified().unwrap(),
            saved_at,
            "clean save never touches the file"
        );

        // A genuinely different point under the same key dirties again.
        let mut newer = p.clone();
        newer.exec_time_secs += 1.0;
        assert!(cache.insert(fp, &newer));
        assert!(cache.is_dirty());

        // clear() on a non-empty store schedules an empty rewrite.
        cache.clear();
        assert!(cache.is_dirty());
        cache.save().unwrap();
        assert_eq!(ScenarioCache::open(&path).len(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shared_handles_see_one_store() {
        let shared = SharedScenarioCache::in_memory();
        let clone = shared.clone();
        let fpr = Fingerprinter::new("lammps", "s", 42, 1);
        let s = scenario(1, "Standard_HB120rs_v3", 4);
        let p = point(1, "lammps", "Standard_HB120rs_v3", 4, 120, 12.5, 0.05);
        assert!(shared.lock().insert(fpr.scenario(&s), &p));
        assert_eq!(clone.len(), 1, "clones share the underlying store");
        assert!(!clone.is_empty());
        assert!(!clone.recovered());
        assert_eq!(clone.stats().entries, 1);
        assert!(clone.save().is_ok(), "in-memory save is a no-op");
    }

    /// Three distinct completed points and their fingerprints.
    fn three_points() -> Vec<(Fingerprint, DataPoint)> {
        let fpr = Fingerprinter::new("lammps", "s", 42, 1);
        (1..=3u32)
            .map(|id| {
                let s = scenario(id, "Standard_HB120rs_v3", id);
                let p = point(
                    id,
                    "lammps",
                    "Standard_HB120rs_v3",
                    id,
                    120,
                    10.0 + f64::from(id),
                    0.05,
                );
                (fpr.scenario(&s), p)
            })
            .collect()
    }

    #[test]
    fn new_stores_save_as_a_lone_record_log() {
        let path = tempfile("binary-fresh");
        let _ = std::fs::remove_file(&path);
        let mut cache = ScenarioCache::open(&path);
        assert_eq!(cache.format(), StoreFormat::Binary);
        for (fp, p) in three_points() {
            assert!(cache.insert(fp, &p));
        }
        cache.save().unwrap();
        assert!(std::fs::read(&path).unwrap().starts_with(&LOG_MAGIC));
        let dir = path.parent().unwrap();
        let stem = path.file_name().unwrap().to_str().unwrap();
        let siblings: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|name| name.starts_with(stem) && name != stem)
            .collect();
        assert!(siblings.is_empty(), "no sidecar files: {siblings:?}");

        let warm = ScenarioCache::open(&path);
        assert_eq!(warm.len(), 3);
        assert!(!warm.recovered());
        assert!(!warm.is_dirty(), "clean binary open stays clean");
        assert_eq!(warm.stats().format, StoreFormat::Binary);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn binary_saves_append_instead_of_rewriting() {
        let path = tempfile("binary-append");
        let _ = std::fs::remove_file(&path);
        let fpr = Fingerprinter::new("lammps", "s", 42, 1);
        let mut cache = ScenarioCache::open(&path);
        let s1 = scenario(1, "Standard_HB120rs_v3", 2);
        let p1 = point(1, "lammps", "Standard_HB120rs_v3", 2, 120, 11.0, 0.05);
        cache.insert(fpr.scenario(&s1), &p1);
        cache.save().unwrap();
        let before = std::fs::read(&path).unwrap();

        let s2 = scenario(2, "Standard_HC44rs", 4);
        let p2 = point(2, "lammps", "Standard_HC44rs", 4, 44, 14.0, 0.03);
        cache.insert(fpr.scenario(&s2), &p2);
        cache.save().unwrap();
        let after = std::fs::read(&path).unwrap();
        assert!(after.len() > before.len());
        assert_eq!(
            &after[..before.len()],
            &before[..],
            "old log bytes untouched"
        );

        let warm = ScenarioCache::open(&path);
        assert_eq!(warm.len(), 2);
        assert_eq!(warm.lookup(fpr.scenario(&s2)), Some(p2));
        assert!(!warm.is_dirty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_log_tail_salvages_intact_records() {
        let path = tempfile("binary-torn");
        let _ = std::fs::remove_file(&path);
        let mut fps = three_points();
        let mut cache = ScenarioCache::open(&path);
        for (fp, p) in &fps {
            cache.insert(*fp, p);
        }
        cache.save().unwrap();

        // Tear the final record mid-write: drop the last 5 bytes.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let mut salvaged = ScenarioCache::open(&path);
        assert_eq!(salvaged.len(), 2, "intact prefix survives, not a cold run");
        assert!(salvaged.recovered(), "the torn tail is flagged");
        assert!(salvaged.is_dirty(), "salvage heals on the next save");
        // Saves lay records out in fingerprint order; the torn record is
        // the highest fingerprint, the other two survive.
        fps.sort_by_key(|(fp, _)| *fp);
        for (fp, p) in &fps[..2] {
            assert_eq!(salvaged.lookup(*fp), Some(p.clone()));
        }
        salvaged.save().unwrap();
        let healed = ScenarioCache::open(&path);
        assert_eq!(healed.len(), 2);
        assert!(!healed.recovered() && !healed.is_dirty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn dead_heavy_logs_compact_on_save() {
        let path = tempfile("binary-compact");
        let _ = std::fs::remove_file(&path);
        let fpr = Fingerprinter::new("lammps", "s", 42, 1);
        let s = scenario(1, "Standard_HB120rs_v3", 2);
        let fp = fpr.scenario(&s);
        // Write a log where the same key was superseded twice: two dead
        // records against one live one.
        let mut last = point(1, "lammps", "Standard_HB120rs_v3", 2, 120, 11.0, 0.05);
        let mut payloads = Vec::new();
        for round in 0..3u32 {
            last = point(1, "lammps", "Standard_HB120rs_v3", 2, 120, 11.0, 0.05);
            last.exec_time_secs += f64::from(round);
            payloads.push(encode_payload(fp.0, &last));
        }
        RecordLog::fresh(&path, LOG_MAGIC)
            .append_all(&payloads)
            .unwrap();
        let dead_heavy = std::fs::read(&path).unwrap().len();

        let mut cache = ScenarioCache::open(&path);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(fp), Some(last), "the last record wins");
        assert!(!cache.recovered(), "dead records are not data loss");
        assert!(cache.is_dirty(), "2 dead vs 1 live schedules compaction");
        cache.save().unwrap();
        let compacted = std::fs::read(&path).unwrap().len();
        assert!(compacted < dead_heavy, "rotation drops the dead records");
        let reopened = ScenarioCache::open(&path);
        assert_eq!(reopened.len(), 1);
        assert!(!reopened.is_dirty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn parent_format_logs_open_without_migration() {
        // A log framed byte by byte as earlier releases wrote it:
        // "HPCAV001", then [u32 LE len][16-byte BE fp + JSON][u64 LE FNV-1a].
        fn fnv64(bytes: &[u8]) -> u64 {
            bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
            })
        }
        let path = tempfile("parent-format");
        let fps = three_points();
        let mut log = b"HPCAV001".to_vec();
        for (fp, p) in &fps {
            let mut payload = fp.0.to_be_bytes().to_vec();
            payload.extend_from_slice(json::to_string(&point_to_value(p)).as_bytes());
            log.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            log.extend_from_slice(&payload);
            log.extend_from_slice(&fnv64(&payload).to_le_bytes());
        }
        std::fs::write(&path, &log).unwrap();

        let mut cache = ScenarioCache::open(&path);
        assert_eq!(cache.format(), StoreFormat::Binary);
        assert!(!cache.recovered() && !cache.is_dirty(), "opens as it is");
        for (fp, p) in &fps {
            assert_eq!(cache.lookup(*fp), Some(p.clone()));
        }
        cache.save().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), log, "nothing rewritten");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn legacy_json_reads_then_migrates_on_first_save() {
        use hpcadvisor_formats::{OrderedMap, Value};
        let path = tempfile("legacy-migrate");
        let _ = std::fs::remove_file(&path);
        let fps = three_points();
        // Hand-write a legacy JSON store, the format older releases saved.
        let mut entries = OrderedMap::new();
        for (fp, p) in &fps {
            entries.insert(fp.to_string(), point_to_value(p));
        }
        let mut doc = OrderedMap::new();
        doc.insert("version", Value::Int(STORE_VERSION));
        doc.insert("entries", Value::Map(entries));
        std::fs::write(&path, json::to_string_pretty(&Value::Map(doc))).unwrap();

        // Transparent read; the store is dirty so the next save migrates.
        let mut cache = ScenarioCache::open(&path);
        assert_eq!(cache.format(), StoreFormat::Json);
        assert_eq!(cache.len(), 3);
        assert!(!cache.recovered());
        assert!(cache.is_dirty(), "legacy stores are rewritten on save");
        let fpr = Fingerprinter::new("lammps", "s", 42, 1);
        let s4 = scenario(4, "Standard_HC44rs", 4);
        let p4 = point(4, "lammps", "Standard_HC44rs", 4, 44, 14.0, 0.03);
        cache.insert(fpr.scenario(&s4), &p4);
        cache.save().unwrap();
        assert_eq!(cache.format(), StoreFormat::Binary);
        assert!(std::fs::read(&path).unwrap().starts_with(&LOG_MAGIC));

        // Every point survives bit-for-bit.
        let migrated = ScenarioCache::open(&path);
        assert_eq!(migrated.format(), StoreFormat::Binary);
        assert_eq!(migrated.len(), 4);
        assert!(!migrated.is_dirty());
        for (fp, p) in &fps {
            assert_eq!(migrated.lookup(*fp), Some(p.clone()));
        }
        assert_eq!(migrated.lookup(fpr.scenario(&s4)), Some(p4));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn save_deletes_a_leftover_index_sidecar() {
        let path = tempfile("stale-idx");
        let _ = std::fs::remove_file(&path);
        let mut index = path.as_os_str().to_owned();
        index.push(".idx");
        let index = PathBuf::from(index);
        let fps = three_points();
        std::fs::write(&index, b"HPCAIDX1 stale offsets").unwrap();
        let mut cache = ScenarioCache::open(&path);
        for (fp, p) in &fps {
            cache.insert(*fp, p);
        }
        cache.save().unwrap();
        assert!(!index.exists(), "a dirty save removes the sidecar");
        // A clean store skips the rewrite but still drops the sidecar.
        std::fs::write(&index, b"HPCAIDX1 stale offsets").unwrap();
        let before = std::fs::read(&path).unwrap();
        let mut reopened = ScenarioCache::open(&path);
        assert!(!reopened.is_dirty());
        reopened.save().unwrap();
        assert!(!index.exists(), "a clean save removes the sidecar");
        assert_eq!(std::fs::read(&path).unwrap(), before, "store untouched");
        assert_eq!(reopened.len(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rehydrate_restamps_identity_fields_only() {
        let mut stored = point(1, "lammps", "Standard_HB120rs_v3", 4, 120, 9.0, 0.04);
        stored.tags = vec![("version".into(), "old".into())];
        stored.deployment = "oldrg001".into();
        let s = scenario(42, "Standard_HB120rs_v3", 4);
        let tags = vec![("version".into(), "v2".into())];
        let out = rehydrate_point(stored.clone(), &s, &tags, "newrg001");
        assert_eq!(out.scenario_id, 42);
        assert_eq!(out.tags, tags);
        assert_eq!(out.deployment, "newrg001");
        assert_eq!(out.exec_time_secs, stored.exec_time_secs);
        assert_eq!(out.metrics, stored.metrics);
    }
}
