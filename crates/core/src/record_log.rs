//! One durable record log under every append-only store.
//!
//! The run journal ([`crate::journal`]), the service journal
//! ([`crate::service_state`]) and the scenario cache ([`crate::cache`])
//! all persist the same way: an 8-byte magic chosen by the store, then a
//! sequence of framed records
//!
//! ```text
//! [u32 LE payload len][payload][u64 LE FNV-1a of payload]
//! ```
//!
//! Each store owns only its payload codec and its replay logic; this module
//! owns every byte of file handling:
//!
//! * **Salvage.** [`RecordLog::open`] keeps the longest valid prefix of
//!   frames. A frame torn in its length, payload or checksum, a flipped
//!   payload byte, or trailing garbage ends the prefix — everything before
//!   it survives, nothing after it is trusted.
//! * **Append.** [`RecordLog::append`] truncates any torn tail past the
//!   valid prefix, then issues one `write` per record (or per batch, via
//!   [`RecordLog::append_all`]) on a file handle kept open between calls.
//!   Each append reaches the OS before it returns.
//! * **Rotation.** [`RecordLog::rotate`] writes the whole new log to a
//!   sibling `<path>.tmp` and renames it into place, so a crash mid-rotation
//!   leaves the previous log intact (a stale temp file is ignored on open
//!   and overwritten by the next rotation).
//!
//! A file that does not start with the store's magic is handed back raw
//! ([`Contents::Foreign`]) so the store can read its legacy format, and is
//! replaced by the store's first rotation.

use std::fs::File;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Bytes of framing around each payload: length prefix plus checksum.
const FRAME_OVERHEAD: usize = 12;

/// FNV-1a-64 over a record payload — the per-record checksum that catches
/// torn or bit-rotted writes.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
    }
    h
}

/// `head` followed by one frame per payload.
fn framed<P: AsRef<[u8]>>(head: &[u8], payloads: impl IntoIterator<Item = P>) -> Vec<u8> {
    let mut buf = head.to_vec();
    for payload in payloads {
        let payload = payload.as_ref();
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(payload);
        buf.extend_from_slice(&fnv64(payload).to_le_bytes());
    }
    buf
}

/// The rotation temp file: the log path with `.tmp` appended.
pub(crate) fn temp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// What [`RecordLog::open`] found at the path.
#[derive(Debug, PartialEq)]
pub enum Contents {
    /// No file: the log starts empty.
    Missing,
    /// A framed log: the payloads of its longest valid prefix, and whether
    /// bytes past that prefix were dropped.
    Framed {
        /// Payloads of the valid prefix, in file order.
        records: Vec<Vec<u8>>,
        /// True if a torn or corrupt tail was cut off.
        torn: bool,
    },
    /// A file that does not start with the magic, returned raw for the
    /// store's legacy reader.
    Foreign(Vec<u8>),
}

/// An append-only, checksummed record log bound to one file.
#[derive(Debug)]
pub struct RecordLog {
    path: PathBuf,
    magic: [u8; 8],
    /// Append handle, opened on first write and kept across calls.
    file: Option<File>,
    /// Byte length of the valid framed prefix on disk; `None` while the
    /// path holds no framed log (missing or foreign file).
    valid_len: Option<u64>,
}

impl RecordLog {
    /// Opens the log at `path`, salvaging its longest valid prefix. Never
    /// fails: an unreadable file reads as missing.
    pub fn open(path: impl AsRef<Path>, magic: [u8; 8]) -> (RecordLog, Contents) {
        let path = path.as_ref().to_path_buf();
        let mut log = RecordLog {
            path,
            magic,
            file: None,
            valid_len: None,
        };
        let contents = match std::fs::read(&log.path) {
            Err(_) => Contents::Missing,
            Ok(bytes) if bytes.starts_with(&magic) => {
                let (records, valid_len) = salvage(&bytes, magic.len());
                log.valid_len = Some(valid_len as u64);
                Contents::Framed {
                    records,
                    torn: valid_len != bytes.len(),
                }
            }
            Ok(bytes) => Contents::Foreign(bytes),
        };
        (log, contents)
    }

    /// Deletes any file at `path` and returns an empty log bound to it.
    pub fn fresh(path: impl AsRef<Path>, magic: [u8; 8]) -> RecordLog {
        let _ = std::fs::remove_file(path.as_ref());
        RecordLog::open(path, magic).0
    }

    /// The backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record.
    pub fn append(&mut self, payload: &[u8]) -> std::io::Result<()> {
        self.append_all([payload])
    }

    /// Appends a batch of records in one write. A torn tail past the valid
    /// prefix is truncated first; a path holding no framed log (missing or
    /// foreign) is started afresh with the magic — stores that must keep a
    /// foreign file's contents [`RecordLog::rotate`] instead.
    pub fn append_all<P: AsRef<[u8]>>(
        &mut self,
        payloads: impl IntoIterator<Item = P>,
    ) -> std::io::Result<()> {
        let head: &[u8] = if self.valid_len.is_none() {
            &self.magic
        } else {
            &[]
        };
        let buf = framed(head, payloads);
        let base = self.valid_len.unwrap_or(0);
        if self.file.is_none() {
            if let Some(dir) = self.path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            let mut file = std::fs::OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(&self.path)?;
            file.set_len(base)?;
            file.seek(SeekFrom::Start(base))?;
            self.file = Some(file);
        }
        if buf.is_empty() {
            return Ok(());
        }
        let file = self.file.as_mut().expect("append handle opened above");
        if let Err(e) = file.write_all(&buf) {
            // The write may have landed partially: reopen (and truncate
            // back to the valid prefix) on the next append.
            self.file = None;
            return Err(e);
        }
        self.valid_len = Some(base + buf.len() as u64);
        Ok(())
    }

    /// Replaces the whole log with `payloads`: written to `<path>.tmp`,
    /// then renamed into place, so a crash at any point leaves either the
    /// old log or the new one. Appends continue on the new file.
    pub fn rotate<P: AsRef<[u8]>>(
        &mut self,
        payloads: impl IntoIterator<Item = P>,
    ) -> std::io::Result<()> {
        let buf = framed(&self.magic, payloads);
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let tmp = temp_path(&self.path);
        let mut file = File::create(&tmp)?;
        file.write_all(&buf)?;
        std::fs::rename(&tmp, &self.path)?;
        // The temp handle now names the renamed file, positioned at its end.
        self.file = Some(file);
        self.valid_len = Some(buf.len() as u64);
        Ok(())
    }
}

/// Walks the frames after the magic, returning the payloads of the longest
/// valid prefix and that prefix's byte length.
fn salvage(bytes: &[u8], start: usize) -> (Vec<Vec<u8>>, usize) {
    let mut records = Vec::new();
    let mut pos = start;
    while let Some(len_bytes) = bytes.get(pos..pos + 4) {
        let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
        let Some(sum_bytes) = bytes.get(pos + 4 + len..pos + FRAME_OVERHEAD + len) else {
            break;
        };
        let payload = &bytes[pos + 4..pos + 4 + len];
        if fnv64(payload) != u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes")) {
            break;
        }
        records.push(payload.to_vec());
        pos += FRAME_OVERHEAD + len;
    }
    (records, pos)
}

/// What [`open_journal`] replayed.
pub(crate) struct Replay<T> {
    /// Decoded records, in file order.
    pub records: Vec<T>,
    /// True if damage was detected (and skipped).
    pub recovered: bool,
    /// True if the file must be rewritten (not appended to) before it holds
    /// exactly `records` in the framed format: legacy JSONL, an
    /// unrecognizable file, or an undecodable record.
    pub rotate: bool,
}

/// Opens a journal log and decodes its payloads — the shared open path of
/// both journals. A file without `magic` that starts with the pre-framing
/// `{"version": 1}` header line replays as one payload per line through the
/// same `decode`; any other foreign file replays as empty and recovered.
pub(crate) fn open_journal<T>(
    path: impl AsRef<Path>,
    magic: [u8; 8],
    decode: impl Fn(&str) -> Option<T>,
) -> (RecordLog, Replay<T>) {
    let (log, contents) = RecordLog::open(path, magic);
    let (payloads, recovered, rotate) = match &contents {
        Contents::Missing => (Vec::new(), false, false),
        Contents::Framed { records, torn } => {
            (records.iter().map(Vec::as_slice).collect(), *torn, false)
        }
        Contents::Foreign(bytes) => match legacy_jsonl_lines(bytes) {
            Some(lines) => (lines, false, true),
            None => (Vec::new(), true, true),
        },
    };
    let mut replay = Replay {
        records: Vec::with_capacity(payloads.len()),
        recovered,
        rotate,
    };
    for payload in payloads {
        match std::str::from_utf8(payload).ok().and_then(&decode) {
            Some(record) => replay.records.push(record),
            None => {
                replay.recovered = true;
                replay.rotate = true;
            }
        }
    }
    (log, replay)
}

/// Splits a pre-framing JSONL journal into payload lines: `None` unless the
/// first line is the `{"version": 1}` header.
fn legacy_jsonl_lines(bytes: &[u8]) -> Option<Vec<&[u8]>> {
    let mut lines = bytes.split(|&b| b == b'\n');
    let header = std::str::from_utf8(lines.next()?).ok()?;
    let version = hpcadvisor_formats::json::parse(header)
        .ok()?
        .get("version")?
        .as_int()?;
    (version == 1).then(|| {
        lines
            .filter(|l| !l.iter().all(u8::is_ascii_whitespace))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 8] = *b"HPCATST1";

    fn tempfile(tag: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "hpcadvisor-record-log-{tag}-{}.log",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(temp_path(&path));
        path
    }

    fn payloads() -> Vec<Vec<u8>> {
        vec![
            b"alpha".to_vec(),
            b"{\"k\": 2}".to_vec(),
            b"gamma-3".to_vec(),
        ]
    }

    /// A log holding `payloads()`, written through the append path.
    fn written(tag: &str) -> (PathBuf, Vec<u8>) {
        let path = tempfile(tag);
        let (mut log, contents) = RecordLog::open(&path, MAGIC);
        assert_eq!(contents, Contents::Missing);
        for p in payloads() {
            log.append(&p).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        (path, bytes)
    }

    fn framed(path: &Path) -> (Vec<Vec<u8>>, bool) {
        match RecordLog::open(path, MAGIC).1 {
            Contents::Framed { records, torn } => (records, torn),
            other => panic!("expected a framed log, got {other:?}"),
        }
    }

    #[test]
    fn missing_file_opens_empty_and_first_append_creates_it() {
        let path = tempfile("missing");
        let (mut log, contents) = RecordLog::open(&path, MAGIC);
        assert_eq!(contents, Contents::Missing);
        assert!(!path.exists(), "opening never creates the file");
        log.append(b"one").unwrap();
        assert_eq!(framed(&path), (vec![b"one".to_vec()], false));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn appends_round_trip_with_the_documented_frame() {
        let (path, bytes) = written("frame");
        assert!(bytes.starts_with(&MAGIC));
        // [u32 LE len]["alpha"][u64 LE FNV-1a("alpha")] right after the magic.
        assert_eq!(&bytes[8..12], &5u32.to_le_bytes());
        assert_eq!(&bytes[12..17], b"alpha");
        assert_eq!(&bytes[17..25], &fnv64(b"alpha").to_le_bytes());
        assert_eq!(framed(&path), (payloads(), false));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wrong_magic_is_returned_raw() {
        let path = tempfile("magic");
        std::fs::write(&path, b"HPCAV001 not this store's log").unwrap();
        let (_, contents) = RecordLog::open(&path, MAGIC);
        assert_eq!(
            contents,
            Contents::Foreign(b"HPCAV001 not this store's log".to_vec())
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_records_keep_the_valid_prefix() {
        let (path, bytes) = written("torn");
        let last = bytes.len() - (FRAME_OVERHEAD + b"gamma-3".len());
        // Cut inside the last record's length, payload, and checksum.
        for (part, cut) in [
            ("length", last + 2),
            ("payload", last + 6),
            ("checksum", bytes.len() - 3),
        ] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let (records, torn) = framed(&path);
            assert_eq!(records, payloads()[..2].to_vec(), "{part}");
            assert!(torn, "{part}: the cut tail is flagged");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flipped_payload_byte_ends_the_prefix() {
        let (path, mut bytes) = written("flip");
        // Flip a byte inside the second payload: it and everything after
        // it are dropped, even though the third frame is intact.
        let second = 8 + FRAME_OVERHEAD + b"alpha".len() + 4;
        bytes[second] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let (records, torn) = framed(&path);
        assert_eq!(records, payloads()[..1].to_vec());
        assert!(torn);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trailing_garbage_is_dropped() {
        let (path, mut bytes) = written("garbage");
        bytes.extend_from_slice(b"\xff\xff\xff\xffjunk");
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(framed(&path), (payloads(), true));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_after_salvage_truncates_the_tail_and_loses_nothing() {
        let (path, bytes) = written("heal");
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (mut log, _) = RecordLog::open(&path, MAGIC);
        log.append(b"delta").unwrap();
        log.append_all([b"e", b"f"]).unwrap();
        let mut want = payloads()[..2].to_vec();
        want.extend([b"delta".to_vec(), b"e".to_vec(), b"f".to_vec()]);
        assert_eq!(framed(&path), (want, false));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_batch_still_heals_a_torn_tail() {
        let (path, bytes) = written("empty-batch");
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (mut log, _) = RecordLog::open(&path, MAGIC);
        log.append_all([b""; 0]).unwrap();
        assert_eq!(framed(&path), (payloads()[..2].to_vec(), false));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn leftover_rotation_temp_file_is_ignored_then_replaced() {
        let (path, bytes) = written("leftover");
        // A rotation that crashed before its rename: a half-written temp.
        std::fs::write(temp_path(&path), &bytes[..bytes.len() / 2]).unwrap();
        let (mut log, contents) = RecordLog::open(&path, MAGIC);
        assert_eq!(
            contents,
            Contents::Framed {
                records: payloads(),
                torn: false
            }
        );
        log.rotate([b"only"]).unwrap();
        assert!(!temp_path(&path).exists(), "rotation consumed the temp");
        log.append(b"after").unwrap();
        assert_eq!(
            framed(&path),
            (vec![b"only".to_vec(), b"after".to_vec()], false)
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rotation_replaces_a_foreign_file() {
        let path = tempfile("foreign-rotate");
        std::fs::write(&path, b"{\"version\": 1}\nlegacy\n").unwrap();
        let (mut log, contents) = RecordLog::open(&path, MAGIC);
        let Contents::Foreign(raw) = contents else {
            panic!("legacy file is foreign")
        };
        let lines = legacy_jsonl_lines(&raw).unwrap();
        log.rotate(lines).unwrap();
        assert_eq!(framed(&path), (vec![b"legacy".to_vec()], false));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fresh_discards_the_previous_file() {
        let (path, _) = written("fresh");
        let mut log = RecordLog::fresh(&path, MAGIC);
        assert!(!path.exists());
        log.append(b"new").unwrap();
        assert_eq!(framed(&path), (vec![b"new".to_vec()], false));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn legacy_lines_need_the_version_header() {
        assert_eq!(
            legacy_jsonl_lines(b"{\"version\": 1}\n{\"a\": 1}\n\n{\"b\": 2}"),
            Some(vec![b"{\"a\": 1}".as_slice(), b"{\"b\": 2}".as_slice()])
        );
        assert_eq!(legacy_jsonl_lines(b"{\"version\": 2}\n{\"a\": 1}\n"), None);
        assert_eq!(legacy_jsonl_lines(b"garbage\n"), None);
        assert_eq!(legacy_jsonl_lines(b""), None);
    }
}
