//! `seal-store` — content-addressed on-disk artifact cache, and the one
//! checksummed record format the workspace writes to disk.
//!
//! One store is one directory holding a single append-only binary file,
//! `seal-store.v1.bin`: the 16-byte [`HEADER`] (magic, format version, a
//! reserved zero word) followed by self-describing records
//!
//! ```text
//! [kind: u8][key: 16 bytes][payload len: u32 LE][fnv64 checksum: u64 LE][payload]
//! ```
//!
//! Keys are 128-bit content hashes ([`hash::ContentHash`]); the `kind`
//! byte namespaces artifact families (specs, detection shards, lowered
//! modules) so equal hashes in different families cannot alias. The layout
//! is mmap-friendly — fixed little-endian fields, records contiguous, the
//! in-memory image byte-identical to the file — though this dependency-free
//! build reads the file in one contiguous buffer instead of mapping it.
//!
//! The format is two plain functions: [`encode_record`] appends one record
//! and [`scan`] splits an image into its longest clean prefix of records.
//! [`Store`] is built on them, and so are the scale tier's spill files
//! (`seal_core::spill`), each a one-record image.
//!
//! **Corruption is data, not a fault**: `open` scans the file once and
//! keeps the longest valid prefix. A truncated tail, a flipped bit (caught
//! by the per-record checksum), or a wrong header simply drops the
//! unusable records, counts a `cache.invalidations`, and leaves a smaller
//! cache — never an error, never a panic. Writers buffer puts in memory
//! and [`Store::flush`] appends them (sorted, so the file bytes are
//! deterministic regardless of thread interleaving) after truncating any
//! corrupt tail.
//!
//! Reads and writes are safe from parallel workers: the scanned image and
//! index are immutable after `open`, puts go through a mutex, and the
//! hit/miss counters are atomics.

pub mod codec;
pub mod hash;

pub use codec::{CodecError, Dec, Enc};
pub use hash::{fnv64, ContentHash, Hasher128};

use std::collections::HashMap;
use std::fmt;
use std::io::{Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Store file name inside the cache directory.
pub const STORE_FILE: &str = "seal-store.v1.bin";

/// The 16-byte file header: the `SEALSTOR` magic, the format version as a
/// little-endian `u32` (1), and a reserved `u32` that must be 0. Bump the
/// version on any layout or record-encoding change: [`scan`] compares all
/// 16 bytes, so an old file under a new binary, like a damaged header, is
/// dropped wholesale (one invalidation).
pub const HEADER: [u8; 16] = *b"SEALSTOR\x01\0\0\0\0\0\0\0";
/// Bytes in front of each record's payload: kind, key, length, checksum.
pub const RECORD_HEADER_LEN: usize = 1 + 16 + 4 + 8;

/// Appends one record — `[kind][key][len][fnv64][payload]` — to `out`.
pub fn encode_record(out: &mut Vec<u8>, kind: u8, key: &ContentHash, payload: &[u8]) {
    out.push(kind);
    out.extend_from_slice(key.as_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv64(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// One record of a scanned image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Artifact family.
    pub kind: u8,
    /// Content address.
    pub key: ContentHash,
    /// Where the payload sits in the scanned bytes.
    pub payload: Range<usize>,
}

/// What [`scan`] found in an image.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Scan {
    /// The records of the clean prefix, in file order.
    pub records: Vec<Record>,
    /// Length of the clean prefix: the header plus every whole record
    /// whose checksum matched. 0 when the header is unusable.
    pub clean_len: usize,
    /// 1 when anything past the clean prefix was dropped (unusable
    /// header, torn or corrupt record), else 0.
    pub invalidations: u64,
}

/// Splits a store image into its longest clean prefix of records. Empty
/// bytes are a fresh image: no records and no invalidation. The scan
/// stops at the first torn record or checksum mismatch — a flipped bit
/// could as easily have hit that record's length field and desynced
/// everything after it, and records are append-ordered, so the tail is no
/// longer trustworthy.
pub fn scan(bytes: &[u8]) -> Scan {
    let mut out = Scan::default();
    if bytes.is_empty() {
        return out;
    }
    if bytes.len() < HEADER.len() || bytes[..HEADER.len()] != HEADER {
        out.invalidations = 1;
        return out;
    }
    let mut pos = HEADER.len();
    while pos < bytes.len() {
        if bytes.len() - pos < RECORD_HEADER_LEN {
            out.invalidations = 1;
            break;
        }
        let field = |at: usize, n: usize| &bytes[pos + at..pos + at + n];
        let kind = bytes[pos];
        let key = ContentHash(field(1, 16).try_into().expect("16-byte key"));
        let len = u32::from_le_bytes(field(17, 4).try_into().expect("4-byte length")) as usize;
        let sum = u64::from_le_bytes(field(21, 8).try_into().expect("8-byte checksum"));
        let payload = pos + RECORD_HEADER_LEN..pos + RECORD_HEADER_LEN + len;
        if payload.end > bytes.len() || fnv64(&bytes[payload.clone()]) != sum {
            out.invalidations = 1;
            break;
        }
        pos = payload.end;
        out.records.push(Record { kind, key, payload });
    }
    out.clean_len = pos;
    out
}

/// How a run uses the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// No cache at all (the store is inert).
    Off,
    /// Serve hits, never write (`ro`).
    ReadOnly,
    /// Serve hits and persist new artifacts (`rw`).
    ReadWrite,
}

impl CacheMode {
    /// Parses the CLI/env spelling (`off`, `ro`, `rw`).
    pub fn parse(s: &str) -> Option<CacheMode> {
        match s {
            "off" => Some(CacheMode::Off),
            "ro" => Some(CacheMode::ReadOnly),
            "rw" => Some(CacheMode::ReadWrite),
            _ => None,
        }
    }

    /// Whether lookups are served.
    pub fn reads(&self) -> bool {
        !matches!(self, CacheMode::Off)
    }

    /// Whether puts are persisted.
    pub fn writes(&self) -> bool {
        matches!(self, CacheMode::ReadWrite)
    }
}

impl fmt::Display for CacheMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CacheMode::Off => "off",
            CacheMode::ReadOnly => "ro",
            CacheMode::ReadWrite => "rw",
        })
    }
}

/// A store-level I/O failure (unreadable directory, failed append). Cache
/// *content* problems never surface here — they degrade to misses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreError {
    /// The path involved.
    pub path: String,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cache store {}: {}", self.path, self.message)
    }
}

impl std::error::Error for StoreError {}

/// Counters for one store lifetime (mirrored into the obs metrics registry
/// as `cache.hits` / `cache.misses` / `cache.bytes_read` /
/// `cache.invalidations`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Payload bytes served by hits.
    pub bytes_read: u64,
    /// Records dropped as unusable (corrupt tail, bad checksum, version
    /// mismatch, undecodable payload reported by the caller).
    pub invalidations: u64,
    /// Valid records loaded from disk at open.
    pub disk_entries: u64,
    /// Puts buffered but not yet flushed.
    pub pending_puts: u64,
}

impl StoreStats {
    /// Hit rate over all lookups (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// In-memory overlay of puts, keyed like the on-disk index.
type PayloadMap = HashMap<(u8, ContentHash), Arc<Vec<u8>>>;

/// The content-addressed artifact store. Cheap to share behind an [`Arc`];
/// all methods take `&self`.
pub struct Store {
    mode: CacheMode,
    path: Option<PathBuf>,
    /// Validated byte image of the file (header included).
    data: Vec<u8>,
    /// Length of the valid prefix on disk; anything past it is corrupt and
    /// will be truncated away by the next flush. Atomic because
    /// [`Store::flush_atomic`] rewrites the file wholesale and must move
    /// this watermark without exclusive access to the store.
    valid_len: AtomicU64,
    /// `(kind, key)` → payload range in `data`. Later records win, so
    /// re-putting a key is an update.
    index: HashMap<(u8, ContentHash), Range<usize>>,
    /// Puts not yet on disk.
    pending: Mutex<PayloadMap>,
    /// Puts flushed during this lifetime (still served from memory).
    written: Mutex<PayloadMap>,
    /// Serializes [`Store::flush`] and [`Store::flush_atomic`] against each
    /// other. Both mutate the file *and* the `valid_len` watermark as one
    /// logical step; interleaving them could append behind a watermark the
    /// atomic rewrite is about to move. Taken before `pending`/`written` —
    /// never the other way around — so it adds no deadlock edge.
    flush_lock: Mutex<()>,
    hits: AtomicU64,
    misses: AtomicU64,
    bytes_read: AtomicU64,
    invalidations: AtomicU64,
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("mode", &self.mode)
            .field("path", &self.path)
            .field("disk_entries", &self.index.len())
            .finish()
    }
}

impl Store {
    /// An inert store: every lookup misses, every put is dropped.
    pub fn disabled() -> Store {
        Store {
            mode: CacheMode::Off,
            path: None,
            data: Vec::new(),
            valid_len: AtomicU64::new(0),
            index: HashMap::new(),
            pending: Mutex::new(HashMap::new()),
            written: Mutex::new(HashMap::new()),
            flush_lock: Mutex::new(()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Opens (or initializes) the store under `dir`.
    ///
    /// `ReadWrite` creates the directory; `ReadOnly` treats a missing
    /// directory or file as an empty cache. A present-but-corrupt file is
    /// *never* an error: the valid prefix is kept, the rest is counted as
    /// invalidations and dropped.
    pub fn open(dir: &Path, mode: CacheMode) -> Result<Store, StoreError> {
        if !mode.reads() {
            return Ok(Store::disabled());
        }
        if mode.writes() {
            std::fs::create_dir_all(dir).map_err(|e| StoreError {
                path: dir.display().to_string(),
                message: format!("cannot create cache directory: {e}"),
            })?;
        }
        let path = dir.join(STORE_FILE);
        let mut store = Store::disabled();
        store.mode = mode;
        store.path = Some(path.clone());
        // Missing file: an empty cache. Any other read failure (perm
        // denied, I/O error) also degrades to empty — a cache must
        // never turn a readable workload into a failure.
        let mut raw = std::fs::read(&path).unwrap_or_default();
        let found = scan(&raw);
        for r in found.records {
            store.index.insert((r.kind, r.key), r.payload);
        }
        raw.truncate(found.clean_len);
        store.data = raw;
        store.valid_len = AtomicU64::new(found.clean_len as u64);
        if found.invalidations > 0 {
            store.invalidations = AtomicU64::new(found.invalidations);
            seal_obs::metrics::counter_add("cache.invalidations", found.invalidations);
        }
        Ok(store)
    }

    /// The mode this store was opened with.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// Whether lookups can ever hit (i.e. the mode is not `Off`).
    pub fn is_enabled(&self) -> bool {
        self.mode.reads()
    }

    /// Looks up one artifact. Counts a hit or a miss (and `bytes_read` on
    /// hits) both locally and in the obs metrics registry.
    pub fn get(&self, kind: u8, key: &ContentHash) -> Option<Vec<u8>> {
        if !self.mode.reads() {
            return None;
        }
        let k = (kind, *key);
        let found: Option<Vec<u8>> = {
            let pending = self.pending.lock().unwrap();
            if let Some(p) = pending.get(&k) {
                Some(p.as_ref().clone())
            } else {
                drop(pending);
                let written = self.written.lock().unwrap();
                if let Some(p) = written.get(&k) {
                    Some(p.as_ref().clone())
                } else {
                    drop(written);
                    self.index
                        .get(&k)
                        .map(|payload| self.data[payload.clone()].to_vec())
                }
            }
        };
        match found {
            Some(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.bytes_read
                    .fetch_add(payload.len() as u64, Ordering::Relaxed);
                seal_obs::metrics::counter_add("cache.hits", 1);
                seal_obs::metrics::counter_add("cache.bytes_read", payload.len() as u64);
                Some(payload)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                seal_obs::metrics::counter_add("cache.misses", 1);
                None
            }
        }
    }

    /// Buffers one artifact for the next [`Store::flush`]. A no-op unless
    /// the mode writes. Immediately visible to subsequent `get`s.
    pub fn put(&self, kind: u8, key: ContentHash, payload: Vec<u8>) {
        if !self.mode.writes() {
            return;
        }
        self.pending
            .lock()
            .unwrap()
            .insert((kind, key), Arc::new(payload));
    }

    /// Records that a cached artifact existed but could not be used (its
    /// payload failed to decode). The caller falls back to recomputing.
    pub fn note_invalidation(&self) {
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        seal_obs::metrics::counter_add("cache.invalidations", 1);
    }

    /// Appends all pending puts to the store file, truncating any corrupt
    /// tail first. Entries are written sorted by `(kind, key)`, so the
    /// resulting bytes are independent of put order (and thread count).
    pub fn flush(&self) -> Result<(), StoreError> {
        if !self.mode.writes() {
            return Ok(());
        }
        let Some(path) = &self.path else {
            return Ok(());
        };
        let _flush = self.flush_lock.lock().unwrap();
        let mut pending = self.pending.lock().unwrap();
        if pending.is_empty() {
            return Ok(());
        }
        let mut entries: Vec<_> = pending.drain().collect();
        entries.sort_by_key(|&((kind, key), _): &((u8, ContentHash), _)| (kind, key));

        // A fresh file (or one whose header was unusable) is rewritten
        // whole; otherwise the records are appended to the clean prefix.
        let valid_len = self.valid_len.load(Ordering::Acquire);
        let fresh = valid_len < HEADER.len() as u64;
        let mut bytes = if fresh { HEADER.to_vec() } else { Vec::new() };
        for ((kind, key), payload) in &entries {
            encode_record(&mut bytes, *kind, key, payload);
        }

        let io_err = |e: std::io::Error| StoreError {
            path: path.display().to_string(),
            message: format!("cannot write store file: {e}"),
        };
        if fresh {
            let new_len = bytes.len() as u64;
            std::fs::write(path, bytes).map_err(io_err)?;
            self.valid_len.store(new_len, Ordering::Release);
        } else {
            let mut f = std::fs::OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(io_err)?;
            // Drop the corrupt tail (if any) before appending.
            f.set_len(valid_len).map_err(io_err)?;
            f.seek(SeekFrom::Start(valid_len)).map_err(io_err)?;
            f.write_all(&bytes).map_err(io_err)?;
            self.valid_len
                .store(valid_len + bytes.len() as u64, Ordering::Release);
        }

        let mut written = self.written.lock().unwrap();
        for (k, payload) in entries {
            written.insert(k, payload);
        }
        Ok(())
    }

    /// Rewrites the *entire* store — on-disk records, previously flushed
    /// puts, and everything pending — into a fresh file image and installs
    /// it with a temp-file + `rename`, so a crash mid-write leaves either
    /// the old complete file or the new complete file, never a torn one.
    /// Records are sorted by `(kind, key)` with later puts winning, so the
    /// resulting bytes are deterministic. This is the daemon's shutdown
    /// path (`seal serve` on EOF or `{"cmd":"shutdown"}`); the incremental
    /// [`Store::flush`] remains the cheap per-command path.
    pub fn flush_atomic(&self) -> Result<(), StoreError> {
        if !self.mode.writes() {
            return Ok(());
        }
        let Some(path) = &self.path else {
            return Ok(());
        };
        let io_err = |e: std::io::Error| StoreError {
            path: path.display().to_string(),
            message: format!("cannot write store file: {e}"),
        };
        // The flush lock serializes this whole rewrite against any
        // concurrent `flush`/`flush_atomic`, which would otherwise race
        // on the file and the `valid_len` watermark.
        let _flush = self.flush_lock.lock().unwrap();
        let mut pending = self.pending.lock().unwrap();
        let mut merged: HashMap<(u8, ContentHash), Vec<u8>> = HashMap::new();
        for (&k, payload) in &self.index {
            merged.insert(k, self.data[payload.clone()].to_vec());
        }
        {
            let written = self.written.lock().unwrap();
            for (k, payload) in written.iter() {
                merged.insert(*k, payload.as_ref().clone());
            }
        }
        let drained: Vec<_> = pending.drain().collect();
        for (k, payload) in &drained {
            merged.insert(*k, payload.as_ref().clone());
        }
        let mut entries: Vec<_> = merged.into_iter().collect();
        entries.sort_by_key(|&((kind, key), _)| (kind, key));

        let mut bytes = HEADER.to_vec();
        for ((kind, key), payload) in &entries {
            encode_record(&mut bytes, *kind, key, payload);
        }
        let new_len = bytes.len() as u64;
        let tmp = path.with_extension("bin.tmp");
        std::fs::write(&tmp, &bytes).map_err(io_err)?;
        std::fs::rename(&tmp, path).map_err(io_err)?;
        // The in-memory index still points into the old image (same
        // payloads, possibly different file offsets); only the watermark
        // moves, so a later incremental flush appends at the right place.
        self.valid_len.store(new_len, Ordering::Release);

        let mut written = self.written.lock().unwrap();
        for (k, payload) in drained {
            written.insert(k, payload);
        }
        Ok(())
    }

    /// Counter snapshot for this store lifetime.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            disk_entries: self.index.len() as u64,
            pending_puts: self.pending.lock().unwrap().len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("seal-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn key(b: u8) -> ContentHash {
        ContentHash([b; 16])
    }

    #[test]
    fn put_flush_reopen_get_round_trips() {
        let dir = tmpdir("roundtrip");
        let s = Store::open(&dir, CacheMode::ReadWrite).unwrap();
        s.put(1, key(1), b"alpha".to_vec());
        s.put(2, key(1), b"beta".to_vec()); // same key, different kind
                                            // Visible before flush.
        assert_eq!(s.get(1, &key(1)).unwrap(), b"alpha");
        s.flush().unwrap();
        // And still after flush (served from the written map).
        assert_eq!(s.get(2, &key(1)).unwrap(), b"beta");

        let s2 = Store::open(&dir, CacheMode::ReadOnly).unwrap();
        assert_eq!(s2.get(1, &key(1)).unwrap(), b"alpha");
        assert_eq!(s2.get(2, &key(1)).unwrap(), b"beta");
        assert!(s2.get(1, &key(9)).is_none());
        let st = s2.stats();
        assert_eq!((st.hits, st.misses, st.disk_entries), (2, 1, 2));
        assert_eq!(st.bytes_read, 9);
        assert!((st.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn re_put_same_key_updates_on_reopen() {
        let dir = tmpdir("update");
        let s = Store::open(&dir, CacheMode::ReadWrite).unwrap();
        s.put(1, key(1), b"old".to_vec());
        s.flush().unwrap();
        let s = Store::open(&dir, CacheMode::ReadWrite).unwrap();
        s.put(1, key(1), b"new".to_vec());
        s.flush().unwrap();
        let s = Store::open(&dir, CacheMode::ReadOnly).unwrap();
        assert_eq!(s.get(1, &key(1)).unwrap(), b"new");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_keeps_valid_prefix() {
        let dir = tmpdir("truncate");
        let s = Store::open(&dir, CacheMode::ReadWrite).unwrap();
        s.put(1, key(1), b"first-record".to_vec());
        s.put(1, key(2), b"second-record".to_vec());
        s.flush().unwrap();
        let file = dir.join(STORE_FILE);
        let bytes = std::fs::read(&file).unwrap();
        // Chop mid-way through the last record's payload.
        std::fs::write(&file, &bytes[..bytes.len() - 5]).unwrap();

        let s = Store::open(&dir, CacheMode::ReadOnly).unwrap();
        let st = s.stats();
        assert_eq!(st.invalidations, 1);
        assert_eq!(st.disk_entries, 1);
        assert!(s.get(1, &key(1)).is_some());
        assert!(s.get(1, &key(2)).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_drops_the_poisoned_tail_without_panicking() {
        let dir = tmpdir("bitflip");
        let s = Store::open(&dir, CacheMode::ReadWrite).unwrap();
        s.put(1, key(1), b"aaaaaaaaaaaaaaaa".to_vec());
        s.put(1, key(2), b"bbbbbbbbbbbbbbbb".to_vec());
        s.flush().unwrap();
        let file = dir.join(STORE_FILE);
        let mut bytes = std::fs::read(&file).unwrap();
        // Flip a bit in every position in turn; open must never panic, and
        // any payload it still serves for our keys must be the exact bytes
        // originally stored under them (the checksum + key address make a
        // silently-altered payload impossible).
        let expect: [(&ContentHash, &[u8]); 2] = [
            (&key(1), b"aaaaaaaaaaaaaaaa"),
            (&key(2), b"bbbbbbbbbbbbbbbb"),
        ];
        for pos in 0..bytes.len() {
            bytes[pos] ^= 0x10;
            std::fs::write(&file, &bytes).unwrap();
            let s = Store::open(&dir, CacheMode::ReadOnly).unwrap();
            for (k, want) in expect {
                if let Some(p) = s.get(1, k) {
                    assert_eq!(p, want, "flip at byte {pos} altered a served payload");
                }
            }
            bytes[pos] ^= 0x10;
        }
        std::fs::write(&file, &bytes).unwrap();
        let s = Store::open(&dir, CacheMode::ReadOnly).unwrap();
        assert_eq!(s.stats().disk_entries, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Interleave incremental and atomic flushes (plus puts) from several
    /// threads. The flush lock must keep every append behind a consistent
    /// `valid_len` watermark, so the final file reopens cleanly — zero
    /// invalidations — with every payload byte-exact.
    #[test]
    fn concurrent_flush_and_flush_atomic_leave_a_clean_reloadable_file() {
        let dir = tmpdir("concflush");
        let s = std::sync::Arc::new(Store::open(&dir, CacheMode::ReadWrite).unwrap());
        let threads = 8;
        let rounds = 25usize;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let s = std::sync::Arc::clone(&s);
                scope.spawn(move || {
                    for i in 0..rounds {
                        let b = ((t * rounds + i) % 251) as u8;
                        s.put(1, key(b), vec![b; 16 + b as usize]);
                        if (t + i) % 3 == 0 {
                            s.flush_atomic().unwrap();
                        } else {
                            s.flush().unwrap();
                        }
                    }
                });
            }
        });
        s.flush_atomic().unwrap();

        let s2 = Store::open(&dir, CacheMode::ReadOnly).unwrap();
        let st = s2.stats();
        assert_eq!(st.invalidations, 0, "interleaved flushes tore the file");
        for t in 0..threads {
            for i in 0..rounds {
                let b = ((t * rounds + i) % 251) as u8;
                assert_eq!(s2.get(1, &key(b)).unwrap(), vec![b; 16 + b as usize]);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_version_is_one_invalidation_and_an_empty_cache() {
        let dir = tmpdir("version");
        let s = Store::open(&dir, CacheMode::ReadWrite).unwrap();
        s.put(1, key(1), b"payload".to_vec());
        s.flush().unwrap();
        let file = dir.join(STORE_FILE);
        let clean = std::fs::read(&file).unwrap();
        // The version field, then the reserved word that must stay 0.
        for at in [8, 12] {
            let mut bytes = clean.clone();
            bytes[at] ^= 0xFF;
            std::fs::write(&file, &bytes).unwrap();
            let s = Store::open(&dir, CacheMode::ReadOnly).unwrap();
            assert_eq!(s.stats().invalidations, 1, "header byte {at}");
            assert_eq!(s.stats().disk_entries, 0, "header byte {at}");
            assert!(s.get(1, &key(1)).is_none(), "header byte {at}");
        }

        let s = Store::open(&dir, CacheMode::ReadWrite).unwrap();
        assert_eq!(s.stats().invalidations, 1);
        // A flush after the wipe rewrites a clean file.
        s.put(1, key(3), b"fresh".to_vec());
        s.flush().unwrap();
        let s = Store::open(&dir, CacheMode::ReadOnly).unwrap();
        assert_eq!(s.stats().invalidations, 0);
        assert_eq!(s.get(1, &key(3)).unwrap(), b"fresh");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_only_never_writes_and_off_is_inert() {
        let dir = tmpdir("modes");
        let ro = Store::open(&dir, CacheMode::ReadOnly).unwrap();
        ro.put(1, key(1), b"x".to_vec());
        ro.flush().unwrap();
        assert!(!dir.join(STORE_FILE).exists());

        let off = Store::open(&dir, CacheMode::Off).unwrap();
        off.put(1, key(1), b"x".to_vec());
        assert!(off.get(1, &key(1)).is_none());
        assert_eq!(off.stats(), StoreStats::default());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_is_idempotent_and_deterministic() {
        let dir = tmpdir("idem");
        let s = Store::open(&dir, CacheMode::ReadWrite).unwrap();
        s.put(3, key(9), b"z".to_vec());
        s.put(1, key(1), b"a".to_vec());
        s.flush().unwrap();
        let once = std::fs::read(dir.join(STORE_FILE)).unwrap();
        s.flush().unwrap(); // nothing pending: must not duplicate records
        let twice = std::fs::read(dir.join(STORE_FILE)).unwrap();
        assert_eq!(once, twice);

        // Same puts in the opposite order produce the same bytes.
        let dir2 = tmpdir("idem2");
        let s2 = Store::open(&dir2, CacheMode::ReadWrite).unwrap();
        s2.put(1, key(1), b"a".to_vec());
        s2.put(3, key(9), b"z".to_vec());
        s2.flush().unwrap();
        assert_eq!(once, std::fs::read(dir2.join(STORE_FILE)).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn flush_atomic_round_trips_and_composes_with_flush() {
        let dir = tmpdir("atomic");
        let s = Store::open(&dir, CacheMode::ReadWrite).unwrap();
        s.put(1, key(1), b"alpha".to_vec());
        s.flush().unwrap(); // one incremental append first
        s.put(1, key(2), b"beta".to_vec());
        s.flush_atomic().unwrap();
        // No temp file left behind; both records survive a reopen.
        assert!(!dir.join("seal-store.v1.bin.tmp").exists());
        let s2 = Store::open(&dir, CacheMode::ReadOnly).unwrap();
        assert_eq!(s2.stats().invalidations, 0);
        assert_eq!(s2.get(1, &key(1)).unwrap(), b"alpha");
        assert_eq!(s2.get(1, &key(2)).unwrap(), b"beta");

        // An incremental flush *after* the rewrite must append past the
        // new image, not truncate it back to the pre-rewrite watermark.
        s.put(1, key(3), b"gamma".to_vec());
        s.flush().unwrap();
        let s3 = Store::open(&dir, CacheMode::ReadOnly).unwrap();
        assert_eq!(s3.stats().invalidations, 0);
        assert_eq!(s3.stats().disk_entries, 3);
        assert_eq!(s3.get(1, &key(3)).unwrap(), b"gamma");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_atomic_is_deterministic_and_idempotent() {
        let dir = tmpdir("atomic-det");
        let s = Store::open(&dir, CacheMode::ReadWrite).unwrap();
        s.put(3, key(9), b"z".to_vec());
        s.put(1, key(1), b"a".to_vec());
        s.flush_atomic().unwrap();
        let once = std::fs::read(dir.join(STORE_FILE)).unwrap();
        s.flush_atomic().unwrap(); // nothing new: byte-identical image
        assert_eq!(once, std::fs::read(dir.join(STORE_FILE)).unwrap());

        let dir2 = tmpdir("atomic-det2");
        let s2 = Store::open(&dir2, CacheMode::ReadWrite).unwrap();
        s2.put(1, key(1), b"a".to_vec());
        s2.put(3, key(9), b"z".to_vec());
        s2.flush_atomic().unwrap();
        assert_eq!(once, std::fs::read(dir2.join(STORE_FILE)).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn two_incremental_flushes_keep_earlier_appends() {
        let dir = tmpdir("twoflush");
        let s = Store::open(&dir, CacheMode::ReadWrite).unwrap();
        s.put(1, key(1), b"first".to_vec());
        s.flush().unwrap();
        s.put(1, key(2), b"second".to_vec());
        s.flush().unwrap();
        let s2 = Store::open(&dir, CacheMode::ReadOnly).unwrap();
        assert_eq!(s2.stats().disk_entries, 2);
        assert_eq!(s2.get(1, &key(1)).unwrap(), b"first");
        assert_eq!(s2.get(1, &key(2)).unwrap(), b"second");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_mode_parsing() {
        assert_eq!(CacheMode::parse("off"), Some(CacheMode::Off));
        assert_eq!(CacheMode::parse("ro"), Some(CacheMode::ReadOnly));
        assert_eq!(CacheMode::parse("rw"), Some(CacheMode::ReadWrite));
        assert_eq!(CacheMode::parse("RW"), None);
        assert_eq!(CacheMode::parse(""), None);
        assert_eq!(CacheMode::ReadWrite.to_string(), "rw");
    }
}
