//! Disk spill for the bounded-memory scale tier.
//!
//! When the working set of a scaled run approaches a `--max-rss-mb`
//! budget, per-shard inputs — compiled target chunks (the modules PDGs
//! are built from) and inferred specification sets — are serialized with
//! the PR-7 binary codecs ([`seal_ir::codec`], [`seal_spec::binary`]) to
//! files in a spill directory and dropped from memory, then reloaded
//! *sequentially* during detection so at most one chunk is resident at a
//! time.
//!
//! A spill file is a one-record `seal-store` image: the store's header,
//! then one record ([`seal_store::encode_record`]) whose `kind` says
//! whether it holds a module, a spec set or raw bytes, and whose key is
//! the hash of the file's name. A read accepts the file only when
//! [`seal_store::scan`] finds exactly that record — one clean record, no
//! invalidation, the expected `(kind, key)` and the handle's payload
//! length. Anything else — truncation, bit flips, garbage, a file swapped
//! in from another handle — surfaces as a typed [`SealError::Store`] so
//! the caller can degrade to recomputing the chunk from its seed instead
//! of trusting bad bytes (never a panic, and never silently wrong
//! reports).
//!
//! `SpillDir` is not a [`seal_store::Store`]: a store keeps every flushed
//! payload in memory for its whole lifetime, so spilled chunks would stay
//! resident and the spill would stop bounding RSS. Each payload gets its
//! own file, read back once.
//!
//! Session counters are mirrored into the metrics registry as
//! `spill.writes` / `spill.reads` / `spill.bytes_written` /
//! `spill.bytes_read` (nondeterministic class: whether a budget trips
//! depends on host RSS, not on the input).

use crate::error::SealError;
use seal_ir::Module;
use seal_spec::Specification;
use seal_store::ContentHash;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Record kind of a payload written with [`SpillDir::write`].
const KIND_BYTES: u8 = 0;
/// Record kind of a spilled module.
const KIND_MODULE: u8 = 1;
/// Record kind of a spilled specification set.
const KIND_SPECS: u8 = 2;

/// Fraction of the RSS budget at which spilling engages: leaving headroom
/// means the budget caps the peak instead of chasing it.
const SPILL_HEADROOM_PCT: u64 = 80;

fn store_err(path: &Path, message: impl Into<String>) -> SealError {
    SealError::Store(seal_store::StoreError {
        path: path.display().to_string(),
        message: message.into(),
    })
}

/// Current resident set size in KiB (`VmRSS` from `/proc/self/status`),
/// or `None` when the platform has no procfs.
pub fn rss_now_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// An RSS budget that decides *when* to spill.
///
/// `None` never spills; `Some(0)` always spills (the pure-streaming
/// discipline, and the deterministic setting for tests and benches);
/// `Some(mb)` spills once `VmRSS` crosses `SPILL_HEADROOM_PCT`% of the
/// budget — and keeps spilling while it stays there. On platforms without
/// procfs a finite budget conservatively spills (bounded memory is the
/// contract; slower is acceptable, unbounded is not).
#[derive(Debug, Clone, Copy)]
pub struct SpillBudget {
    max_rss_kb: Option<u64>,
}

impl SpillBudget {
    /// A budget from a `--max-rss-mb` style knob.
    pub fn from_mb(mb: Option<u64>) -> SpillBudget {
        SpillBudget {
            max_rss_kb: mb.map(|m| m * 1024),
        }
    }

    /// A budget that never spills.
    pub fn unlimited() -> SpillBudget {
        SpillBudget { max_rss_kb: None }
    }

    /// Whether a finite budget was configured.
    pub fn is_bounded(&self) -> bool {
        self.max_rss_kb.is_some()
    }

    /// Whether the next sizable allocation should go to disk instead.
    pub fn should_spill(&self) -> bool {
        match self.max_rss_kb {
            None => false,
            Some(0) => true,
            Some(kb) => match rss_now_kb() {
                Some(now) => now * 100 >= kb * SPILL_HEADROOM_PCT,
                None => true,
            },
        }
    }
}

/// Handle to one spilled payload.
#[derive(Debug, Clone)]
pub struct SpillHandle {
    path: PathBuf,
    /// The record's key: the hash of the file name.
    key: ContentHash,
    /// Payload bytes (excluding the headers).
    bytes: u64,
}

impl SpillHandle {
    /// The spill file's path (tests corrupt it through this).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Session counters for one spill directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Payloads written.
    pub writes: u64,
    /// Payloads read back successfully.
    pub reads: u64,
    /// Payload bytes written.
    pub bytes_written: u64,
    /// Payload bytes read back.
    pub bytes_read: u64,
}

/// A directory of one-record store images.
///
/// Thread-safe for reads; writes take `&mut self` (the scale pipeline
/// spills from its sequential fold, so this costs nothing).
#[derive(Debug)]
pub struct SpillDir {
    dir: PathBuf,
    seq: u64,
    writes: AtomicU64,
    reads: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
}

impl SpillDir {
    /// Creates (or reuses) `dir` as a spill directory.
    pub fn create(dir: &Path) -> Result<SpillDir, SealError> {
        std::fs::create_dir_all(dir).map_err(|e| store_err(dir, format!("create: {e}")))?;
        Ok(SpillDir {
            dir: dir.to_path_buf(),
            seq: 0,
            writes: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
        })
    }

    /// The directory spill files live in.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Counters so far.
    pub fn stats(&self) -> SpillStats {
        SpillStats {
            writes: self.writes.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
        }
    }

    /// Writes one raw payload; `label` becomes part of the file name.
    pub fn write(&mut self, label: &str, payload: &[u8]) -> Result<SpillHandle, SealError> {
        self.write_record(KIND_BYTES, label, payload)
    }

    /// Reads a raw payload back.
    pub fn read(&self, h: &SpillHandle) -> Result<Vec<u8>, SealError> {
        self.read_record(h, KIND_BYTES, |payload| Ok(payload.to_vec()))
    }

    /// Spills a compiled module (a detection shard's PDG input).
    pub fn spill_module(&mut self, label: &str, m: &Module) -> Result<SpillHandle, SealError> {
        self.write_record(KIND_MODULE, label, &seal_ir::codec::encode_module(m))
    }

    /// Loads a spilled module; decode failures are store errors too (the
    /// bytes passed the checksum but do not parse — same degradation path
    /// as a failed checksum).
    pub fn load_module(&self, h: &SpillHandle) -> Result<Module, SealError> {
        self.read_record(h, KIND_MODULE, |payload| {
            seal_ir::codec::decode_module(payload).map_err(|e| format!("module decode: {e:?}"))
        })
    }

    /// Spills a specification set.
    pub fn spill_specs(
        &mut self,
        label: &str,
        specs: &[Specification],
    ) -> Result<SpillHandle, SealError> {
        self.write_record(KIND_SPECS, label, &seal_spec::binary::encode_specs(specs))
    }

    /// Loads a spilled specification set.
    pub fn load_specs(&self, h: &SpillHandle) -> Result<Vec<Specification>, SealError> {
        self.read_record(h, KIND_SPECS, |payload| {
            seal_spec::binary::decode_specs(payload).map_err(|e| format!("specs decode: {e:?}"))
        })
    }

    /// Writes `payload` as the one record of a fresh spill file.
    fn write_record(
        &mut self,
        kind: u8,
        label: &str,
        payload: &[u8],
    ) -> Result<SpillHandle, SealError> {
        let name = format!("{:06}-{label}.spill", self.seq);
        self.seq += 1;
        let key = ContentHash::of(name.as_bytes());
        let path = self.dir.join(name);
        let mut image = Vec::with_capacity(
            seal_store::HEADER.len() + seal_store::RECORD_HEADER_LEN + payload.len(),
        );
        image.extend_from_slice(&seal_store::HEADER);
        seal_store::encode_record(&mut image, kind, &key, payload);
        std::fs::write(&path, &image).map_err(|e| store_err(&path, format!("write: {e}")))?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        seal_obs::metrics::counter_add_nd("spill.writes", 1);
        seal_obs::metrics::counter_add_nd("spill.bytes_written", payload.len() as u64);
        Ok(SpillHandle {
            path,
            key,
            bytes: payload.len() as u64,
        })
    }

    /// Reads `h`'s file, checks that it is exactly the record `h` wrote
    /// with `kind`, and decodes the payload in place.
    fn read_record<T>(
        &self,
        h: &SpillHandle,
        kind: u8,
        decode: impl FnOnce(&[u8]) -> Result<T, String>,
    ) -> Result<T, SealError> {
        let image = std::fs::read(&h.path).map_err(|e| store_err(&h.path, format!("read: {e}")))?;
        let found = seal_store::scan(&image);
        let payload = match found.records.as_slice() {
            [r] if found.invalidations == 0
                && (r.kind, r.key) == (kind, h.key)
                && r.payload.len() as u64 == h.bytes =>
            {
                &image[r.payload.clone()]
            }
            _ => {
                return Err(store_err(
                    &h.path,
                    "damaged, or not this handle's spill file",
                ))
            }
        };
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        seal_obs::metrics::counter_add_nd("spill.reads", 1);
        seal_obs::metrics::counter_add_nd("spill.bytes_read", payload.len() as u64);
        decode(payload).map_err(|e| store_err(&h.path, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Stage;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("seal-spill-{tag}-{}", std::process::id()))
    }

    #[test]
    fn round_trips_payloads() {
        let dir = tmp("roundtrip");
        let mut s = SpillDir::create(&dir).unwrap();
        let h = s.write("chunk", b"hello spill").unwrap();
        assert_eq!(s.read(&h).unwrap(), b"hello spill");
        let st = s.stats();
        assert_eq!((st.writes, st.reads), (1, 1));
        assert_eq!(st.bytes_written, 11);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_is_a_typed_store_error() {
        let dir = tmp("corrupt");
        let mut s = SpillDir::create(&dir).unwrap();
        let h = s.write("chunk", b"payload-bytes-here").unwrap();

        // Bit flip inside the payload.
        let mut bytes = std::fs::read(h.path()).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(h.path(), &bytes).unwrap();
        let err = s.read(&h).unwrap_err();
        assert_eq!(err.stage(), Stage::Store);

        // Truncation.
        std::fs::write(h.path(), &bytes[..10]).unwrap();
        assert_eq!(s.read(&h).unwrap_err().stage(), Stage::Store);

        // Garbage.
        std::fs::write(h.path(), b"GARBAGE-NOT-A-SPILL").unwrap();
        assert_eq!(s.read(&h).unwrap_err().stage(), Stage::Store);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every damage to a one-record image is a typed store error: a flip
    /// of any bit in front of the payload or of a payload byte, truncation
    /// anywhere, a trailing byte, the wrong kind, and a file swapped in
    /// from another handle of equal length.
    #[test]
    fn every_damaged_spill_image_is_a_store_error() {
        let dir = tmp("exhaustive");
        let mut s = SpillDir::create(&dir).unwrap();
        let module = s.spill_module("chunk", &Module::default()).unwrap();
        let h = s.write("a", b"payload-bytes-a").unwrap();
        let other = s.write("b", b"payload-bytes-b").unwrap();
        let clean = std::fs::read(h.path()).unwrap();
        let fails = |bytes: &[u8], what: &str| {
            std::fs::write(h.path(), bytes).unwrap();
            let err = s.read(&h).expect_err(what);
            assert_eq!(err.stage(), Stage::Store, "{what}");
        };

        let front = seal_store::HEADER.len() + seal_store::RECORD_HEADER_LEN;
        assert_eq!(front, 45);
        for bit in 0..front * 8 {
            let mut bytes = clean.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            fails(&bytes, &format!("flip of bit {bit}"));
        }
        let mut bytes = clean.clone();
        bytes[front + 3] ^= 0x01;
        fails(&bytes, "payload byte flip");
        for keep in (0..=front).chain([front + 3]) {
            fails(&clean[..keep], &format!("truncated to {keep} bytes"));
        }
        let mut bytes = clean.clone();
        bytes.push(0);
        fails(&bytes, "trailing byte");

        // Undamaged files read through the wrong loader or handle.
        std::fs::write(h.path(), &clean).unwrap();
        assert_eq!(s.read(&h).unwrap(), b"payload-bytes-a");
        assert_eq!(s.load_specs(&module).unwrap_err().stage(), Stage::Store);
        assert!(s.load_module(&module).is_ok());
        std::fs::copy(other.path(), h.path()).unwrap();
        assert_eq!(s.read(&h).unwrap_err().stage(), Stage::Store);
        assert_eq!(s.read(&other).unwrap(), b"payload-bytes-b");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn specs_round_trip_through_codec() {
        let dir = tmp("specs");
        let mut s = SpillDir::create(&dir).unwrap();
        let h = s.spill_specs("segment", &[]).unwrap();
        assert!(s.load_specs(&h).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budget_semantics() {
        assert!(!SpillBudget::unlimited().should_spill());
        assert!(!SpillBudget::from_mb(None).is_bounded());
        // Zero budget is the always-spill discipline.
        assert!(SpillBudget::from_mb(Some(0)).should_spill());
        // A huge budget does not trip on a test process.
        assert!(!SpillBudget::from_mb(Some(1 << 20)).should_spill());
        // rss_now_kb works on Linux CI (tolerate absence elsewhere).
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(rss_now_kb().unwrap() > 0);
        }
    }
}
