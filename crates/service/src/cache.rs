//! The content-hash result cache.
//!
//! Analysis results are immutable functions of `(program text × detector
//! set × config × suite version)`, so the service memoizes them across
//! requests under a 64-bit FNV-1a hash of exactly those inputs:
//!
//! * **Memory tier** — a bounded LRU map of serialized reports; hits cost
//!   one hash and one map lookup.
//! * **Disk tier** (optional, `--cache-dir`) — one `<key>.json` file per
//!   result, written atomically (temp file + rename) so a crash mid-write
//!   never leaves a torn entry. Disk hits are promoted back into the
//!   memory tier, and the tier survives server restarts — a warm cache
//!   directory answers a cold server's first repeat request without
//!   running a single detector.
//!
//! Entries store the *compact report JSON text*, encoded once by the
//! worker that computed it, together with its finding count; responses
//! splice those bytes in verbatim, so cached and freshly-computed
//! responses embed byte-identical report objects. A memory hit returns the
//! stored text without decoding it. A disk entry counts as a hit only when
//! it decodes: a corrupt file is a miss and is never promoted, and a valid
//! one is re-encoded once (the JSON data model preserves field order)
//! before promotion, so spliced bytes are always the canonical encoding.
//!
//! [`ResultCache::key`] folds in [`rstudy_core::SUITE_VERSION`], so a
//! cache directory written by an older detector suite is silently treated
//! as cold by a newer one instead of replaying stale findings.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rstudy_core::SUITE_VERSION;
use rstudy_ingest::fnv;
use serde::Value;

/// A cache key: the FNV-1a hash of the request's semantic content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(pub u64);

impl CacheKey {
    fn file_name(self) -> String {
        format!("{:016x}.json", self.0)
    }
}

/// One memory-tier entry.
struct MemEntry {
    report_json: String,
    /// Length of the report's `diagnostics` array.
    findings: u64,
    /// Monotonic use stamp; smallest stamp is the LRU victim.
    last_used: u64,
}

struct MemTier {
    entries: HashMap<u64, MemEntry>,
    clock: u64,
}

/// Running totals, exported via `stats`, `metrics` and `/metrics`.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Memory-tier hits.
    pub mem_hits: AtomicU64,
    /// Disk-tier hits (missed memory, found on disk and decoded).
    pub disk_hits: AtomicU64,
    /// Misses: no entry, or one that did not decode.
    pub misses: AtomicU64,
}

/// The two-tier result cache. All methods are `&self`; internal locking
/// makes it shareable across connection and worker threads.
pub struct ResultCache {
    mem: Mutex<MemTier>,
    capacity: usize,
    dir: Option<PathBuf>,
    /// Hit and miss counters, one per lookup.
    pub stats: CacheStats,
}

impl ResultCache {
    /// A cache holding at most `capacity` reports in memory, optionally
    /// backed by `dir` on disk. The directory is created eagerly so a
    /// misconfigured path fails at startup, not on the first insert.
    pub fn new(capacity: usize, dir: Option<PathBuf>) -> io::Result<ResultCache> {
        if let Some(dir) = &dir {
            fs::create_dir_all(dir)?;
        }
        Ok(ResultCache {
            mem: Mutex::new(MemTier {
                entries: HashMap::new(),
                clock: 0,
            }),
            capacity: capacity.max(1),
            dir,
            stats: CacheStats::default(),
        })
    }

    /// The cache key for one analysis request.
    ///
    /// `detectors` must already be the resolved set (sorted, deduplicated);
    /// the caller canonicalizes so that `["a","b"]` and `["b","a","a"]`
    /// share a key.
    pub fn key(program_text: &str, detectors: &[String], naive: bool) -> CacheKey {
        let mut h = fnv::fold(fnv::OFFSET_BASIS, program_text.as_bytes());
        h = fnv::fold(h, &[0x1f]);
        for name in detectors {
            h = fnv::fold(h, name.as_bytes());
            h = fnv::fold(h, &[0x1e]);
        }
        h = fnv::fold(h, &[u8::from(naive)]);
        h = fnv::fold(h, &SUITE_VERSION.to_le_bytes());
        CacheKey(h)
    }

    /// Looks up a report, memory tier first, then disk, and returns its
    /// compact JSON text with its finding count. Counts exactly one hit or
    /// miss: a disk entry that does not decode is a miss, and one that does
    /// is re-encoded canonically and promoted to memory.
    pub fn get(&self, key: CacheKey) -> Option<(String, u64)> {
        let mem_hit = {
            let mut mem = self.mem.lock().unwrap_or_else(|e| e.into_inner());
            mem.clock += 1;
            let clock = mem.clock;
            mem.entries.get_mut(&key.0).map(|entry| {
                entry.last_used = clock;
                (entry.report_json.clone(), entry.findings)
            })
        };
        if mem_hit.is_some() {
            self.stats.mem_hits.fetch_add(1, Ordering::Relaxed);
            return mem_hit;
        }
        if let Some(dir) = &self.dir {
            if let Ok(text) = fs::read_to_string(dir.join(key.file_name())) {
                if let Ok(report) = serde_json::from_str::<Value>(&text) {
                    self.stats.disk_hits.fetch_add(1, Ordering::Relaxed);
                    let findings = report
                        .get("diagnostics")
                        .and_then(Value::as_array)
                        .map_or(0, |d| d.len() as u64);
                    let report_json =
                        serde_json::to_string(&report).expect("report serialization cannot fail");
                    self.insert_mem(key, report_json.clone(), findings);
                    return Some((report_json, findings));
                }
            }
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Inserts a freshly computed report (its compact JSON text and finding
    /// count) into both tiers. Disk failures degrade the cache, never the
    /// request: the error is returned for logging but the memory tier is
    /// always updated.
    pub fn put(&self, key: CacheKey, report_json: &str, findings: u64) -> io::Result<()> {
        self.insert_mem(key, report_json.to_owned(), findings);
        self.write_disk(key, report_json)
    }

    fn insert_mem(&self, key: CacheKey, report_json: String, findings: u64) {
        let mut mem = self.mem.lock().unwrap_or_else(|e| e.into_inner());
        mem.clock += 1;
        let clock = mem.clock;
        mem.entries.insert(
            key.0,
            MemEntry {
                report_json,
                findings,
                last_used: clock,
            },
        );
        while mem.entries.len() > self.capacity {
            let Some((&victim, _)) = mem.entries.iter().min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            mem.entries.remove(&victim);
        }
    }

    fn write_disk(&self, key: CacheKey, report_json: &str) -> io::Result<()> {
        let Some(dir) = &self.dir else {
            return Ok(());
        };
        let final_path = dir.join(key.file_name());
        let tmp_path = dir.join(format!("{}.tmp-{}", key.file_name(), std::process::id()));
        fs::write(&tmp_path, report_json)?;
        fs::rename(&tmp_path, &final_path).inspect_err(|_| {
            let _ = fs::remove_file(&tmp_path);
        })
    }

    /// Flushes the disk tier: re-persists every in-memory entry whose disk
    /// file is missing (e.g. because an earlier write failed transiently).
    /// Called on graceful shutdown. Returns how many entries were written.
    pub fn flush(&self) -> usize {
        let Some(dir) = self.dir.clone() else {
            return 0;
        };
        let entries: Vec<(u64, String)> = {
            let mem = self.mem.lock().unwrap_or_else(|e| e.into_inner());
            mem.entries
                .iter()
                .map(|(&k, e)| (k, e.report_json.clone()))
                .collect()
        };
        let mut written = 0;
        for (k, report_json) in entries {
            let key = CacheKey(k);
            if !dir.join(key.file_name()).exists() && self.write_disk(key, &report_json).is_ok() {
                written += 1;
            }
        }
        written
    }

    /// Number of reports currently held in memory.
    pub fn mem_len(&self) -> usize {
        let mem = self.mem.lock().unwrap_or_else(|e| e.into_inner());
        mem.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn key_depends_on_every_input() {
        let base = ResultCache::key("prog", &det(&["a", "b"]), false);
        assert_eq!(base, ResultCache::key("prog", &det(&["a", "b"]), false));
        assert_ne!(base, ResultCache::key("prog2", &det(&["a", "b"]), false));
        assert_ne!(base, ResultCache::key("prog", &det(&["a"]), false));
        assert_ne!(base, ResultCache::key("prog", &det(&["a", "b"]), true));
        // Separator-confusable inputs must not collide.
        assert_ne!(
            ResultCache::key("x", &det(&["ab"]), false),
            ResultCache::key("x", &det(&["a", "b"]), false)
        );
    }

    /// Keys name disk files, so a cache directory written by an earlier
    /// build stays warm only while the key of a fixed input is unchanged.
    #[test]
    fn key_of_a_fixed_input_is_stable() {
        let key = ResultCache::key("prog", &det(&["a", "b"]), false);
        assert_eq!(key, CacheKey(0x0a82_8efe_7652_b96c));
    }

    #[test]
    fn memory_tier_hits_and_evicts_lru() {
        let cache = ResultCache::new(2, None).unwrap();
        let (k1, k2, k3) = (CacheKey(1), CacheKey(2), CacheKey(3));
        assert_eq!(cache.get(k1), None);
        cache.put(k1, "[1]", 1).unwrap();
        cache.put(k2, "[2]", 2).unwrap();
        assert_eq!(cache.get(k1), Some(("[1]".to_owned(), 1)));
        // k2 is now least recently used; inserting k3 evicts it.
        cache.put(k3, "[3]", 3).unwrap();
        assert_eq!(cache.mem_len(), 2);
        assert_eq!(cache.get(k2), None);
        assert_eq!(cache.get(k1), Some(("[1]".to_owned(), 1)));
        assert_eq!(cache.get(k3), Some(("[3]".to_owned(), 3)));
        assert_eq!(cache.stats.misses.load(Ordering::Relaxed), 2);
        assert!(cache.stats.mem_hits.load(Ordering::Relaxed) >= 3);
    }

    #[test]
    fn disk_tier_survives_a_new_cache_instance() {
        let dir = std::env::temp_dir().join(format!("rstudy-cache-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let key = CacheKey(0xfeed);
        let report = r#"{"diagnostics":[{"a":1},{"b":2}]}"#;
        {
            let cache = ResultCache::new(8, Some(dir.clone())).unwrap();
            cache.put(key, report, 2).unwrap();
        }
        let cold = ResultCache::new(8, Some(dir.clone())).unwrap();
        assert_eq!(cold.get(key), Some((report.to_owned(), 2)));
        assert_eq!(cold.stats.disk_hits.load(Ordering::Relaxed), 1);
        // The disk hit was promoted: the next lookup hits memory.
        assert_eq!(cold.get(key), Some((report.to_owned(), 2)));
        assert_eq!(cold.stats.mem_hits.load(Ordering::Relaxed), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Responses splice the returned bytes verbatim, so a valid disk entry
    /// that is not in compact form comes back canonically encoded.
    #[test]
    fn disk_hit_is_reencoded_compactly() {
        let dir = std::env::temp_dir().join(format!("rstudy-spaced-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = ResultCache::new(8, Some(dir.clone())).unwrap();
        let key = CacheKey(0x5ace);
        fs::write(dir.join(key.file_name()), r#"{ "diagnostics" : [ ] }"#).unwrap();
        let canonical = Some((r#"{"diagnostics":[]}"#.to_owned(), 0));
        assert_eq!(cache.get(key), canonical);
        assert_eq!(cache.get(key), canonical, "the promoted memory entry");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entry_is_a_miss_and_is_not_promoted() {
        let dir = std::env::temp_dir().join(format!("rstudy-corrupt-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = ResultCache::new(8, Some(dir.clone())).unwrap();
        let key = CacheKey(0xbad);
        fs::write(dir.join(key.file_name()), "not json").unwrap();
        assert_eq!(cache.get(key), None);
        assert_eq!(cache.mem_len(), 0);
        assert_eq!(cache.stats.disk_hits.load(Ordering::Relaxed), 0);
        assert_eq!(cache.stats.misses.load(Ordering::Relaxed), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_rewrites_missing_disk_entries() {
        let dir = std::env::temp_dir().join(format!("rstudy-flush-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = ResultCache::new(8, Some(dir.clone())).unwrap();
        let key = CacheKey(0xbeef);
        cache.put(key, "r", 0).unwrap();
        fs::remove_file(dir.join(key.file_name())).unwrap();
        assert_eq!(cache.flush(), 1);
        assert!(dir.join(key.file_name()).exists());
        assert_eq!(cache.flush(), 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
