//! Disk-backed store: versioned entry files under a caller-supplied root.
//!
//! Layout: `<root>/<kind>/<32-hex-key>.entry`, one entry per file. Each
//! file is line-oriented text with a versioned header, the code-version
//! salt, the kind and key echoed back (so a renamed or mis-filed entry is
//! detected), a payload line count, the payload, and an `end` marker:
//!
//! ```text
//! cordoba-store entry v1
//! salt <code-version-salt>
//! kind <kind>
//! key <32-hex>
//! lines <N>
//! <payload line 1>
//! ...
//! <payload line N>
//! end
//! ```
//!
//! Any deviation — truncation, corruption, a foreign header, a salt minted
//! by a different code version, a count mismatch — parses as a graceful
//! miss, never a panic: the store recomputes and overwrites. Writes go to a
//! temp file in the same directory and are published with an atomic rename,
//! so readers never observe a half-written entry.

// cordoba-lint: allow-file(ambient-input) — this module IS the persistence
// edge the `ambient-input` rule routes I/O toward: every read and write
// stays under a root directory passed in explicitly by the caller, results
// are keyed by content hashes that already encode all inputs, and a stale
// or damaged file degrades to a recompute, never to a wrong answer.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use cordoba_obs::{record, Event, LabeledCounter};

use crate::key::StoreKey;

/// Store operation counts by kind, exported as `store_ops{op="..."}`;
/// mirrors the `events/store_*` counters in one labeled family.
static STORE_OPS: LabeledCounter =
    LabeledCounter::new("store/ops", "op", &["hit", "miss", "write"]);

/// First line of every entry file; bump the version when the framing
/// changes.
pub const FORMAT_HEADER: &str = "cordoba-store entry v1";

/// Last line of every entry file, newline included; a file without it was
/// truncated.
const ENTRY_END: &str = "end\n";

/// Default code-version salt. Bump whenever simulator semantics change so
/// every previously stored result misses and is recomputed.
pub const CODE_VERSION_SALT: &str = "cordoba-core-v9";

/// File extension for entry files.
const ENTRY_EXT: &str = "entry";

/// A content-addressed, disk-backed result store.
///
/// ```
/// use cordoba_store::{KeyBuilder, Store};
///
/// let dir = std::env::temp_dir().join("cordoba-store-doc");
/// let store = Store::open(&dir)?;
/// let mut k = KeyBuilder::new("demo");
/// k.push_u64(7);
/// let key = k.finish();
/// store.put("demo", key, &["payload line".to_string()])?;
/// assert_eq!(store.get("demo", key), Some(vec!["payload line".to_string()]));
/// store.evict(None);
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
    salt: String,
}

/// Metadata for one stored entry, as listed by [`Store::entries`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryInfo {
    /// The entry kind (subdirectory name).
    pub kind: String,
    /// The content hash (file stem).
    pub key: StoreKey,
    /// On-disk size in bytes.
    pub bytes: u64,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `dir`, salted with the
    /// built-in [`CODE_VERSION_SALT`].
    ///
    /// # Errors
    /// Returns the underlying I/O error when the root cannot be created.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        Self::open_with_salt(dir, CODE_VERSION_SALT)
    }

    /// Opens a store with an explicit code-version salt (tests use this to
    /// exercise invalidation; production code should use [`Store::open`]).
    ///
    /// # Errors
    /// Returns the underlying I/O error when the root cannot be created.
    pub fn open_with_salt(dir: impl AsRef<Path>, salt: &str) -> io::Result<Self> {
        let root = dir.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(Self {
            root,
            salt: salt.to_string(),
        })
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The code-version salt entries are minted with.
    #[must_use]
    pub fn salt(&self) -> &str {
        &self.salt
    }

    /// `true` for kinds that are safe path segments (`[a-z0-9_-]+` style).
    fn valid_kind(kind: &str) -> bool {
        !kind.is_empty()
            && kind
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
    }

    fn entry_path(&self, kind: &str, key: StoreKey) -> PathBuf {
        self.root
            .join(kind)
            .join(format!("{}.{ENTRY_EXT}", key.to_hex()))
    }

    /// Looks up the payload for `(kind, key)`.
    ///
    /// Returns `None` — and records a `store_miss` event — when the entry
    /// is absent, truncated, corrupted, mis-filed, or salted by a different
    /// code version. A valid entry records `store_hit` and returns its
    /// payload lines.
    #[must_use]
    pub fn get(&self, kind: &str, key: StoreKey) -> Option<Vec<String>> {
        let payload = self.read_entry(kind, key);
        if payload.is_some() {
            STORE_OPS.incr(0);
            record(&Event::StoreHit);
        } else {
            STORE_OPS.incr(1);
            record(&Event::StoreMiss);
        }
        payload
    }

    fn read_entry(&self, kind: &str, key: StoreKey) -> Option<Vec<String>> {
        if !Self::valid_kind(kind) {
            return None;
        }
        let text = fs::read_to_string(self.entry_path(kind, key)).ok()?;
        // A valid entry always ends `end\n`; anything else is truncation.
        if !text.ends_with('\n') {
            return None;
        }
        let mut lines = text.lines();
        if lines.next()? != FORMAT_HEADER {
            return None;
        }
        if lines.next()?.strip_prefix("salt ")? != self.salt {
            return None;
        }
        if lines.next()?.strip_prefix("kind ")? != kind {
            return None;
        }
        if StoreKey::from_hex(lines.next()?.strip_prefix("key ")?)? != key {
            return None;
        }
        let count: usize = lines.next()?.strip_prefix("lines ")?.parse().ok()?;
        // Each payload line takes a line of the file, so the text bounds a
        // valid reservation and a damaged header cannot overflow it.
        let mut payload = Vec::with_capacity(count.min(text.len()));
        for _ in 0..count {
            payload.push(lines.next()?.to_string());
        }
        if lines.next()? != "end" || lines.next().is_some() {
            return None;
        }
        Some(payload)
    }

    /// Writes the payload for `(kind, key)`, atomically replacing any
    /// existing entry, and records a `store_write` event.
    ///
    /// # Errors
    /// Rejects invalid kinds and payload lines containing newlines with
    /// [`io::ErrorKind::InvalidInput`]; otherwise surfaces the underlying
    /// filesystem error.
    pub fn put(&self, kind: &str, key: StoreKey, lines: &[String]) -> io::Result<()> {
        if !Self::valid_kind(kind) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("store kind {kind:?} is not a safe path segment"),
            ));
        }
        if lines.iter().any(|l| l.contains('\n')) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "store payload lines must not contain newlines",
            ));
        }
        let dir = self.root.join(kind);
        fs::create_dir_all(&dir)?;
        // Built at its exact size: a sweep entry runs to megabytes, and
        // growing it by doubling churns the allocator on every write.
        let header = format!(
            "{FORMAT_HEADER}\nsalt {}\nkind {kind}\nkey {}\nlines {}\n",
            self.salt,
            key.to_hex(),
            lines.len()
        );
        let payload: usize = lines.iter().map(|line| line.len() + 1).sum();
        let mut body = String::with_capacity(header.len() + payload + ENTRY_END.len());
        body.push_str(&header);
        for line in lines {
            body.push_str(line);
            body.push('\n');
        }
        body.push_str(ENTRY_END);
        // Write-then-rename so a concurrent reader sees either the old
        // entry or the new one, never a prefix.
        let tmp = dir.join(format!(".tmp-{}-{}", std::process::id(), key.to_hex()));
        fs::write(&tmp, body)?;
        let result = fs::rename(&tmp, self.entry_path(kind, key));
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result?;
        STORE_OPS.incr(2);
        record(&Event::StoreWrite);
        Ok(())
    }

    /// `true` when a readable, valid entry exists for `(kind, key)`.
    ///
    /// Unlike [`Store::get`] this records no events, so probes do not skew
    /// hit/miss counters.
    #[must_use]
    pub fn contains(&self, kind: &str, key: StoreKey) -> bool {
        self.read_entry(kind, key).is_some()
    }

    /// Lists every entry file in the store, sorted by `(kind, key)` so the
    /// listing is deterministic regardless of directory iteration order.
    ///
    /// Unreadable directories or stray files are skipped, not errors: the
    /// listing reflects what [`Store::get`] could plausibly serve.
    #[must_use]
    pub fn entries(&self) -> Vec<EntryInfo> {
        let mut out = Vec::new();
        let Ok(kinds) = fs::read_dir(&self.root) else {
            return out;
        };
        for kind_entry in kinds.flatten() {
            let kind = kind_entry.file_name().to_string_lossy().into_owned();
            if !Self::valid_kind(&kind) {
                continue;
            }
            let Ok(files) = fs::read_dir(kind_entry.path()) else {
                continue;
            };
            for file in files.flatten() {
                let name = file.file_name().to_string_lossy().into_owned();
                let Some(stem) = name.strip_suffix(&format!(".{ENTRY_EXT}")) else {
                    continue;
                };
                let Some(key) = StoreKey::from_hex(stem) else {
                    continue;
                };
                let bytes = file.metadata().map(|m| m.len()).unwrap_or(0);
                out.push(EntryInfo {
                    kind: kind.clone(),
                    key,
                    bytes,
                });
            }
        }
        out.sort_by(|a, b| (&a.kind, a.key).cmp(&(&b.kind, b.key)));
        out
    }

    /// Removes entries — all of them, or only one kind — returning how many
    /// entry files were deleted. Unremovable files are skipped.
    pub fn evict(&self, kind: Option<&str>) -> usize {
        let mut removed = 0;
        for info in self.entries() {
            if kind.is_some_and(|k| k != info.kind) {
                continue;
            }
            if fs::remove_file(self.entry_path(&info.kind, info.key)).is_ok() {
                removed += 1;
            }
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyBuilder;

    fn temp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!("cordoba-store-test-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        Store::open(&dir).expect("temp store opens")
    }

    fn key_of(n: u64) -> StoreKey {
        let mut k = KeyBuilder::new("test");
        k.push_u64(n);
        k.finish()
    }

    #[test]
    fn put_get_round_trip() {
        let store = temp_store("round-trip");
        let key = key_of(1);
        let lines = vec!["a 1".to_string(), String::new(), "c 3".to_string()];
        assert_eq!(store.get("sweep", key), None);
        store.put("sweep", key, &lines).expect("put succeeds");
        assert_eq!(store.get("sweep", key), Some(lines));
        assert!(store.contains("sweep", key));
    }

    #[test]
    fn truncated_and_corrupted_entries_miss_gracefully() {
        let store = temp_store("corrupt");
        let key = key_of(2);
        let lines = vec!["x".to_string(), "y".to_string()];
        store.put("sweep", key, &lines).expect("put succeeds");
        let path = store.entry_path("sweep", key);
        let full = fs::read_to_string(&path).expect("entry readable");
        // Every strict prefix of a valid entry is a miss, never a panic.
        for cut in 0..full.len() {
            fs::write(&path, &full[..cut]).expect("truncate");
            assert_eq!(store.get("sweep", key), None, "prefix of {cut} bytes");
        }
        // Arbitrary garbage is a miss too.
        fs::write(&path, "not an entry\u{0}\u{ff}").expect("garbage");
        assert_eq!(store.get("sweep", key), None);
        // Trailing junk after `end` invalidates the entry.
        fs::write(&path, format!("{full}trailing\n")).expect("suffix");
        assert_eq!(store.get("sweep", key), None);
        // A line count larger than any file is a miss, not an allocation.
        for count in [usize::MAX, 1 << 61] {
            let damaged = full.replacen("lines 2\n", &format!("lines {count}\n"), 1);
            assert_ne!(damaged, full);
            fs::write(&path, damaged).expect("damage the header");
            assert_eq!(store.get("sweep", key), None, "lines {count}");
        }
        // Restoring the exact bytes restores the hit.
        fs::write(&path, &full).expect("restore");
        assert_eq!(store.get("sweep", key), Some(lines));
    }

    #[test]
    fn salt_mismatch_invalidates() {
        let dir = std::env::temp_dir().join("cordoba-store-test-salt");
        let _ = fs::remove_dir_all(&dir);
        let v1 = Store::open_with_salt(&dir, "code-v1").expect("v1 opens");
        let key = key_of(3);
        v1.put("sweep", key, &["line".to_string()]).expect("put");
        assert!(v1.contains("sweep", key));
        let v2 = Store::open_with_salt(&dir, "code-v2").expect("v2 opens");
        assert_eq!(v2.get("sweep", key), None);
        // Recomputing under the new salt overwrites in place.
        v2.put("sweep", key, &["new".to_string()]).expect("put v2");
        assert_eq!(v2.get("sweep", key), Some(vec!["new".to_string()]));
        assert_eq!(v1.get("sweep", key), None);
    }

    #[test]
    fn mis_filed_entries_miss() {
        let store = temp_store("mis-filed");
        let key = key_of(4);
        let other = key_of(5);
        store.put("sweep", key, &["line".to_string()]).expect("put");
        // Copy the entry under a different key's file name: key echo fails.
        let bytes = fs::read(store.entry_path("sweep", key)).expect("read");
        fs::write(store.entry_path("sweep", other), &bytes).expect("copy");
        assert_eq!(store.get("sweep", other), None);
        // Same bytes under a different kind: kind echo fails.
        fs::create_dir_all(store.root().join("runs")).expect("mkdir");
        fs::write(store.entry_path("runs", key), &bytes).expect("copy kind");
        assert_eq!(store.get("runs", key), None);
    }

    #[test]
    fn invalid_inputs_are_rejected_without_panicking() {
        let store = temp_store("invalid");
        let key = key_of(6);
        assert!(store.put("../escape", key, &[]).is_err());
        assert!(store.put("", key, &[]).is_err());
        assert!(store.put("ok", key, &["a\nb".to_string()]).is_err());
        assert_eq!(store.get("../escape", key), None);
    }

    #[test]
    fn entries_listing_and_evict() {
        let store = temp_store("listing");
        let (k1, k2, k3) = (key_of(7), key_of(8), key_of(9));
        store.put("sweep", k1, &["a".to_string()]).expect("put");
        store.put("sweep", k2, &["b".to_string()]).expect("put");
        store.put("runs", k3, &["c".to_string()]).expect("put");
        let listing = store.entries();
        assert_eq!(listing.len(), 3);
        let kinds: Vec<&str> = listing.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, vec!["runs", "sweep", "sweep"]);
        assert!(listing.iter().all(|e| e.bytes > 0));
        assert_eq!(store.evict(Some("sweep")), 2);
        assert_eq!(store.entries().len(), 1);
        assert_eq!(store.evict(None), 1);
        assert!(store.entries().is_empty());
    }

    #[test]
    fn empty_payload_round_trips() {
        let store = temp_store("empty");
        let key = key_of(10);
        store.put("sweep", key, &[]).expect("put");
        assert_eq!(store.get("sweep", key), Some(Vec::new()));
    }
}
