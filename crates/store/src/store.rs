//! The on-disk store: one file per key, each a self-verifying record,
//! committed atomically.
//!
//! # Record envelope
//!
//! ```text
//! offset  size  field
//! 0       4     magic "M3DS"
//! 4       1     format version (currently 1)
//! 5       1     record kind (2 = session artifact)
//! 6       8     payload length, u64 LE
//! 14      n     payload
//! 14+n    4     CRC-32 (IEEE), u32 LE, over bytes [0, 14+n)
//! ```
//!
//! # Commit protocol
//!
//! A writer encodes the whole record in memory, writes it to a
//! `.tmp-{pid}-{seq}-{name}` sibling, `sync_all`s it, and `rename`s it
//! over the final name. Renames within a directory are atomic on POSIX,
//! so a reader opening the final name sees either the complete old
//! record or the complete new one — never a prefix. A writer killed
//! mid-write leaves only a `.tmp-*` file, which no reader ever opens.
//!
//! # Corruption policy
//!
//! Every read verifies the full envelope (magic, version, kind, length,
//! checksum) and then the payload decode. Any failure evicts the file
//! and returns [`StoreError::Corrupt`]; the *next* lookup of the same
//! key is a clean miss, so callers rebuild transparently.

use crate::error::{Corruption, StoreError};
use crate::record::SessionArtifact;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const MAGIC: [u8; 4] = *b"M3DS";
/// Current on-disk format version.
pub const FORMAT_VERSION: u8 = 1;
const HEADER_LEN: usize = 14;
const TRAILER_LEN: usize = 4;

/// The one record kind. 1 is retired and must not be reused: stores
/// written by older builds may still hold kind-1 files.
const KIND_SESSION: u8 = 2;

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven
// ---------------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE) of `bytes`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------
// keys
// ---------------------------------------------------------------------

/// A content address: the `(netlist_fingerprint, options_fingerprint)`
/// pair the checkpoint cache keys on, validated to be exactly 16
/// lowercase hex digits each so a key can double as a file name with no
/// path-traversal surface.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StoreKey {
    netlist_fp: String,
    options_fp: String,
}

impl StoreKey {
    /// Builds a key from the two fingerprint halves.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidKey`] unless both halves are 16
    /// lowercase hex digits.
    pub fn new(
        netlist_fp: impl Into<String>,
        options_fp: impl Into<String>,
    ) -> Result<StoreKey, StoreError> {
        let netlist_fp = netlist_fp.into();
        let options_fp = options_fp.into();
        let valid = |fp: &str| {
            fp.len() == 16
                && fp
                    .bytes()
                    .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
        };
        if !valid(&netlist_fp) {
            return Err(StoreError::InvalidKey(netlist_fp));
        }
        if !valid(&options_fp) {
            return Err(StoreError::InvalidKey(options_fp));
        }
        Ok(StoreKey {
            netlist_fp,
            options_fp,
        })
    }

    fn file_name(&self) -> String {
        format!("{}-{}.session", self.netlist_fp, self.options_fp)
    }
}

// ---------------------------------------------------------------------
// the store
// ---------------------------------------------------------------------

/// A content-addressed checkpoint store rooted at one directory.
///
/// Handles are cheap and share nothing but the directory: any number of
/// processes (or threads) may point handles at the same root and
/// put/get concurrently — the commit protocol guarantees readers never
/// observe torn records. A handle counts nothing: every outcome comes
/// back typed from [`Store::get_session`] and [`Store::put_session`],
/// and the caller books it.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the directory cannot be created.
    pub fn open(dir: impl AsRef<Path>) -> Result<Store, StoreError> {
        let root = dir.as_ref().to_path_buf();
        fs::create_dir_all(&root)
            .map_err(|e| StoreError::io(format!("create store dir {}", root.display()), e))?;
        Ok(Store { root })
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Persists a session artifact under `key`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Unencodable`] for a non-preset pseudo stack
    /// and [`StoreError::Io`] on filesystem failure.
    pub fn put_session(
        &self,
        key: &StoreKey,
        artifact: &SessionArtifact,
    ) -> Result<(), StoreError> {
        let payload = artifact.encode()?;
        self.write_record(&key.file_name(), &payload)
    }

    /// Loads the session artifact under `key`, if present.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] (after evicting the record) when
    /// the bytes fail any integrity check, [`StoreError::Io`] on
    /// filesystem failure.
    pub fn get_session(&self, key: &StoreKey) -> Result<Option<SessionArtifact>, StoreError> {
        let name = key.file_name();
        let Some(payload) = self.read_record(&name)? else {
            return Ok(None);
        };
        match SessionArtifact::decode(&payload) {
            Ok(artifact) => Ok(Some(artifact)),
            Err(e) => Err(self.evict(&name, Corruption::Payload(e))),
        }
    }

    // ---- envelope ------------------------------------------------------

    fn write_record(&self, name: &str, payload: &[u8]) -> Result<(), StoreError> {
        let mut record = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
        record.extend_from_slice(&MAGIC);
        record.push(FORMAT_VERSION);
        record.push(KIND_SESSION);
        record.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        record.extend_from_slice(payload);
        let crc = crc32(&record);
        record.extend_from_slice(&crc.to_le_bytes());

        // The sequence counter is process-global, not per-handle: two
        // handles in one process must never produce the same tmp name, or
        // one writer could rename the other's half-written file into
        // place — the exact torn-record publication the tmp+rename
        // protocol exists to prevent. (Across processes the pid
        // disambiguates.)
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = self.root.join(format!(
            ".tmp-{}-{}-{name}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let final_path = self.root.join(name);
        let commit = (|| {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&record)?;
            f.sync_all()?;
            drop(f);
            fs::rename(&tmp, &final_path)
        })();
        if let Err(e) = commit {
            let _ = fs::remove_file(&tmp);
            return Err(StoreError::io(
                format!("commit record {}", final_path.display()),
                e,
            ));
        }
        Ok(())
    }

    /// Reads and envelope-verifies a record, returning its payload.
    /// `Ok(None)` is a miss; corruption evicts the file and errors.
    fn read_record(&self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
        let path = self.root.join(name);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::io(format!("read record {}", path.display()), e)),
        };
        if bytes.len() < HEADER_LEN + TRAILER_LEN {
            return Err(self.evict(name, Corruption::TooShort { len: bytes.len() }));
        }
        if bytes[0..4] != MAGIC {
            let mut m = [0u8; 4];
            m.copy_from_slice(&bytes[0..4]);
            return Err(self.evict(name, Corruption::BadMagic(m)));
        }
        if bytes[4] != FORMAT_VERSION {
            return Err(self.evict(name, Corruption::UnsupportedVersion { found: bytes[4] }));
        }
        if bytes[5] != KIND_SESSION {
            return Err(self.evict(
                name,
                Corruption::WrongKind {
                    expected: KIND_SESSION,
                    found: bytes[5],
                },
            ));
        }
        let declared = u64::from_le_bytes(bytes[6..14].try_into().expect("len 8"));
        let actual = (bytes.len() - HEADER_LEN - TRAILER_LEN) as u64;
        if declared != actual {
            return Err(self.evict(name, Corruption::LengthMismatch { declared, actual }));
        }
        let body_end = bytes.len() - TRAILER_LEN;
        let stored = u32::from_le_bytes(bytes[body_end..].try_into().expect("len 4"));
        let computed = crc32(&bytes[..body_end]);
        if stored != computed {
            return Err(self.evict(name, Corruption::ChecksumMismatch { stored, computed }));
        }
        Ok(Some(bytes[HEADER_LEN..body_end].to_vec()))
    }

    /// Removes a record that failed verification and builds the error.
    /// Eviction is best-effort: a concurrent writer may already have
    /// replaced the file, which is fine — the replacement is verified on
    /// its own next read.
    fn evict(&self, name: &str, detail: Corruption) -> StoreError {
        let path = self.root.join(name);
        let _ = fs::remove_file(&path);
        StoreError::Corrupt { path, detail }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn keys_validate_their_fingerprints() {
        assert!(StoreKey::new("0123456789abcdef", "fedcba9876543210").is_ok());
        for bad in [
            "0123456789ABCDEF",  // uppercase
            "0123456789abcde",   // short
            "0123456789abcdef0", // long
            "../../../etc/pwd",  // traversal
            "0123456789abcdeg",  // non-hex
        ] {
            assert!(
                matches!(
                    StoreKey::new(bad, "fedcba9876543210"),
                    Err(StoreError::InvalidKey(_))
                ),
                "key `{bad}` must be rejected"
            );
            assert!(StoreKey::new("fedcba9876543210", bad).is_err());
        }
    }
}
