//! Persistent content-addressed checkpoint store.
//!
//! The serve layer's `SessionCache` makes checkpoint reuse O(1) in RAM,
//! but dies with the process: every server restart and every CLI
//! invocation recomputes pseudo-3-D checkpoints that were already paid
//! for. This crate is the durable tier underneath it — a directory of
//! self-verifying binary records addressed by the same
//! `(netlist_fingerprint, options_fingerprint)` keys the in-memory
//! cache uses, shared by every process pointed at the directory.
//!
//! Three properties carry the design (see `DESIGN.md` §14 for the full
//! format):
//!
//! * **Atomic commits** — records are written to a temp sibling, synced,
//!   and renamed into place. A crashed or racing writer can never
//!   publish a torn artifact; readers see the old record or the new one,
//!   nothing in between.
//! * **Self-verification** — every record carries a magic, a format
//!   version, its payload length and a CRC-32 trailer, and every decoder
//!   validates lengths before allocating and cross-references before
//!   constructing. Arbitrarily corrupted bytes decode to a typed
//!   [`StoreError`], never a panic and never a silently wrong
//!   checkpoint.
//! * **Evict-on-corruption** — a record that fails any check is deleted
//!   as it is reported, so the next lookup of that key is a clean miss
//!   and the caller rebuilds transparently.
//!
//! A [`Store`] counts nothing. Every outcome comes back typed — a
//! record, `Ok(None)`, [`StoreError::Corrupt`] after the eviction,
//! [`StoreError::Io`] when the disk could not answer — and the caller
//! books it: the serve layer's cache counts each lookup and write once,
//! in the service's counter ledger.
//!
//! One artifact kind is stored, the one the service reads back:
//! [`SessionArtifact`]s ([`Store::put_session`]/[`Store::get_session`] —
//! the buffered base netlist plus the pseudo-3-D checkpoint, which is
//! what lets a restarted server answer its first repeat request without
//! re-running the expensive prefix).
//!
//! ```no_run
//! use m3d_store::{Store, StoreKey};
//!
//! let store = Store::open("/var/cache/m3d")?;
//! let key = StoreKey::new("0123456789abcdef", "fedcba9876543210")?;
//! if let Some(artifact) = store.get_session(&key)? {
//!     // warm: rehydrate a FlowSession from `artifact`
//!     let _ = artifact.pseudo.is_some();
//! }
//! # Ok::<(), m3d_store::StoreError>(())
//! ```

mod codec;
mod error;
mod record;
mod store;

pub use codec::{Reader, Writer};
pub use error::{Corruption, DecodeError, StoreError};
pub use record::{SessionArtifact, StackSpec};
pub use store::{crc32, Store, StoreKey, FORMAT_VERSION};
