//! Content-addressed persistent evaluation store.
//!
//! The search layers above this crate are affordable only because size
//! evaluations are massively reusable; this crate is where that reuse is
//! made durable and *bounded*: a store rooted at one directory,
//!
//! ```text
//! <root>/index.v1            compact advisory index (atomic rewrites)
//! <root>/ab/cdef...0123.log  scope log, sharded by fingerprint prefix
//! ```
//!
//! Only `optinline-store v1` scope logs are ever read. Any other file (a
//! flat `<fp>.sizes` file of the retired per-module cache, say) is never
//! read, never touched, and counted as foreign by [`LocalStore::verify`].
//!
//! A *scope* is one evaluation domain — module text + target + pipeline
//! options, fingerprinted by the evaluator's `memo_scope` — and its log
//! maps canonical inlined-site sets to measured sizes. On top of identity
//! verification, line-scoped corruption tolerance, torn-tail termination
//! and restart by atomic rename, the store has:
//!
//! - a shared **index** of per-scope entry counts, byte sizes, and hit
//!   recency ([`SharedIndex`]) — advisory, rebuildable by a full scan;
//! - **write batching**: `put` buffers lines in memory and appends them in
//!   one syscall per threshold crossing ([`StoreOptions`]);
//! - **compaction**: logs are rewritten without duplicate or damaged lines
//!   when dead bytes cross a ratio, or on demand;
//! - **size-budgeted GC**: least-recently-used scope logs are evicted
//!   until the directory fits a byte budget ([`LocalStore::gc`]);
//! - a [`Store`] trait seam so a remote tier (serving daemon) can slot in
//!   behind the same interface later.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod format;
mod index;
mod local;
mod scope;

pub use format::{
    fingerprint_of, format_entry, log_file_stem, parse_entry, sanitize_meta, scope_rel_path,
    HEADER, LOG_EXT, META_PREFIX,
};
pub use index::{Index, ScopeRecord, SharedIndex, INDEX_FILE};
pub use local::{GcReport, LocalStore, ScopeFormatMix, ScopeSpec, VerifyReport};
pub use scope::{Scope, ScopeCounters};

use optinline_ir::{CallSiteId, Measurement};

/// Tuning knobs of a [`LocalStore`].
#[derive(Clone, Copy, Debug)]
pub struct StoreOptions {
    /// Flush the write-back buffer once it holds this many entry lines.
    /// `1` degenerates to one write per put (useful as a baseline).
    pub flush_every_lines: usize,
    /// Flush the write-back buffer once it holds this many bytes.
    pub flush_bytes: usize,
    /// Upper bound on entries held resident per scope; beyond it the
    /// oldest resident entries are dropped (they stay on disk).
    pub max_resident_entries: usize,
    /// Compact a log on open only once its dead bytes reach this floor
    /// (avoids churn on small logs).
    pub compact_min_dead_bytes: u64,
    /// Compact a log on open once `dead_bytes >= ratio * log_bytes`.
    pub compact_dead_ratio: f64,
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions {
            flush_every_lines: 64,
            flush_bytes: 16 * 1024,
            max_resident_entries: 1 << 20,
            compact_min_dead_bytes: 4096,
            compact_dead_ratio: 0.5,
        }
    }
}

/// Aggregate counters of a store (merged into the evaluator's `--stats`
/// output upstream).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Scopes known to the index.
    pub scopes: u64,
    /// Live entries across indexed scopes.
    pub entries: u64,
    /// Bytes across indexed scope logs.
    pub disk_bytes: u64,
    /// Lookups answered from the store this process.
    pub hits: u64,
    /// Lookups that fell through to the evaluator.
    pub misses: u64,
    /// Fresh entries recorded.
    pub puts: u64,
    /// Batched append writes performed (one syscall each).
    pub appends: u64,
    /// Entry lines those appends carried.
    pub flushed_lines: u64,
    /// Entries recovered from disk at scope opens.
    pub loaded: u64,
    /// Resident-map entries displaced by the memory bound.
    pub resident_evictions: u64,
    /// Log compactions performed.
    pub compactions: u64,
    /// Bytes reclaimed by compaction.
    pub compacted_bytes: u64,
    /// Scope logs evicted by size-budgeted GC.
    pub gc_evicted_scopes: u64,
    /// Bytes reclaimed by size-budgeted GC.
    pub gc_evicted_bytes: u64,
}

impl StoreStats {
    /// Whether any counter is non-zero.
    pub fn any(&self) -> bool {
        *self != StoreStats::default()
    }
}

/// The storage interface the evaluator layers program against. The local
/// sharded-directory store is the first implementation; a remote tier
/// (the serving daemon of ROADMAP items 1–2) is meant to slot in behind
/// the same five operations.
pub trait Store: std::fmt::Debug {
    /// Looks up the measurement recorded for `key` in `scope`. Only scopes
    /// already opened via the implementation's handshake can answer.
    fn get(&self, scope: u128, key: &[CallSiteId]) -> Option<Measurement>;
    /// Records a measurement for `key` in `scope` (buffered; durable by
    /// [`Store::flush`] at the latest).
    fn put(&self, scope: u128, key: Vec<CallSiteId>, value: Measurement);
    /// Makes every buffered write durable.
    fn flush(&self) -> std::io::Result<()>;
    /// Evicts least-recently-used scopes until the store fits
    /// `budget_bytes`.
    fn gc(&self, budget_bytes: u64) -> std::io::Result<GcReport>;
    /// Aggregate counters.
    fn stats(&self) -> StoreStats;
}
