//! # cordoba-store
//!
//! Content-addressed persistent memoization for CORDOBA's deterministic
//! pipelines (ROADMAP item 5).
//!
//! The DSE pipeline is bit-reproducible at any thread count, which makes
//! every expensive result a pure function of its inputs — and a pure
//! function of hashable inputs can be stored. This crate provides the two
//! halves of that substrate:
//!
//! * [`KeyBuilder`] / [`StoreKey`] — a stable in-crate 128-bit FNV-1a hash
//!   over a canonical byte encoding (f64s as raw IEEE-754 bits, matching
//!   the `SweepCheckpoint` convention; strings length-prefixed). Consumers
//!   feed in everything the result depends on: config fingerprints, the
//!   CI-source fingerprint, `TechTuning` parameters, sweep axes.
//! * [`Store`] — a disk-backed map from `(kind, key)` to payload lines,
//!   with versioned entry framing, a code-version salt
//!   ([`CODE_VERSION_SALT`]) for wholesale invalidation, atomic writes, and
//!   graceful handling of corrupt or truncated files (any damage is a miss
//!   and a recompute, never a panic and never a wrong answer).
//!
//! Payload encoding of domain types deliberately lives in the consumer
//! crates (`cordoba-accel` for embodied carbon, `cordoba` for sweeps): the
//! store only moves opaque text lines, so it depends on nothing but
//! `cordoba-obs` for `store_hit` / `store_miss` / `store_write` telemetry.

pub mod codec;
pub mod io;
pub mod key;

pub use codec::{hex_f64, parse_hex_f64, parse_hex_f64_bytes, push_hex_f64};
pub use io::{EntryInfo, Store, CODE_VERSION_SALT, FORMAT_HEADER};
pub use key::{KeyBuilder, StoreKey};
