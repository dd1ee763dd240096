//! Online sharded FeMux serving (§5.2's "1-vCPU pod serves 1,200+
//! apps" deployment claim, reproduced as a harness).
//!
//! The rest of the workspace is offline: label → extract → fit →
//! replay, each pass re-reading whole series. This crate is the online
//! half — a long-running, deterministically replayable serving loop:
//!
//! - **Sharding** ([`shard_of`]): per-app state lives on exactly one of
//!   `FEMUX_THREADS` worker shards, assigned by the stable FNV-1a hash
//!   of the app id. Assignment depends only on the id and the shard
//!   count, never on arrival order or scheduling.
//! - **One controller** ([`femux::manager::AppManager`]): every app is
//!   driven by the same bounded-memory per-app manager the offline
//!   replay uses. Its features are maintained per sample
//!   ([`femux_features::IncrementalExtractor`], the extractor training
//!   also runs); at each boundary the k-means router picks the next
//!   forecaster, and the degradation ladder handles demotion, backoff,
//!   and re-promotion when forecasts panic or go non-finite.
//! - **Determinism** ([`harness::ServeReport::digest`]): same trace +
//!   seed ⇒ byte-identical decisions and metrics at *any* shard count.
//!   Wall-clock tick latencies are measured on request (for Fig.
//!   14-Right and perfbench) but excluded from the digest.
//!
//! The trace feed ([`feed::TraceFeed`]) runs on a virtual clock — one
//! step per trace minute — and goes through the strict ingest boundary
//! ([`femux_trace::ingest`]), so non-monotone history is rejected or
//! clamped, never silently reordered.

pub mod feed;
pub mod harness;

pub use feed::{AppFeed, TraceFeed};
pub use harness::{run, AppOutcome, ServeConfig, ServeReport};

use femux_trace::AppId;

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The shard owning an app: `fnv1a(id) % shards`. Stable across runs,
/// platforms, and shard layouts — resizing the pool moves apps but
/// never makes two shards claim one app.
///
/// # Panics
///
/// Panics if `shards == 0`.
pub fn shard_of(id: AppId, shards: usize) -> usize {
    assert!(shards > 0, "need at least one shard");
    (fnv1a(&id.0.to_le_bytes()) % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn shard_assignment_is_stable_and_total() {
        for shards in 1..=16 {
            for id in 0..500u32 {
                let s = shard_of(AppId(id), shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(AppId(id), shards), "stable");
            }
        }
    }

    #[test]
    fn shard_assignment_spreads_apps() {
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for id in 0..4_000u32 {
            counts[shard_of(AppId(id), shards)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                c > 4_000 / shards / 2,
                "shard {s} starved with {c} apps: {counts:?}"
            );
        }
    }
}
