//! The inline sequential reference the threaded engine is tested against.

use dpmg_sketch::merge::merge_tree;
use dpmg_sketch::misra_gries::MisraGries;
use dpmg_sketch::traits::{Item, Summary};

/// Convenience for tests and experiments: the sequential reference of a
/// hash-sharded run — partition `stream` with [`crate::shard_of_key`],
/// sketch each shard inline, and merge with the same tree shape the
/// pipeline uses. A correctly functioning pipeline produces *identical*
/// per-shard summaries and merged summary.
///
/// # Panics
///
/// Panics if `shards = 0` or `k = 0`.
pub fn sequential_sharded_reference<K: Item>(
    stream: &[K],
    shards: usize,
    k: usize,
) -> (Vec<Summary<K>>, Summary<K>) {
    assert!(shards >= 1, "shards must be ≥ 1");
    let mut sketches: Vec<MisraGries<K>> = (0..shards)
        .map(|_| MisraGries::new(k).expect("k validated by caller"))
        .collect();
    for item in stream {
        sketches[crate::engine::shard_of_key(item, shards)].update(item.clone());
    }
    let summaries: Vec<Summary<K>> = sketches.iter().map(|s| s.summary()).collect();
    let merged = merge_tree(&summaries).unwrap_or_else(|| Summary::empty(k));
    (summaries, merged)
}
