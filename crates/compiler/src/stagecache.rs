//! Process-wide memoization of per-stage lowering.
//!
//! [`compile`](crate::compile) lowers each root stage into its own
//! label-self-contained [`Item`](crate::kb::Item) list and splices the
//! lists together (rebasing labels) before the global backend passes run.
//! That makes a stage's lowering a pure function of a small set of inputs
//! — the stage's content (body, extent, the schedule knobs codegen reads),
//! the layouts of every buffer it touches, the tile grid, the machine
//! facts, the register policy and (for histograms) the scratch base and
//! incoming sync phase — so it can be cached across compilations.
//!
//! Sibling schedule candidates during autotuning, repeated serve jobs and
//! back-to-back CI measurements all hit this cache: a warm compilation
//! re-lowers nothing whose key is unchanged, and because the miss path
//! and the hit path produce the same item list, memoization is
//! bit-invisible in the final program.
//!
//! The cache is a bounded LRU behind a `Mutex` (lowering never runs under
//! the lock). Counters are process-global and surface through
//! [`stage_cache_stats`]; `ipim-core` exports them next to the
//! compiled-program cache under `serve/progcache/stage_*`.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use crate::kb::Item;

/// One stage's finished lowering: a label-self-contained item list, how
/// many labels it used, and the sync phase the stage advanced to (always
/// the incoming phase for pure stages; histograms bump it per barrier).
#[derive(Debug, Clone)]
pub(crate) struct LoweredStage {
    pub items: Vec<Item>,
    pub labels: u32,
    pub sync_phase_after: u32,
}

struct Entry {
    stage: LoweredStage,
    touched: u64,
}

struct Inner {
    capacity: usize,
    tick: u64,
    entries: HashMap<u64, Entry>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Maximum cached stage lowerings. Stages are a few KiB of items each, so
/// this bounds the cache to single-digit MiB while covering a whole
/// autotuning space (hundreds of candidates × a handful of stages).
const CAPACITY: usize = 1024;

fn cache() -> &'static Mutex<Inner> {
    static CACHE: OnceLock<Mutex<Inner>> = OnceLock::new();
    CACHE.get_or_init(|| {
        Mutex::new(Inner {
            capacity: CAPACITY,
            tick: 0,
            entries: HashMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        })
    })
}

/// Looks a stage key up, refreshing recency and counting a hit or miss.
pub(crate) fn lookup(key: u64) -> Option<LoweredStage> {
    let mut c = cache().lock().expect("stage cache poisoned");
    c.tick += 1;
    let tick = c.tick;
    let found = c.entries.get_mut(&key).map(|e| {
        e.touched = tick;
        e.stage.clone()
    });
    match found {
        Some(stage) => {
            c.hits += 1;
            Some(stage)
        }
        None => {
            c.misses += 1;
            None
        }
    }
}

/// Stores a freshly lowered stage, evicting the least-recently-used entry
/// when full. Racing inserts for the same key keep the first entry (both
/// lowerings are identical by construction).
pub(crate) fn insert(key: u64, stage: LoweredStage) {
    let mut c = cache().lock().expect("stage cache poisoned");
    if c.entries.contains_key(&key) {
        return;
    }
    if c.entries.len() >= c.capacity {
        if let Some(&lru) = c.entries.iter().min_by_key(|(_, e)| e.touched).map(|(k, _)| k) {
            c.entries.remove(&lru);
            c.evictions += 1;
        }
    }
    c.tick += 1;
    let tick = c.tick;
    c.entries.insert(key, Entry { stage, touched: tick });
}

/// Process-wide `(hits, misses, evictions)` of the stage-lowering cache.
pub fn stage_cache_stats() -> (u64, u64, u64) {
    let c = cache().lock().expect("stage cache poisoned");
    (c.hits, c.misses, c.evictions)
}

/// 64-bit FNV-1a — the same stable, dependency-free hash the serving
/// layer's result cache uses, shared here so stage keys and the
/// compiled-program cache key in `ipim-core` agree on one function.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
