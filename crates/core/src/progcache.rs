//! Compiled programs as first-class, content-addressed artifacts.
//!
//! A [`CompiledProgram`] is a lowered SIMB program plus its memory map,
//! tagged with the FNV-1a fingerprint of a canonical key over everything
//! that determines it: the pipeline's content with the schedule fields
//! codegen reads ([`Pipeline::content_summary`]), the compile-relevant
//! machine shape, and the backend [`CompileOptions`]. Simulation-only
//! knobs — the cycle engine, the cycle budget, tracing — are deliberately
//! *not* part of the key, so one compiled program serves every engine and
//! budget, exactly mirroring how the serve pool's result-cache key
//! excludes the deadline.
//!
//! [`ProgramCache`] memoizes compilation behind that key: the crate's
//! [`Lru`] behind a `Mutex`, whose hit/miss/eviction counters export under
//! `serve/progcache/...`. Compilation is deterministic, so a cache hit is
//! bit-identical to the compile it replaces and memoization is
//! semantically invisible; what it buys is the wall-clock — serve workers,
//! tuner search waves and CI measurements compile each distinct
//! (workload × schedule × machine) key exactly once per process. It is the
//! only compile memo: beneath it, [`compile`] lowers every stage afresh.
//!
//! The process-wide instance ([`ProgramCache::global`]) sizes itself from
//! `IPIM_PROGCACHE_CAPACITY` (default 256 programs; `0` disables caching —
//! useful for A/B-measuring the cache itself), which bounds a long-running
//! server's memory.

use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use ipim_arch::MachineConfig;
use ipim_compiler::{compile, fnv1a, CompileError, CompileOptions, CompiledPipeline};
use ipim_frontend::{Pipeline, SourceId};
use ipim_trace::MetricsRegistry;

use crate::Lru;

/// A lowered pipeline as a shareable, content-addressed artifact.
///
/// Dereferences to the underlying [`CompiledPipeline`], so existing code
/// reading `program`, `map`, `spill_slots` or `static_instructions` keeps
/// working unchanged.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    key: u64,
    canonical_key: String,
    output_source: SourceId,
    inner: CompiledPipeline,
}

// Programs cross the serve pool's thread boundary inside `RunOutcome` and
// live in the shared cache; they must be plain data.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = assert_send_sync::<CompiledProgram>();

impl Deref for CompiledProgram {
    type Target = CompiledPipeline;

    fn deref(&self) -> &CompiledPipeline {
        &self.inner
    }
}

impl CompiledProgram {
    /// The 64-bit content fingerprint (FNV-1a of
    /// [`canonical_key`](Self::canonical_key)).
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The canonical key string the fingerprint hashes.
    pub fn canonical_key(&self) -> &str {
        &self.canonical_key
    }

    /// The pipeline's output source — what
    /// [`Session::simulate`](crate::Session::simulate) reads back, kept
    /// here so simulation needs no access to the original pipeline.
    pub fn output_source(&self) -> SourceId {
        self.output_source
    }

    /// The compiled artifact itself.
    pub fn compiled(&self) -> &CompiledPipeline {
        &self.inner
    }
}

/// Canonical program-cache key: every compile-determining input in one
/// stable string. Two pipelines/machines/options with equal keys compile
/// to bit-identical programs.
pub fn program_key(
    pipeline: &Pipeline,
    config: &MachineConfig,
    options: &CompileOptions,
) -> String {
    format!(
        "pipeline={};machine={};options=reg_alloc={:?},reorder={},memory_order={}",
        pipeline.content_summary(),
        machine_compile_summary(config),
        options.reg_alloc,
        options.reorder,
        options.memory_order,
    )
}

/// The compile-relevant slice of a machine configuration: exactly the
/// fields [`ipim_compiler::compile`] reads. The cycle engine, timing,
/// scheduling policies and tracing shape *simulation*, never the program,
/// so they are excluded — one compiled program serves them all.
fn machine_compile_summary(config: &MachineConfig) -> String {
    format!(
        "pes={};pes_per_vault={};pes_per_pg={};vaults_per_cube={};vaults={};\
         data_rf={};addr_rf={};pgsm_bytes={};bank_bytes={}",
        config.total_pes(),
        config.pes_per_vault(),
        config.pes_per_pg,
        config.vaults_per_cube,
        config.total_vaults(),
        config.data_rf_entries,
        config.addr_rf_entries,
        config.pgsm_bytes,
        config.bank.bank_bytes,
    )
}

/// A thread-safe LRU cache of compiled programs with observable counters.
pub struct ProgramCache {
    lru: Mutex<Lru<Arc<CompiledProgram>>>,
}

impl ProgramCache {
    /// Creates a cache holding at most `capacity` programs. A capacity of
    /// 0 disables caching (every compile is fresh, counted as a miss).
    pub fn new(capacity: usize) -> Self {
        Self { lru: Mutex::new(Lru::new(capacity)) }
    }

    /// The process-wide cache every [`Session`](crate::Session) compiles
    /// through. Capacity comes from `IPIM_PROGCACHE_CAPACITY` (default
    /// 256; `0` disables caching process-wide).
    pub fn global() -> &'static ProgramCache {
        static GLOBAL: OnceLock<ProgramCache> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let capacity = std::env::var("IPIM_PROGCACHE_CAPACITY")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(256);
            ProgramCache::new(capacity)
        })
    }

    /// Compiles `pipeline` for `config`/`options` through the cache: a hit
    /// returns the shared program without re-lowering anything, a miss
    /// compiles (outside the lock) and stores the result. Compile errors
    /// are never cached.
    ///
    /// # Errors
    ///
    /// Returns the compiler's error on unsupported pipelines.
    pub fn compile_pipeline(
        &self,
        pipeline: &Pipeline,
        config: &MachineConfig,
        options: &CompileOptions,
    ) -> Result<Arc<CompiledProgram>, CompileError> {
        let canonical_key = program_key(pipeline, config, options);
        let key = fnv1a(canonical_key.as_bytes());
        if let Some(hit) = self.lru().get(key) {
            return Ok(hit);
        }
        let inner = compile(pipeline, config, options)?;
        let program = Arc::new(CompiledProgram {
            key,
            canonical_key,
            output_source: pipeline.output().source,
            inner,
        });
        self.lru().insert(key, program.clone());
        Ok(program)
    }

    fn lru(&self) -> MutexGuard<'_, Lru<Arc<CompiledProgram>>> {
        self.lru.lock().expect("program cache poisoned")
    }

    /// Cached programs right now.
    pub fn len(&self) -> usize {
        self.lru().len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of `(hits, misses, evictions)`.
    pub fn stats(&self) -> (u64, u64, u64) {
        self.lru().stats()
    }

    /// Registers the program-cache counters under `serve/progcache/...`.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        self.lru().export_metrics(reg, "serve/progcache");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipim_frontend::{x, y, PipelineBuilder};

    fn tiny(mult: f32) -> Pipeline {
        let mut p = PipelineBuilder::new();
        let input = p.input("in", 32, 32);
        let out = p.func("out", 32, 32);
        p.define(out, input.at(x(), y()) * mult);
        p.schedule(out).compute_root().ipim_tile(4, 8);
        p.build(out).unwrap()
    }

    #[test]
    fn hit_shares_the_same_program() {
        let cache = ProgramCache::new(4);
        let cfg = MachineConfig::vault_slice(1);
        let opts = CompileOptions::opt();
        let p = tiny(2.0);
        let a = cache.compile_pipeline(&p, &cfg, &opts).unwrap();
        let b = cache.compile_pipeline(&p, &cfg, &opts).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "a warm compile returns the shared artifact");
        assert_eq!(cache.stats(), (1, 1, 0));
    }

    #[test]
    fn distinct_content_means_distinct_keys() {
        let cache = ProgramCache::new(4);
        let cfg = MachineConfig::vault_slice(1);
        let opts = CompileOptions::opt();
        let a = cache.compile_pipeline(&tiny(2.0), &cfg, &opts).unwrap();
        let b = cache.compile_pipeline(&tiny(3.0), &cfg, &opts).unwrap();
        assert_ne!(a.key(), b.key());
        assert_eq!(cache.stats(), (0, 2, 0));
    }

    #[test]
    fn engine_is_not_part_of_the_key() {
        use ipim_arch::Engine;
        let cfg = MachineConfig::vault_slice(1);
        let legacy = MachineConfig { engine: Engine::Legacy, ..cfg.clone() };
        let opts = CompileOptions::opt();
        let p = tiny(2.0);
        assert_eq!(program_key(&p, &cfg, &opts), program_key(&p, &legacy, &opts));
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let cache = ProgramCache::new(0);
        let cfg = MachineConfig::vault_slice(1);
        let opts = CompileOptions::opt();
        let p = tiny(2.0);
        let a = cache.compile_pipeline(&p, &cfg, &opts).unwrap();
        let b = cache.compile_pipeline(&p, &cfg, &opts).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), (0, 2, 0));
        assert!(cache.is_empty());
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let cache = ProgramCache::new(2);
        let cfg = MachineConfig::vault_slice(1);
        let opts = CompileOptions::opt();
        let a = cache.compile_pipeline(&tiny(1.0), &cfg, &opts).unwrap();
        let _b = cache.compile_pipeline(&tiny(2.0), &cfg, &opts).unwrap();
        // Touch `a` so `b` becomes the LRU victim.
        let a2 = cache.compile_pipeline(&tiny(1.0), &cfg, &opts).unwrap();
        assert!(Arc::ptr_eq(&a, &a2));
        let _c = cache.compile_pipeline(&tiny(3.0), &cfg, &opts).unwrap();
        let (_, _, evictions) = cache.stats();
        assert_eq!(evictions, 1);
        // `a` survived, `b` was evicted.
        let a3 = cache.compile_pipeline(&tiny(1.0), &cfg, &opts).unwrap();
        assert!(Arc::ptr_eq(&a, &a3));
        assert_eq!(cache.len(), 2);
    }
}
