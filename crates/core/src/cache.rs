//! Content-addressed stage cache (PR 3).
//!
//! The paper's security argument is a *key-space sweep*: a counterfeiter
//! pays one print per [`crate::ProcessKey`], and our experiments replay
//! that sweep in software. Keys share long stage prefixes (same part +
//! resolution ⇒ identical mesh; same mesh + slicer settings ⇒ identical
//! slice stack), so re-running [`crate::run_pipeline`] per key recomputes
//! the same immutable artifacts over and over. This module provides the
//! incremental-evaluation substrate that stops paying for a prefix twice:
//!
//! * [`StageKey`] — a 128-bit canonical content hash over a stage's
//!   *complete* input set (part recipe, [`am_mesh::Resolution`],
//!   [`am_slicer::Orientation`], [`am_slicer::SlicerConfig`],
//!   [`am_printer::PrinterProfile`], seed, active [`crate::FaultPlan`]),
//!   produced by [`StageHasher`] — a vendored two-lane
//!   FNV-1a/splitmix-style hasher, so the repo stays free of external
//!   dependencies.
//! * [`StageCache`] — a bounded, thread-safe, content-addressed map from
//!   `StageKey` to immutable stage artifacts behind `Arc`, with
//!   least-recently-used eviction by estimated byte cost and
//!   hit/miss/eviction counters ([`CacheStats`]).
//!
//! # Key derivation and the fault-poisoning rule
//!
//! Stage keys chain: each stage's key absorbs the previous stage's key
//! plus the new inputs that stage consumes. Injected faults *poison* the
//! chain at the stage where they strike: the fault entries (and the fault
//! seed, when the stage draws from it) are hashed into that stage's key,
//! so every downstream key inherits the poison and a faulted run can
//! never alias a clean one — while a `FaultPlan` whose faults all land
//! *downstream* of a stage leaves that stage's key (and its cache entry)
//! shareable with clean runs.
//!
//! # Determinism contract
//!
//! The batch engine's thread budget ([`am_par::Parallelism`]) is not an
//! input of any key: it decides which jobs run side by side, never what
//! a stage computes (DESIGN.md §8). Canonical encoding is
//! field-by-field: floats hash their IEEE-754 bits
//! (`f64::to_bits`), enums hash an explicit discriminant byte, sequences
//! are length-prefixed, and every structured input (part recipe, slicer
//! config, printer profile) is absorbed by a visitor that writes each
//! field through the typed writers — no `Debug`/`Display` rendering of
//! foreign types is ever hashed, so a future formatting change cannot
//! silently alias distinct inputs (pinned by the
//! `key_schema_is_field_sensitive` test in `crate::pipeline`).
//! Pipeline *errors* are never cached; only successfully built artifacts
//! are, and a cached artifact is returned behind `Arc` without cloning
//! the payload. Within one batch, warm failures are still replayed rather
//! than recomputed via a per-batch side map (see [`crate::batch`]).

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex};

use am_fea::TensileResult;

use crate::detect::{DetectionReport, SanitizeReport};
use crate::pipeline::{MeshArtifact, PrintArtifact, SliceArtifact, ToolpathArtifact};
use crate::spill::SpillStore;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const LANE_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Finalizer from the splitmix64 generator: a full-avalanche bijection,
/// so the weakly-mixed FNV lanes come out uniformly distributed.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A deterministic, dependency-free content hasher producing 128-bit
/// [`StageKey`]s.
///
/// Two independent FNV-1a lanes (the second salted and rotated, so the
/// lanes never collapse into one) are finalized through splitmix64 with a
/// cross-mix. Every write is framed (strings are length-prefixed, scalars
/// are fixed-width little-endian), so field boundaries cannot alias.
#[derive(Debug, Clone)]
pub struct StageHasher {
    a: u64,
    b: u64,
    len: u64,
}

impl StageHasher {
    /// Starts a hash stream under a domain-separation tag (e.g.
    /// `"obfuscade/mesh/v1"`): equal payloads under different domains
    /// yield unrelated keys.
    pub fn new(domain: &str) -> Self {
        let mut h = StageHasher { a: FNV_OFFSET, b: FNV_OFFSET ^ LANE_SALT, len: 0 };
        h.write_str(domain);
        h
    }

    /// Absorbs raw bytes (unframed — prefer the typed writers).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(byte)).wrapping_mul(FNV_PRIME).rotate_left(29);
        }
        self.len = self.len.wrapping_add(bytes.len() as u64);
    }

    /// Absorbs a length-prefixed string.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a single byte (enum discriminants, flags).
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Absorbs an `f64` by IEEE-754 bit pattern — exact, no rounding: two
    /// floats hash equal iff they are the same value (`-0.0` ≠ `0.0`,
    /// each NaN payload distinct).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorbs another [`StageKey`] — how stage keys chain.
    pub fn write_key(&mut self, key: StageKey) {
        self.write_u64(key.0[0]);
        self.write_u64(key.0[1]);
    }

    /// Finalizes the stream into a [`StageKey`].
    pub fn finish(self) -> StageKey {
        let a = splitmix(self.a ^ self.len);
        let b = splitmix(self.b ^ a);
        StageKey([a, b])
    }
}

/// A 128-bit content address for one stage artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StageKey([u64; 2]);

impl StageKey {
    /// The raw 128 bits as two words.
    pub fn to_words(self) -> [u64; 2] {
        self.0
    }

    /// Rebuilds a key from [`StageKey::to_words`] words — the inverse the
    /// persistent spill tier needs to re-index records after a restart.
    pub fn from_words(words: [u64; 2]) -> Self {
        StageKey(words)
    }
}

impl fmt::Display for StageKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.0[0], self.0[1])
    }
}

/// The mesh→slice **prefix key** of one job: the [`StageKey`] under which
/// the pipeline caches the job's slice artifact, derived purely from the
/// job description — nothing is meshed or sliced to compute it.
///
/// Two jobs share this key exactly when they share the whole mesh→slice
/// chain (same part recipe, resolution, orientation, slicer config, and
/// upstream faults), i.e. when running them on the same [`StageCache`]
/// lets the second reuse the first's warm mesh and slice entries. That
/// makes it the canonical *affinity* hash input for a router tier:
/// sending same-prefix jobs to the same backend daemon preserves the
/// shared-prefix warming of [`crate::run_pipeline_jobs`] across a fleet.
/// The `prefix_key_is_the_slice_stage_cache_key` pin test in
/// `crate::pipeline` proves this function returns byte-for-byte the key
/// the pipeline actually computes at the slice stage, so router hashing
/// can never drift from cache contents.
///
/// The key depends on the job description alone — no process state — so
/// a router and its daemons always agree on it, and
/// `stage_keys_match_recorded_literals` pins its value across releases.
pub fn prefix_key_for_job(
    part: &am_cad::Part,
    plan: &crate::ProcessPlan,
    faults: &crate::FaultPlan,
) -> StageKey {
    crate::pipeline::plan_keys(part, plan, faults).slice
}

/// One immutable stage artifact, shared by reference.
///
/// Crate-internal: callers interact with the cache through
/// [`crate::run_pipeline_cached`] and the batch engine, never with raw
/// artifacts.
#[derive(Clone)]
pub(crate) enum StageArtifact {
    Mesh(Arc<MeshArtifact>),
    Slice(Arc<SliceArtifact>),
    Toolpath(Arc<ToolpathArtifact>),
    Print(Arc<PrintArtifact>),
    Tensile(Arc<TensileResult>),
    Detection(Arc<DetectionReport>),
    Sanitize(Arc<SanitizeReport>),
}

impl StageArtifact {
    pub(crate) fn into_mesh(self) -> Option<Arc<MeshArtifact>> {
        match self {
            StageArtifact::Mesh(v) => Some(v),
            _ => None,
        }
    }

    pub(crate) fn into_slice(self) -> Option<Arc<SliceArtifact>> {
        match self {
            StageArtifact::Slice(v) => Some(v),
            _ => None,
        }
    }

    pub(crate) fn into_toolpath(self) -> Option<Arc<ToolpathArtifact>> {
        match self {
            StageArtifact::Toolpath(v) => Some(v),
            _ => None,
        }
    }

    pub(crate) fn into_print(self) -> Option<Arc<PrintArtifact>> {
        match self {
            StageArtifact::Print(v) => Some(v),
            _ => None,
        }
    }

    pub(crate) fn into_tensile(self) -> Option<Arc<TensileResult>> {
        match self {
            StageArtifact::Tensile(v) => Some(v),
            _ => None,
        }
    }

    pub(crate) fn into_detection(self) -> Option<Arc<DetectionReport>> {
        match self {
            StageArtifact::Detection(v) => Some(v),
            _ => None,
        }
    }

    pub(crate) fn into_sanitize(self) -> Option<Arc<SanitizeReport>> {
        match self {
            StageArtifact::Sanitize(v) => Some(v),
            _ => None,
        }
    }
}

/// Counter snapshot of a [`StageCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
    /// Entries inserted (including replacements).
    pub insertions: u64,
    /// Live entries right now.
    pub entries: usize,
    /// Estimated bytes held right now. Counts **resident** entries only —
    /// spilled entries live on disk and do not consume the budget.
    pub bytes: usize,
    /// Byte budget (resident tier only).
    pub budget: usize,
    /// Entries currently indexed in the persistent spill tier (0 when no
    /// spill store is attached).
    pub spill_entries: usize,
    /// Record-body bytes currently indexed in the spill tier. Reported
    /// separately from `bytes` — disk bytes never count against the
    /// in-memory budget.
    pub spill_bytes: u64,
    /// Lookups served by rehydrating a spilled artifact (each also counts
    /// as a `hits` — the caller got a cache hit, just a slower one).
    pub spill_hits: u64,
    /// Evicted artifacts appended to the spill tier.
    pub spill_writes: u64,
    /// Spill records dropped for failing CRC or payload validation —
    /// recomputed, never served.
    pub spill_corrupt_dropped: u64,
    /// Spill appends that failed (I/O errors and injected chaos faults).
    pub spill_write_failures: u64,
}

impl CacheStats {
    /// Hits over lookups (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 { 0.0 } else { self.hits as f64 / lookups as f64 }
    }
}

struct Entry {
    value: StageArtifact,
    cost: usize,
    /// Tick of the last touch; doubles as this entry's index in
    /// `Inner::recency`.
    last_used: u64,
}

struct Inner {
    map: HashMap<StageKey, Entry>,
    /// Recency index: `last_used` tick → key, one entry per live map
    /// entry. Ticks are unique (every `get`/`insert` takes a fresh one),
    /// so the first entry is always the least recently used and eviction
    /// is `O(log n)` instead of a full map scan.
    recency: BTreeMap<u64, StageKey>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    insertions: u64,
}

/// A bounded, thread-safe, content-addressed cache of immutable stage
/// artifacts.
///
/// Artifacts live behind `Arc`, so a hit is a pointer clone; eviction is
/// least-recently-used by estimated byte cost. The cache only ever
/// affects wall-clock time: a hit returns exactly what a recompute would
/// produce (see the module docs for the determinism contract).
pub struct StageCache {
    inner: Mutex<Inner>,
    budget: usize,
    /// Optional persistent tier: evictions spill here, resident misses
    /// rehydrate from here (see [`crate::SpillStore`]).
    spill: Option<SpillStore>,
}

impl StageCache {
    /// Default byte budget: 256 MiB — comfortably holds a full key-space
    /// sweep of the paper's parts while bounding worst-case growth.
    pub const DEFAULT_BUDGET: usize = 256 << 20;

    /// A cache bounded at `budget_bytes` of estimated artifact cost.
    pub fn with_budget(budget_bytes: usize) -> Self {
        StageCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                recency: BTreeMap::new(),
                bytes: 0,
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                insertions: 0,
            }),
            budget: budget_bytes,
            spill: None,
        }
    }

    /// A cache bounded at `budget_bytes` with a persistent spill tier
    /// underneath: evicted artifacts are appended to `spill`, resident
    /// misses consult it before reporting a miss, and entries recovered
    /// from a previous process are rehydrated the same way. The byte
    /// budget still bounds only the resident tier.
    pub fn with_budget_and_spill(budget_bytes: usize, spill: SpillStore) -> Self {
        let mut cache = StageCache::with_budget(budget_bytes);
        cache.spill = Some(spill);
        cache
    }

    /// The attached spill store, when one was configured.
    pub fn spill(&self) -> Option<&SpillStore> {
        self.spill.as_ref()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned lock only means another thread panicked mid-insert;
        // the map itself is always structurally valid.
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub(crate) fn get(&self, key: StageKey) -> Option<StageArtifact> {
        {
            let mut guard = self.lock();
            let inner = &mut *guard;
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.map.get_mut(&key) {
                inner.recency.remove(&entry.last_used);
                inner.recency.insert(tick, key);
                entry.last_used = tick;
                let value = entry.value.clone();
                inner.hits += 1;
                return Some(value);
            }
        }
        // Resident miss: consult the spill tier outside the resident lock
        // (rehydration does disk I/O; other lookups must not stall on it).
        if let Some(spill) = &self.spill {
            if let Some((value, cost)) = spill.get(key) {
                // A rehydration is a hit — the caller gets exactly the
                // bytes a recompute would produce, just from disk. Promote
                // the entry back into the resident tier at its original
                // cost so the next lookup is fast again.
                self.lock().hits += 1;
                self.insert(key, value.clone(), cost);
                return Some(value);
            }
        }
        self.lock().misses += 1;
        None
    }

    pub(crate) fn insert(&self, key: StageKey, value: StageArtifact, cost: usize) {
        if cost > self.budget {
            // An artifact larger than the whole budget would evict
            // everything and then be evicted itself; don't admit it.
            return;
        }
        let mut evicted: Vec<(StageKey, Entry)> = Vec::new();
        {
            let mut guard = self.lock();
            let inner = &mut *guard;
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(old) = inner.map.insert(key, Entry { value, cost, last_used: tick }) {
                inner.bytes -= old.cost;
                inner.recency.remove(&old.last_used);
            }
            inner.recency.insert(tick, key);
            inner.bytes += cost;
            inner.insertions += 1;
            // LRU eviction by byte cost: pop least-recently-used entries
            // off the recency index until the budget holds — `O(log n)`
            // per eviction. The entry just inserted carries the newest
            // tick, so it is only evicted if it alone exceeds budget —
            // excluded above.
            while inner.bytes > self.budget {
                match inner.recency.pop_first() {
                    Some((_, k)) => {
                        if let Some(e) = inner.map.remove(&k) {
                            inner.bytes -= e.cost;
                            inner.evictions += 1;
                            if self.spill.is_some() {
                                evicted.push((k, e));
                            }
                        }
                    }
                    None => break,
                }
            }
        }
        // Spill evicted artifacts after releasing the resident lock —
        // serialization and the disk write must not block other lookups.
        // `SpillStore::put` is idempotent per key, so an entry that
        // ping-pongs between tiers is written once.
        if let Some(spill) = &self.spill {
            for (k, e) in evicted {
                spill.put(k, &e.value, e.cost);
            }
        }
    }

    /// Looks up a cached [`DetectionReport`].
    ///
    /// Public (unlike the raw `get`/`insert`) because the detection
    /// subsystem lives in the `am-detect` crate: its results are stage
    /// artifacts — cached, spilled, and rehydrated exactly like pipeline
    /// stages — but the code that computes them sits outside this crate.
    pub fn get_detection(&self, key: StageKey) -> Option<Arc<DetectionReport>> {
        self.get(key).and_then(StageArtifact::into_detection)
    }

    /// Caches a [`DetectionReport`] under its content-addressed key.
    pub fn insert_detection(&self, key: StageKey, report: Arc<DetectionReport>) {
        let cost = report.cost_bytes();
        self.insert(key, StageArtifact::Detection(report), cost);
    }

    /// Looks up a cached [`SanitizeReport`] (see [`StageCache::get_detection`]).
    pub fn get_sanitize(&self, key: StageKey) -> Option<Arc<SanitizeReport>> {
        self.get(key).and_then(StageArtifact::into_sanitize)
    }

    /// Caches a [`SanitizeReport`] under its content-addressed key.
    pub fn insert_sanitize(&self, key: StageKey, report: Arc<SanitizeReport>) {
        let cost = report.cost_bytes();
        self.insert(key, StageArtifact::Sanitize(report), cost);
    }

    /// Counter snapshot (the resident tier plus the spill tier, when one
    /// is attached).
    pub fn stats(&self) -> CacheStats {
        let resident = {
            let inner = self.lock();
            CacheStats {
                hits: inner.hits,
                misses: inner.misses,
                evictions: inner.evictions,
                insertions: inner.insertions,
                entries: inner.map.len(),
                bytes: inner.bytes,
                budget: self.budget,
                ..CacheStats::default()
            }
        };
        match &self.spill {
            None => resident,
            Some(spill) => {
                let s = spill.stats();
                CacheStats {
                    spill_entries: s.entries,
                    spill_bytes: s.bytes,
                    spill_hits: s.hits,
                    spill_writes: s.writes,
                    spill_corrupt_dropped: s.corrupt_dropped,
                    spill_write_failures: s.write_failures,
                    ..resident
                }
            }
        }
    }

    /// Drops every entry — resident and spilled — and resets the counters
    /// (the budget stays).
    pub fn clear(&self) {
        {
            let mut inner = self.lock();
            inner.map.clear();
            inner.recency.clear();
            inner.bytes = 0;
            inner.tick = 0;
            inner.hits = 0;
            inner.misses = 0;
            inner.evictions = 0;
            inner.insertions = 0;
        }
        if let Some(spill) = &self.spill {
            spill.clear();
        }
    }
}

impl Default for StageCache {
    fn default() -> Self {
        StageCache::with_budget(Self::DEFAULT_BUDGET)
    }
}

impl fmt::Debug for StageCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StageCache").field("stats", &self.stats()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_of(label: &str) -> StageKey {
        let mut h = StageHasher::new("test/v1");
        h.write_str(label);
        h.finish()
    }

    fn tensile_artifact(uts: f64) -> StageArtifact {
        StageArtifact::Tensile(Arc::new(TensileResult {
            curve: Vec::new(),
            young_modulus_gpa: 1.0,
            uts_mpa: uts,
            failure_strain: 0.0,
            toughness_kj_m3: 0.0,
            fracture_origin: None,
            fracture_path: Vec::new(),
            ruptured: false,
        }))
    }

    #[test]
    fn hasher_is_deterministic_and_injective_on_framing() {
        assert_eq!(key_of("a"), key_of("a"));
        assert_ne!(key_of("a"), key_of("b"));
        // Framing: ("ab", "c") must not alias ("a", "bc").
        let mut h1 = StageHasher::new("d");
        h1.write_str("ab");
        h1.write_str("c");
        let mut h2 = StageHasher::new("d");
        h2.write_str("a");
        h2.write_str("bc");
        assert_ne!(h1.finish(), h2.finish());
        // Domain separation.
        let mut h3 = StageHasher::new("other");
        h3.write_str("a");
        assert_ne!(key_of("a"), h3.finish());
        // Float bits: -0.0 and 0.0 are distinct inputs.
        let mut hp = StageHasher::new("f");
        hp.write_f64(0.0);
        let mut hn = StageHasher::new("f");
        hn.write_f64(-0.0);
        assert_ne!(hp.finish(), hn.finish());
    }

    #[test]
    fn cache_counts_hits_misses_and_serves_inserted_values() {
        let cache = StageCache::with_budget(1 << 20);
        let k = key_of("entry");
        assert!(cache.get(k).is_none());
        cache.insert(k, tensile_artifact(1.0), 100);
        let got = cache.get(k).and_then(StageArtifact::into_tensile).expect("hit");
        assert!((got.uts_mpa - 1.0).abs() < 1e-12);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.insertions, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_respects_byte_budget_and_recency() {
        let cache = StageCache::with_budget(250);
        let (ka, kb, kc) = (key_of("a"), key_of("b"), key_of("c"));
        cache.insert(ka, tensile_artifact(1.0), 100);
        cache.insert(kb, tensile_artifact(2.0), 100);
        // Touch `a` so `b` becomes the least recently used.
        assert!(cache.get(ka).is_some());
        cache.insert(kc, tensile_artifact(3.0), 100);
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes <= 250);
        assert!(cache.get(kb).is_none(), "LRU entry should have been evicted");
        assert!(cache.get(ka).is_some());
        assert!(cache.get(kc).is_some());
    }

    #[test]
    fn sustained_eviction_pressure_keeps_the_most_recent_entries() {
        let cache = StageCache::with_budget(300);
        for i in 0..100 {
            cache.insert(key_of(&format!("e{i}")), tensile_artifact(f64::from(i)), 100);
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.evictions, 97);
        assert!(stats.bytes <= 300);
        for i in 97..100 {
            assert!(
                cache.get(key_of(&format!("e{i}"))).is_some(),
                "entry e{i} should have survived"
            );
        }
    }

    #[test]
    fn oversized_artifacts_are_not_admitted() {
        let cache = StageCache::with_budget(100);
        cache.insert(key_of("big"), tensile_artifact(1.0), 1000);
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.get(key_of("big")).is_none());
    }

    #[test]
    fn clear_resets_entries_and_counters() {
        let cache = StageCache::default();
        cache.insert(key_of("x"), tensile_artifact(1.0), 10);
        let _ = cache.get(key_of("x"));
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats, CacheStats { budget: StageCache::DEFAULT_BUDGET, ..CacheStats::default() });
    }

    fn spill_scratch(label: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("obfuscade-cache-spill-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn uts_of(artifact: StageArtifact) -> f64 {
        artifact.into_tensile().expect("tensile artifact").uts_mpa
    }

    #[test]
    fn evictions_spill_to_disk_and_misses_rehydrate() {
        let dir = spill_scratch("rehydrate");
        let store = SpillStore::open(&dir).expect("open spill");
        let cache = StageCache::with_budget_and_spill(250, store);
        let (ka, kb, kc) = (key_of("a"), key_of("b"), key_of("c"));
        cache.insert(ka, tensile_artifact(1.0), 100);
        cache.insert(kb, tensile_artifact(2.0), 100);
        cache.insert(kc, tensile_artifact(3.0), 100); // evicts `a` → spill
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.spill_writes, 1);
        assert!(stats.bytes <= 250, "resident bytes alone respect the budget");

        // The evicted entry is a hit again — rehydrated, byte-identical.
        let got = cache.get(ka).expect("rehydrated from spill");
        assert!((uts_of(got) - 1.0).abs() < 1e-12);
        let stats = cache.stats();
        assert_eq!(stats.spill_hits, 1);
        assert_eq!(stats.misses, 0, "a spill hit is not a miss");
        assert!(stats.hits >= 1);
        // Rehydration promoted `a` back to resident, evicting another
        // entry — the budget still only counts resident bytes.
        assert!(stats.bytes <= 250);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_survives_a_cache_restart() {
        let dir = spill_scratch("restart");
        let key = key_of("persisted");
        {
            let store = SpillStore::open(&dir).expect("open spill");
            let cache = StageCache::with_budget_and_spill(150, store);
            cache.insert(key, tensile_artifact(7.0), 100);
            cache.insert(key_of("displacer"), tensile_artifact(8.0), 100);
            assert_eq!(cache.stats().spill_writes, 1);
        }
        // A brand-new cache over the same directory: the entry is found
        // without ever being inserted in this "process".
        let store = SpillStore::open(&dir).expect("reopen spill");
        let cache = StageCache::with_budget_and_spill(150, store);
        let got = cache.get(key).expect("warm start from spill");
        assert!((uts_of(got) - 7.0).abs() < 1e-12);
        let stats = cache.stats();
        assert_eq!((stats.spill_hits, stats.hits, stats.misses), (1, 1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_empties_the_spill_tier_too() {
        let dir = spill_scratch("clear");
        let store = SpillStore::open(&dir).expect("open spill");
        let cache = StageCache::with_budget_and_spill(150, store);
        let key = key_of("cleared");
        cache.insert(key, tensile_artifact(1.0), 100);
        cache.insert(key_of("pusher"), tensile_artifact(2.0), 100);
        cache.clear();
        assert!(cache.get(key).is_none());
        let stats = cache.stats();
        assert_eq!((stats.spill_entries, stats.spill_bytes), (0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
