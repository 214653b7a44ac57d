//! Per-rule attribution counters.
//!
//! Rule labels (the `Display` form of a `ComboKey`, or a synthetic name
//! like `seq:...`) are interned once into a dense [`RuleId`] so the hot
//! path touches only `Vec` indexing. Two counts are kept per rule:
//!
//! * `static_hits` — how many times translation selected the rule
//!   (once per translated site), plus `static_misses` for lookups that
//!   found no rule;
//! * `dyn_covered` — how many *executed* guest instructions the rule
//!   supplied, i.e. static coverage weighted by block execution counts.
//!   Summed over all rules this equals the engine's `rule_covered`
//!   metric, so coverage decomposes exactly into per-rule shares.

use std::collections::HashMap;
use std::fmt;

/// Dense handle for an interned rule label.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RuleId(pub u32);

/// One rule's attribution row.
#[derive(Clone, Debug, Default)]
pub struct RuleRow {
    /// Display label (`add reg reg imm /00`, `seq:...`, `qemu:...`).
    pub label: String,
    /// Instruction-class subgroup the rule's root op belongs to
    /// (`Int/Dp/Alu` style), empty when not applicable.
    pub subgroup: String,
    /// Times translation instantiated this rule.
    pub static_hits: u64,
    /// Executed guest instructions this rule covered.
    pub dyn_covered: u64,
}

/// Interned per-rule hit/coverage counters plus a miss table.
#[derive(Clone, Debug, Default)]
pub struct RuleCounters {
    index: HashMap<String, RuleId>,
    rows: Vec<RuleRow>,
    /// Lookup misses keyed by the un-matched opcode/key label.
    misses: HashMap<String, u64>,
}

impl RuleCounters {
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `label`, recording `subgroup` on first sight.
    pub fn intern(&mut self, label: &str, subgroup: &str) -> RuleId {
        if let Some(&id) = self.index.get(label) {
            return id;
        }
        let id = RuleId(self.rows.len() as u32);
        self.index.insert(label.to_string(), id);
        self.rows.push(RuleRow {
            label: label.to_string(),
            subgroup: subgroup.to_string(),
            ..RuleRow::default()
        });
        id
    }

    #[inline]
    pub fn hit(&mut self, id: RuleId, n: u64) {
        self.rows[id.0 as usize].static_hits += n;
    }

    #[inline]
    pub fn covered(&mut self, id: RuleId, n: u64) {
        self.rows[id.0 as usize].dyn_covered += n;
    }

    /// Records a translate-time lookup that matched no rule.
    pub fn miss(&mut self, label: &str) {
        *self.misses.entry(label.to_string()).or_insert(0) += 1;
    }

    pub fn rows(&self) -> &[RuleRow] {
        &self.rows
    }

    /// Rows sorted by dynamic coverage, heaviest first.
    pub fn rows_by_coverage(&self) -> Vec<&RuleRow> {
        let mut v: Vec<_> = self.rows.iter().collect();
        v.sort_by(|a, b| {
            b.dyn_covered
                .cmp(&a.dyn_covered)
                .then(b.static_hits.cmp(&a.static_hits))
                .then(a.label.cmp(&b.label))
        });
        v
    }

    /// `(label, count)` miss rows, heaviest first.
    pub fn misses(&self) -> Vec<(&str, u64)> {
        let mut v: Vec<_> = self.misses.iter().map(|(k, &n)| (k.as_str(), n)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }

    pub fn total_static_hits(&self) -> u64 {
        self.rows.iter().map(|r| r.static_hits).sum()
    }

    pub fn total_covered(&self) -> u64 {
        self.rows.iter().map(|r| r.dyn_covered).sum()
    }

    pub fn total_misses(&self) -> u64 {
        self.misses.values().sum()
    }

    /// Per-subgroup `(subgroup, dyn_covered)` totals, heaviest first.
    pub fn coverage_by_subgroup(&self) -> Vec<(String, u64)> {
        let mut map: HashMap<&str, u64> = HashMap::new();
        for r in &self.rows {
            if !r.subgroup.is_empty() {
                *map.entry(r.subgroup.as_str()).or_insert(0) += r.dyn_covered;
            }
        }
        let mut v: Vec<_> = map.into_iter().map(|(k, n)| (k.to_string(), n)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Folds `other` into `self`, re-interning by label.
    pub fn merge(&mut self, other: &RuleCounters) {
        for row in &other.rows {
            let id = self.intern(&row.label, &row.subgroup);
            self.rows[id.0 as usize].static_hits += row.static_hits;
            self.rows[id.0 as usize].dyn_covered += row.dyn_covered;
        }
        for (label, n) in &other.misses {
            *self.misses.entry(label.clone()).or_insert(0) += n;
        }
    }
}

/// Per-shard hit/miss counters for a sharded cache (the engine's code
/// cache). Indexed by shard; recording grows the vectors on demand so a
/// default-constructed instance can absorb any shard count, and
/// [`ShardCounters::merge`] aligns lengths, so per-run counters fold
/// into suite aggregates like the histograms do.
#[derive(Clone, Debug, Default)]
pub struct ShardCounters {
    hits: Vec<u64>,
    misses: Vec<u64>,
}

impl ShardCounters {
    pub fn new() -> Self {
        Self::default()
    }

    /// A counter pre-sized to `n` shards, so exported per-shard rows
    /// have a deterministic length even for shards never touched.
    #[must_use]
    pub fn with_shards(n: usize) -> Self {
        ShardCounters {
            hits: vec![0; n],
            misses: vec![0; n],
        }
    }

    fn ensure(&mut self, shard: usize) {
        if shard >= self.hits.len() {
            self.hits.resize(shard + 1, 0);
            self.misses.resize(shard + 1, 0);
        }
    }

    #[inline]
    pub fn record_hit(&mut self, shard: usize) {
        self.ensure(shard);
        self.hits[shard] += 1;
    }

    #[inline]
    pub fn record_miss(&mut self, shard: usize) {
        self.ensure(shard);
        self.misses[shard] += 1;
    }

    /// Number of shards observed (or pre-sized).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.hits.len()
    }

    pub fn hits(&self) -> &[u64] {
        &self.hits
    }

    pub fn misses(&self) -> &[u64] {
        &self.misses
    }

    pub fn total_hits(&self) -> u64 {
        self.hits.iter().sum()
    }

    pub fn total_misses(&self) -> u64 {
        self.misses.iter().sum()
    }

    /// Hit fraction over all shards (0.0 when nothing was recorded).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.total_hits() + self.total_misses();
        if total == 0 {
            return 0.0;
        }
        self.total_hits() as f64 / total as f64
    }

    /// Folds `other` into `self`, aligning shard-vector lengths. An
    /// empty `other` is a no-op (it must not pad `self` to one shard).
    pub fn merge(&mut self, other: &ShardCounters) {
        if other.hits.is_empty() {
            return;
        }
        self.ensure(other.hits.len() - 1);
        for (a, b) in self.hits.iter_mut().zip(&other.hits) {
            *a += b;
        }
        for (a, b) in self.misses.iter_mut().zip(&other.misses) {
            *a += b;
        }
    }
}

/// Per-worker task counters for a worker pool (the parallel
/// pre-translation and derivation stages). Worker `i` of a pool maps to
/// slot `i`; merging is element-wise with length alignment.
#[derive(Clone, Debug, Default)]
pub struct PoolCounters {
    tasks: Vec<u64>,
}

impl PoolCounters {
    pub fn new() -> Self {
        Self::default()
    }

    /// A counter pre-sized to `n` worker slots, so `workers()` reports
    /// the *effective* pool width even before (or without) any pool
    /// invocation being recorded — a `jobs: 0` CLI request that clamps
    /// to one worker must surface as `workers: 1`, not `workers: 0`.
    #[must_use]
    pub fn with_workers(n: usize) -> Self {
        PoolCounters { tasks: vec![0; n] }
    }

    /// Adds one pool invocation's per-worker task counts.
    pub fn record(&mut self, per_worker: &[u64]) {
        if per_worker.len() > self.tasks.len() {
            self.tasks.resize(per_worker.len(), 0);
        }
        for (a, b) in self.tasks.iter_mut().zip(per_worker) {
            *a += b;
        }
    }

    /// Worker slots observed.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.tasks.len()
    }

    pub fn tasks(&self) -> &[u64] {
        &self.tasks
    }

    pub fn total(&self) -> u64 {
        self.tasks.iter().sum()
    }

    /// Folds `other` into `self`, aligning worker-vector lengths.
    pub fn merge(&mut self, other: &PoolCounters) {
        self.record(&other.tasks);
    }
}

/// Dispatch hot-path counters: how block transitions were resolved
/// (direct-mapped jump cache, inline chain links, or the full
/// dispatcher) and how many hot traces were promoted to superblocks.
#[derive(Clone, Debug, Default)]
pub struct DispatchCounters {
    /// Direct-mapped jump-cache probes that hit.
    pub jump_cache_hits: u64,
    /// Jump-cache probes that missed (fell through to the dispatcher).
    pub jump_cache_misses: u64,
    /// Block transitions followed through an inline chain link without
    /// re-entering the dispatcher.
    pub chain_followed: u64,
    /// Chain links lazily resolved (first follow, or re-resolved after
    /// an epoch bump).
    pub links_resolved: u64,
    /// Hot traces promoted to superblocks.
    pub traces_formed: u64,
    /// Superblock executions.
    pub trace_execs: u64,
    /// Chain/jump-cache invalidation epochs (trace formation or a
    /// member block degrading).
    pub invalidations: u64,
    /// Blocks compiled to threaded code by this session (first-execute
    /// lazy compiles; deterministic — one per distinct block executed).
    pub compiled_blocks: u64,
    /// Wall-clock nanoseconds spent compiling threaded code. Timing,
    /// so determinism comparisons strip it (like
    /// `histograms.translate_ns`).
    pub compile_ns: u64,
}

impl DispatchCounters {
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds `other` into `self` field-wise.
    pub fn merge(&mut self, other: &DispatchCounters) {
        self.jump_cache_hits += other.jump_cache_hits;
        self.jump_cache_misses += other.jump_cache_misses;
        self.chain_followed += other.chain_followed;
        self.links_resolved += other.links_resolved;
        self.traces_formed += other.traces_formed;
        self.trace_execs += other.trace_execs;
        self.invalidations += other.invalidations;
        self.compiled_blocks += other.compiled_blocks;
        self.compile_ns += other.compile_ns;
    }
}

/// Server-lifetime shared-translation counters, updated concurrently
/// by every session attached to one `SharedTranslationState` (atomics;
/// a session holds the state behind an `Arc`).
///
/// The invariant that keeps these *deterministic* under concurrency:
/// `probes` counts each session's first sight of a block address (one
/// probe per distinct pc per session), and `inserted` counts the
/// translations that actually entered the shared cache (the insert
/// dedups, so exactly one per distinct pc server-wide). `hits` is
/// *derived* as `probes - inserted`: a session that raced another to
/// translate the same block and lost counts as a hit — its duplicate
/// work shows up only in `translate_calls`, the one field that may
/// legitimately exceed `inserted` under concurrency.
#[derive(Debug, Default)]
pub struct ServerCounters {
    probes: std::sync::atomic::AtomicU64,
    inserted: std::sync::atomic::AtomicU64,
    translate_calls: std::sync::atomic::AtomicU64,
    trace_translate_calls: std::sync::atomic::AtomicU64,
    sessions: std::sync::atomic::AtomicU64,
    compiled: std::sync::atomic::AtomicU64,
}

impl ServerCounters {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one session-first-sight probe of the shared cache.
    #[inline]
    pub fn record_probe(&self) {
        self.probes
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Records a translation that won the insert race (a new block
    /// entered the shared cache).
    #[inline]
    pub fn record_insert(&self) {
        self.inserted
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Records one `translate_block` invocation (including race losers
    /// whose result was discarded).
    #[inline]
    pub fn record_translate(&self) {
        self.translate_calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Records one `translate_trace` invocation: a session formed a
    /// member list the superblock library did not hold yet (including
    /// race losers whose result was discarded).
    #[inline]
    pub fn record_trace_translate(&self) {
        self.trace_translate_calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Records a session attaching to the shared state.
    #[inline]
    pub fn record_session(&self) {
        self.sessions
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Records a block compiled to threaded code (first execute of a
    /// block by any session sharing this state).
    #[inline]
    pub fn record_compiled(&self) {
        self.compiled
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    #[must_use]
    pub fn snapshot(&self) -> ServerSnapshot {
        use std::sync::atomic::Ordering::Relaxed;
        let probes = self.probes.load(Relaxed);
        let inserted = self.inserted.load(Relaxed);
        ServerSnapshot {
            probes,
            inserted,
            hits: probes.saturating_sub(inserted),
            translate_calls: self.translate_calls.load(Relaxed),
            trace_translate_calls: self.trace_translate_calls.load(Relaxed),
            sessions: self.sessions.load(Relaxed),
            compiled_blocks: self.compiled.load(Relaxed),
        }
    }
}

/// A point-in-time copy of [`ServerCounters`], embedded in run reports
/// as the `server` section.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerSnapshot {
    /// Session-first-sight probes of the shared cache.
    pub probes: u64,
    /// Distinct blocks translated into the shared cache.
    pub inserted: u64,
    /// Probes served without a new translation entering the cache
    /// (`probes - inserted`).
    pub hits: u64,
    /// Actual `translate_block` invocations (≥ `inserted`; the excess
    /// is duplicate work from insert races).
    pub translate_calls: u64,
    /// Actual `translate_trace` invocations: superblock member lists
    /// first formed against this state (0 when every trace came from
    /// the library).
    pub trace_translate_calls: u64,
    /// Sessions that attached to the shared state.
    pub sessions: u64,
    /// Blocks compiled to threaded code across all sessions (0 under
    /// the model backend).
    pub compiled_blocks: u64,
}

impl ServerSnapshot {
    /// Fraction of probes served from the warm cache (0.0 when nothing
    /// was probed).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.probes == 0 {
            return 0.0;
        }
        self.hits as f64 / self.probes as f64
    }
}

/// Translation-artifact counters of one shared state: what a sealed
/// `.pdba` artifact contributed at boot (fixed at load time) plus the
/// live superblock-library hits. A cold state carries the all-zero
/// default. Reported inside the `server` JSON section, so determinism
/// comparisons strip it alongside the other server-lifetime counters.
#[derive(Debug, Default)]
pub struct ArtifactCounters {
    /// Pre-translated blocks rehydrated into the shared cache at boot.
    loaded_blocks: u64,
    /// Superblock traces loaded into the trace library at boot.
    loaded_traces: u64,
    /// Rules carried by the artifact's embedded ruleset (0 when the
    /// artifact had no RULE section or it was quarantined).
    loaded_rules: u64,
    /// Artifact sections whose checksum or parse failed and were
    /// quarantined at load (the rest of the artifact still boots).
    quarantined_sections: u64,
    /// Trace formations served from the loaded library instead of a
    /// fresh `translate_trace` call.
    trace_hits: std::sync::atomic::AtomicU64,
}

impl ArtifactCounters {
    /// Cold counters: no artifact was loaded.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters for a state booted from an artifact.
    #[must_use]
    pub fn loaded(
        loaded_blocks: u64,
        loaded_traces: u64,
        loaded_rules: u64,
        quarantined_sections: u64,
    ) -> Self {
        ArtifactCounters {
            loaded_blocks,
            loaded_traces,
            loaded_rules,
            quarantined_sections,
            trace_hits: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Records a trace formation served from the loaded library.
    #[inline]
    pub fn record_trace_hit(&self) {
        self.trace_hits
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    #[must_use]
    pub fn snapshot(&self) -> ArtifactSnapshot {
        ArtifactSnapshot {
            loaded_blocks: self.loaded_blocks,
            loaded_traces: self.loaded_traces,
            loaded_rules: self.loaded_rules,
            quarantined_sections: self.quarantined_sections,
            trace_hits: self.trace_hits.load(std::sync::atomic::Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`ArtifactCounters`], embedded in run
/// reports inside the `server` section as `artifact`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ArtifactSnapshot {
    /// Pre-translated blocks rehydrated at boot.
    pub loaded_blocks: u64,
    /// Superblock traces loaded at boot.
    pub loaded_traces: u64,
    /// Rules carried by the artifact's embedded ruleset.
    pub loaded_rules: u64,
    /// Sections quarantined at load.
    pub quarantined_sections: u64,
    /// Trace formations served from the loaded library.
    pub trace_hits: u64,
}

impl ArtifactSnapshot {
    /// Whether any artifact content reached this state.
    #[must_use]
    pub fn warm(&self) -> bool {
        self.loaded_blocks > 0 || self.loaded_traces > 0 || self.loaded_rules > 0
    }
}

/// Artifact traffic counters of one serving daemon: what `ART_PULL`
/// served out and what the drain write-back persisted. Server-global
/// (not per partition) and atomic, because the accept loop updates
/// them while STATS reads them. Surfaced as the `fleet` section of the
/// PING/STATS payloads.
#[derive(Debug, Default)]
pub struct FleetCounters {
    /// Artifacts served out (answering an `ART_PULL`).
    pushed: std::sync::atomic::AtomicU64,
    /// Partitions re-sealed to the artifact dir on drain.
    written_back: std::sync::atomic::AtomicU64,
    /// Total artifact payload bytes moved (served + written back).
    bytes: std::sync::atomic::AtomicU64,
}

impl FleetCounters {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an artifact served out to an `ART_PULL`.
    #[inline]
    pub fn record_pushed(&self) {
        self.pushed
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Records a partition written back to the artifact dir on drain.
    #[inline]
    pub fn record_written_back(&self) {
        self.written_back
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Records artifact payload bytes moved.
    #[inline]
    pub fn record_bytes(&self, n: u64) {
        self.bytes
            .fetch_add(n, std::sync::atomic::Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    #[must_use]
    pub fn snapshot(&self) -> FleetSnapshot {
        use std::sync::atomic::Ordering::Relaxed;
        FleetSnapshot {
            pushed: self.pushed.load(Relaxed),
            written_back: self.written_back.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
        }
    }
}

/// A point-in-time copy of [`FleetCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetSnapshot {
    /// Artifacts served out to `ART_PULL`.
    pub pushed: u64,
    /// Partitions written back on drain.
    pub written_back: u64,
    /// Artifact payload bytes moved.
    pub bytes: u64,
}

impl fmt::Display for RuleCounters {
    /// Human-readable table, heaviest coverage first.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "  {:<40} {:<24} {:>8} {:>10}",
            "rule", "subgroup", "hits", "covered"
        )?;
        for r in self.rows_by_coverage() {
            writeln!(
                f,
                "  {:<40} {:<24} {:>8} {:>10}",
                r.label, r.subgroup, r.static_hits, r.dyn_covered
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_counts_accumulate() {
        let mut c = RuleCounters::new();
        let a = c.intern("add reg reg imm /00", "Int/Dp/Alu");
        let b = c.intern("ldr reg mem /01", "Int/Mem/Load");
        let a2 = c.intern("add reg reg imm /00", "Int/Dp/Alu");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        c.hit(a, 1);
        c.hit(a, 1);
        c.covered(a, 10);
        c.hit(b, 1);
        c.covered(b, 4);
        assert_eq!(c.total_static_hits(), 3);
        assert_eq!(c.total_covered(), 14);
        assert_eq!(c.rows_by_coverage()[0].label, "add reg reg imm /00");
    }

    #[test]
    fn merge_reinterns_by_label() {
        let mut a = RuleCounters::new();
        let ra = a.intern("add", "Int/Dp/Alu");
        a.hit(ra, 2);
        a.covered(ra, 20);
        a.miss("vadd");

        let mut b = RuleCounters::new();
        // Different interning order on the other side.
        let rb_other = b.intern("sub", "Int/Dp/Alu");
        let rb = b.intern("add", "Int/Dp/Alu");
        b.hit(rb, 3);
        b.covered(rb, 30);
        b.hit(rb_other, 1);
        b.covered(rb_other, 5);
        b.miss("vadd");
        b.miss("svc");

        a.merge(&b);
        assert_eq!(a.total_static_hits(), 6);
        assert_eq!(a.total_covered(), 55);
        assert_eq!(a.total_misses(), 3);
        let add = a.rows().iter().find(|r| r.label == "add").unwrap();
        assert_eq!(add.static_hits, 5);
        assert_eq!(add.dyn_covered, 50);
        assert_eq!(a.misses()[0], ("vadd", 2));
    }

    #[test]
    fn shard_counters_grow_merge_and_rate() {
        let mut a = ShardCounters::with_shards(4);
        assert_eq!(a.shards(), 4);
        a.record_hit(0);
        a.record_hit(0);
        a.record_miss(3);
        assert_eq!(a.total_hits(), 2);
        assert_eq!(a.total_misses(), 1);
        assert!((a.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        // A default-constructed counter grows on demand and merges in.
        let mut b = ShardCounters::new();
        b.record_hit(7);
        a.merge(&b);
        assert_eq!(a.shards(), 8);
        assert_eq!(a.hits()[7], 1);
        assert_eq!(a.total_hits(), 3);
        assert_eq!(ShardCounters::new().hit_rate(), 0.0);
    }

    #[test]
    fn pool_counters_accumulate_per_worker() {
        let mut p = PoolCounters::new();
        p.record(&[3, 1]);
        p.record(&[2, 2, 4]);
        assert_eq!(p.workers(), 3);
        assert_eq!(p.tasks(), &[5, 3, 4]);
        assert_eq!(p.total(), 12);
        let mut q = PoolCounters::new();
        q.merge(&p);
        assert_eq!(q.tasks(), p.tasks());
    }

    #[test]
    fn pool_counters_presized_report_effective_workers() {
        let p = PoolCounters::with_workers(4);
        assert_eq!(p.workers(), 4);
        assert_eq!(p.total(), 0);
        let mut p = PoolCounters::with_workers(1);
        // Recording a wider invocation still grows the vector.
        p.record(&[1, 2]);
        assert_eq!(p.workers(), 2);
        assert_eq!(p.tasks(), &[1, 2]);
    }

    #[test]
    fn server_counters_derive_hits_from_probes_and_inserts() {
        let c = ServerCounters::new();
        for _ in 0..3 {
            c.record_session();
        }
        // 3 sessions × 4 blocks probed; only the first session's 4
        // translations entered the cache, but one race loser also
        // called the translator.
        for _ in 0..12 {
            c.record_probe();
        }
        for _ in 0..4 {
            c.record_insert();
        }
        for _ in 0..5 {
            c.record_translate();
        }
        let s = c.snapshot();
        assert_eq!(s.sessions, 3);
        assert_eq!(s.probes, 12);
        assert_eq!(s.inserted, 4);
        assert_eq!(s.hits, 8, "hits = probes - inserted");
        assert_eq!(s.translate_calls, 5);
        assert!((s.hit_rate() - 8.0 / 12.0).abs() < 1e-12);
        assert_eq!(ServerSnapshot::default().hit_rate(), 0.0);
        // Concurrent recording keeps the derived totals exact.
        std::thread::scope(|sc| {
            for _ in 0..4 {
                sc.spawn(|| {
                    for _ in 0..100 {
                        c.record_probe();
                    }
                });
            }
        });
        assert_eq!(c.snapshot().probes, 412);
    }

    #[test]
    fn subgroup_rollup_sums_dynamic_coverage() {
        let mut c = RuleCounters::new();
        let a = c.intern("add", "Int/Dp/Alu");
        let s = c.intern("sub", "Int/Dp/Alu");
        let l = c.intern("ldr", "Int/Mem/Load");
        c.covered(a, 7);
        c.covered(s, 3);
        c.covered(l, 5);
        assert_eq!(
            c.coverage_by_subgroup(),
            vec![
                ("Int/Dp/Alu".to_string(), 10),
                ("Int/Mem/Load".to_string(), 5)
            ]
        );
    }
}
