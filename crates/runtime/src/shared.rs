//! Cross-session translation state: the ruleset, the sharded code
//! cache of pure translations, the superblock library, and the
//! server-lifetime counters, held behind one `Arc` so many engines
//! (sessions) can share them.
//!
//! This is the ownership split behind `pdbt serve`: translating a block
//! is the expensive, *session-independent* work — the paper's
//! amortization argument (training cost spread over all future
//! translations) only pays off at scale if translations are likewise
//! amortized across runs. An [`Engine`](crate::Engine) therefore no
//! longer owns its `RuleSet` and `ShardedCache`; it borrows them from
//! here, keeps all *mutable* dispatch state (jump cache, chain links,
//! superblocks, metrics, report counters) session-private, and folds a
//! shared translation's static footprint into its own counters at first
//! session-local sight. The result: the first session translates a
//! block and every later session reuses it, while each session's
//! stripped report stays bit-identical to a cold single-engine run
//! (locked down in `tests/determinism.rs`).
//!
//! Superblocks follow the same split. Which blocks a session chains
//! into a trace follows its own edge counters, but the translation of
//! a given member list does not: it is a pure function of the image,
//! the rules and the member list. The state therefore keeps one trace
//! library per image, keyed by member list. A boot artifact seeds it,
//! and the first session to form any other member list publishes its
//! translation there, so every later session forming the same list
//! translates nothing. The per-session side (the installed trace, its
//! links, hotness and compiled code) stays in the session.
//!
//! One shared state serves one guest image and one
//! [`TranslateConfig`](crate::TranslateConfig): translations are keyed
//! by guest pc (blocks) or member list (traces), so sessions running
//! *different* programs, or translating with different knobs, must
//! use different states (`pdbt-serve` partitions them by an image
//! fingerprint and runs `no_delegation` sessions on a private state)
//! or a session would execute code translated for someone else. The
//! same contract lets the state hold the image's whole-program
//! [`ProgramFacts`], built on first use and read by every later block
//! and trace translation.

use crate::cache::ShardedCache;
use crate::translate::{ProgramFacts, TranslatedBlock};
use pdbt_core::RuleSet;
use pdbt_isa::Addr;
use pdbt_isa_arm::Program;
use pdbt_obs::{ArtifactCounters, ServerCounters, Telemetry};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

/// One superblock of the library: the shared translation plus its
/// provenance.
#[derive(Debug)]
struct LibraryTrace {
    trace: Arc<TranslatedBlock>,
    /// Whether the boot artifact carried it (`artifact.trace_hits`
    /// counts only hits on these), as opposed to a session having
    /// translated it live.
    from_artifact: bool,
}

/// The translation state shared by every session of one server (or
/// owned exclusively by a standalone engine — `Engine::new` wraps one
/// privately, so the single-process CLI path is the one-session special
/// case of the same machinery).
#[derive(Debug)]
pub struct SharedTranslationState {
    /// The rule set every session translates with (`None` = pure
    /// QEMU-path baseline). Immutable for the state's lifetime: rule
    /// reloads are a new state, not a mutation.
    rules: Option<RuleSet>,
    /// The warm code cache of pure translations.
    cache: ShardedCache,
    /// Whole-program facts of the one guest image this state serves,
    /// built by the first translation that needs them (a state that
    /// translates nothing never builds them).
    facts: OnceLock<ProgramFacts>,
    /// Server-lifetime counters: probes, inserts, translate calls,
    /// sessions. See `pdbt_obs::ServerCounters` for the determinism
    /// discipline (`hits` is derived, not raced).
    server: ServerCounters,
    /// The serving-plane telemetry attached to this state: per-worker
    /// latency histograms, the flight recorder, and the request
    /// sequence counter. A standalone engine keeps one slot; the
    /// server sizes this to its worker count and stamps the partition
    /// fingerprint.
    telemetry: Telemetry,
    /// The superblock library, keyed by the full member list: seeded
    /// from a translation artifact at boot and filled by the first
    /// session to form any other member list (first insert wins). A
    /// session forming a trace with exactly these members reuses the
    /// stored translation instead of calling `translate_trace` —
    /// translation is deterministic, so the result is identical and
    /// the session's stripped report stays bit-for-bit what a cold run
    /// produces.
    traces: RwLock<HashMap<Vec<Addr>, LibraryTrace>>,
    /// What the artifact contributed at boot, plus live library hits.
    /// All-zero for a cold state.
    artifact: ArtifactCounters,
}

impl SharedTranslationState {
    /// Creates a shared state with the given rules and cache shard
    /// count (rounded up to a power of two).
    #[must_use]
    pub fn new(rules: Option<RuleSet>, cache_shards: usize) -> SharedTranslationState {
        Self::with_telemetry(rules, cache_shards, 1, 0)
    }

    /// [`SharedTranslationState::new`] with a sized telemetry plane:
    /// `slots` per-worker latency histogram sets (the server passes its
    /// worker count) and the guest-image `partition` fingerprint this
    /// state serves.
    #[must_use]
    pub fn with_telemetry(
        rules: Option<RuleSet>,
        cache_shards: usize,
        slots: usize,
        partition: u64,
    ) -> SharedTranslationState {
        SharedTranslationState {
            rules,
            cache: ShardedCache::new(cache_shards),
            facts: OnceLock::new(),
            server: ServerCounters::new(),
            telemetry: Telemetry::with_partition(slots, partition),
            traces: RwLock::new(HashMap::new()),
            artifact: ArtifactCounters::new(),
        }
    }

    /// A state pre-warmed from a translation artifact: `blocks` are
    /// installed directly into the shared cache and `traces` become the
    /// superblock library, before any session attaches. Warm installs
    /// deliberately skip the `inserted`/`translate_calls` server
    /// counters — those count *live* translation work, so an
    /// artifact-booted daemon's first request reports pure cache hits
    /// and zero translate calls; the artifact's contribution is
    /// reported separately through `counters`.
    #[must_use]
    pub fn warm(
        rules: Option<RuleSet>,
        cache_shards: usize,
        slots: usize,
        partition: u64,
        blocks: Vec<TranslatedBlock>,
        traces: Vec<TranslatedBlock>,
        counters: ArtifactCounters,
    ) -> SharedTranslationState {
        let mut state = Self::with_telemetry(rules, cache_shards, slots, partition);
        for block in blocks {
            state.cache.insert(block.start, block);
        }
        state.traces = RwLock::new(
            traces
                .into_iter()
                .map(|t| {
                    let entry = LibraryTrace {
                        trace: Arc::new(t),
                        from_artifact: true,
                    };
                    (entry.trace.member_starts(), entry)
                })
                .collect(),
        );
        state.artifact = counters;
        state
    }

    /// The shared rule set.
    #[must_use]
    pub fn rules(&self) -> Option<&RuleSet> {
        self.rules.as_ref()
    }

    /// The shared code cache.
    #[must_use]
    pub fn cache(&self) -> &ShardedCache {
        &self.cache
    }

    /// The whole-program facts of `prog`, computed on the first call
    /// and shared by every later one (concurrent first callers wait for
    /// one build). A state serves exactly one guest image — its code
    /// cache is keyed by pc — so every call must pass that same image;
    /// debug builds check that base and length match.
    pub fn facts(&self, prog: &Program) -> &ProgramFacts {
        let facts = self.facts.get_or_init(|| ProgramFacts::new(prog));
        debug_assert!(
            facts.matches(prog),
            "one shared translation state serves one guest image"
        );
        facts
    }

    /// The facts, if a translation has built them yet.
    #[cfg(test)]
    pub(crate) fn built_facts(&self) -> Option<&ProgramFacts> {
        self.facts.get()
    }

    /// The server-lifetime counters.
    #[must_use]
    pub fn server(&self) -> &ServerCounters {
        &self.server
    }

    /// The serving-plane telemetry.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The library translation for a superblock with exactly these
    /// members, if the boot artifact carried one or a session of this
    /// state already translated it. A hit on an artifact-loaded trace
    /// counts in `artifact.trace_hits`.
    #[must_use]
    pub fn library_trace(&self, members: &[Addr]) -> Option<Arc<TranslatedBlock>> {
        let library = self.library();
        let hit = library.get(members)?;
        if hit.from_artifact {
            self.artifact.record_trace_hit();
        }
        Some(Arc::clone(&hit.trace))
    }

    /// Publishes a live trace translation under its member list and
    /// returns the library's copy. When another session published the
    /// same list first, its translation is kept — translation is
    /// deterministic, so the two are identical.
    pub fn publish_trace(&self, trace: TranslatedBlock) -> Arc<TranslatedBlock> {
        let members = trace.member_starts();
        let mut library = self.traces.write().unwrap_or_else(PoisonError::into_inner);
        let entry = library.entry(members).or_insert_with(|| LibraryTrace {
            trace: Arc::new(trace),
            from_artifact: false,
        });
        Arc::clone(&entry.trace)
    }

    /// Superblocks in the library (boot artifact plus live).
    #[must_use]
    pub fn library_len(&self) -> usize {
        self.library().len()
    }

    /// A clone of every library superblock, for re-sealing this state
    /// into an artifact (drain write-back). Order is unspecified; the
    /// canonical artifact writer sorts.
    #[must_use]
    pub fn library_traces(&self) -> Vec<TranslatedBlock> {
        self.library()
            .values()
            .map(|t| (*t.trace).clone())
            .collect()
    }

    /// The library under its read lock. Every critical section is one
    /// lookup, insert or copy, so a panicking holder cannot leave it
    /// half-updated and poisoning is recovered from, not propagated.
    fn library(&self) -> std::sync::RwLockReadGuard<'_, HashMap<Vec<Addr>, LibraryTrace>> {
        self.traces.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The artifact counters.
    #[must_use]
    pub fn artifact(&self) -> &ArtifactCounters {
        &self.artifact
    }
}
