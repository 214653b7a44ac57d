//! Translation equality between the per-call and the shared-facts
//! translate paths.
//!
//! `translate_block` and `translate_trace` compute the guest image's
//! [`ProgramFacts`] for every call; the engine computes them once per
//! shared translation state and calls the facts-taking forms. The two
//! paths must produce identical translations — same host code, cost
//! classes, attributions, delegation outcomes and successors — for
//! every block the engine discovers and every trace it forms, over the
//! suite at `Scale::tiny()` and `Scale::full()` and the rule corpora of
//! `tests/artifact.rs` (no rules, and rules learned from three
//! differently degraded debug maps).

use pdbt::compiler::{degrade, DegradeProfile};
use pdbt::core::learning::{learn_into, LearnConfig};
use pdbt::core::RuleSet;
use pdbt::runtime::{
    translate_block, translate_block_with, translate_trace, translate_trace_with, Engine,
    EngineConfig, ProgramFacts, SharedTranslationState,
};
use pdbt::workloads::{suite, Scale};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The degraded-corpus seeds of `tests/artifact.rs`.
const SEEDS: [u64; 3] = [0xDE7_001, 0xDE7_002, 0xDE7_003];

/// The `tests/artifact.rs` corpus for `seed`: rules learned over the
/// tiny suite with seed-specific debug-map degradation.
fn learned_for(seed: u64) -> RuleSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let profile = DegradeProfile {
        drop: 0.15,
        merge: 0.08,
        skew: 0.05,
    };
    let mut learned = RuleSet::new();
    for w in &suite(Scale::tiny()) {
        let debug = degrade(&w.debug, profile, &mut rng);
        let mut r = RuleSet::new();
        learn_into(&mut r, &w.pair, &debug, LearnConfig::default());
        learned.merge(r);
    }
    learned
}

#[test]
fn shared_facts_translate_exactly_like_per_call_facts() {
    let mut corpora: Vec<(String, Option<RuleSet>)> = vec![("none".into(), None)];
    corpora.extend(
        SEEDS
            .iter()
            .map(|&seed| (format!("{seed:#x}"), Some(learned_for(seed)))),
    );
    let cfg = EngineConfig::default();
    let mut traces = 0usize;
    let workloads = suite(Scale::tiny()).into_iter().chain(suite(Scale::full()));
    for w in &workloads.collect::<Vec<_>>() {
        let prog = &w.pair.guest.program;
        let facts = ProgramFacts::new(prog);
        for (corpus, rules) in &corpora {
            let ctx = format!("{:?}/{} stmts, rules {corpus}", w.bench, w.statements);
            let shared = Arc::new(SharedTranslationState::new(rules.clone(), 8));

            // Every statically discovered block start, translated by the
            // engine's prewarm through the state's facts.
            let mut engine = Engine::with_shared(Arc::clone(&shared), cfg);
            let adopted = engine.prewarm(prog);
            let blocks = shared.cache().snapshot();
            assert_eq!(blocks.len(), adopted, "{ctx}");
            assert!(adopted > 0, "{ctx}");
            for (pc, engine_block) in &blocks {
                let per_call = translate_block(prog, *pc, rules.as_ref(), &cfg.translate)
                    .unwrap_or_else(|e| panic!("{ctx}: block {pc:#x}: {e}"));
                let with_facts =
                    translate_block_with(prog, &facts, *pc, rules.as_ref(), &cfg.translate)
                        .unwrap_or_else(|e| panic!("{ctx}: block {pc:#x}: {e}"));
                assert_eq!(per_call, with_facts, "{ctx}: block {pc:#x}");
                assert_eq!(&per_call, &**engine_block, "{ctx}: block {pc:#x}");
            }

            // Every trace a run forms, translated through the same facts.
            engine.run(prog, &w.setup()).expect("run");
            for trace in engine.export_traces() {
                traces += 1;
                let members: Vec<_> = trace.member_marks.iter().map(|m| m.start).collect();
                let per_call = translate_trace(prog, &members, rules.as_ref(), &cfg.translate)
                    .unwrap_or_else(|e| panic!("{ctx}: trace {members:x?}: {e}"));
                let with_facts =
                    translate_trace_with(prog, &facts, &members, rules.as_ref(), &cfg.translate)
                        .unwrap_or_else(|e| panic!("{ctx}: trace {members:x?}: {e}"));
                assert_eq!(per_call, with_facts, "{ctx}: trace {members:x?}");
                assert_eq!(per_call, trace, "{ctx}: trace {members:x?}");
            }
            assert_eq!(shared.facts(prog), &facts, "{ctx}");
        }
    }
    assert!(traces > 0, "the suite runs formed no traces");
}
