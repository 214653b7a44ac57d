//! `cold-para`: every pass runs all twelve programs, each with its
//! leave-one-out `para` rule set, on a fresh `SharedTranslationState`
//! through `Engine::run` — what `pdbt run` does. The only workload
//! whose timed window translates.

use crate::inputs::{
    check_seed0_fingerprints, choose_seeds, engine_config, para_setup, reference_outputs,
};
use crate::layers::{pass_result, Setup};
use crate::passes::{drive, PassWorkload};
use crate::replay::{compile_layer, translate_layers, Counts};
use crate::spans::Tracer;
use crate::{peak_rss_mb, Args, Measured};
use pdbt_core::RuleSet;
use pdbt_runtime::{
    Engine, EngineConfig, Report, RunSetup, SharedTranslationState, TranslatedBlock,
};
use pdbt_workloads::Workload;
use std::sync::Arc;

struct ColdPara<'a> {
    suite: &'a [Workload],
    rules: Vec<RuleSet>,
    setups: Vec<RunSetup>,
    cfg: EngineConfig,
    fresh: Vec<Option<Arc<SharedTranslationState>>>,
    engines: Vec<Option<Engine>>,
}

impl PassWorkload for ColdPara<'_> {
    fn prepare(&mut self) {
        self.engines = self.suite.iter().map(|_| None).collect();
        self.fresh = self
            .rules
            .iter()
            .map(|r| {
                Some(Arc::new(SharedTranslationState::new(
                    Some(r.clone()),
                    self.cfg.cache_shards,
                )))
            })
            .collect();
    }

    fn run(
        &mut self,
        i: usize,
        tracer: &Tracer,
        unit: u64,
        parent: Option<u32>,
    ) -> Result<Report, String> {
        let shared = self.fresh[i].take().ok_or("pass state not prepared")?;
        let mut engine = Engine::with_shared(shared, self.cfg);
        let prog = &self.suite[i].pair.guest.program;
        let report = tracer
            .time("runtime.run", unit, parent, |_| {
                engine.run(prog, &self.setups[i])
            })
            .map_err(|e| e.to_string())?;
        self.engines[i] = Some(engine);
        Ok(report)
    }

    fn replay(
        &mut self,
        i: usize,
        tracer: &Tracer,
        unit: u64,
        counts: &mut Counts,
    ) -> Result<(), String> {
        let engine = self.engines[i].as_ref().ok_or("no engine to replay")?;
        let snapshot = engine.cache().snapshot();
        let starts: Vec<_> = snapshot.iter().map(|(pc, _)| *pc).collect();
        let prog = &self.suite[i].pair.guest.program;
        translate_layers(
            prog,
            Some(&self.rules[i]),
            &self.cfg.translate,
            &starts,
            tracer,
            unit,
            None,
            counts,
        )?;
        let traces = engine.export_traces();
        let blocks: Vec<&TranslatedBlock> = snapshot
            .iter()
            .map(|(_, b)| b.as_ref())
            .chain(&traces)
            .collect();
        compile_layer(&blocks, tracer, unit, None, counts);
        Ok(())
    }

    fn translates(&self) -> bool {
        true
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures (a program that does not compile, a reference run
/// that faults, seed 0 not reproducing the suite).
pub fn run(args: &Args, tracer: &Tracer) -> Result<Measured, String> {
    let gen_seeds = choose_seeds(args.seed)?;
    let (setup, (exp, rules, derive)) = Setup::first(|rep| para_setup(&gen_seeds, tracer, rep))?;
    if args.seed == 0 {
        check_seed0_fingerprints(&exp.suite)?;
    }
    let refs = reference_outputs(&exp.suite)?;
    let mut w = ColdPara {
        suite: &exp.suite,
        setups: exp.suite.iter().map(Workload::setup).collect(),
        rules,
        cfg: engine_config(),
        fresh: Vec::new(),
        engines: Vec::new(),
    };
    let res = drive(&mut w, &exp.suite, &refs, args.seconds, args.trace, tracer);
    let peak = peak_rss_mb();
    drop(w);
    drop(exp);
    let setup = setup.rest()?;
    Ok(pass_result(
        args.trace,
        tracer,
        &res,
        &setup,
        peak,
        derive.accept_ratio(),
        0,
    ))
}
