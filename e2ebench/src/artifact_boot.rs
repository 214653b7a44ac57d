//! `artifact-boot`: set-up compiles and seals one `.pdba` per program
//! and keeps the bytes in memory; every pass then boots each program
//! from its bytes — `open_salvage` → `warm_state` →
//! `Engine::with_shared` → `run` — and must translate nothing.

use crate::inputs::{
    check_seed0_fingerprints, choose_seeds, engine_config, para_setup, reference_outputs,
};
use crate::layers::{pass_result, Setup};
use crate::passes::{drive, PassWorkload};
use crate::replay::{compile_layer, Counts};
use crate::spans::Tracer;
use crate::{peak_rss_mb, Args, Measured};
use pdbt_core::RuleSet;
use pdbt_isa::Addr;
use pdbt_runtime::{Engine, EngineConfig, Report, RunSetup, TranslatedBlock};
use pdbt_workloads::Workload;
use std::collections::BTreeSet;
use std::sync::Arc;

struct ArtifactBoot<'a> {
    suite: &'a [Workload],
    rules: Vec<RuleSet>,
    sealed: Vec<Vec<u8>>,
    setups: Vec<RunSetup>,
    cfg: EngineConfig,
    engines: Vec<Option<Engine>>,
    /// Per program, the blocks a cold run executes: the warm cache
    /// also holds every block the compile step prewarmed, and only the
    /// executed ones are compiled to threaded code.
    executed: Vec<Option<BTreeSet<Addr>>>,
}

impl ArtifactBoot<'_> {
    fn executed(&mut self, i: usize) -> Result<&BTreeSet<Addr>, String> {
        if self.executed[i].is_none() {
            let mut cold = Engine::new(Some(self.rules[i].clone()), self.cfg);
            cold.run(&self.suite[i].pair.guest.program, &self.setups[i])
                .map_err(|e| e.to_string())?;
            self.executed[i] = Some(
                cold.cache()
                    .snapshot()
                    .into_iter()
                    .map(|(pc, _)| pc)
                    .collect(),
            );
        }
        Ok(self.executed[i].as_ref().expect("filled above"))
    }
}

impl PassWorkload for ArtifactBoot<'_> {
    fn prepare(&mut self) {
        self.engines = self.suite.iter().map(|_| None).collect();
    }

    fn run(
        &mut self,
        i: usize,
        tracer: &Tracer,
        unit: u64,
        parent: Option<u32>,
    ) -> Result<Report, String> {
        let opened = tracer
            .time("artifact.open", unit, parent, |_| {
                pdbt_artifact::open_salvage(&self.sealed[i])
            })
            .map_err(|e| format!("open_salvage: {e}"))?;
        if !opened.quarantined.is_empty() {
            return Err(format!("quarantined sections: {:?}", opened.quarantined));
        }
        let shards = self.cfg.cache_shards;
        let state = tracer.time("artifact.warm", unit, parent, |_| {
            pdbt_artifact::warm_state(&opened, None, shards, 1)
        });
        let mut engine = Engine::with_shared(Arc::new(state), self.cfg);
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
        let executed = self.executed(i)?.clone();
        let engine = self.engines[i].as_ref().ok_or("no engine to replay")?;
        let snapshot = engine.cache().snapshot();
        let traces = engine.export_traces();
        let blocks: Vec<&TranslatedBlock> = snapshot
            .iter()
            .filter(|(pc, _)| executed.contains(pc))
            .map(|(_, b)| b.as_ref())
            .chain(&traces)
            .collect();
        compile_layer(&blocks, tracer, unit, None, counts);
        Ok(())
    }

    fn translates(&self) -> bool {
        false
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures, including an artifact whose verification run
/// fails.
pub fn run(args: &Args, tracer: &Tracer) -> Result<Measured, String> {
    let gen_seeds = choose_seeds(args.seed)?;
    let cfg = engine_config();
    let (setup, (exp, rules, derive, sealed)) = Setup::first(|rep| {
        let (exp, rules, derive) = para_setup(&gen_seeds, tracer, rep)?;
        let sealed = exp
            .suite
            .iter()
            .zip(&rules)
            .map(|(w, r)| {
                tracer.time("artifact.compile_seal", rep, None, |_| {
                    let a = pdbt_artifact::compile(
                        &w.pair.guest.program,
                        Some(r),
                        &w.setup(),
                        cfg,
                        w.bench.name(),
                    )?;
                    Ok::<_, String>(pdbt_artifact::seal(&a))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok((exp, rules, derive, sealed))
    })?;
    if args.seed == 0 {
        check_seed0_fingerprints(&exp.suite)?;
    }
    let refs = reference_outputs(&exp.suite)?;
    let bytes: usize = sealed.iter().map(Vec::len).sum();
    let mut w = ArtifactBoot {
        suite: &exp.suite,
        setups: exp.suite.iter().map(Workload::setup).collect(),
        executed: exp.suite.iter().map(|_| None).collect(),
        rules,
        sealed,
        cfg,
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
        bytes,
    ))
}
