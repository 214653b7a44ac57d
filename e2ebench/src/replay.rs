//! Traced replays of the translate-side layers.
//!
//! `Engine::run` calls the translator, the rule store, the IR and the
//! threaded compiler internally, where the benchmark cannot put a span.
//! After a traced program run the benchmark therefore calls the same
//! public functions again, on exactly the blocks that run translated or
//! compiled, and times each call. Replays happen outside the pass's own
//! span, so they never inflate `pass_ms`.

use crate::spans::Tracer;
use pdbt_core::{HostLoc, RuleSet};
use pdbt_ir::{lift, lower_ops, RegMap};
use pdbt_isa::Addr;
use pdbt_isa_arm::Program;
use pdbt_runtime::{collect_block, translate_block, TranslateConfig, TranslatedBlock};
use std::hint::black_box;

/// Work counted by the replays of one pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// `translate_block` calls replayed.
    pub translated: u64,
    /// `RuleSet::lookup` calls (one per guest body instruction).
    pub lookups: u64,
    /// Lookups that matched a rule.
    pub hits: u64,
    /// Instructions no rule matched that were lifted and lowered.
    pub lifted: u64,
    /// Blocks compiled to threaded code.
    pub compiled: u64,
}

/// Replays the translation of every block in `starts`: the whole
/// `translate_block` call (`runtime.translate`), then its parts as
/// separate calls — `collect_block` (`runtime.collect`), rule lookup,
/// sequence lookup and instantiation per body instruction
/// (`core.lookup`), and `lift` + `lower_ops` for the instructions no
/// rule matched (`ir.lift_lower`).
///
/// # Errors
///
/// When a block the run translated no longer translates.
#[allow(clippy::too_many_arguments)]
pub fn translate_layers(
    prog: &Program,
    rules: Option<&RuleSet>,
    cfg: &TranslateConfig,
    starts: &[Addr],
    tracer: &Tracer,
    unit: u64,
    parent: Option<u32>,
    counts: &mut Counts,
) -> Result<(), String> {
    let env_map = RegMap::all_env();
    for &pc in starts {
        let block = tracer.time("runtime.translate", unit, parent, |_| {
            translate_block(prog, pc, rules, cfg)
        });
        black_box(block.map_err(|e| format!("replay translate {pc:#x}: {e}"))?);
        counts.translated += 1;
        let insts = tracer
            .time("runtime.collect", unit, parent, |_| {
                collect_block(prog, pc, cfg.max_block)
            })
            .map_err(|e| format!("replay collect {pc:#x}: {e}"))?;
        let body_len = match insts.last() {
            Some((_, last)) if last.ends_block() => insts.len() - 1,
            _ => insts.len(),
        };
        let body = &insts[..body_len];
        let mut missed = Vec::new();
        match rules {
            Some(r) => tracer.time("core.lookup", unit, parent, |_| {
                for (i, (_, inst)) in body.iter().enumerate() {
                    counts.lookups += 1;
                    match r.lookup(inst) {
                        Some(m) => {
                            counts.hits += 1;
                            let locs: Vec<HostLoc> = m
                                .inst
                                .slots
                                .iter()
                                .map(|g| HostLoc::Mem(pdbt_ir::env::reg_mem(*g)))
                                .collect();
                            black_box(r.instantiate_match(&m, &locs).ok());
                        }
                        None => missed.push(i),
                    }
                    if r.max_seq_len() >= 2 {
                        let tail: Vec<_> = body[i..].iter().map(|(_, x)| (*x).clone()).collect();
                        black_box(r.lookup_seq(&tail).map(|m| m.len));
                    }
                }
            }),
            None => missed.extend(0..body.len()),
        }
        tracer.time("ir.lift_lower", unit, parent, |_| {
            for &i in &missed {
                let (addr, inst) = body[i];
                if let Ok(lifted) = lift(inst, addr) {
                    counts.lifted += 1;
                    black_box(lower_ops(&lifted.body, &env_map));
                }
            }
        });
    }
    Ok(())
}

/// Replays `compile_block` over `blocks` (`isa-x86.compile`).
pub fn compile_layer(
    blocks: &[&TranslatedBlock],
    tracer: &Tracer,
    unit: u64,
    parent: Option<u32>,
    counts: &mut Counts,
) {
    for b in blocks {
        tracer.time("isa-x86.compile", unit, parent, |_| {
            black_box(pdbt_isa_x86::compile_block(&b.code));
        });
        counts.compiled += 1;
    }
}
