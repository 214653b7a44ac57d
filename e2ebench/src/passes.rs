//! The pass loop shared by `cold-para` and `artifact-boot`: repeat
//! twelve-program passes for the run's seconds, check every output and
//! every exact count, and keep the samples.

use crate::calib::Calibrator;
use crate::replay::Counts;
use crate::spans::Tracer;
use crate::stats::Tally;
use pdbt_obs::json::Json;
use pdbt_runtime::{Outcome, Report};
use pdbt_workloads::Workload;
use std::time::Instant;

/// One workload's per-program behaviour inside a pass.
pub trait PassWorkload {
    /// Untimed preparation before each pass (fresh per-pass state).
    fn prepare(&mut self);
    /// Program `i`'s run, timed as part of the pass.
    ///
    /// # Errors
    ///
    /// Any failure of the run; it counts as a failed operation.
    fn run(
        &mut self,
        i: usize,
        tracer: &Tracer,
        unit: u64,
        parent: Option<u32>,
    ) -> Result<Report, String>;
    /// Traced replays for program `i`, after the pass's span closed.
    ///
    /// # Errors
    ///
    /// A replay that fails; the run is marked bad.
    fn replay(
        &mut self,
        i: usize,
        tracer: &Tracer,
        unit: u64,
        counts: &mut Counts,
    ) -> Result<(), String>;
    /// Whether each pass must translate (`> 0`) or must not (`== 0`).
    fn translates(&self) -> bool;
}

/// Counters the engine exports for one pass, summed over its programs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PassObs {
    pub guest_retired: u64,
    pub rule_covered: u64,
    pub host_executed: u64,
    pub translate_calls: u64,
    pub blocks_executed: u64,
    pub compiled_blocks: u64,
    pub chain_followed: u64,
    pub jump_cache_hits: u64,
    pub jump_cache_misses: u64,
    pub traces_formed: u64,
    pub trace_execs: u64,
    /// Wall-clock, so excluded from the determinism gate.
    pub translate_ns: u64,
    /// Wall-clock, so excluded from the determinism gate.
    pub compile_ns: u64,
}

impl PassObs {
    fn of(r: &Report) -> PassObs {
        let d = &r.obs.dispatch;
        PassObs {
            guest_retired: r.metrics.guest_retired,
            rule_covered: r.metrics.rule_covered,
            host_executed: r.metrics.host_executed(),
            translate_calls: r.server.translate_calls,
            blocks_executed: r.metrics.blocks_executed,
            compiled_blocks: d.compiled_blocks,
            chain_followed: d.chain_followed,
            jump_cache_hits: d.jump_cache_hits,
            jump_cache_misses: d.jump_cache_misses,
            traces_formed: d.traces_formed,
            trace_execs: d.trace_execs,
            translate_ns: r.obs.translate_ns.sum(),
            compile_ns: d.compile_ns,
        }
    }

    /// The counters of a report as serialised by `Report::to_json`
    /// (a serve reply). `translate_calls` there is the partition's
    /// lifetime count, so it is left at 0; the caller takes it from
    /// STATS.
    pub fn of_json(r: &Json) -> Option<PassObs> {
        let m = r.get("metrics")?;
        let d = r.get("dispatch")?;
        let u = |o: &Json, k: &str| o.get(k).and_then(Json::as_u64);
        Some(PassObs {
            guest_retired: u(m, "guest_retired")?,
            rule_covered: u(m, "rule_covered")?,
            host_executed: u(m, "host_executed")?,
            translate_calls: 0,
            blocks_executed: u(m, "blocks_executed")?,
            compiled_blocks: u(d, "compiled_blocks")?,
            chain_followed: u(d, "chain_followed")?,
            jump_cache_hits: u(d, "jump_cache_hits")?,
            jump_cache_misses: u(d, "jump_cache_misses")?,
            traces_formed: u(d, "traces_formed")?,
            trace_execs: u(d, "trace_execs")?,
            translate_ns: 0,
            compile_ns: u(d, "compile_ns")?,
        })
    }

    pub fn add(&mut self, o: &PassObs) {
        self.guest_retired += o.guest_retired;
        self.rule_covered += o.rule_covered;
        self.host_executed += o.host_executed;
        self.translate_calls += o.translate_calls;
        self.blocks_executed += o.blocks_executed;
        self.compiled_blocks += o.compiled_blocks;
        self.chain_followed += o.chain_followed;
        self.jump_cache_hits += o.jump_cache_hits;
        self.jump_cache_misses += o.jump_cache_misses;
        self.traces_formed += o.traces_formed;
        self.trace_execs += o.trace_execs;
        self.translate_ns += o.translate_ns;
        self.compile_ns += o.compile_ns;
    }

    /// The exact counts, which must repeat on every run of a program.
    pub fn exact(&self) -> PassObs {
        PassObs {
            translate_ns: 0,
            compile_ns: 0,
            ..*self
        }
    }
}

/// Everything one run of the pass loop measured.
#[derive(Debug, Default)]
pub struct PassResults {
    /// Wall-clock of each timed untraced pass.
    pub pass_ms: Vec<f64>,
    /// Wall-clock of each program run inside those passes.
    pub req_ms: Vec<f64>,
    /// The calibration kernel's time around each of those passes: the
    /// mean of the probe right before the pass and the one right after.
    pub pass_cal_ms: Vec<f64>,
    /// Wall-clock of each traced pass (its spans on, replays excluded).
    pub traced_pass_ms: Vec<f64>,
    /// Units (pass numbers) of the traced passes.
    pub traced_units: Vec<u64>,
    /// Engine counters of every traced pass, in `traced_units` order.
    pub traced_obs: Vec<PassObs>,
    /// The exact engine counters of one pass (equal on every pass).
    pub pass_obs: PassObs,
    /// Replay counts of one traced pass (equal on every traced pass).
    pub replay: Counts,
    pub tally: Tally,
    /// Determinism or correctness breaches; any makes the run bad.
    pub breaches: Vec<String>,
}

impl PassResults {
    fn breach(&mut self, msg: String) {
        if self.breaches.len() < 20 {
            self.breaches.push(msg);
        }
    }

    /// A calibration probe; NaN, and a breach, when the kernel's
    /// checksum is wrong.
    fn probe(&mut self, cal: &mut Calibrator) -> f64 {
        cal.probe().unwrap_or_else(|e| {
            self.breach(e);
            f64::NAN
        })
    }
}

/// Runs one untimed warm-up pass, then passes until `seconds` have
/// passed (at least three timed). Each untraced pass lies between two
/// calibration probes; back-to-back passes share the probe between
/// them. With `trace`, passes alternate
/// between untraced and traced, so the tracing overhead is measured
/// under the same conditions; replays follow each traced pass.
pub fn drive(
    w: &mut dyn PassWorkload,
    suite: &[Workload],
    refs: &[Vec<u32>],
    seconds: f64,
    trace: bool,
    on: &Tracer,
) -> PassResults {
    let off = Tracer::new(false);
    let mut res = PassResults::default();
    let mut per_program: Vec<Option<PassObs>> = vec![None; suite.len()];
    let mut first_replay: Option<Counts> = None;
    let mut window: Option<Instant> = None;
    let mut timed = 0usize;
    let mut cal = Calibrator::new();
    let mut last_probe: Option<f64> = None;
    for pass in 0u64.. {
        if let Some(start) = window {
            if timed >= 3 && start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        let traced = trace && pass % 2 == 0 && pass > 0;
        let tracer = if traced { on } else { &off };
        // The probe before this pass: the one after the previous pass
        // when that was a timed pass too, otherwise a fresh one.
        let last = last_probe.take();
        let before = (!traced && pass > 0).then(|| last.unwrap_or_else(|| res.probe(&mut cal)));
        w.prepare();
        let t0 = Instant::now();
        let runs: Vec<(Result<Report, String>, f64)> = tracer.time("pass", pass, None, |pid| {
            (0..suite.len())
                .map(|i| {
                    let t = Instant::now();
                    let r = tracer.time("program", pass, pid, |p| w.run(i, tracer, pass, p));
                    (r, t.elapsed().as_secs_f64() * 1e3)
                })
                .collect()
        });
        let pass_ms = t0.elapsed().as_secs_f64() * 1e3;

        let mut obs = PassObs::default();
        for (i, (r, _)) in runs.iter().enumerate() {
            let name = suite[i].bench.name();
            let ok = match r {
                Ok(rep) if rep.outcome == Outcome::Completed && rep.output == refs[i] => true,
                Ok(rep) => {
                    res.breach(format!(
                        "pass {pass} {name}: outcome {} output-matches {}",
                        rep.outcome.label(),
                        rep.output == refs[i]
                    ));
                    false
                }
                Err(e) => {
                    res.breach(format!("pass {pass} {name}: {e}"));
                    false
                }
            };
            res.tally.record(ok);
            let Ok(rep) = r else { continue };
            let o = PassObs::of(rep);
            obs.add(&o);
            if (o.translate_calls > 0) != w.translates() {
                res.breach(format!(
                    "pass {pass} {name}: translate_calls = {}",
                    o.translate_calls
                ));
            }
            match &per_program[i] {
                Some(first) if *first != o.exact() => res.breach(format!(
                    "pass {pass} {name}: exact counts changed: {first:?} -> {:?}",
                    o.exact()
                )),
                Some(_) => {}
                None => per_program[i] = Some(o.exact()),
            }
        }
        res.pass_obs = obs.exact();

        if traced {
            let mut counts = Counts::default();
            for (i, (r, _)) in runs.iter().enumerate() {
                let Ok(rep) = r else { continue };
                if let Err(e) = w.replay(i, on, pass, &mut counts) {
                    res.breach(format!("pass {pass}: {e}"));
                }
                on.time("obs.to_json", pass, None, |_| {
                    rep.to_json().to_string().len()
                });
                on.time("isa-arm.ref", pass, None, |_| {
                    pdbt_workloads::run_reference(&suite[i])
                })
                .ok();
            }
            if counts.translated != obs.translate_calls {
                res.breach(format!(
                    "pass {pass}: replayed {} translations of the engine's {}",
                    counts.translated, obs.translate_calls
                ));
            }
            match first_replay {
                Some(f) if f != counts => {
                    res.breach(format!(
                        "pass {pass}: replay counts changed {f:?} -> {counts:?}"
                    ));
                }
                Some(_) => {}
                None => first_replay = Some(counts),
            }
            res.replay = counts;
            res.traced_pass_ms.push(pass_ms);
            res.traced_units.push(pass);
            res.traced_obs.push(obs);
        } else if let Some(before) = before {
            let after = res.probe(&mut cal);
            last_probe = Some(after);
            res.pass_cal_ms.push((before + after) / 2.0);
            res.pass_ms.push(pass_ms);
            res.req_ms.extend(runs.iter().map(|(_, ms)| *ms));
            timed += 1;
        }
        if pass == 0 {
            window = Some(Instant::now());
        }
    }
    res
}
