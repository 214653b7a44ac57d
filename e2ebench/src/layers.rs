//! Turns samples, spans and engine counters into the named metrics.

use crate::calib::Calibrator;
use crate::passes::PassResults;
use crate::spans::{ms_per_unit, Span, Tracer};
use crate::stats::{median, ratio, tail};
use crate::{Measured, SETUP_REPS};
use std::time::Instant;

/// Programs in a pass.
const PROGRAMS: usize = pdbt_workloads::Benchmark::ALL.len();

/// The calibration kernel's median time on the reference machine (a
/// 2.0 GHz Xeon): `setup_s` is set-up time at that kernel speed.
const CAL_REF_MS: f64 = 27.0;

/// The seconds of every set-up repetition.
#[derive(Debug, Default, Clone)]
pub struct SetupTimes {
    /// Wall-clock seconds.
    pub wall: Vec<f64>,
    /// Wall-clock seconds × [`CAL_REF_MS`] / the mean of the
    /// calibration probes right before and after the repetition: the
    /// set-up time with the host's slow and fast phases taken out.
    pub scaled: Vec<f64>,
}

/// A workload's set-up, run [`SETUP_REPS`] times per run (unit =
/// repetition): once before the timed window, and the rest after it,
/// once the window's state is dropped. The window, and `peak_rss_mb`
/// read when it closes, so see a process that set the workload up once,
/// as a user's process does: every set-up leaves some memory behind
/// (a daemon's, for one), and how much varies from run to run.
pub struct Setup<F> {
    setup: F,
    cal: Calibrator,
    times: SetupTimes,
}

impl<F> Setup<F> {
    /// Runs and times repetition 0, and returns its state.
    ///
    /// # Errors
    ///
    /// The set-up's error, or a wrong calibration checksum.
    pub fn first<T>(setup: F) -> Result<(Setup<F>, T), String>
    where
        F: FnMut(u64) -> Result<T, String>,
    {
        let mut s = Setup {
            setup,
            cal: Calibrator::new(),
            times: SetupTimes::default(),
        };
        let state = s.timed(0)?;
        Ok((s, state))
    }

    /// Runs and times the remaining repetitions, dropping each one's
    /// state before the next; returns every repetition's times.
    ///
    /// # Errors
    ///
    /// The first set-up error, or a wrong calibration checksum.
    pub fn rest<T>(mut self) -> Result<SetupTimes, String>
    where
        F: FnMut(u64) -> Result<T, String>,
    {
        for rep in 1..SETUP_REPS {
            drop(self.timed(rep)?);
        }
        Ok(self.times)
    }

    fn timed<T>(&mut self, rep: u64) -> Result<T, String>
    where
        F: FnMut(u64) -> Result<T, String>,
    {
        let before = self.cal.probe()?;
        let t = Instant::now();
        let state = (self.setup)(rep)?;
        let secs = t.elapsed().as_secs_f64();
        let after = self.cal.probe()?;
        self.times.wall.push(secs);
        self.times
            .scaled
            .push(secs * CAL_REF_MS / ((before + after) / 2.0));
        Ok(state)
    }
}

/// Set-up layers: the median over repetitions of each layer's summed
/// span time, the median wall-clock of a whole set-up, and the
/// derivation accept ratio.
pub fn setup_layers(out: &mut Measured, tracer: &Tracer, setup: &SetupTimes, accept_ratio: f64) {
    out.put("wall.setup_s", median(&setup.wall));
    let spans = tracer.spans();
    let reps: Vec<u64> = (0..SETUP_REPS).collect();
    for (metric, span) in [
        ("workloads.build_ms", "workloads.build"),
        ("core.learn_ms", "core.learn"),
        ("core.derive_ms", "core.derive"),
        ("artifact.compile_seal_ms", "artifact.compile_seal"),
        ("serve.warmup_ms", "serve.warmup"),
    ] {
        out.put(metric, median(&ms_per_unit(&spans, span, &reps)));
    }
    out.put("core.derive.accept_ratio", accept_ratio);
}

/// The result of a pass workload: its end-to-end metrics, or with
/// `--trace 1` its per-layer metrics. `artifact_bytes` is the sealed
/// size a pass opens (0 when it opens none); `peak_rss_mb` was read when
/// the window closed.
#[must_use]
pub fn pass_result(
    trace: bool,
    tracer: &Tracer,
    res: &PassResults,
    setup: &SetupTimes,
    peak_rss_mb: f64,
    accept_ratio: f64,
    artifact_bytes: usize,
) -> Measured {
    let mut out = Measured {
        tally: res.tally,
        breaches: res.breaches.clone(),
        ..Measured::default()
    };
    if trace {
        setup_layers(&mut out, tracer, setup, accept_ratio);
        pass_layers(&mut out, res, &tracer.spans());
        out.put("artifact.bytes", artifact_bytes as f64);
    } else {
        let t = pass_timings(res);
        let o = &res.pass_obs;
        let passes = res.pass_ms.len() as u64;
        end_to_end(
            &mut out,
            &t,
            setup,
            peak_rss_mb,
            o.rule_covered * passes,
            o.host_executed * passes,
        );
    }
    out
}

/// Per-layer metrics only `serve-zipf` loads, zero elsewhere.
const SERVE_ONLY: &[&str] = &[
    "serve.queue_wait_ms.p50",
    "serve.queue_wait_ms.p99",
    "serve.worker_busy_frac",
    "serve.queue_high_water",
    "serve.hit_rate",
    "serve.translate_calls",
    "serve.reply_bytes.p50",
];

/// The timing samples of one run, and the calibration time paired with
/// each. A "pass" is a 12-program pass, or on `serve-zipf` a window
/// slice scaled to one pass's guest instructions; a "request" is one
/// program run or one SUBMIT round trip.
#[derive(Debug, Default)]
pub struct Timings {
    pub pass_ms: Vec<f64>,
    /// The calibration kernel's time around the same work (see
    /// [`crate::calib`]).
    pub pass_cal_ms: Vec<f64>,
    pub req_ms: Vec<f64>,
    /// For each request, the calibration time of its pass or slice.
    pub req_cal_ms: Vec<f64>,
    /// Requests per group whose median is taken before the median over
    /// groups (12 on pass workloads: the median program of each pass;
    /// 1 on `serve-zipf`).
    pub req_group: usize,
    pub guest_retired: u64,
    pub window_ms: f64,
}

fn ratios(num: &[f64], den: &[f64]) -> Vec<f64> {
    num.iter().zip(den).map(|(n, d)| ratio(*n, *d)).collect()
}

/// Median of the per-group medians.
fn grouped_median(xs: &[f64], group: usize) -> f64 {
    median(&xs.chunks(group.max(1)).map(median).collect::<Vec<_>>())
}

/// The end-to-end metrics every workload reports.
///
/// Times are gated as ratios to the calibration kernel timed right
/// around them, on the same core under the same neighbours: on the
/// reference machine the host's speed swings by up to 1.7× over seconds
/// to minutes, which moves a pass's wall-clock by ±20% between runs.
/// The wall-clock numbers themselves are reported by the traced run
/// (`wall.*`).
pub fn end_to_end(
    out: &mut Measured,
    t: &Timings,
    setup: &SetupTimes,
    peak_rss_mb: f64,
    rule_covered: u64,
    host_executed: u64,
) {
    let pass = ratios(&t.pass_ms, &t.pass_cal_ms);
    let req = ratios(&t.req_ms, &t.req_cal_ms);
    out.put("pass_x_cal.p50", median(&pass));
    out.put("pass_x_cal.tail", tail(&pass).value);
    // On pass workloads each program is a cluster of its own, so the
    // pooled median would sit on the edge between the sixth and seventh
    // cluster and jump from run to run; the median program of each pass
    // does not.
    out.put("req_x_cal.p50", grouped_median(&req, t.req_group));
    out.put("setup_s", median(&setup.scaled));
    out.put("peak_rss_mb", peak_rss_mb);
    out.put(
        "coverage",
        ratio(rule_covered as f64, t.guest_retired as f64),
    );
    out.put(
        "host_per_guest",
        ratio(host_executed as f64, t.guest_retired as f64),
    );
    let p = tail(&pass);
    eprintln!(
        "e2ebench: pass tail is p{} of {} passes; {} requests; set-up wall-clock {} s",
        p.pct,
        p.samples,
        req.len(),
        median(&setup.wall)
    );
}

/// The wall-clock rows of the traced run (from its untraced passes),
/// and the tail percentile they were taken at.
pub fn wall_layers(out: &mut Measured, t: &Timings) {
    out.put(
        "wall.guest_mips",
        ratio(t.guest_retired as f64, t.window_ms * 1e3),
    );
    out.put("wall.pass_ms.p50", median(&t.pass_ms));
    out.put("wall.pass_ms.tail", tail(&t.pass_ms).value);
    out.put("wall.req_ms.p50", grouped_median(&t.req_ms, t.req_group));
    out.put("wall.req_ms.tail", tail(&t.req_ms).value);
    out.put(
        "wall.req_per_s",
        ratio(t.req_ms.len() as f64, t.window_ms / 1e3),
    );
    let p = tail(&t.pass_ms);
    out.put("bench.tail_pct", f64::from(p.pct));
    out.put("bench.samples", p.samples as f64);
    out.put("bench.cal_ms", median(&t.pass_cal_ms));
}

/// The timings of a pass run.
fn pass_timings(res: &PassResults) -> Timings {
    Timings {
        pass_ms: res.pass_ms.clone(),
        pass_cal_ms: res.pass_cal_ms.clone(),
        req_ms: res.req_ms.clone(),
        req_cal_ms: res
            .pass_cal_ms
            .iter()
            .flat_map(|c| std::iter::repeat_n(*c, PROGRAMS))
            .collect(),
        req_group: PROGRAMS,
        guest_retired: res.pass_obs.guest_retired * res.pass_ms.len() as u64,
        window_ms: res.pass_ms.iter().sum(),
    }
}

/// Per-layer metrics of a pass workload, from the traced passes' spans
/// and engine counters. Times are per pass (median over traced passes).
fn pass_layers(out: &mut Measured, res: &PassResults, spans: &[Span]) {
    let units = &res.traced_units;
    let per = |name: &str| ms_per_unit(spans, name, units);
    let run = per("runtime.run");
    let translate = per("runtime.translate");
    let collect = per("runtime.collect");
    let lookup = per("core.lookup");
    let lift_lower = per("ir.lift_lower");
    let compile = per("isa-x86.compile");
    let engine_translate_ns: Vec<f64> = res
        .traced_obs
        .iter()
        .map(|o| o.translate_ns as f64)
        .collect();
    let engine_compile_ns: Vec<f64> = res.traced_obs.iter().map(|o| o.compile_ns as f64).collect();
    let by_unit = |f: &dyn Fn(usize) -> f64| median(&(0..units.len()).map(f).collect::<Vec<_>>());
    let ns_to_ms = |ns: &[f64]| ns.iter().map(|v| v / 1e6).collect::<Vec<_>>();

    out.put("runtime.run_ms", median(&run));
    out.put("runtime.translate_ms", median(&translate));
    out.put(
        "runtime.translate_calls",
        res.pass_obs.translate_calls as f64,
    );
    out.put("runtime.translate_ns_engine", median(&engine_translate_ns));
    out.put("runtime.collect_ms", median(&collect));
    out.put("core.lookup_ms", median(&lookup));
    out.put("core.lookups", res.replay.lookups as f64);
    out.put(
        "core.lookup_hit_ratio",
        ratio(res.replay.hits as f64, res.replay.lookups as f64),
    );
    out.put("ir.lift_lower_ms", median(&lift_lower));
    out.put("ir.lifted_insts", res.replay.lifted as f64);
    out.put(
        "runtime.translate_self_ms",
        median(&residual(&translate, &[&collect, &lookup, &lift_lower])),
    );
    out.put("isa-x86.compile_ms", median(&compile));
    out.put(
        "isa-x86.compiled_blocks",
        res.pass_obs.compiled_blocks as f64,
    );
    out.put("isa-x86.compile_ns_engine", median(&engine_compile_ns));
    out.put("isa-x86.replayed_blocks", res.replay.compiled as f64);
    out.put(
        "runtime.exec_ms",
        median(&residual(
            &run,
            &[
                &ns_to_ms(&engine_translate_ns),
                &ns_to_ms(&engine_compile_ns),
            ],
        )),
    );
    dispatch_layers(out, &res.pass_obs, 1.0);
    out.put("artifact.open_ms", median(&per("artifact.open")));
    out.put("artifact.warm_ms", median(&per("artifact.warm")));
    out.put("obs.to_json_ms", median(&per("obs.to_json")));
    let ref_ms = median(&per("isa-arm.ref"));
    out.put("isa-arm.ref_ms", ref_ms);
    out.put(
        "xcheck.translate_replay_over_engine",
        by_unit(&|k| ratio(translate[k] * 1e6, engine_translate_ns[k])),
    );
    out.put(
        "xcheck.compile_replay_over_engine",
        by_unit(&|k| ratio(compile[k] * 1e6, engine_compile_ns[k])),
    );
    let untraced = median(&res.pass_ms);
    out.put("context.pass_over_ref", ratio(untraced, ref_ms));
    wall_layers(out, &pass_timings(res));
    out.put(
        "trace.overhead_frac",
        ratio(median(&res.traced_pass_ms) - untraced, untraced),
    );
    for name in SERVE_ONLY {
        out.put(name, 0.0);
    }
}

/// A residual row, per unit: `total[k]` minus every `parts[_][k]`.
/// Labels a time the benchmark cannot put a span around (the
/// translator's liveness/regalloc/emit, host execution) as what is
/// left of its parent once the measured parts are taken out.
#[must_use]
fn residual(total: &[f64], parts: &[&[f64]]) -> Vec<f64> {
    total
        .iter()
        .enumerate()
        .map(|(k, t)| t - parts.iter().map(|p| p[k]).sum::<f64>())
        .collect()
}

/// The dispatch rows, with counts divided by `per` (1 for a pass,
/// the request count for `serve-zipf`).
pub fn dispatch_layers(out: &mut Measured, o: &crate::passes::PassObs, per: f64) {
    let probes = (o.jump_cache_hits + o.jump_cache_misses) as f64;
    out.put(
        "dispatch.blocks_executed",
        ratio(o.blocks_executed as f64, per),
    );
    out.put(
        "dispatch.chain_ratio",
        ratio(o.chain_followed as f64, o.chain_followed as f64 + probes),
    );
    out.put(
        "dispatch.jump_hit_ratio",
        ratio(o.jump_cache_hits as f64, probes),
    );
    out.put("dispatch.trace_execs", ratio(o.trace_execs as f64, per));
    out.put("dispatch.traces_formed", ratio(o.traces_formed as f64, per));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_subtracts_parts_per_unit() {
        let total = [10.0, 20.0, 30.0];
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 0.0, 6.0];
        assert_eq!(residual(&total, &[&a, &b]), vec![5.0, 18.0, 21.0]);
        assert_eq!(residual(&total, &[]), total.to_vec());
        // The median is taken over per-unit residuals, not residual of
        // medians.
        assert_eq!(median(&residual(&total, &[&a, &b])), 18.0);
    }
}
