//! `serve-zipf`: an in-process `pdbt serve` daemon with one worker,
//! serving one merged `para` rule set, driven by two closed-loop client
//! threads. Each client sends its next `SUBMIT` only after the previous
//! reply arrived; each program is drawn independently from a seeded
//! 1/rank zipfian over the twelve suite programs in `Benchmark::ALL`
//! order. Set-up warms every program once, so the timed window
//! translates nothing.
//!
//! The daemon builds its programs by name, so they are always the
//! repository's suite (seed 0); the seed moves the request draw.

use crate::calib::Calibrator;
use crate::inputs::{
    build_suite, check_seed0_fingerprints, choose_seeds, learn, reference_outputs, reference_probe,
    zipf_draw,
};
use crate::layers::{dispatch_layers, end_to_end, setup_layers, wall_layers, Setup, Timings};
use crate::passes::PassObs;
use crate::spans::Tracer;
use crate::stats::{median, ratio, Tally};
use crate::{peak_rss_mb, Args, Measured};
use pdbt_core::derive::{derive_jobs, DeriveConfig};
use pdbt_core::RuleSet;
use pdbt_obs::json::Json;
use pdbt_runtime::BackendKind;
use pdbt_serve::{ServeConfig, ServeSummary, Server};
use pdbt_symexec::CheckOptions;
use pdbt_workloads::Benchmark;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Closed-loop clients (no more than the two cores of the reference
/// machine).
const CLIENTS: usize = 2;
/// Socket timeout of every client call.
const TIMEOUT: Duration = Duration::from_secs(60);
/// Length of the precomputed request draw; far above what a window
/// completes.
const DRAWS: usize = 1 << 18;
/// Length of one slice of the timed window: short enough for 40
/// samples in a 20 s window, long enough that the calibration probe
/// after it (about 55 ms with its untimed run) stays a small share.
const SLICE_S: f64 = 0.5;
/// Reference-interpreter timings behind `isa-arm.ref_ms` (traced run
/// only; context, never gated).
const REF_REPS: usize = 3;

/// A running daemon; dropping it shuts the daemon down and joins it.
struct Daemon {
    addr: SocketAddr,
    handle: Option<JoinHandle<std::io::Result<ServeSummary>>>,
}

impl Daemon {
    fn stop(mut self) -> Result<ServeSummary, String> {
        let handle = self.handle.take().expect("a daemon is stopped once");
        pdbt_serve::shutdown(self.addr, TIMEOUT).map_err(|e| format!("shutdown: {e}"))?;
        handle
            .join()
            .map_err(|_| "serve thread panicked".to_string())?
            .map_err(|e| format!("serve: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = pdbt_serve::shutdown(self.addr, TIMEOUT);
            let _ = handle.join();
        }
    }
}

fn request(bench: usize, id: usize) -> Json {
    Json::obj([
        ("workload", Json::str(Benchmark::ALL[bench].name())),
        ("scale", Json::str("full")),
        ("id", Json::from(id as u64)),
    ])
}

/// Checks one reply: completed, output equal to the reference, and the
/// report's counters present.
fn check_reply(
    reply: &Result<Json, pdbt_serve::ClientError>,
    want: &[u32],
) -> Result<PassObs, String> {
    let r = reply.as_ref().map_err(|e| e.to_string())?;
    let outcome = r.get("outcome").and_then(Json::as_str).unwrap_or("?");
    if outcome != "completed" {
        return Err(format!("outcome {outcome}"));
    }
    let report = r.get("report").ok_or("reply has no report")?;
    let output: Option<Vec<u32>> = report.get("output").and_then(Json::as_arr).map(|a| {
        a.iter()
            .map(|v| v.as_u64().map_or(u32::MAX, |x| x as u32))
            .collect()
    });
    if output.as_deref() != Some(want) {
        return Err("output differs from run_reference".into());
    }
    PassObs::of_json(report).ok_or_else(|| "report lacks counters".into())
}

/// One completed request of the timed window.
struct Sample {
    id: usize,
    bench: usize,
    slice: usize,
    latency_ms: f64,
    traced: bool,
    result: Result<PassObs, String>,
}

fn u64_at(j: &Json, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(j, |o, k| o.get(k))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

fn f64_at(j: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(j, |o, k| o.get(k))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn busy_ns(stats: &Json) -> u64 {
    stats
        .get("pool")
        .and_then(|p| p.get("busy_ns"))
        .and_then(Json::as_arr)
        .map_or(0, |a| a.iter().filter_map(Json::as_u64).sum())
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures: the daemon does not bind, seed 0 does not rebuild
/// the suite, or a client call fails outside the timed window.
pub fn run(args: &Args, tracer: &Tracer) -> Result<Measured, String> {
    let gen_seeds = choose_seeds(0)?;
    let (setup, (exp, daemon, warmups, accept)) = Setup::first(|rep| {
        let exp = learn(build_suite(&gen_seeds, tracer, rep)?, tracer, rep);
        // `pdbt train`: merge every program's learned rules, then derive.
        let mut merged = RuleSet::new();
        for r in &exp.per_rules {
            merged.merge(r.clone());
        }
        let (rules, stats) = tracer.time("core.derive", rep, None, |_| {
            derive_jobs(&merged, DeriveConfig::full(), CheckOptions::default(), 1)
        });
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                rules: Some(rules),
                jobs: 1,
                backend: BackendKind::Threaded,
                ..ServeConfig::default()
            },
        )
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let daemon = Daemon {
            addr,
            handle: Some(std::thread::spawn(move || server.serve())),
        };
        let warmups: Vec<_> = (0..exp.suite.len())
            .map(|i| {
                tracer.time("serve.warmup", rep, None, |_| {
                    pdbt_serve::submit(addr, &request(i, i), TIMEOUT)
                })
            })
            .collect();
        let accept = ratio(
            stats.derived as f64,
            (stats.derived + stats.rejected) as f64,
        );
        Ok((exp, daemon, warmups, accept))
    })?;
    check_seed0_fingerprints(&exp.suite)?;
    let refs = reference_outputs(&exp.suite)?;
    let mut tally = Tally::default();
    let mut breaches = Vec::new();
    // Guest instructions of one pass: one run of each program.
    let mut pass_guest = 0u64;
    for (i, w) in warmups.iter().enumerate() {
        let r = check_reply(w, &refs[i]);
        tally.record(r.is_ok());
        match r {
            Ok(o) => pass_guest += o.guest_retired,
            Err(e) => breaches.push(format!("warm-up {}: {e}", Benchmark::ALL[i].name())),
        }
    }

    let addr = daemon.addr;
    let draw = zipf_draw(args.seed, DRAWS);
    let before = pdbt_serve::stats(addr, TIMEOUT).map_err(|e| format!("stats: {e}"))?;
    let off = Tracer::new(false);
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    // The window runs in slices. Between slices both clients wait at a
    // barrier, so the worker is idle, while the main thread times the
    // calibration kernel; each slice is compared with the mean of the
    // probes on either side of it.
    let slices = ((args.seconds / SLICE_S).ceil() as usize).max(1);
    let barrier = Barrier::new(CLIENTS + 1);
    let deadline = Mutex::new(Instant::now());
    let mut slice_ms = Vec::with_capacity(slices);
    let mut probes = Vec::with_capacity(slices + 1);
    let mut cal = Calibrator::new();
    let mut probe = |breaches: &mut Vec<String>| {
        probes.push(cal.probe().unwrap_or_else(|e| {
            breaches.push(e);
            f64::NAN
        }));
    };
    let start = Instant::now();
    tracer.time("serve.window", 0, None, |window| {
        std::thread::scope(|scope| {
            for _ in 0..CLIENTS {
                scope.spawn(|| {
                    for slice in 0..slices {
                        barrier.wait();
                        let until = *deadline.lock().expect("deadline lock poisoned");
                        // The traced run measures its first half untraced,
                        // so the tracing overhead is measured in one run.
                        let traced = args.trace && slice >= slices / 2;
                        let t = if traced { tracer } else { &off };
                        while Instant::now() < until {
                            let id = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&bench) = draw.get(id) else { break };
                            let req = request(bench, id);
                            let sent_ms = start.elapsed().as_secs_f64() * 1e3;
                            let reply = t.time("serve.request", id as u64, window, |_| {
                                pdbt_serve::submit(addr, &req, TIMEOUT)
                            });
                            let done_ms = start.elapsed().as_secs_f64() * 1e3;
                            let result = check_reply(&reply, &refs[bench]);
                            samples
                                .lock()
                                .expect("sample buffer lock poisoned by a panicking client")
                                .push(Sample {
                                    id,
                                    bench,
                                    slice,
                                    latency_ms: done_ms - sent_ms,
                                    traced,
                                    result,
                                });
                        }
                        barrier.wait();
                    }
                });
            }
            probe(&mut breaches);
            for _ in 0..slices {
                *deadline.lock().expect("deadline lock poisoned") =
                    Instant::now() + Duration::from_secs_f64(SLICE_S);
                let released = Instant::now();
                barrier.wait();
                barrier.wait();
                slice_ms.push(released.elapsed().as_secs_f64() * 1e3);
                probe(&mut breaches);
            }
        });
    });
    let peak = peak_rss_mb();
    let after = pdbt_serve::stats(addr, TIMEOUT).map_err(|e| format!("stats: {e}"))?;
    let summary = daemon.stop()?;
    if summary.panicked > 0 {
        breaches.push(format!("{} sessions panicked", summary.panicked));
    }
    // The reference interpreter's time per pass (context for the traced
    // run), taken before the remaining set-ups.
    let ref_ms: f64 = if args.trace {
        let runs: Vec<Vec<f64>> = (0..REF_REPS).map(|_| reference_probe(&exp.suite)).collect();
        (0..exp.suite.len())
            .map(|i| median(&runs.iter().map(|p| p[i]).collect::<Vec<_>>()))
            .sum()
    } else {
        0.0
    };
    drop(exp);
    let setup = setup.rest()?;

    let mut samples = samples
        .into_inner()
        .expect("sample buffer lock poisoned by a panicking client");
    samples.sort_by_key(|s| s.id);
    let mut first: Vec<Option<PassObs>> = vec![None; refs.len()];
    let mut total = PassObs::default();
    for s in &samples {
        tally.record(s.result.is_ok());
        let name = Benchmark::ALL[s.bench].name();
        match (&s.result, &first[s.bench]) {
            (Err(e), _) => breaches.push(format!("request {} {name}: {e}", s.id)),
            (Ok(o), Some(f)) if f.exact() != o.exact() => breaches.push(format!(
                "request {} {name}: exact counts changed {f:?} -> {o:?}",
                s.id
            )),
            (Ok(o), None) => first[s.bench] = Some(*o),
            (Ok(_), Some(_)) => {}
        }
        if let Ok(o) = &s.result {
            total.add(o);
        }
    }
    breaches.truncate(20);
    let window_translate = u64_at(&after, &["server", "translate_calls"])
        - u64_at(&before, &["server", "translate_calls"]);
    if window_translate != 0 {
        breaches.push(format!("timed window translated {window_translate} blocks"));
    }

    // A "pass" here is a slice scaled to one pass's guest work: the
    // slice's wall-clock times the guest instructions of one run of each
    // program over the guest instructions the slice retired. The
    // weights are exact counts, fixed by the programs, so the code under
    // test cannot move them.
    let timings = |keep: &dyn Fn(&Sample) -> bool| {
        let mut t = Timings {
            req_group: 1,
            ..Timings::default()
        };
        for (k, ms) in slice_ms.iter().enumerate() {
            let in_slice: Vec<&Sample> = samples.iter().filter(|s| s.slice == k).collect();
            if in_slice.is_empty() || !in_slice.iter().all(|s| keep(s)) {
                continue;
            }
            let guest: u64 = in_slice
                .iter()
                .filter_map(|s| s.result.as_ref().ok())
                .map(|o| o.guest_retired)
                .sum();
            let cal = (probes[k] + probes[k + 1]) / 2.0;
            t.pass_ms.push(ms * ratio(pass_guest as f64, guest as f64));
            t.pass_cal_ms.push(cal);
            t.window_ms += ms;
            t.guest_retired += guest;
            for s in in_slice {
                t.req_ms.push(s.latency_ms);
                t.req_cal_ms.push(cal);
            }
        }
        t
    };

    let mut out = Measured {
        tally,
        breaches,
        ..Measured::default()
    };
    if !args.trace {
        end_to_end(
            &mut out,
            &timings(&|_| true),
            &setup,
            peak,
            total.rule_covered,
            total.host_executed,
        );
        return Ok(out);
    }

    setup_layers(&mut out, tracer, &setup, accept);
    let n = samples.len() as f64;
    let flight: Vec<(f64, f64)> = after
        .get("flight")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|f| {
            (
                f64_at(f, &["phases", "translate_ns"]),
                f64_at(f, &["phases", "execute_ns"]),
            )
        })
        .collect();
    let translate_ns: Vec<f64> = flight.iter().map(|f| f.0).collect();
    out.put(
        "runtime.run_ms",
        median(&flight.iter().map(|f| (f.0 + f.1) / 1e6).collect::<Vec<_>>()),
    );
    out.put(
        "runtime.exec_ms",
        median(&flight.iter().map(|f| f.1 / 1e6).collect::<Vec<_>>()),
    );
    out.put("runtime.translate_ns_engine", median(&translate_ns));
    out.put("runtime.translate_calls", window_translate as f64);
    out.put(
        "isa-x86.compiled_blocks",
        ratio(total.compiled_blocks as f64, n),
    );
    out.put(
        "isa-x86.compile_ns_engine",
        ratio(total.compile_ns as f64, n),
    );
    dispatch_layers(&mut out, &total, n);
    // Layers the window does not load: no translation, no artifacts,
    // and the report is serialised inside the daemon, out of reach of
    // the benchmark's spans.
    for name in [
        "runtime.translate_ms",
        "runtime.collect_ms",
        "core.lookup_ms",
        "core.lookups",
        "core.lookup_hit_ratio",
        "ir.lift_lower_ms",
        "ir.lifted_insts",
        "runtime.translate_self_ms",
        "isa-x86.compile_ms",
        "isa-x86.replayed_blocks",
        "xcheck.translate_replay_over_engine",
        "xcheck.compile_replay_over_engine",
        "artifact.open_ms",
        "artifact.bytes",
        "artifact.warm_ms",
        "obs.to_json_ms",
    ] {
        out.put(name, 0.0);
    }
    out.put(
        "serve.queue_wait_ms.p50",
        f64_at(&after, &["latency", "queue_ns", "p50"]) / 1e6,
    );
    out.put(
        "serve.queue_wait_ms.p99",
        f64_at(&after, &["latency", "queue_ns", "p99"]) / 1e6,
    );
    out.put(
        "serve.worker_busy_frac",
        ratio(
            busy_ns(&after).saturating_sub(busy_ns(&before)) as f64,
            slice_ms.iter().sum::<f64>() * 1e6,
        ),
    );
    out.put(
        "serve.queue_high_water",
        u64_at(&after, &["pool", "high_water"]) as f64,
    );
    out.put("serve.hit_rate", f64_at(&after, &["server", "hit_rate"]));
    out.put(
        "serve.translate_calls",
        u64_at(&after, &["server", "translate_calls"]) as f64,
    );
    out.put(
        "serve.reply_bytes.p50",
        f64_at(&after, &["latency", "reply_bytes", "p50"]),
    );
    let untraced = timings(&|s| !s.traced);
    let traced = timings(&|s| s.traced);
    wall_layers(&mut out, &untraced);
    out.put("isa-arm.ref_ms", ref_ms);
    out.put(
        "context.pass_over_ref",
        ratio(median(&untraced.pass_ms), ref_ms),
    );
    let untraced_p50 = median(&untraced.req_ms);
    out.put(
        "trace.overhead_frac",
        ratio(median(&traced.req_ms) - untraced_p50, untraced_p50),
    );
    Ok(out)
}
