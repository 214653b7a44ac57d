//! End-to-end, layer-by-layer wall-clock benchmark of pdbt.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload cold-para|artifact-boot|serve-zipf --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds the inputs from the seed, runs the workload against the
//! workspace crates' public API for `--seconds`, checks every output
//! against the reference interpreter, and prints one JSON line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics (from
//! spans the benchmark records around each layer's public calls) with
//! `--trace 1`. A human-readable table goes to stderr. See README.md
//! for the workloads, the metrics and the layer map.

mod artifact_boot;
mod calib;
mod cold_para;
mod inputs;
mod layers;
mod passes;
mod replay;
mod serve_zipf;
mod spans;
mod stats;

use spans::Tracer;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics `(name, unit)`, reported by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("pass_x_cal.p50", "ratio"),
    ("pass_x_cal.tail", "ratio"),
    ("req_x_cal.p50", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("coverage", "ratio"),
    ("host_per_guest", "ratio"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run; a
/// layer a workload does not load reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wall.guest_mips", "instr/us"),
    ("wall.pass_ms.p50", "ms"),
    ("wall.pass_ms.tail", "ms"),
    ("wall.req_ms.p50", "ms"),
    ("wall.req_ms.tail", "ms"),
    ("wall.req_per_s", "1/s"),
    ("wall.setup_s", "s"),
    ("workloads.build_ms", "ms"),
    ("core.learn_ms", "ms"),
    ("core.derive_ms", "ms"),
    ("core.derive.accept_ratio", "ratio"),
    ("artifact.compile_seal_ms", "ms"),
    ("serve.warmup_ms", "ms"),
    ("runtime.run_ms", "ms"),
    ("runtime.translate_ms", "ms"),
    ("runtime.translate_calls", "count"),
    ("runtime.translate_ns_engine", "ns"),
    ("runtime.collect_ms", "ms"),
    ("core.lookup_ms", "ms"),
    ("core.lookups", "count"),
    ("core.lookup_hit_ratio", "ratio"),
    ("ir.lift_lower_ms", "ms"),
    ("ir.lifted_insts", "count"),
    ("runtime.translate_self_ms", "ms"),
    ("isa-x86.compile_ms", "ms"),
    ("isa-x86.compiled_blocks", "count"),
    ("isa-x86.compile_ns_engine", "ns"),
    ("isa-x86.replayed_blocks", "count"),
    ("runtime.exec_ms", "ms"),
    ("dispatch.blocks_executed", "count"),
    ("dispatch.chain_ratio", "ratio"),
    ("dispatch.jump_hit_ratio", "ratio"),
    ("dispatch.trace_execs", "count"),
    ("dispatch.traces_formed", "count"),
    ("artifact.open_ms", "ms"),
    ("artifact.bytes", "bytes"),
    ("artifact.warm_ms", "ms"),
    ("obs.to_json_ms", "ms"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.worker_busy_frac", "ratio"),
    ("serve.queue_high_water", "count"),
    ("serve.hit_rate", "ratio"),
    ("serve.translate_calls", "count"),
    ("serve.reply_bytes.p50", "bytes"),
    ("isa-arm.ref_ms", "ms"),
    ("xcheck.translate_replay_over_engine", "ratio"),
    ("xcheck.compile_replay_over_engine", "ratio"),
    ("context.pass_over_ref", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("bench.tail_pct", "%"),
    ("bench.samples", "count"),
    ("bench.cal_ms", "ms"),
];

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: &[&str] = &["cold-para", "artifact-boot", "serve-zipf"];

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: u64 = 5;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => args.workload = value.to_string(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// What a workload hands back: the operation tally, any breach of a
/// correctness or determinism gate, and its metrics by name.
#[derive(Debug, Default)]
pub struct Measured {
    pub tally: stats::Tally,
    pub breaches: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Measured {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line. A run with a breach reports no numbers.
fn result_line(out: &Measured, wanted: &[(&str, &str)]) -> String {
    let correct = out.breaches.is_empty() && out.tally.failed == 0;
    let mut metrics = String::new();
    if correct {
        for (i, (name, unit)) in wanted.iter().enumerate() {
            if i > 0 {
                metrics.push(',');
            }
            metrics.push_str(&format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                out.metrics[name]
            ));
        }
    }
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        out.tally.attempted, out.tally.failed
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let run = match args.workload.as_str() {
        "cold-para" => cold_para::run(&args, &tracer),
        "artifact-boot" => artifact_boot::run(&args, &tracer),
        _ => serve_zipf::run(&args, &tracer),
    };
    let mut out = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    if args.trace {
        let spans = tracer.spans();
        out.put("trace.spans", spans.len() as f64);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, spans::chrome_trace(&spans)))
        {
            Ok(()) => eprintln!(
                "e2ebench: {} spans written to {}",
                spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("e2ebench: writing {}: {e}", path.display()),
        }
    }
    for (name, unit) in wanted {
        match out.metrics.get(name) {
            Some(v) if v.is_finite() => eprintln!("  {name:<38} {v:>16.6} {unit}"),
            Some(v) => out.breaches.push(format!("{name} is not finite: {v}")),
            None => out.breaches.push(format!("{name} was not measured")),
        }
    }
    if out.tally.attempted == 0 {
        out.breaches.push("no operation was attempted".into());
    }
    for b in &out.breaches {
        eprintln!("e2ebench: BREACH {b}");
    }
    eprintln!(
        "e2ebench: failed_frac {} ({} of {})",
        out.tally.failed_frac(),
        out.tally.failed,
        out.tally.attempted
    );
    println!("{}", result_line(&out, wanted));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdbt_obs::json::Json;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(&argv("--workload cold-para --seed 3 --seconds 2 --trace 1")).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (3, 2.0, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload cold-para --trace 2")).is_err());
        assert!(parse_args(&argv("--workload cold-para --seed")).is_err());
    }

    #[test]
    fn result_line_reports_numbers_only_when_correct() {
        let mut out = Measured::default();
        out.tally.record(true);
        for (name, _) in END_TO_END {
            out.put(name, 1.5);
        }
        let good = Json::parse(&result_line(&out, END_TO_END)).unwrap();
        assert_eq!(good.get("correct").and_then(Json::as_bool), Some(true));
        let m = good.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s")
                .and_then(|v| v.get("unit"))
                .and_then(Json::as_str),
            Some("s")
        );
        out.tally.record(false);
        let bad = Json::parse(&result_line(&out, END_TO_END)).unwrap();
        assert_eq!(bad.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(bad.get("failed").and_then(Json::as_u64), Some(1));
        assert_eq!(
            bad.get("metrics"),
            Some(&Json::obj(Vec::<(String, Json)>::new()))
        );
    }

    /// `BENCHMARK.json` at the repository root names exactly the
    /// workloads and metrics this program reports.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let doc = Json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
