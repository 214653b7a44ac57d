//! Golden-file pin of the `--report-json` schema: the sorted set of
//! field paths (in `rules[].label` style) produced by driving the real
//! `pdbt stats` binary must match `tests/golden/report_schema.txt`.
//!
//! The report is the machine-readable interface of the whole tool —
//! downstream dashboards key on exact field names and nesting — so
//! renaming, moving or dropping a field must show up as a reviewed
//! golden diff, not a silent break. Values are deliberately not
//! pinned; only structure is.
//!
//! Refresh after an intentional schema change with
//! `UPDATE_GOLDEN=1 cargo test --test report_schema`.

use pdbt::obs::json::Json;
use std::collections::BTreeSet;
use std::process::Command;

/// A guest that exercises every report section: rule-covered ALU work,
/// an unlearnable (`mul`) to force lookup misses, a flag-delegated
/// loop, and output.
const GUEST: &str = "\
mov r0, #5
mov r1, #0
mov r2, #3
add r1, r1, r0
mul r3, r1, r0
subs r2, r2, #1
bne .-12
mov r0, r1
svc #1
mov r0, r3
svc #1
svc #0
";

fn schema_paths(doc: &Json, path: &str, out: &mut BTreeSet<String>) {
    match doc {
        Json::Obj(map) => {
            for (key, value) in map {
                let sub = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                schema_paths(value, &sub, out);
            }
        }
        Json::Arr(items) => {
            let sub = format!("{path}[]");
            if items.is_empty() {
                out.insert(sub);
            } else {
                for item in items {
                    schema_paths(item, &sub, out);
                }
            }
        }
        _ => {
            out.insert(path.to_string());
        }
    }
}

#[test]
fn report_json_schema_matches_golden() {
    let dir = std::env::temp_dir().join(format!("pdbt-schema-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let prog = dir.join("prog.s");
    let rules = dir.join("rules.txt");
    let report = dir.join("report.json");
    std::fs::write(&prog, GUEST).unwrap();

    let status = Command::new(env!("CARGO_BIN_EXE_pdbt"))
        .args(["train", "--scale", "tiny", "-o", rules.to_str().unwrap()])
        .status()
        .expect("pdbt train runs");
    assert!(status.success());

    // `--jobs 2` prewarms through the worker pool, so the pool and
    // per-shard cache sections carry real data.
    let status = Command::new(env!("CARGO_BIN_EXE_pdbt"))
        .args([
            "stats",
            prog.to_str().unwrap(),
            "--rules",
            rules.to_str().unwrap(),
            "--jobs",
            "2",
            "--report-json",
            report.to_str().unwrap(),
        ])
        .status()
        .expect("pdbt stats runs");
    assert!(status.success());

    let text = std::fs::read_to_string(&report).unwrap();
    let doc = Json::parse(&text).expect("report is valid JSON");
    let mut paths = BTreeSet::new();
    schema_paths(&doc, "", &mut paths);
    // The degraded-mode interface must always be present, even in a
    // healthy run: consumers poll `outcome` and the `resilience`
    // counters to tell a complete report from a partial one.
    for required in [
        "outcome",
        "resilience.degraded_blocks",
        "resilience.interpreted_guest",
        "resilience.quarantined_rules",
        "resilience.quarantined_combos",
        "resilience.fuel_exhausted",
        "resilience.injected.symexec",
        "resilience.injected.emit",
        "resilience.injected.store",
        "resilience.injected.pool",
        "resilience.injected.cache",
        // The dispatch hot-path counters: dashboards distinguish a run
        // where chaining/traces never engaged from one where the flags
        // were off by these being present-and-zero vs. absent.
        // The host-backend identity and its compile counters: consumers
        // tell a threaded-code run from a model-interpreter run (and
        // how much one-off compile time it paid) without re-deriving it
        // from flags.
        "dispatch.backend",
        "dispatch.compiled_blocks",
        "dispatch.compile_ns",
        "dispatch.jump_cache_hits",
        "dispatch.jump_cache_misses",
        "dispatch.chain_followed",
        "dispatch.links_resolved",
        "dispatch.traces_formed",
        "dispatch.trace_execs",
        "dispatch.invalidations",
        // The serving-model counters: every report names the shared
        // translation state it ran against, so a `pdbt serve` response
        // and a standalone `pdbt run` expose the same interface (the
        // standalone case is simply a one-session server).
        "server.probes",
        "server.inserted",
        "server.hits",
        "server.translate_calls",
        "server.trace_translate_calls",
        "server.sessions",
        "server.hit_rate",
        "server.compiled_blocks",
        "server.partitions[].compiled_blocks",
        // The serving-plane telemetry: request-lifecycle latency
        // histograms with interpolated quantiles, the per-partition
        // SLO rollup, and the flight-recorder tail. A standalone run
        // records its own single session, so all three sections carry
        // real data here too.
        "server.latency.request_ns.count",
        "server.latency.request_ns.p50",
        "server.latency.request_ns.p95",
        "server.latency.request_ns.p99",
        "server.latency.queue_ns.count",
        "server.latency.reply_bytes.count",
        "server.partitions[].partition",
        "server.partitions[].sessions",
        "server.partitions[].hit_rate",
        "server.partitions[].latency.count",
        "server.partitions[].latency.p50",
        "server.partitions[].latency.p95",
        "server.partitions[].latency.p99",
        "server.flight[].seq",
        "server.flight[].outcome",
        "server.flight[].partition",
        "server.flight[].phases.queue_ns",
        "server.flight[].phases.translate_ns",
        "server.flight[].phases.execute_ns",
        "server.flight[].phases.reply_ns",
        "server.flight[].phases.total_ns",
        "server.flight[].reply_bytes",
        // The artifact provenance counters: consumers tell a warm
        // (artifact-rehydrated) session from a cold one, and count
        // sections the salvage loader quarantined, without parsing
        // server logs. Present-and-zero on a cold standalone run.
        "server.artifact.warm",
        "server.artifact.loaded_blocks",
        "server.artifact.loaded_traces",
        "server.artifact.loaded_rules",
        "server.artifact.quarantined_sections",
        "server.artifact.trace_hits",
    ] {
        assert!(
            paths.contains(required),
            "report is missing the `{required}` field"
        );
    }
    let got = paths.into_iter().collect::<Vec<_>>().join("\n") + "\n";

    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/report_schema.txt"
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(golden_path, &got).unwrap();
    }
    let want = std::fs::read_to_string(golden_path).expect("golden file present");
    assert_eq!(
        got, want,
        "report schema changed; review and refresh with UPDATE_GOLDEN=1"
    );

    std::fs::remove_dir_all(&dir).ok();
}
