//! End-to-end lockdown of the file-level fleet: a follower daemon
//! serving a directory that `pdbt sync` mirrored from a warm leader
//! must answer its *first* request with zero live translation work and
//! a stripped report bit-identical to a sequential cold run — the
//! paper's train-once-amortize-forever economics extended across
//! machines. That holds whether the file was there at boot or was
//! synced into a running follower's directory. Drain write-back must
//! re-seal a grown partition to the same byte-level fixpoint
//! `pdbt compile` produces, and a directory scan must load the newest
//! generation and count the rest.

use pdbt::artifact::{open_salvage, seal, warm_state};
use pdbt::fleet::{artifact_file_name, seal_live};
use pdbt::obs::json::Json;
use pdbt::runtime::{Engine, EngineConfig, Report, SharedTranslationState};
use pdbt::workloads::{build, Benchmark, Scale};
use pdbt_serve::{ping, shutdown, submit, sync, ServeConfig, ServeSummary, Server};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Socket timeout for every client call; far above any tiny-scale run.
const T: Duration = Duration::from_secs(120);

fn spawn_server(cfg: ServeConfig) -> (SocketAddr, std::thread::JoinHandle<ServeSummary>) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve().expect("serve"));
    (addr, handle)
}

/// A cold standalone run of the corpus and configuration the server
/// uses per session (`EngineConfig::default()`, one thread).
fn oracle_run() -> Report {
    let w = build(Benchmark::Mcf, Scale::tiny());
    let mut engine = Engine::new(None, EngineConfig::default());
    engine
        .run(&w.pair.guest.program, &w.setup())
        .expect("oracle run")
}

/// The report with the session-environment fields removed (see
/// `tests/artifact.rs`): `server` (shared-state counters), `pool`
/// (work-stealing schedule, which shifts when warm tasks complete
/// instantly), and the wall-clock histograms. Everything else must be
/// bit-identical between a synced warm session and a cold run.
fn stripped(report: &Json) -> String {
    let mut doc = report.clone();
    if let Json::Obj(top) = &mut doc {
        top.remove("server");
        top.remove("pool");
        if let Some(Json::Obj(hists)) = top.get_mut("histograms") {
            hists.remove("translate_ns");
        }
        if let Some(Json::Obj(dispatch)) = top.get_mut("dispatch") {
            dispatch.remove("compile_ns");
        }
    }
    doc.to_string()
}

/// A fresh, empty scratch directory for one test.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pdbt-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn serve_dir(dir: &Path) -> (SocketAddr, std::thread::JoinHandle<ServeSummary>) {
    spawn_server(ServeConfig {
        jobs: 1,
        artifact_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    })
}

fn mcf_request(id: u64) -> Json {
    Json::obj([
        ("id", Json::from(id)),
        ("workload", Json::str("mcf")),
        ("scale", Json::str("tiny")),
    ])
}

fn fleet_field(pong: &Json, name: &str) -> u64 {
    pong.get("fleet")
        .and_then(|f| f.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("fleet.{name} missing in {pong}"))
}

fn artifact_field(pong: &Json, name: &str) -> u64 {
    pong.get("artifacts")
        .and_then(|a| a.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("artifacts.{name} missing in {pong}"))
}

fn server_field(pong: &Json, name: &str) -> u64 {
    pong.get("server")
        .and_then(|s| s.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("server.{name} missing in {pong}"))
}

/// The capstone: warm a leader with one run, `sync` its artifacts to a
/// mirror directory, boot a follower on the mirror, and lock down that
/// the follower's *first* request does zero live translation and
/// reports bit-identically to a sequential cold run.
#[test]
fn follower_first_request_is_translate_free_and_bit_identical() {
    let oracle = oracle_run();
    let oracle_json = oracle.to_json();
    let blocks = oracle.metrics.blocks_translated;
    assert!(blocks > 0, "vacuous oracle");

    let (leader, leader_h) = spawn_server(ServeConfig {
        jobs: 2,
        ..ServeConfig::default()
    });
    let resp = submit(leader, &mcf_request(1), T).expect("leader warm-up");
    assert_eq!(
        resp.get("outcome").and_then(Json::as_str),
        Some("completed")
    );

    let mirror = scratch_dir("mirror");
    let written = sync(leader, &mirror, T).expect("sync");
    let fp = build(Benchmark::Mcf, Scale::tiny())
        .pair
        .guest
        .program
        .fingerprint();
    assert_eq!(written.len(), 1);
    assert_eq!(written[0].0, mirror.join(artifact_file_name(fp, 0)));

    // The bind-time scan loads the mirror before the first connection.
    let (follower, follower_h) = serve_dir(&mirror);
    let pong = ping(follower, T).expect("follower ping");
    assert_eq!(pong.get("images").and_then(Json::as_u64), Some(1));
    assert_eq!(artifact_field(&pong, "loaded"), 1);
    assert_eq!(artifact_field(&pong, "rejected"), 0);

    let first = submit(follower, &mcf_request(2), T).expect("follower first request");
    assert_eq!(
        first.get("outcome").and_then(Json::as_str),
        Some("completed")
    );
    assert_eq!(
        stripped(first.get("report").expect("report")),
        stripped(&oracle_json),
        "the follower's first request diverged from the sequential cold oracle"
    );

    // Zero live translation on the follower: every block came from the
    // synced file, every probe was a warm hit.
    let pong = ping(follower, T).expect("follower ping");
    assert_eq!(server_field(&pong, "sessions"), 1);
    assert_eq!(server_field(&pong, "translate_calls"), 0);
    assert_eq!(server_field(&pong, "inserted"), 0);
    assert_eq!(server_field(&pong, "hits"), blocks);
    assert_eq!(server_field(&pong, "reply_errors"), 0);

    // The leader counted the serve side of the transfer.
    let pong = ping(leader, T).expect("leader ping");
    assert_eq!(fleet_field(&pong, "pushed"), 1);
    assert_eq!(fleet_field(&pong, "bytes"), written[0].1 as u64);

    shutdown(follower, T).expect("follower shutdown");
    shutdown(leader, T).expect("leader shutdown");
    assert_eq!(follower_h.join().unwrap().panicked, 0);
    assert_eq!(leader_h.join().unwrap().panicked, 0);
    // Nothing grew on the follower, so drain wrote nothing back.
    assert_eq!(std::fs::read_dir(&mirror).unwrap().count(), 1);
    let _ = std::fs::remove_dir_all(&mirror);
}

/// Drain write-back: a partition grown live (no artifact on disk) is
/// sealed to `--artifact-dir` as generation 0, the file is a byte
/// fixpoint under `seal(open(…))`, and warm-booting it reproduces the
/// cold run exactly — the write-back path is `pdbt compile` by other
/// means.
#[test]
fn drain_write_back_seals_grown_partitions_to_a_fixpoint() {
    let dir = scratch_dir("wb");
    let (addr, handle) = serve_dir(&dir);
    let resp = submit(addr, &mcf_request(1), T).expect("submit");
    assert_eq!(
        resp.get("outcome").and_then(Json::as_str),
        Some("completed")
    );
    shutdown(addr, T).expect("shutdown");
    assert_eq!(handle.join().unwrap().panicked, 0);

    let w = build(Benchmark::Mcf, Scale::tiny());
    let fp = w.pair.guest.program.fingerprint();
    let path = dir.join(artifact_file_name(fp, 0));
    let bytes = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("write-back artifact {} missing: {e}", path.display()));

    // Byte fixpoint: the written file re-seals to itself.
    let opened = open_salvage(&bytes).expect("write-back artifact opens");
    assert!(opened.quarantined.is_empty(), "write-back sealed damage");
    assert_eq!(opened.artifact.fingerprint(), fp);
    assert_eq!(
        seal(&opened.artifact),
        bytes,
        "write-back artifact is not a seal fixpoint"
    );

    // And it is complete: it carries the traces the session formed, and
    // a warm boot off it translates no block and no trace and matches a
    // cold run bit-for-bit.
    let cold = oracle_run();
    assert!(cold.obs.dispatch.traces_formed > 0, "vacuous: no traces");
    assert_eq!(
        opened.artifact.traces.len() as u64,
        cold.obs.dispatch.traces_formed
    );
    let shared = Arc::new(warm_state(&opened, None, 8, 1));
    let warm = Engine::with_shared(shared, EngineConfig::default())
        .run(&w.pair.guest.program, &w.setup())
        .expect("warm run");
    assert_eq!(warm.server.translate_calls, 0);
    assert_eq!(warm.server.trace_translate_calls, 0);
    assert_eq!(warm.artifact.trace_hits, cold.obs.dispatch.traces_formed);
    assert_eq!(stripped(&warm.to_json()), stripped(&cold.to_json()));

    let _ = std::fs::remove_dir_all(&dir);
}

/// The mcf/tiny artifact, sealed as a full copy and as a degraded one
/// missing half its blocks (same image, different content).
fn mcf_artifacts() -> (u64, Vec<u8>, Vec<u8>) {
    let w = build(Benchmark::Mcf, Scale::tiny());
    let full = pdbt::artifact::compile(
        &w.pair.guest.program,
        None,
        &w.setup(),
        EngineConfig::default(),
        "mcf/tiny",
    )
    .expect("compile");
    let mut half = full.clone();
    half.blocks.truncate(full.blocks.len() / 2);
    (full.fingerprint(), seal(&full), seal(&half))
}

/// A directory holding g3 (degraded), g5 and a duplicate g5 of one
/// image: g5 wins and the other two count as rejects — both in the
/// bind-time scan and in the first-sight lookup of a running daemon.
/// The winner is observable: only the full g5 serves the first request
/// translate-free.
#[test]
fn newest_generation_wins_and_duplicates_count_as_rejects() {
    let (fp, full, half) = mcf_artifacts();
    let populate = |dir: &Path| {
        std::fs::write(dir.join(artifact_file_name(fp, 3)), &half).unwrap();
        std::fs::write(dir.join(artifact_file_name(fp, 5)), &full).unwrap();
        // `g05` parses as generation 5: an equal duplicate.
        std::fs::write(dir.join(format!("{fp:016x}-g05.pdba")), &full).unwrap();
    };

    let boot_dir = scratch_dir("gen-boot");
    populate(&boot_dir);
    let (booted, booted_h) = serve_dir(&boot_dir);

    let late_dir = scratch_dir("gen-late");
    let (running, running_h) = serve_dir(&late_dir);
    let pong = ping(running, T).expect("ping");
    assert_eq!(pong.get("images").and_then(Json::as_u64), Some(0));
    populate(&late_dir);

    for (addr, what) in [(booted, "boot scan"), (running, "first sight")] {
        let resp = submit(addr, &mcf_request(1), T).expect("submit");
        assert_eq!(
            resp.get("outcome").and_then(Json::as_str),
            Some("completed")
        );
        let pong = ping(addr, T).expect("ping");
        assert_eq!(artifact_field(&pong, "loaded"), 1, "{what}");
        assert_eq!(artifact_field(&pong, "rejected"), 2, "{what}");
        assert_eq!(server_field(&pong, "translate_calls"), 0, "{what}");
        assert_eq!(server_field(&pong, "inserted"), 0, "{what}");
    }

    for (addr, handle) in [(booted, booted_h), (running, running_h)] {
        shutdown(addr, T).expect("shutdown");
        assert_eq!(handle.join().unwrap().panicked, 0);
    }
    let _ = std::fs::remove_dir_all(&boot_dir);
    let _ = std::fs::remove_dir_all(&late_dir);
}

/// An artifact synced into a *running* follower's directory warms that
/// image's first request, with no restart; an image the follower has
/// already seen is not looked up again.
#[test]
fn artifact_synced_into_a_running_follower_warms_its_first_request() {
    let (leader, leader_h) = spawn_server(ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    });
    let dir = scratch_dir("late");
    let (follower, follower_h) = serve_dir(&dir);
    let pong = ping(follower, T).expect("follower ping");
    assert_eq!(pong.get("images").and_then(Json::as_u64), Some(0));

    // Warm the leader and sync *after* the follower booted.
    let resp = submit(leader, &mcf_request(1), T).expect("leader warm-up");
    assert_eq!(
        resp.get("outcome").and_then(Json::as_str),
        Some("completed")
    );
    assert_eq!(sync(leader, &dir, T).expect("sync").len(), 1);

    let resp = submit(follower, &mcf_request(2), T).expect("follower first request");
    assert_eq!(
        resp.get("outcome").and_then(Json::as_str),
        Some("completed")
    );
    let pong = ping(follower, T).expect("follower ping");
    assert_eq!(artifact_field(&pong, "loaded"), 1);
    assert_eq!(artifact_field(&pong, "rejected"), 0);
    assert_eq!(server_field(&pong, "translate_calls"), 0);
    assert_eq!(server_field(&pong, "inserted"), 0);

    // A second image the follower already served cold stays cold: its
    // file arriving later is not looked up on the request path.
    let inline = Json::obj([(
        "program",
        Json::str("mov r0, #9\nmul r0, r0, r0\nsvc #1\nsvc #0\n"),
    )]);
    submit(follower, &inline, T).expect("follower inline");
    let cold_calls = server_field(&ping(follower, T).expect("ping"), "translate_calls");
    assert!(cold_calls > 0);
    submit(leader, &inline, T).expect("leader inline");
    assert_eq!(sync(leader, &dir, T).expect("sync").len(), 2);
    submit(follower, &inline, T).expect("follower inline again");
    let pong = ping(follower, T).expect("follower ping");
    assert_eq!(artifact_field(&pong, "loaded"), 1);
    assert_eq!(server_field(&pong, "translate_calls"), cold_calls);

    shutdown(follower, T).expect("follower shutdown");
    shutdown(leader, T).expect("leader shutdown");
    assert_eq!(follower_h.join().unwrap().panicked, 0);
    assert_eq!(leader_h.join().unwrap().panicked, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A live library can hold two member lists with one head: a
/// fault-armed session, whose poisoned blocks cut its traces short,
/// and a clean session on one partition. Sealing stays canonical even
/// though every state walks its library in its own hash order: two
/// partitions fed the two sessions in opposite orders seal to the same
/// bytes, `seal∘open∘seal` is a fixpoint, and a warm boot off the seal
/// re-seals to it.
#[test]
fn live_libraries_with_repeated_heads_seal_canonically() {
    let w = build(Benchmark::Gcc, Scale::tiny());
    let prog = &w.pair.guest.program;
    let cold = Engine::new(None, EngineConfig::default())
        .run(prog, &w.setup())
        .expect("cold run");
    // Poisons enough gcc/tiny blocks that several heads chain into two
    // member lists.
    let plan = pdbt_faults::Plan::parse("seed=2,rate=0.1,sites=cache").expect("plan");
    let session = |state: &Arc<SharedTranslationState>, armed: bool| {
        let _guard = pdbt_faults::scoped(armed.then_some(plan));
        let report = Engine::with_shared(Arc::clone(state), EngineConfig::default())
            .run(prog, &w.setup())
            .expect("run");
        assert_eq!(report.output, cold.output);
    };
    let partition = |armed_first: bool| {
        let state = Arc::new(SharedTranslationState::new(None, 8));
        session(&state, armed_first);
        session(&state, !armed_first);
        state
    };
    let sealed = seal_live("gcc/tiny", prog, &partition(true));
    assert_eq!(seal_live("gcc/tiny", prog, &partition(false)), sealed);

    let opened = open_salvage(&sealed).expect("opens");
    assert!(opened.quarantined.is_empty());
    assert_eq!(seal(&opened.artifact), sealed, "seal∘open∘seal moved");
    let warm = warm_state(&opened, None, 8, 1);
    assert_eq!(seal_live("gcc/tiny", prog, &warm), sealed);

    // With injection compiled in, the armed session really did chain
    // differently: some head carries two member lists.
    if pdbt_faults::ENABLED {
        let mut heads: Vec<u32> = opened.artifact.traces.iter().map(|t| t.start).collect();
        let traces = heads.len();
        heads.dedup();
        assert!(heads.len() < traces, "no head repeats: the test is vacuous");
    }
}
