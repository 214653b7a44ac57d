//! Fleet sync: what `pdbt sync` plus an artifact-dir warm boot is
//! worth to a follower's first request.
//!
//! Drives two real `pdbt-serve` daemons over loopback TCP. The leader
//! starts cold and is warmed by one `mcf/tiny` request — paying the
//! full translation cost, metered with the server-lifetime
//! `translate_calls` counter. `pdbt_serve::sync` (the library behind
//! `pdbt sync`) then mirrors the leader's sealed partition into a
//! directory over `ART_LIST`/`ART_PULL`, and a follower boots with that
//! directory as its artifact dir: its own first request for the same
//! image must translate (almost) nothing.
//!
//! Correctness is asserted, not sampled: leader and follower must
//! return identical guest output, and the follower must report the
//! synced artifact loaded before its request arrives.
//!
//! The acceptance gate is the sync claim itself: the follower must
//! answer its first request with ≥ 90% fewer translate calls than the
//! cold leader did (in practice 100% — a synced artifact rehydrates
//! every block and trace).
//!
//! Emits `BENCH_fleet.json`. `PDBT_BENCH_SMOKE=1` is recorded in the
//! artifact so CI trend lines can be told apart from dev runs; the
//! phases are identical either way (tiny scale is already CI-sized,
//! and the translate-call gate is scheduling-independent, unlike
//! wall-clock, which is informational only).

use pdbt_obs::json::Json;
use pdbt_serve::{ping, shutdown, submit, sync, ServeConfig, Server};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(300);
const JOBS: usize = 2;

fn spawn_server(artifact_dir: Option<PathBuf>) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            jobs: JOBS,
            artifact_dir,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        server.serve().expect("serve");
    });
    (addr, handle)
}

/// Submits the mcf/tiny request, returning wall-clock ns and guest output.
fn first_request(addr: SocketAddr, id: u64) -> (u128, Json) {
    let req = Json::obj([
        ("id", Json::from(id)),
        ("workload", Json::str("mcf")),
        ("scale", Json::str("tiny")),
    ]);
    let start = Instant::now();
    let resp = submit(addr, &req, TIMEOUT).expect("submit");
    let elapsed = start.elapsed().as_nanos();
    assert_eq!(
        resp.get("outcome").and_then(Json::as_str),
        Some("completed"),
        "request {id} did not complete: {resp}"
    );
    let output = resp
        .get("report")
        .and_then(|r| r.get("output"))
        .expect("report.output")
        .clone();
    (elapsed, output)
}

/// Server-lifetime translate-call count, via PING.
fn translate_calls(addr: SocketAddr) -> u64 {
    ping(addr, TIMEOUT)
        .expect("ping")
        .get("server")
        .and_then(|s| s.get("translate_calls"))
        .and_then(Json::as_u64)
        .expect("server.translate_calls")
}

fn main() {
    let smoke = std::env::var("PDBT_BENCH_SMOKE").is_ok_and(|v| v != "0");

    // Leader: cold boot, warmed by one first request that pays the
    // full translation cost.
    let (leader, leader_handle) = spawn_server(None);
    let (cold_ns, leader_out) = first_request(leader, 0);
    let cold_tc = translate_calls(leader);
    assert!(cold_tc > 0, "leader translated nothing — vacuous");

    // Sync: mirror the leader's sealed partition into a directory.
    let dir = std::env::temp_dir().join(format!("pdbt-bench-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create sync dir");
    let sync_start = Instant::now();
    let written = sync(leader, &dir, TIMEOUT).expect("sync");
    let sync_ns = sync_start.elapsed().as_nanos();
    assert_eq!(
        written.len(),
        1,
        "leader advertised {} artifacts",
        written.len()
    );
    let transfer_bytes: u64 = written.iter().map(|&(_, n)| n as u64).sum();

    // Follower: `bind` scans the artifact dir before returning, so the
    // boot wall-clock below includes loading the synced artifact.
    let boot_start = Instant::now();
    let (follower, follower_handle) = spawn_server(Some(dir.clone()));
    let boot_ns = boot_start.elapsed().as_nanos();
    let pong = ping(follower, TIMEOUT).expect("ping");
    let arts = pong.get("artifacts").expect("artifacts section");
    let f = |name: &str| arts.get(name).and_then(Json::as_u64).expect(name);
    assert_eq!(
        f("loaded"),
        1,
        "follower did not load the synced artifact: {pong}"
    );
    assert_eq!(f("rejected"), 0);

    let (warm_ns, follower_out) = first_request(follower, 1);
    let warm_tc = translate_calls(follower);

    shutdown(follower, TIMEOUT).expect("shutdown follower");
    follower_handle.join().unwrap();
    shutdown(leader, TIMEOUT).expect("shutdown leader");
    leader_handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    // Correctness gate: the synced partition served the same guest
    // answers the leader computed.
    assert_eq!(
        leader_out, follower_out,
        "guest output diverged between leader and follower"
    );

    let reduction = 1.0 - warm_tc as f64 / cold_tc as f64;

    println!("\n=== pdbt fleet sync: cold leader vs synced follower first request (mcf/tiny) ===");
    println!("transfer: {transfer_bytes} bytes synced, loaded at follower boot");
    println!("{:<28}{:>16}{:>16}", "phase", "translate_calls", "wall ns");
    println!(
        "{:<28}{:>16}{:>16}",
        "leader, first request", cold_tc, cold_ns
    );
    println!(
        "{:<28}{:>16}{:>16}",
        "follower, first request", warm_tc, warm_ns
    );
    println!("{:<28}{:>16}{:>16}", "sync to directory", "-", sync_ns);
    println!(
        "{:<28}{:>16}{:>16}",
        "follower, boot incl. scan", "-", boot_ns
    );
    println!(
        "\nsync + warm boot removes {:.1}% of the follower's first-request translate calls",
        reduction * 100.0
    );

    let json = Json::obj([
        ("bench", Json::str("fleet_sync")),
        ("smoke", Json::from(u64::from(smoke))),
        ("workload", Json::str("mcf/tiny")),
        ("transfer_bytes", Json::from(transfer_bytes)),
        ("sync_ns", Json::from(sync_ns as u64)),
        ("boot_ns", Json::from(boot_ns as u64)),
        ("cold_translate_calls", Json::from(cold_tc)),
        ("cold_first_request_ns", Json::from(cold_ns as u64)),
        ("warm_translate_calls", Json::from(warm_tc)),
        ("warm_first_request_ns", Json::from(warm_ns as u64)),
        ("translate_reduction", Json::from(reduction)),
        ("outputs_identical", Json::from(true)),
    ]);
    std::fs::write("BENCH_fleet.json", format!("{json}\n")).expect("write BENCH_fleet.json");
    println!("wrote BENCH_fleet.json");

    // The acceptance gate: sync + warm boot must remove ≥ 90% of the
    // follower's first-request translate calls. A synced artifact
    // should hit 100% — zero live translation — and `tests/fleet.rs`
    // pins that exactly; 90% is the floor this bench enforces under
    // any drift.
    assert!(
        warm_tc == 0,
        "synced follower still translated {warm_tc} blocks on its first request"
    );
    assert!(
        reduction >= 0.90,
        "sync only reduced translate calls by {:.1}% (< 90% floor)",
        reduction * 100.0
    );
}
