//! The daemon: a `std::net` TCP accept loop multiplexing guest-run
//! requests onto a [`pdbt_par::TaskQueue`] of session workers, with
//! translations shared through [`SharedTranslationState`].
//!
//! # Connection model
//!
//! One request frame per connection, answered by one response frame.
//! The accept loop itself only parses the request; the expensive work —
//! building the workload, translating, running — happens on a queue
//! worker, so slow sessions never block new connections. `PING` and
//! `SHUTDOWN` are answered inline (they must work even when every
//! worker is busy).
//!
//! # Shared-state partitioning
//!
//! The code cache is keyed by guest pc, so two *different* guest
//! programs (both loaded at `0x1000`) must never share one cache: a
//! session would execute the other program's translation. The server
//! therefore keeps one [`SharedTranslationState`] per distinct guest
//! image (fingerprint of base address + instruction listing): sessions
//! running the same image share its warm cache and superblock library,
//! while an unrelated image gets a fresh partition with a clone of the
//! server's ruleset. Status counters aggregate across partitions.
//!
//! A partition's translations are made with the default translation
//! knobs. A `no_delegation` request translates differently, so it runs
//! on a private state carrying the partition's rules: it neither reads
//! nor fills the partition's cache, and its translation counters stay
//! out of the aggregate (its latency still lands in the partition's
//! telemetry).
//!
//! # Session isolation
//!
//! Each request runs a fresh [`Engine`] borrowing its image's shared
//! state with `jobs = 1`: concurrency comes from running many
//! single-threaded sessions, not from fanning one session out. That
//! keeps every per-request report bit-identical to a standalone
//! single-engine run (the shared cache only removes duplicate
//! *translation work*, never changes what a session observes — see
//! `tests/determinism.rs` at the workspace root).
//!
//! Fault plans are request-scoped: a request carrying a `faults` spec
//! arms injection on its worker thread only, and every other request is
//! explicitly shielded, so one caller's chaos run cannot degrade a
//! neighbour's session.
//!
//! # Artifacts
//!
//! With an artifact directory, the server warm-boots every image the
//! directory holds at bind time, looks again for `{fp:016x}-g*.pdba`
//! the first time it sees any other image (so a file `pdbt sync`
//! dropped in later still warms that image's first request), answers
//! `ART_LIST`/`ART_PULL` from lazily re-sealed partitions, and writes
//! partitions that grew live back on drain as the next generation.
//!
//! # Drain semantics
//!
//! `SHUTDOWN` is acknowledged immediately, then the accept loop stops
//! and the queue is drained: already-accepted requests finish and send
//! their responses; connections arriving after the acknowledgement are
//! refused by the closed listener.

use crate::proto::{self, op};
use pdbt_core::RuleSet;
use pdbt_fleet::{
    chunk_count, dedupe_newest, parse_generation, seal_live, write_artifact, ArtifactAd,
    ArtifactVersion, CHUNK,
};
use pdbt_isa_arm::Program;
use pdbt_obs::json::Json;
use pdbt_obs::{LatencyHists, PhaseNs, RequestSummary, ServerSnapshot};
use pdbt_par::TaskQueue;
use pdbt_runtime::{BackendKind, Engine, EngineConfig, RunSetup, SharedTranslationState};
use pdbt_workloads::{build, Benchmark, Scale, Workload};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Per-connection socket timeout: a wedged or malicious peer can stall
/// one read/write for at most this long, never the whole server.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);

/// Server construction knobs.
#[derive(Debug)]
pub struct ServeConfig {
    /// The rule set sessions translate with (`None` = pure QEMU-path
    /// baseline). Cloned into each guest-image partition.
    pub rules: Option<RuleSet>,
    /// Session worker count: how many requests run concurrently.
    pub jobs: usize,
    /// Shard count of each partition's code cache.
    pub cache_shards: usize,
    /// Deadline applied to requests that don't carry their own
    /// `deadline_ms`.
    pub default_deadline_ms: Option<u64>,
    /// Where to dump the flight recorder (the final stats snapshot
    /// plus the recent-request tail) when the server drains. `None`
    /// disables the dump; the CLI defaults to `flight.json`.
    pub flight_path: Option<PathBuf>,
    /// A directory of sealed `.pdba` translation artifacts to warm-boot
    /// from: every loadable artifact pre-creates its guest image's
    /// partition with the artifact's code cache, trace library, and
    /// (when present) ruleset, so the first request for that image
    /// translates nothing. An image first seen after boot is looked up
    /// in the directory again (`{fp:016x}-g*.pdba`) before it falls
    /// back to a cold partition. Artifacts that fail to load — wrong
    /// version, damaged header, fingerprint mismatch — are counted and
    /// skipped; the image boots cold instead. Never fatal. On drain,
    /// partitions that grew live are written back here as the next
    /// generation.
    pub artifact_dir: Option<PathBuf>,
    /// Host block executor every session runs with (`--backend`).
    /// Defaults to the engine default (threaded, or `PDBT_BACKEND`).
    pub backend: BackendKind,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            rules: None,
            jobs: 4,
            cache_shards: EngineConfig::default().cache_shards,
            default_deadline_ms: None,
            flight_path: None,
            artifact_dir: None,
            backend: EngineConfig::default().backend,
        }
    }
}

/// What a finished server saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// `SUBMIT` requests accepted (including ones that later failed).
    pub requests: u64,
    /// Sessions that panicked on a worker (isolated per-task; see
    /// `pdbt_par::TaskQueue`).
    pub panicked: u64,
}

/// State shared between the accept loop and the session workers.
#[derive(Debug)]
struct ServerCtx {
    /// One partition per guest-image fingerprint (see the module docs
    /// on why images must not share a cache).
    partitions: Mutex<HashMap<u64, Partition>>,
    /// Memoized workload builds, keyed by `(benchmark, scale)`.
    /// Building a benchmark is deterministic but not cheap, so the
    /// first request for a corpus pays for it and later requests reuse
    /// the `Arc`. The build runs under the map lock: concurrent first
    /// requests for the *same* corpus would otherwise duplicate it.
    workloads: Mutex<HashMap<(String, String), Arc<Workload>>>,
    /// The ruleset cloned into each new partition.
    rules: Option<RuleSet>,
    /// Shard count for each new partition's cache.
    cache_shards: usize,
    /// Fallback deadline for requests without `deadline_ms`.
    default_deadline_ms: Option<u64>,
    /// Worker count, used to size each partition's telemetry slots.
    jobs: usize,
    /// Host block executor for every session.
    backend: BackendKind,
    /// When the server started serving (uptime reference).
    started: Instant,
    /// Monotone STATS snapshot sequence: every snapshot claims the
    /// next number, so a poller can order snapshots and compute
    /// deltas even when responses arrive out of order.
    stats_seq: AtomicU64,
    /// SUBMIT requests accepted over the server's lifetime.
    served: AtomicU64,
    /// Sessions currently executing on a worker.
    active: AtomicU64,
    /// Artifact load tally: the bind-time scan plus every first-sight
    /// lookup.
    artifacts: ArtifactTally,
    /// Artifact traffic counters (served to `ART_PULL`, written back
    /// on drain, bytes), surfaced as the `fleet` PING/STATS section.
    fleet: pdbt_obs::FleetCounters,
    /// Response frames that failed to write back to their client.
    /// Nonzero means clients are vanishing mid-reply (or worse, the
    /// server is wedged writing) — the happy-path tests pin it to 0.
    reply_errors: AtomicU64,
    /// Where artifacts load from and drained partitions write back to.
    artifact_dir: Option<PathBuf>,
}

/// Locks `m`, recovering the data if a panicking holder poisoned it.
/// Every critical section in this module is a single lookup, insert or
/// field store, so a panic can never leave a half-updated map behind;
/// refusing the lock would only turn one caught session panic into a
/// failure of every later request.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One guest image's partition: its live translation state plus what
/// sealing, advertising and writing it back need.
#[derive(Debug)]
struct Partition {
    state: Arc<SharedTranslationState>,
    /// Human-readable label (`mcf/tiny`, `inline`, or the artifact's).
    label: String,
    /// The guest image — sealing needs the GIMG section.
    program: Arc<Program>,
    /// The latest sealed bytes and their advertisement, refreshed
    /// lazily when the live state outgrows them. The shared cache and
    /// trace library only ever grow and their entries are immutable,
    /// so `ad.blocks` and `ad.traces` matching the live counts means
    /// the seal is current. `None` until first sealed, and for a boot
    /// artifact that salvaged damage.
    sealed: Option<(Arc<Vec<u8>>, ArtifactAd)>,
    /// The generation the artifact dir holds for this image (`None` =
    /// not on disk); drain write-back only writes past it.
    disk_generation: Option<u64>,
}

/// The artifact load tally. All-zero when the server has no artifact
/// directory.
#[derive(Debug, Default)]
struct ArtifactTally {
    /// Artifacts that loaded and warmed a partition.
    loaded: AtomicU64,
    /// Artifact files rejected wholesale (unreadable, bad
    /// header/version, named for another image) or shadowed by a newer
    /// generation of the same image — the image boots from the winner
    /// or cold. A set, so a file the bind-time scan rejected counts once
    /// even when its image's first request scans it again.
    rejected: Mutex<HashSet<PathBuf>>,
    /// Sections quarantined inside loaded artifacts.
    sections_quarantined: AtomicU64,
}

impl ArtifactTally {
    fn record(&self, scan: &Scan) {
        self.loaded
            .fetch_add(scan.partitions.len() as u64, Ordering::Relaxed);
        lock(&self.rejected).extend(scan.rejected.iter().cloned());
        self.sections_quarantined
            .fetch_add(scan.quarantined, Ordering::Relaxed);
    }

    fn to_json(&self, trace_hits: u64) -> Json {
        Json::obj([
            ("loaded", Json::from(self.loaded.load(Ordering::Relaxed))),
            ("rejected", Json::from(lock(&self.rejected).len() as u64)),
            (
                "sections_quarantined",
                Json::from(self.sections_quarantined.load(Ordering::Relaxed)),
            ),
            ("trace_hits", Json::from(trace_hits)),
        ])
    }
}

/// What one artifact-directory scan produced: the winning partitions
/// plus the tally it adds to [`ArtifactTally`].
#[derive(Debug, Default)]
struct Scan {
    partitions: Vec<(u64, Partition)>,
    /// Files rejected wholesale or shadowed.
    rejected: Vec<PathBuf>,
    quarantined: u64,
}

impl ServerCtx {
    /// The partition for a guest image. The first sight of an image
    /// looks for its artifact in the artifact dir (outside the lock),
    /// then creates the partition warm from it or cold. Each
    /// partition's telemetry plane gets one latency slot per worker
    /// and is stamped with the image fingerprint.
    fn state_for(&self, image: u64, label: &str, program: &Program) -> Arc<SharedTranslationState> {
        if let Some(p) = lock(&self.partitions).get(&image) {
            return Arc::clone(&p.state);
        }
        let scan = self
            .artifact_dir
            .as_deref()
            .map(|dir| self.scan_artifacts(dir, Some(image)));
        match lock(&self.partitions).entry(image) {
            // A concurrent first request got there first; this
            // request's scan (and its tally) is dropped.
            Entry::Occupied(e) => Arc::clone(&e.get().state),
            Entry::Vacant(e) => {
                let warm = scan.and_then(|mut scan| {
                    self.artifacts.record(&scan);
                    scan.partitions.pop().map(|(_, p)| p)
                });
                let p = warm.unwrap_or_else(|| Partition {
                    state: Arc::new(SharedTranslationState::with_telemetry(
                        self.rules.clone(),
                        self.cache_shards,
                        self.jobs,
                        image,
                    )),
                    label: label.to_string(),
                    program: Arc::new(program.clone()),
                    sealed: None,
                    disk_generation: None,
                });
                Arc::clone(&e.insert(p).state)
            }
        }
    }

    /// Loads the newest artifact per guest image from `dir`: every
    /// `*.pdba` file, or with `image` set only the files named for it
    /// (`{image:016x}-g*.pdba`). Files are read in name order and
    /// opened in salvage mode; the survivors are deduplicated by
    /// fingerprint keeping the *newest* [`ArtifactVersion`] (file-name
    /// generation, section CRCs as the tie-break — never scan order).
    /// Shadowed duplicates are counted as rejects, not silently
    /// dropped. Temporary files from an in-progress write do not end in
    /// `.pdba` and are never read.
    ///
    /// Failure is never fatal and never aborts the scan: an unreadable
    /// or rejected artifact is counted and logged, and that image
    /// simply boots cold. When an artifact carries no ruleset — or its
    /// RULE section was quarantined — the partition falls back to the
    /// server's own rules, exactly as a cold partition would.
    fn scan_artifacts(&self, dir: &Path, image: Option<u64>) -> Scan {
        let mut scan = Scan::default();
        let paths = match artifact_paths(dir, image) {
            Ok(paths) => paths,
            Err(e) => {
                eprintln!(
                    "pdbt-serve: artifact dir {} unreadable ({e}); booting cold",
                    dir.display()
                );
                return scan;
            }
        };
        let mut candidates = Vec::new();
        for path in paths {
            let loaded = std::fs::read(&path)
                .map_err(|e| format!("unreadable: {e}"))
                .and_then(|bytes| {
                    let opened = pdbt_artifact::open_salvage(&bytes)
                        .map_err(|e| format!("rejected: {e}"))?;
                    let version = ArtifactVersion::of_bytes(parse_generation(&path), &bytes)
                        .map_err(|e| format!("rejected: {e}"))?;
                    let fp = opened.artifact.fingerprint();
                    match image {
                        Some(want) if want != fp => {
                            Err(format!("rejected: holds image {fp:016x}, not {want:016x}"))
                        }
                        _ => Ok((fp, version, (path.clone(), bytes, opened))),
                    }
                });
            match loaded {
                Ok(candidate) => candidates.push(candidate),
                Err(why) => {
                    eprintln!("pdbt-serve: artifact {} {why}", path.display());
                    scan.rejected.push(path);
                }
            }
        }
        let read: Vec<PathBuf> = candidates
            .iter()
            .map(|(_, _, (path, ..))| path.clone())
            .collect();
        let (winners, shadowed) = dedupe_newest(candidates);
        if shadowed > 0 {
            eprintln!(
                "pdbt-serve: {shadowed} duplicate artifact(s) shadowed by newer generations in {}",
                dir.display()
            );
            scan.rejected.extend(
                read.into_iter()
                    .filter(|p| !winners.iter().any(|(_, _, (won, ..))| won == p)),
            );
        }
        for (fingerprint, version, (_, bytes, opened)) in winners {
            for q in &opened.quarantined {
                eprintln!(
                    "pdbt-serve: artifact {fingerprint:016x}: section {} quarantined: {}",
                    q.section, q.reason
                );
            }
            scan.quarantined += opened.quarantined.len() as u64;
            let state = pdbt_artifact::warm_state(
                &opened,
                self.rules.as_ref(),
                self.cache_shards,
                self.jobs,
            );
            let a = opened.artifact;
            let label = if a.label.is_empty() {
                format!("{fingerprint:016x}")
            } else {
                a.label
            };
            let ad = ArtifactAd {
                fingerprint,
                version,
                blocks: a.blocks.len() as u64,
                traces: a.traces.len() as u64,
                bytes: bytes.len() as u64,
                label: label.clone(),
            };
            let partition = Partition {
                state: Arc::new(state),
                label,
                program: Arc::new(a.program),
                // A salvaged file is not worth serving to `ART_PULL`:
                // leave it unsealed so the first pull re-seals clean
                // content from live state.
                sealed: opened.quarantined.is_empty().then(|| (Arc::new(bytes), ad)),
                disk_generation: Some(version.generation),
            };
            scan.partitions.push((fingerprint, partition));
        }
        scan
    }
}

/// The `*.pdba` files in `dir`, in name order — with `image` set, only
/// those named for it (`{image:016x}-g*.pdba`). Temporary files from an
/// in-progress [`write_artifact`] do not end in `.pdba` and are never
/// listed.
fn artifact_paths(dir: &Path, image: Option<u64>) -> io::Result<Vec<PathBuf>> {
    let prefix = image.map(|fp| format!("{fp:016x}-g"));
    let wanted = |p: &Path| {
        p.extension().is_some_and(|e| e == "pdba")
            && prefix.as_deref().is_none_or(|pre| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(pre))
            })
    };
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| wanted(p))
        .collect();
    paths.sort();
    Ok(paths)
}

/// A bound, not-yet-serving daemon.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    queue: TaskQueue,
    ctx: Arc<ServerCtx>,
    flight_path: Option<PathBuf>,
}

impl Server {
    /// Binds the listener (use port 0 for an ephemeral port), builds
    /// the worker queue, and warm-boots from the artifact dir.
    ///
    /// # Errors
    ///
    /// Forwarded bind errors.
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let queue = TaskQueue::new(cfg.jobs);
        let mut ctx = ServerCtx {
            partitions: Mutex::new(HashMap::new()),
            workloads: Mutex::new(HashMap::new()),
            rules: cfg.rules,
            cache_shards: cfg.cache_shards,
            default_deadline_ms: cfg.default_deadline_ms,
            jobs: queue.jobs(),
            backend: cfg.backend,
            started: Instant::now(),
            stats_seq: AtomicU64::new(0),
            served: AtomicU64::new(0),
            active: AtomicU64::new(0),
            artifacts: ArtifactTally::default(),
            fleet: pdbt_obs::FleetCounters::new(),
            reply_errors: AtomicU64::new(0),
            artifact_dir: cfg.artifact_dir,
        };
        if let Some(dir) = &ctx.artifact_dir {
            let scan = ctx.scan_artifacts(dir, None);
            ctx.artifacts.record(&scan);
            ctx.partitions = Mutex::new(scan.partitions.into_iter().collect());
        }
        Ok(Server {
            listener,
            queue,
            ctx: Arc::new(ctx),
            flight_path: cfg.flight_path,
        })
    }

    /// The bound address (the real port when bound to port 0).
    ///
    /// # Errors
    ///
    /// Forwarded socket errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Effective session worker count.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.queue.jobs()
    }

    /// Runs the accept loop until a `SHUTDOWN` frame arrives, then
    /// drains in-flight sessions and returns the summary.
    ///
    /// # Errors
    ///
    /// Fatal listener errors; per-connection errors are answered on
    /// that connection and do not stop the server.
    pub fn serve(self) -> io::Result<ServeSummary> {
        let Server {
            listener,
            queue,
            ctx,
            flight_path,
        } = self;
        let mut requests = 0u64;
        for conn in listener.incoming() {
            let mut stream = match conn {
                Ok(s) => s,
                // Transient accept failures (peer gone before accept)
                // are not fatal.
                Err(_) => continue,
            };
            let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
            let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
            let frame = match proto::read_frame(&mut stream) {
                Ok(f) => f,
                Err(e) => {
                    respond_error(&ctx, &mut stream, None, &format!("bad frame: {e}"));
                    continue;
                }
            };
            match frame.opcode {
                op::PING => {
                    respond(&ctx, &mut stream, op::PONG, &status(&ctx, &queue));
                }
                op::STATS => {
                    respond(&ctx, &mut stream, op::PONG, &stats(&ctx, &queue));
                }
                op::ART_LIST => {
                    let ads = advertise(&ctx);
                    let doc =
                        Json::obj([("artifacts", Json::arr(ads.iter().map(ArtifactAd::to_json)))]);
                    respond(&ctx, &mut stream, op::RESULT, &doc);
                }
                op::ART_PULL => {
                    serve_pull(&ctx, &frame, &mut stream);
                }
                op::SHUTDOWN => {
                    let ack = Json::obj([
                        ("draining", Json::from(queue.outstanding())),
                        ("ok", Json::from(true)),
                    ]);
                    respond(&ctx, &mut stream, op::PONG, &ack);
                    break;
                }
                op::SUBMIT => {
                    requests += 1;
                    let req = match frame.payload_str().ok().and_then(|s| Json::parse(s).ok()) {
                        Some(j) => j,
                        None => {
                            respond_error(
                                &ctx,
                                &mut stream,
                                None,
                                "request payload is not valid JSON",
                            );
                            continue;
                        }
                    };
                    // Accept-time stamps: the global request sequence
                    // number and the clock the queue-wait phase is
                    // measured against.
                    let seq = ctx.served.fetch_add(1, Ordering::Relaxed) + 1;
                    let accept_ns = pdbt_obs::now_ns();
                    let ctx = Arc::clone(&ctx);
                    let submit = queue.submit(move || {
                        serve_request(&ctx, req, &mut stream, seq, accept_ns);
                    });
                    if let Err(pdbt_par::QueueClosed(task)) = submit {
                        // Unreachable while the queue is owned here (it
                        // only closes on drain), but never drop a
                        // request silently: run it inline.
                        task();
                    }
                }
                other => {
                    respond_error(
                        &ctx,
                        &mut stream,
                        None,
                        &format!("unknown opcode {other:#04x}"),
                    );
                }
            }
        }
        // Final snapshot before draining destroys nothing but after it
        // quiesces everything: dump the flight recorder so postmortems
        // (including ones prompted by panicked sessions) don't require
        // rerunning the traffic.
        queue.wait_idle();
        if let Some(path) = &flight_path {
            let doc = stats(&ctx, &queue);
            if let Err(e) = std::fs::write(path, doc.to_string() + "\n") {
                eprintln!("pdbt-serve: flight dump to {} failed: {e}", path.display());
            }
        }
        // Drain write-back: partitions whose live cache outgrew their
        // on-disk artifact re-seal as the next generation, so warm
        // state compounds across restarts instead of evaporating.
        if let Some(dir) = &ctx.artifact_dir {
            write_back(&ctx, dir);
        }
        let panicked = queue.drain();
        Ok(ServeSummary { requests, panicked })
    }
}

/// One pass over the partition table, shared by PING and STATS: the
/// server-lifetime sums plus STATS's per-partition rows, in
/// fingerprint order. The table lock is held only to clone out each
/// partition's state `Arc` and label.
#[derive(Default)]
struct Fold {
    server: ServerSnapshot,
    trace_hits: u64,
    cached_blocks: usize,
    latency: LatencyHists,
    flight: Vec<RequestSummary>,
    rows: Vec<Json>,
}

fn fold(ctx: &ServerCtx) -> Fold {
    let mut parts: Vec<(u64, String, Arc<SharedTranslationState>)> = lock(&ctx.partitions)
        .iter()
        .map(|(&fp, p)| (fp, p.label.clone(), Arc::clone(&p.state)))
        .collect();
    parts.sort_by_key(|&(fp, ..)| fp);
    let mut f = Fold::default();
    for (fp, label, state) in parts {
        let snap = state.server().snapshot();
        let tele = state.telemetry().snapshot();
        let art = state.artifact().snapshot();
        let cached_blocks = state.cache().len();
        f.server.probes += snap.probes;
        f.server.inserted += snap.inserted;
        f.server.hits += snap.hits;
        f.server.translate_calls += snap.translate_calls;
        f.server.trace_translate_calls += snap.trace_translate_calls;
        f.server.sessions += snap.sessions;
        f.server.compiled_blocks += snap.compiled_blocks;
        f.trace_hits += art.trace_hits;
        f.cached_blocks += cached_blocks;
        f.latency.merge(&tele.latency);
        f.rows.push(Json::obj([
            ("partition", Json::str(format!("{fp:016x}"))),
            ("label", Json::str(label)),
            ("cached_blocks", Json::from(cached_blocks)),
            ("warm", Json::from(art.warm())),
            ("loaded_blocks", Json::from(art.loaded_blocks)),
            ("trace_hits", Json::from(art.trace_hits)),
            ("sessions", Json::from(snap.sessions)),
            ("probes", Json::from(snap.probes)),
            ("inserted", Json::from(snap.inserted)),
            ("hits", Json::from(snap.hits)),
            ("compiled_blocks", Json::from(snap.compiled_blocks)),
            ("hit_rate", Json::from(snap.hit_rate())),
            (
                "latency",
                Json::obj([
                    ("count", Json::from(tele.latency.request_ns.count())),
                    ("p50", Json::from(tele.latency.request_ns.p50())),
                    ("p95", Json::from(tele.latency.request_ns.p95())),
                    ("p99", Json::from(tele.latency.request_ns.p99())),
                ]),
            ),
        ]));
        f.flight.extend(tele.flight);
    }
    f
}

/// The PONG status payload: protocol version, queue occupancy, and the
/// server-lifetime counters summed across guest-image partitions.
fn status(ctx: &ServerCtx, queue: &TaskQueue) -> Json {
    let f = fold(ctx);
    Json::obj([
        ("version", Json::from(u64::from(proto::VERSION))),
        ("jobs", Json::from(queue.jobs())),
        ("outstanding", Json::from(queue.outstanding())),
        ("faults_enabled", Json::from(pdbt_faults::ENABLED)),
        ("images", Json::from(f.rows.len())),
        ("cached_blocks", Json::from(f.cached_blocks)),
        ("artifacts", ctx.artifacts.to_json(f.trace_hits)),
        ("fleet", fleet_json(ctx)),
        (
            "server",
            Json::obj([
                ("probes", Json::from(f.server.probes)),
                ("inserted", Json::from(f.server.inserted)),
                ("hits", Json::from(f.server.hits)),
                ("translate_calls", Json::from(f.server.translate_calls)),
                (
                    "trace_translate_calls",
                    Json::from(f.server.trace_translate_calls),
                ),
                ("sessions", Json::from(f.server.sessions)),
                (
                    "reply_errors",
                    Json::from(ctx.reply_errors.load(Ordering::Relaxed)),
                ),
            ]),
        ),
    ])
}

/// The live-telemetry snapshot behind the `STATS` frame. Built inline
/// by the accept loop: everything it reads is either atomic, behind a
/// short-lived lock, or merged from per-worker histograms in index
/// order, so a poll never waits on a running session.
fn stats(ctx: &ServerCtx, queue: &TaskQueue) -> Json {
    let stats_seq = ctx.stats_seq.fetch_add(1, Ordering::Relaxed) + 1;
    let mut f = fold(ctx);
    // The merged flight tail reads chronologically across partitions.
    f.flight.sort_by_key(|s| s.seq);
    let tail_from = f
        .flight
        .len()
        .saturating_sub(pdbt_obs::FlightRecorder::CAPACITY);
    Json::obj([
        ("stats_seq", Json::from(stats_seq)),
        ("version", Json::from(u64::from(proto::VERSION))),
        (
            "uptime_ns",
            Json::from(ctx.started.elapsed().as_nanos() as u64),
        ),
        ("jobs", Json::from(ctx.jobs)),
        ("backend", Json::str(ctx.backend.name())),
        ("outstanding", Json::from(queue.outstanding())),
        (
            "sessions",
            Json::obj([
                ("served", Json::from(ctx.served.load(Ordering::Relaxed))),
                ("active", Json::from(ctx.active.load(Ordering::Relaxed))),
                ("panicked", Json::from(queue.panicked())),
                (
                    "reply_errors",
                    Json::from(ctx.reply_errors.load(Ordering::Relaxed)),
                ),
            ]),
        ),
        (
            "pool",
            Json::obj([
                ("high_water", Json::from(queue.high_water())),
                (
                    "completed",
                    Json::arr(queue.utilization().into_iter().map(Json::from)),
                ),
                (
                    "busy_ns",
                    Json::arr(queue.busy_ns().into_iter().map(Json::from)),
                ),
            ]),
        ),
        (
            "server",
            Json::obj([
                ("probes", Json::from(f.server.probes)),
                ("inserted", Json::from(f.server.inserted)),
                ("hits", Json::from(f.server.hits)),
                ("translate_calls", Json::from(f.server.translate_calls)),
                (
                    "trace_translate_calls",
                    Json::from(f.server.trace_translate_calls),
                ),
                ("sessions", Json::from(f.server.sessions)),
                ("compiled_blocks", Json::from(f.server.compiled_blocks)),
                ("hit_rate", Json::from(f.server.hit_rate())),
            ]),
        ),
        ("artifacts", ctx.artifacts.to_json(f.trace_hits)),
        ("fleet", fleet_json(ctx)),
        ("latency", f.latency.to_json()),
        ("partitions", Json::Arr(f.rows)),
        (
            "flight",
            Json::arr(f.flight[tail_from..].iter().map(RequestSummary::to_json)),
        ),
    ])
}

/// The worker-side request lifecycle: stamp dequeue, run the session
/// under a request-scoped trace id, write the reply, then fold the
/// phase latencies into the partition's telemetry plane at this
/// worker's slot.
fn serve_request(ctx: &ServerCtx, req: Json, stream: &mut TcpStream, seq: u64, accept_ns: u64) {
    let dequeue_ns = pdbt_obs::now_ns();
    ctx.active.fetch_add(1, Ordering::Relaxed);
    // Tag every span this session opens (translate, exec, ...) with
    // the request sequence, so multi-session Chrome traces separate
    // into one track per request.
    let _scope = pdbt_obs::scoped(seq);
    let id = req.get("id").and_then(Json::as_u64);
    match run_request(ctx, &req) {
        Ok((resp, tele)) => {
            let run_done_ns = pdbt_obs::now_ns();
            let payload = resp.to_string();
            if proto::write_frame(stream, op::RESULT, payload.as_bytes()).is_err() {
                ctx.reply_errors.fetch_add(1, Ordering::Relaxed);
            }
            let reply_done_ns = pdbt_obs::now_ns();
            let summary = RequestSummary {
                seq,
                id: id.unwrap_or(0),
                partition: tele.partition,
                outcome: tele.outcome,
                phases: PhaseNs {
                    queue: dequeue_ns.saturating_sub(accept_ns),
                    translate: tele.translate_ns,
                    execute: run_done_ns
                        .saturating_sub(dequeue_ns)
                        .saturating_sub(tele.translate_ns),
                    reply: reply_done_ns.saturating_sub(run_done_ns),
                },
                reply_bytes: payload.len() as u64,
                injected: tele.injected,
                fault_sites: tele.fault_sites,
            };
            tele.shared
                .telemetry()
                .record(pdbt_par::current_worker_slot().unwrap_or(0), summary);
        }
        Err(e) => respond_error(ctx, stream, id, &e),
    }
    ctx.active.fetch_sub(1, Ordering::Relaxed);
}

/// Writes a response frame; a send failure is the client's loss, not
/// the server's problem (the session already ran) — but it is counted
/// (`reply_errors`), because a fleet where replies silently vanish
/// looks healthy from every other counter.
fn respond(ctx: &ServerCtx, stream: &mut TcpStream, opcode: u8, payload: &Json) {
    if proto::write_frame(stream, opcode, payload.to_string().as_bytes()).is_err() {
        ctx.reply_errors.fetch_add(1, Ordering::Relaxed);
    }
}

fn respond_error(ctx: &ServerCtx, stream: &mut TcpStream, id: Option<u64>, msg: &str) {
    let mut pairs = vec![("error".to_string(), Json::str(msg))];
    if let Some(id) = id {
        pairs.push(("id".to_string(), Json::from(id)));
    }
    respond(
        ctx,
        stream,
        op::ERROR,
        &Json::Obj(pairs.into_iter().collect()),
    );
}

/// The `fleet` PING/STATS section.
fn fleet_json(ctx: &ServerCtx) -> Json {
    let f = ctx.fleet.snapshot();
    Json::obj([
        ("pushed", Json::from(f.pushed)),
        ("written_back", Json::from(f.written_back)),
        ("bytes", Json::from(f.bytes)),
    ])
}

/// The current sealed bytes and advertisement of one partition,
/// re-sealing when the live code cache or superblock library has
/// outgrown the last seal. Every content change takes the next
/// generation past both the last seal and the disk copy, so this
/// node's versions are monotone. Returns
/// `None` for an unknown partition or one with nothing to seal (empty
/// cache, never sealed).
///
/// Sealing runs outside the table lock on a cloned state `Arc`, so
/// sessions keep resolving partitions meanwhile. Only the accept
/// thread seals (`ART_LIST`/`ART_PULL`, then drain write-back after
/// the loop ends), so two seals of one partition never race.
fn seal_partition(ctx: &ServerCtx, fp: u64) -> Option<(Arc<Vec<u8>>, ArtifactAd)> {
    let (state, label, program, generation) = {
        let map = lock(&ctx.partitions);
        let p = map.get(&fp)?;
        let live_blocks = p.state.cache().len() as u64;
        let live_traces = p.state.library_len() as u64;
        match &p.sealed {
            Some((bytes, ad)) if ad.blocks == live_blocks && ad.traces == live_traces => {
                return Some((Arc::clone(bytes), ad.clone()));
            }
            None if live_blocks == 0 => return None,
            _ => {}
        }
        let last = p.sealed.as_ref().map(|(_, ad)| ad.version.generation);
        let generation = last.max(p.disk_generation).map_or(0, |g| g + 1);
        (
            Arc::clone(&p.state),
            p.label.clone(),
            Arc::clone(&p.program),
            generation,
        )
    };
    let blocks = state.cache().len() as u64;
    let traces = state.library_len() as u64;
    let bytes = Arc::new(seal_live(&label, &program, &state));
    let ad = ArtifactAd {
        fingerprint: fp,
        version: ArtifactVersion::of_bytes(generation, &bytes)
            .expect("a self-sealed artifact always parses"),
        blocks,
        traces,
        bytes: bytes.len() as u64,
        label,
    };
    if let Some(p) = lock(&ctx.partitions).get_mut(&fp) {
        p.sealed = Some((Arc::clone(&bytes), ad.clone()));
    }
    Some((bytes, ad))
}

/// Every partition fingerprint, sorted.
fn fingerprints(ctx: &ServerCtx) -> Vec<u64> {
    let mut fps: Vec<u64> = lock(&ctx.partitions).keys().copied().collect();
    fps.sort_unstable();
    fps
}

/// Builds the `ART_LIST` advertisement: one entry per sealable
/// partition, in fingerprint order.
fn advertise(ctx: &ServerCtx) -> Vec<ArtifactAd> {
    fingerprints(ctx)
        .into_iter()
        .filter_map(|fp| seal_partition(ctx, fp).map(|(_, ad)| ad))
        .collect()
}

/// Serves an `ART_PULL`: header frame with the transfer envelope, then
/// the chunk frames. An unknown or unsealable fingerprint is an
/// `ERROR` frame, never a partial stream.
fn serve_pull(ctx: &ServerCtx, frame: &proto::Frame, stream: &mut TcpStream) {
    let fp = frame
        .payload_str()
        .ok()
        .and_then(|s| Json::parse(s).ok())
        .and_then(|j| {
            j.get("fingerprint")
                .and_then(Json::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
        });
    let Some(fp) = fp else {
        respond_error(ctx, stream, None, "ART_PULL needs a hex `fingerprint`");
        return;
    };
    let Some((sealed, ad)) = seal_partition(ctx, fp) else {
        respond_error(
            ctx,
            stream,
            None,
            &format!("no artifact for fingerprint {fp:016x}"),
        );
        return;
    };
    let header = Json::obj([
        ("fingerprint", Json::str(format!("{fp:016x}"))),
        ("generation", Json::from(ad.version.generation)),
        ("bytes", Json::from(sealed.len() as u64)),
        ("chunks", Json::from(chunk_count(sealed.len()) as u64)),
        (
            "crc32",
            Json::from(u64::from(pdbt_artifact::bytes::crc32(&sealed))),
        ),
    ]);
    respond(ctx, stream, op::RESULT, &header);
    for chunk in sealed.chunks(CHUNK) {
        if proto::write_frame(stream, op::ART_DATA, chunk).is_err() {
            ctx.reply_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
    }
    ctx.fleet.record_pushed();
    ctx.fleet.record_bytes(sealed.len() as u64);
}

/// Drain write-back: every partition whose current seal has moved past
/// what it loaded from or last wrote to the artifact dir is written out
/// under its generation file name (atomically, see [`write_artifact`]),
/// bumped past the newest generation any file in the dir is already
/// named with for that image, so a file `pdbt sync` dropped in is never
/// replaced. Runs after the queue quiesced, so the seals are final.
fn write_back(ctx: &ServerCtx, dir: &Path) {
    for fp in fingerprints(ctx) {
        let Some((sealed, ad)) = seal_partition(ctx, fp) else {
            continue;
        };
        let on_disk = lock(&ctx.partitions)
            .get(&fp)
            .and_then(|p| p.disk_generation);
        if on_disk.is_some_and(|g| ad.version.generation <= g) {
            continue;
        }
        // A `pdbt sync` may have put a file for this image in the dir
        // since this partition last looked: land past it, never on it.
        let generation = artifact_paths(dir, Some(fp))
            .unwrap_or_default()
            .iter()
            .map(|p| parse_generation(p) + 1)
            .fold(ad.version.generation, u64::max);
        match write_artifact(dir, fp, generation, &sealed) {
            Ok(_) => {
                ctx.fleet.record_written_back();
                ctx.fleet.record_bytes(sealed.len() as u64);
                if let Some(p) = lock(&ctx.partitions).get_mut(&fp) {
                    p.disk_generation = Some(generation);
                }
            }
            Err(e) => {
                eprintln!(
                    "pdbt-serve: write-back of {fp:016x} to {} failed: {e}",
                    dir.display()
                );
            }
        }
    }
}

/// The guest a request resolved to: a memoized benchmark corpus or an
/// inline assembly listing.
enum Guest {
    Workload(Arc<Workload>),
    Inline(Program),
}

impl Guest {
    fn program(&self) -> &Program {
        match self {
            Guest::Workload(w) => &w.pair.guest.program,
            Guest::Inline(p) => p,
        }
    }
}

/// Fingerprints a guest image (base address + encoded instruction
/// words) to pick its translation-state partition. This value is now
/// *persisted* — sealed into PDBA artifacts and matched against them at
/// boot — so it must be stable across processes, platforms, and Rust
/// releases; [`Program::fingerprint`] (seeded FNV-1a with
/// a splitmix64 finalizer) is, where the `DefaultHasher` previously
/// used here explicitly is not.
fn image_fingerprint(prog: &Program) -> u64 {
    prog.fingerprint()
}

/// Resolves the request's guest program, base run setup, and label.
fn resolve_guest(ctx: &ServerCtx, req: &Json) -> Result<(Guest, RunSetup, String), String> {
    if let Some(name) = req.get("workload").and_then(Json::as_str) {
        let bench = Benchmark::ALL
            .into_iter()
            .find(|b| b.name() == name)
            .ok_or_else(|| format!("unknown workload `{name}`"))?;
        let scale_name = req.get("scale").and_then(Json::as_str).unwrap_or("tiny");
        let scale = match scale_name {
            "tiny" => Scale::tiny(),
            "full" => Scale::full(),
            other => return Err(format!("unknown scale `{other}` (want tiny|full)")),
        };
        let key = (name.to_string(), scale_name.to_string());
        let w = {
            let mut map = lock(&ctx.workloads);
            Arc::clone(
                map.entry(key)
                    .or_insert_with(|| Arc::new(build(bench, scale))),
            )
        };
        let setup = w.setup();
        Ok((Guest::Workload(w), setup, format!("{name}/{scale_name}")))
    } else if let Some(text) = req.get("program").and_then(Json::as_str) {
        let insts = pdbt_isa_arm::parse_listing(text).map_err(|e| format!("program: {e}"))?;
        let prog = pdbt_isa_arm::Program::new(0x1000, insts);
        // The CLI `run` memory layout: data at 0x100000, stack at
        // 0x80000.
        let setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
        Ok((Guest::Inline(prog), setup, "inline".to_string()))
    } else {
        Err("request needs a `workload` name or an inline `program` listing".to_string())
    }
}

/// What the flight recorder needs to know about a finished session,
/// handed from [`run_request`] back to [`serve_request`] (which adds
/// the phase stamps only it can measure).
struct RequestTelemetry {
    /// The partition of the session's guest image (for recording into
    /// its telemetry plane — also for a session that translated on a
    /// private state).
    shared: Arc<SharedTranslationState>,
    partition: u64,
    outcome: String,
    /// Time inside the translator, from the session's own histogram.
    translate_ns: u64,
    /// Total faults injected during the run.
    injected: u64,
    /// The raw `faults` spec armed for the run, empty when none.
    fault_sites: String,
}

/// Runs one request on the calling (worker) thread and builds the
/// RESULT payload.
fn run_request(ctx: &ServerCtx, req: &Json) -> Result<(Json, RequestTelemetry), String> {
    let id = req.get("id").and_then(Json::as_u64).unwrap_or(0);
    let (guest, mut setup, label) = resolve_guest(ctx, req)?;
    if let Some(mg) = req.get("max_guest").and_then(Json::as_u64) {
        setup.max_guest = mg;
    }
    let deadline_ms = req
        .get("deadline_ms")
        .and_then(Json::as_u64)
        .or(ctx.default_deadline_ms);
    if let Some(ms) = deadline_ms {
        setup.deadline = Some(Instant::now() + Duration::from_millis(ms));
    }
    let fault_spec = req.get("faults").and_then(Json::as_str).unwrap_or("");
    let plan = match req.get("faults").and_then(Json::as_str) {
        Some(spec) => {
            Some(pdbt_faults::Plan::parse(spec).map_err(|e| format!("bad faults spec: {e}"))?)
        }
        None => None,
    };
    // Sessions are single-threaded; concurrency comes from the queue.
    // The server records the full request lifecycle itself (queue wait
    // and reply write included), so the engine's own end-of-run
    // telemetry recording is turned off — one summary per request.
    let mut cfg = EngineConfig {
        jobs: 1,
        record_telemetry: false,
        backend: ctx.backend,
        ..EngineConfig::default()
    };
    cfg.translate.flag_delegation = !req
        .get("no_delegation")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    let partition = image_fingerprint(guest.program());
    let shared = ctx.state_for(partition, &label, guest.program());
    // A partition's translations are made with the default knobs; a
    // session translating without flag delegation would plant blocks
    // and traces that differ from them, so it runs on a private state
    // with the partition's rules and leaves the partition untouched.
    let translation = if cfg.translate.flag_delegation {
        Arc::clone(&shared)
    } else {
        Arc::new(SharedTranslationState::new(
            shared.rules().cloned(),
            ctx.cache_shards,
        ))
    };
    // Request-scoped fault arming: armed with this request's plan, or
    // explicitly shielded from any process-global plan. Installed after
    // workload resolution so corpus builds are never degraded.
    let _guard = pdbt_faults::scoped(plan);
    let mut engine = Engine::with_shared(translation, cfg);
    let report = engine
        .run(guest.program(), &setup)
        .map_err(|e| e.to_string())?;
    let telemetry = RequestTelemetry {
        shared,
        partition,
        outcome: report.outcome.label().to_string(),
        translate_ns: report.obs.translate_ns.sum(),
        injected: report.resilience.injected.iter().sum(),
        fault_sites: fault_spec.to_string(),
    };
    let resp = Json::obj([
        ("id", Json::from(id)),
        ("workload", Json::str(label)),
        ("outcome", Json::str(report.outcome.label())),
        ("faults_enabled", Json::from(pdbt_faults::ENABLED)),
        ("report", report.to_json()),
    ]);
    Ok((resp, telemetry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;

    /// One guest both unit tests run: prints 42, exits.
    const GUEST: &str = "mov r0, #41\nadd r0, r0, #1\nsvc #1\nsvc #0\n";

    fn spawn_server(cfg: ServeConfig) -> (SocketAddr, std::thread::JoinHandle<ServeSummary>) {
        let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve().expect("serve"));
        (addr, handle)
    }

    fn output_of(resp: &Json) -> Vec<u64> {
        resp.get("report")
            .and_then(|r| r.get("output"))
            .and_then(Json::as_arr)
            .expect("report.output")
            .iter()
            .filter_map(Json::as_u64)
            .collect()
    }

    #[test]
    fn ping_submit_and_shutdown_roundtrip() {
        let (addr, handle) = spawn_server(ServeConfig::default());
        let t = Duration::from_secs(30);

        let pong = client::ping(addr, t).expect("ping");
        assert_eq!(pong.get("version").and_then(Json::as_u64), Some(1));

        let req = Json::obj([("id", Json::from(7u64)), ("program", Json::str(GUEST))]);
        let resp = client::submit(addr, &req, t).expect("submit");
        assert_eq!(resp.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(
            resp.get("outcome").and_then(Json::as_str),
            Some("completed")
        );
        assert_eq!(output_of(&resp), [42]);

        client::shutdown(addr, t).expect("shutdown");
        let summary = handle.join().unwrap();
        assert_eq!(summary.requests, 1);
        assert_eq!(summary.panicked, 0);
    }

    #[test]
    fn distinct_guest_images_never_share_translations() {
        // Two different programs, both loaded at 0x1000: the second
        // must not execute the first one's cached block (regression for
        // pc-keyed cache collisions across images).
        let (addr, handle) = spawn_server(ServeConfig::default());
        let t = Duration::from_secs(30);

        let a = Json::obj([("program", Json::str(GUEST))]);
        let b = Json::obj([(
            "program",
            Json::str("mov r0, #9\nmul r0, r0, r0\nsvc #1\nsvc #0\n"),
        )]);
        let ra = client::submit(addr, &a, t).expect("submit a");
        let rb = client::submit(addr, &b, t).expect("submit b");
        assert_eq!(output_of(&ra), [42]);
        assert_eq!(output_of(&rb), [81]);

        // Two partitions, no cross-image cache hits.
        let pong = client::ping(addr, t).expect("ping");
        assert_eq!(pong.get("images").and_then(Json::as_u64), Some(2));
        let server = pong.get("server").expect("server section");
        assert_eq!(server.get("hits").and_then(Json::as_u64), Some(0));

        // The same image again *does* share: one more probe, no insert.
        let ra2 = client::submit(addr, &a, t).expect("submit a again");
        assert_eq!(output_of(&ra2), [42]);
        let pong = client::ping(addr, t).expect("ping");
        let server = pong.get("server").expect("server section");
        assert_eq!(server.get("hits").and_then(Json::as_u64), Some(1));
        assert_eq!(pong.get("images").and_then(Json::as_u64), Some(2));

        client::shutdown(addr, t).expect("shutdown");
        handle.join().unwrap();
    }

    #[test]
    fn bad_requests_get_error_responses_and_the_server_survives() {
        let (addr, handle) = spawn_server(ServeConfig::default());
        let t = Duration::from_secs(30);

        // Unknown workload.
        let req = Json::obj([("workload", Json::str("nosuch"))]);
        let err = client::submit(addr, &req, t).unwrap_err();
        assert!(matches!(err, client::ClientError::Remote(_)), "{err}");

        // Neither workload nor program.
        let err = client::submit(addr, &Json::obj([("id", Json::from(1u64))]), t).unwrap_err();
        assert!(matches!(err, client::ClientError::Remote(_)), "{err}");

        // Malformed fault spec.
        let req = Json::obj([
            ("program", Json::str(GUEST)),
            ("faults", Json::str("rate=not-a-number")),
        ]);
        let err = client::submit(addr, &req, t).unwrap_err();
        assert!(matches!(err, client::ClientError::Remote(_)), "{err}");

        // A good request still works afterwards.
        let req = Json::obj([("program", Json::str(GUEST))]);
        let resp = client::submit(addr, &req, t).expect("submit after errors");
        assert_eq!(
            resp.get("outcome").and_then(Json::as_str),
            Some("completed")
        );

        client::shutdown(addr, t).expect("shutdown");
        handle.join().unwrap();
    }

    #[test]
    fn artifact_dir_warm_boots_the_matching_partition() {
        // Seal GUEST's translations into an artifact, boot a server
        // from the directory, and check the very first request for
        // that image translates nothing.
        let insts = pdbt_isa_arm::parse_listing(GUEST).unwrap();
        let prog = pdbt_isa_arm::Program::new(0x1000, insts);
        let setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
        let artifact =
            pdbt_artifact::compile(&prog, None, &setup, EngineConfig::default(), "inline-guest")
                .expect("compile");
        let dir =
            std::env::temp_dir().join(format!("pdbt-serve-artifact-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("guest.pdba"), pdbt_artifact::seal(&artifact)).unwrap();
        // A second, unloadable file must be counted, not fatal.
        std::fs::write(dir.join("junk.pdba"), b"not an artifact").unwrap();

        let (addr, handle) = spawn_server(ServeConfig {
            artifact_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let t = Duration::from_secs(30);

        let pong = client::ping(addr, t).expect("ping");
        let arts = pong.get("artifacts").expect("artifacts section");
        assert_eq!(arts.get("loaded").and_then(Json::as_u64), Some(1));
        assert_eq!(arts.get("rejected").and_then(Json::as_u64), Some(1));
        assert_eq!(
            arts.get("sections_quarantined").and_then(Json::as_u64),
            Some(0)
        );
        // The partition exists before any request arrives.
        assert_eq!(pong.get("images").and_then(Json::as_u64), Some(1));

        let req = Json::obj([("id", Json::from(1u64)), ("program", Json::str(GUEST))]);
        let resp = client::submit(addr, &req, t).expect("submit");
        assert_eq!(output_of(&resp), [42]);

        // Zero live translation work: the artifact answered everything.
        let pong = client::ping(addr, t).expect("ping");
        let server = pong.get("server").expect("server section");
        assert_eq!(
            server.get("translate_calls").and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(server.get("inserted").and_then(Json::as_u64), Some(0));
        assert_eq!(server.get("sessions").and_then(Json::as_u64), Some(1));

        client::shutdown(addr, t).expect("shutdown");
        handle.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn expired_deadline_reports_a_deadline_outcome() {
        let (addr, handle) = spawn_server(ServeConfig::default());
        let t = Duration::from_secs(30);
        // An infinite loop, bounded only by the deadline.
        let req = Json::obj([
            ("program", Json::str("mov r0, #1\nb .+0\nsvc #0\n")),
            ("deadline_ms", Json::from(0u64)),
        ]);
        let resp = client::submit(addr, &req, t).expect("submit");
        assert_eq!(resp.get("outcome").and_then(Json::as_str), Some("deadline"));
        client::shutdown(addr, t).expect("shutdown");
        handle.join().unwrap();
    }

    fn guest_program() -> Program {
        Program::new(0x1000, pdbt_isa_arm::parse_listing(GUEST).unwrap())
    }

    fn artifact_field(pong: &Json, name: &str) -> Option<u64> {
        pong.get("artifacts")
            .and_then(|a| a.get(name))
            .and_then(Json::as_u64)
    }

    #[test]
    fn poisoned_locks_are_recovered_and_the_server_keeps_serving() {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
        let ctx = Arc::clone(&server.ctx);
        let prog = guest_program();
        let image = image_fingerprint(&prog);
        let before = ctx.state_for(image, "inline", &prog);

        // A thread that panics while holding a lock poisons it.
        let c = Arc::clone(&ctx);
        std::thread::spawn(move || {
            let _held = c.partitions.lock().unwrap();
            panic!("poisoning the partition table");
        })
        .join()
        .expect_err("the holder panicked");
        let c = Arc::clone(&ctx);
        std::thread::spawn(move || {
            let _held = c.workloads.lock().unwrap();
            panic!("poisoning the workload cache");
        })
        .join()
        .expect_err("the holder panicked");
        assert!(ctx.partitions.is_poisoned() && ctx.workloads.is_poisoned());

        // The partition table still resolves, PING and STATS still
        // answer, and both SUBMIT paths (inline listing, memoized
        // workload) still complete.
        let after = ctx.state_for(image, "inline", &prog);
        assert!(Arc::ptr_eq(&before, &after), "partition was lost");
        let pong = status(&ctx, &server.queue);
        assert_eq!(pong.get("images").and_then(Json::as_u64), Some(1));
        let snap = stats(&ctx, &server.queue);
        assert_eq!(
            snap.get("partitions")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(1)
        );

        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve().expect("serve"));
        let t = Duration::from_secs(60);
        let req = Json::obj([("program", Json::str(GUEST))]);
        let resp = client::submit(addr, &req, t).expect("inline submit");
        assert_eq!(output_of(&resp), [42]);
        let req = Json::obj([("workload", Json::str("mcf")), ("scale", Json::str("tiny"))]);
        let resp = client::submit(addr, &req, t).expect("workload submit");
        assert_eq!(
            resp.get("outcome").and_then(Json::as_str),
            Some("completed")
        );
        client::shutdown(addr, t).expect("shutdown");
        assert_eq!(handle.join().unwrap().panicked, 0);
    }

    #[test]
    fn partial_temp_files_are_ignored_by_boot_scan_and_first_sight() {
        // What an interrupted `write_artifact` leaves behind: a prefix
        // of a sealed artifact under a temporary (non-`.pdba`) name.
        let prog = guest_program();
        let setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
        let artifact =
            pdbt_artifact::compile(&prog, None, &setup, EngineConfig::default(), "inline-guest")
                .expect("compile");
        let bytes = pdbt_artifact::seal(&artifact);
        let name = pdbt_fleet::artifact_file_name(prog.fingerprint(), 0);
        let dir =
            std::env::temp_dir().join(format!("pdbt-serve-partial-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(format!("{name}.1.tmp")), &bytes[..bytes.len() / 2]).unwrap();

        let (addr, handle) = spawn_server(ServeConfig {
            artifact_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let t = Duration::from_secs(30);
        let pong = client::ping(addr, t).expect("ping");
        assert_eq!(pong.get("images").and_then(Json::as_u64), Some(0));
        assert_eq!(artifact_field(&pong, "rejected"), Some(0));

        // First sight of the image: the lookup skips the temp file too,
        // so the image boots cold without a reject.
        let req = Json::obj([("program", Json::str(GUEST))]);
        let resp = client::submit(addr, &req, t).expect("submit");
        assert_eq!(output_of(&resp), [42]);
        let pong = client::ping(addr, t).expect("ping");
        assert_eq!(artifact_field(&pong, "loaded"), Some(0));
        assert_eq!(artifact_field(&pong, "rejected"), Some(0));
        let server = pong.get("server").expect("server section");
        assert!(server.get("translate_calls").and_then(Json::as_u64) > Some(0));

        client::shutdown(addr, t).expect("shutdown");
        handle.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_write_back_lands_past_a_file_synced_in_after_a_cold_boot() {
        let prog = guest_program();
        let fp = prog.fingerprint();
        let dir =
            std::env::temp_dir().join(format!("pdbt-serve-writeback-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (addr, handle) = spawn_server(ServeConfig {
            artifact_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let t = Duration::from_secs(30);
        // The image boots cold: nothing in the dir at first sight.
        let req = Json::obj([("program", Json::str(GUEST))]);
        assert_eq!(
            output_of(&client::submit(addr, &req, t).expect("submit")),
            [42]
        );

        // A sync then names the image's g0 in the dir.
        let setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
        let artifact =
            pdbt_artifact::compile(&prog, None, &setup, EngineConfig::default(), "synced")
                .expect("compile");
        let synced = pdbt_artifact::seal(&artifact);
        let g0 = dir.join(pdbt_fleet::artifact_file_name(fp, 0));
        std::fs::write(&g0, &synced).unwrap();

        client::shutdown(addr, t).expect("shutdown");
        assert_eq!(handle.join().unwrap().panicked, 0);
        assert_eq!(
            std::fs::read(&g0).unwrap(),
            synced,
            "the synced g0 was replaced"
        );
        let g1 = std::fs::read(dir.join(pdbt_fleet::artifact_file_name(fp, 1)))
            .expect("the write-back landed as g1");
        pdbt_fleet::validate(&g1, fp).expect("the write-back is a whole artifact");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A two-block loop (`0x1008` → `0x1010` → back) summing 30..1.
    const LOOP: &str = "mov r0, #30\nmov r1, #0\nadd r1, r1, r0\nb .+4\n\
                        subs r0, r0, #1\nbne .-12\nmov r0, r1\nsvc #1\nsvc #0\n";

    /// A seal is reused while the partition is unchanged, and redone
    /// when only the superblock library grew (a session formed a new
    /// member list over blocks the cache already held).
    #[test]
    fn seal_partition_reseals_when_only_the_trace_library_grew() {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
        let ctx = &server.ctx;
        let prog = Program::new(0x1000, pdbt_isa_arm::parse_listing(LOOP).unwrap());
        let fp = prog.fingerprint();
        let state = ctx.state_for(fp, "loop", &prog);
        let cfg = EngineConfig {
            trace_threshold: 5,
            ..EngineConfig::default()
        };
        let setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
        let report = Engine::with_shared(Arc::clone(&state), cfg)
            .run(&prog, &setup)
            .unwrap();
        assert_eq!(report.output, [465]);
        let (first, ad) = seal_partition(ctx, fp).expect("sealed");
        assert!(ad.traces >= 1, "the loop formed a trace");
        let (again, _) = seal_partition(ctx, fp).unwrap();
        assert!(
            Arc::ptr_eq(&first, &again),
            "an unchanged partition re-sealed"
        );

        // The entry block runs once, so no session makes it a head.
        let entry = state.cache().get(0x1000).expect("entry block cached");
        let pdbt_runtime::BlockSuccs::One(next) = entry.succ else {
            panic!("the entry block falls through");
        };
        let members = [0x1000, next];
        assert!(state.library_trace(&members).is_none());
        let trace = pdbt_runtime::translate_trace(
            &prog,
            &members,
            None,
            &pdbt_runtime::TranslateConfig::default(),
        )
        .unwrap();
        state.publish_trace(trace);
        assert_eq!(state.cache().len() as u64, ad.blocks);
        let (resealed, ad2) = seal_partition(ctx, fp).unwrap();
        assert_eq!(ad2.traces, ad.traces + 1);
        assert_eq!(ad2.blocks, ad.blocks);
        assert_eq!(ad2.version.generation, ad.version.generation + 1);
        let opened = pdbt_artifact::open_salvage(&resealed).unwrap();
        assert_eq!(opened.artifact.traces.len() as u64, ad2.traces);
    }
}
