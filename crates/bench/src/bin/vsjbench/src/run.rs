//! One run of one workload: set-up, warm-up, the measured rounds, the
//! verifications, and the metrics computed from the round logs.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use vsj_datasets::{DblpLike, NytLike};
use vsj_exact::AllPairs;
use vsj_pool::WorkPool;
use vsj_server::json::Json;
use vsj_server::{Client, Estimated, Server, ServerConfig};
use vsj_service::{DurabilityOptions, EngineStats, EstimationEngine, ServiceConfig, StorageTier};
use vsj_vector::SparseVector;

use crate::host::{self, Canary};
use crate::layers::{self, Readings};
use crate::replay::{self, Shadow};
use crate::script::{Corpus, Op, Script, Shape, TauStream, TAU_HI, TAU_LO};
use crate::spec;
use crate::stats::{canary_factor, cv_pct, median, quantile, tail_percentile};
use crate::trace::Tracer;

/// Seed of every engine under test; `--seed` moves the inputs only.
pub const ENGINE_SEED: u64 = 2011;
const SHARDS: usize = 4;
const SERVER_WORKERS: usize = 2;
/// Load on every CPU ([`Canary::spin`]) before the first set-up and
/// again before the clock starts: a vCPU that has idled needs about a
/// second of sustained work to reach speed, and a set-up timed on cold
/// ones read 60 % slow.
const WARMUP_SPIN_S: f64 = 1.0;
/// Rows generated beyond what the script consumes, for the per-layer
/// readings that need rows the engine has not seen.
const SAMPLE_ROWS: u32 = 2_000;
/// Wire answers re-derived in-process on the heap workloads.
const VERIFY_SAMPLES: u32 = 20;
/// Exact join threshold of the accuracy check; estimates at τ ≥ this are
/// scored against it.
const TRUTH_TAU: f64 = 0.7;
/// `/publish` + `/estimate` pairs at τ ≥ [`TRUTH_TAU`] sent after the
/// clock stops on the workload that has a ground truth. The estimates of
/// one round share one pair sample (the stream is keyed by the epoch), so
/// the measured phase alone scores 66 independent samples; with these
/// the mean error read 18.2–19.7 % over 22 seeds (it repeats exactly at
/// a seed), which a limit 10 % above its mean clears by three standard
/// deviations.
const ACCURACY_SWEEP: usize = 128;
/// Mean relative error (%) at τ ≥ [`TRUTH_TAU`] on the recording build
/// (the mean over those seeds, 18.9, rounded up), and how far above it a
/// run may read before the estimator's answers count as wrong.
const REL_ERR_BASELINE_PCT: f64 = 19.0;
const REL_ERR_GROWTH_LIMIT: f64 = 1.10;
/// The spans whose children replay on the served engine itself (same
/// snapshot, same draws): there a child outweighing its parent means the
/// replay is not the work the request did. Write replays run on a
/// shadow engine with its own memory and are reported, not judged.
const ESTIMATE_CHAIN: [&str; 3] = ["wire.estimate", "service.estimate", "core.pass"];
/// How far those children may outweigh their parents before the trace
/// counts as wrong: the median over a run's replayed requests of
/// children ÷ parent, minus one. (A replay is a second execution with
/// its own cache state and its own stalls; the median request is immune
/// to both, where a sum over the run read up to 7 % on healthy runs.)
const CHILD_EXCESS_LIMIT_PCT: f64 = 10.0;
/// How far storage bytes per live non-zero may exceed the shape's
/// recorded figure before the run counts as wrong.
const DISK_GROWTH_LIMIT: f64 = 1.01;
/// In a traced run every n-th round is replayed into spans; the others
/// stay plain, so the same run yields the wire numbers the spans are
/// compared with.
const TRACE_EVERY: usize = 3;
/// Estimates replayed into spans per traced round. A replay costs three
/// more passes (service, core, draws + scoring); replaying all eight of
/// a round would double the traced run for no better a median.
const ESTIMATE_REPLAYS_PER_ROUND: usize = 3;
/// The measured phase is cut short (and the run marked truncated) past
/// this multiple of `--seconds`, so a stalled host cannot run the
/// benchmark into the driver's 180 s limit.
const OVERRUN_FACTOR: f64 = 5.0;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// End-to-end metrics, nothing recorded but the client's clock.
    Plain,
    /// Per-layer metrics: every third round is replayed into spans.
    Traced,
}

/// What one run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Metric name → value, for exactly the metrics of the run's mode.
    pub metrics: Vec<(&'static spec::MetricSpec, f64)>,
    /// Host descriptor, configuration, counts and raw readings.
    pub detail: Json,
}

/// Where runs keep their storage directories and traces: inside the
/// build directory, which every checkout ignores.
pub fn scratch_root() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("vsjbench")
}

fn engine_config(shape: &Shape) -> ServiceConfig {
    ServiceConfig::builder()
        .shards(SHARDS)
        .k(shape.k)
        .family(shape.family)
        .seed(ENGINE_SEED)
        .build()
}

fn server_config() -> ServerConfig {
    ServerConfig::builder().workers(SERVER_WORKERS).build()
}

fn tier(storage_tier: StorageTier) -> DurabilityOptions {
    DurabilityOptions {
        storage_tier,
        ..DurabilityOptions::default()
    }
}

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// The one client, and whatever serves it.
struct Session {
    client: Client,
    host: Host,
}

enum Host {
    /// Server and engine in this process: the heap workloads, and the
    /// restart workload's traced run (replays need the engine).
    Local {
        engine: Arc<EstimationEngine>,
        server: Server,
    },
    /// `vsjbench serve <dir>` in a child: a restart is a new process, so
    /// its memory and CPU time are its own and no earlier session's
    /// freed heap is counted against it.
    Child(ServingChild),
}

/// A serving child that is killed and reaped if it is still around when
/// its session goes away (an error path; [`Session::close`] has already
/// waited for it otherwise), so no run leaves a process behind.
struct ServingChild(std::process::Child);

impl Drop for ServingChild {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Session {
    fn local(engine: Arc<EstimationEngine>) -> Result<Self, String> {
        let server = Server::start(engine.clone(), server_config()).map_err(|e| e.to_string())?;
        let client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
        Ok(Self {
            client,
            host: Host::Local { engine, server },
        })
    }

    /// Starts a serving child on `store`; returns the session and the
    /// child's own reading of its recovery time (ms).
    fn child(store: &Path) -> Result<(Self, f64), String> {
        use std::io::BufRead;
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let child = std::process::Command::new(exe)
            .arg("serve")
            .arg(store)
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .map_err(|e| e.to_string())?;
        let mut child = ServingChild(child);
        let mut line = String::new();
        let stdout = child.0.stdout.take().expect("stdout is piped");
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        let mut words = line.split_whitespace();
        let greeting = (|| {
            let addr: std::net::SocketAddr = words.next()?.parse().ok()?;
            let recover_ms: f64 = words.next()?.parse().ok()?;
            Some((addr, recover_ms))
        })();
        let (addr, recover_ms) = greeting.ok_or_else(|| format!("serving child said {line:?}"))?;
        let client = Client::connect(addr).map_err(|e| e.to_string())?;
        Ok((
            Self {
                client,
                host: Host::Child(child),
            },
            recover_ms,
        ))
    }

    fn engine(&self) -> Option<&Arc<EstimationEngine>> {
        match &self.host {
            Host::Local { engine, .. } => Some(engine),
            Host::Child(_) => None,
        }
    }

    /// Shuts the server down and waits for it.
    fn close(self) -> Result<(), String> {
        let Session { client, host } = self;
        drop(client);
        match host {
            Host::Local { engine, server } => {
                let stopped = server.shutdown().map(drop).map_err(|e| e.to_string());
                drop(engine);
                stopped
            }
            Host::Child(mut child) => {
                // Closing its stdin is the child's signal to shut down.
                drop(child.0.stdin.take());
                let status = child.0.wait().map_err(|e| e.to_string())?;
                if status.success() {
                    Ok(())
                } else {
                    Err(format!("serving child exited with {status}"))
                }
            }
        }
    }
}

/// `vsjbench serve <dir>` — the child side of [`Session::child`]: map
/// the directory, serve it, say where, and shut down when stdin closes.
pub fn serve_main(args: &[String]) -> Result<(), String> {
    use std::io::{Read, Write};
    let dir = args.first().ok_or("serve needs a directory")?;
    let started = Instant::now();
    let engine = EstimationEngine::recover_with(Path::new(dir), tier(StorageTier::Mapped))
        .map_err(|e| e.to_string())?;
    let recover_ms = ms_since(started);
    let server = Server::start(Arc::new(engine), server_config()).map_err(|e| e.to_string())?;
    println!("{} {recover_ms}", server.addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let mut sink = Vec::new();
    std::io::stdin()
        .read_to_end(&mut sink)
        .map_err(|e| e.to_string())?;
    server.shutdown().map(drop).map_err(|e| e.to_string())
}

/// What one round recorded, times raw (scaled when metrics are formed).
#[derive(Default)]
struct RoundLog {
    traced: bool,
    /// Median of the canary readings taken just before and just after.
    canary_ms: f64,
    wall_ms: f64,
    cpu_ms: f64,
    requests: u64,
    rss_mb: f64,
    /// (route, raw ms). The first estimate after a restart is also
    /// logged as `first_estimate`, the recovery share of a restart as
    /// `recover`.
    samples: Vec<(&'static str, f64)>,
    rows_written: u64,
    write_ms: f64,
    /// (route, wire ms, in-process service ms) of replayed requests.
    self_pairs: Vec<(&'static str, f64, f64)>,
    estimate_replays: usize,
}

impl RoundLog {
    /// What this round's time samples are multiplied by.
    fn factor(&self) -> f64 {
        canary_factor(&[self.canary_ms])
    }
}

struct Runner<'a> {
    shape: &'a Shape,
    mode: Mode,
    config: ServiceConfig,
    script: Script,
    corpus: Vec<Option<SparseVector>>,
    /// Non-zeros of every corpus row (the rows themselves are handed to
    /// the server).
    row_nnz: Vec<u32>,
    disk_bytes_per_nnz: f64,
    dir: PathBuf,
    store: PathBuf,
    session: Option<Session>,
    canary: Canary,
    pool: WorkPool,
    epoch: u64,
    next_id: u64,
    live_n: usize,
    published_n: usize,
    first_after_start: bool,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Fresh wire answers of the measured phase: (τ, answer).
    answers: Vec<(f64, Estimated)>,
    /// restart_mapped: τ bits → (epoch, value bits) from a heap recovery
    /// of the same directory.
    expect: HashMap<u64, (u64, u64)>,
    /// restart_mapped: answers given at an epoch no directory state
    /// reproduces (after the fold, before the round's own cut).
    unverifiable: u64,
    tracer: Tracer,
    shadow: Option<Shadow>,
    shadow_backlog: Vec<(Op, Option<SparseVector>)>,
    readings: Readings,
    recover_heap_ms: Vec<f64>,
    counters: Counters,
    /// Set once the measured phase's counters are final; later sessions
    /// (the layer readings) must not add to them.
    counters_frozen: bool,
}

/// Engine counters of the measured phase, summed (or, for the three
/// gauges, maximised) over its sessions.
#[derive(Default)]
struct Counters {
    pool_tasks: u64,
    pool_steals: u64,
    passes: u64,
    cache_hits: u64,
    cache_misses: u64,
    wal_fsyncs: u64,
    tombstones: usize,
    overlay_bytes: u64,
    materialized_rows: f64,
}

pub fn run(shape: &'static Shape, seed: u64, seconds: f64, mode: Mode) -> Result<Outcome, String> {
    let dir = scratch_root().join(format!("run-{}-{}", shape.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let outcome = Runner::new(shape, seed, seconds, mode, &dir).execute(seed, seconds);
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

fn generate(corpus: Corpus, rows: u32, seed: u64) -> Vec<SparseVector> {
    match corpus {
        Corpus::DblpLike => DblpLike::with_size(rows as usize).generate(seed),
        Corpus::NytLike => NytLike::with_size(rows as usize).generate(seed),
    }
    .into_vectors()
}

/// What set-up leaves behind.
struct Loaded {
    /// The corpus by row; rows already loaded are `None`.
    corpus: Vec<Option<SparseVector>>,
    row_nnz: Vec<u32>,
    /// The loaded engine, for the workloads that go on serving it (the
    /// mapped workload serves the directory instead).
    engine: Option<Arc<EstimationEngine>>,
}

/// Corpus generation and load: what a deployment does before it can
/// serve.
fn set_up(
    shape: &Shape,
    config: ServiceConfig,
    script: &Script,
    seed: u64,
    store: &Path,
) -> Result<Loaded, String> {
    let rows = generate(shape.corpus, script.corpus_rows + SAMPLE_ROWS, seed);
    let row_nnz = rows.iter().map(|row| row.nnz() as u32).collect();
    let mut corpus: Vec<Option<SparseVector>> = rows.into_iter().map(Some).collect();
    let mut take = |range: std::ops::Range<u32>| -> Vec<SparseVector> {
        corpus[range.start as usize..range.end as usize]
            .iter_mut()
            .map(|row| row.take().expect("set-up rows are loaded once"))
            .collect()
    };
    let base = take(0..shape.base_rows);
    let tail = take(shape.base_rows..shape.base_rows + shape.tail_rows);
    let engine = if shape.durable {
        let engine = EstimationEngine::durable_with(config, store, DurabilityOptions::default())
            .map_err(|e| e.to_string())?;
        engine.insert_batch(base);
        engine.checkpoint().map_err(|e| e.to_string())?;
        if !tail.is_empty() {
            engine.insert_batch(tail);
            engine.publish();
        }
        engine
    } else {
        let engine = EstimationEngine::new(config);
        engine.insert_batch(base);
        engine.publish();
        engine
    };
    Ok(Loaded {
        corpus,
        row_nnz,
        engine: (!shape.mapped).then(|| Arc::new(engine)),
    })
}

impl<'a> Runner<'a> {
    fn new(shape: &'a Shape, seed: u64, seconds: f64, mode: Mode, dir: &Path) -> Self {
        Self {
            shape,
            mode,
            config: engine_config(shape),
            script: Script::build(shape, seed, seconds),
            corpus: Vec::new(),
            row_nnz: Vec::new(),
            disk_bytes_per_nnz: 0.0,
            dir: dir.to_path_buf(),
            store: dir.join("store"),
            session: None,
            canary: Canary::new(),
            pool: WorkPool::new(host::nproc()),
            epoch: 0,
            next_id: (shape.base_rows + shape.tail_rows) as u64,
            live_n: (shape.base_rows + shape.tail_rows) as usize,
            published_n: 0,
            first_after_start: false,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            answers: Vec::new(),
            expect: HashMap::new(),
            unverifiable: 0,
            tracer: Tracer::new(),
            shadow: None,
            shadow_backlog: Vec::new(),
            readings: Readings::new(),
            recover_heap_ms: Vec::new(),
            counters: Counters::default(),
            counters_frozen: false,
        }
    }

    /// Counts one checked outcome.
    fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 12 {
                self.failures.push(message());
            }
        }
    }

    fn execute(&mut self, seed: u64, seconds: f64) -> Result<Outcome, String> {
        // --- set-up, repeated ------------------------------------------------
        let mut setup_s = Vec::new();
        let mut setup_raw_s = Vec::new();
        let mut engine = None;
        self.canary.spin(WARMUP_SPIN_S);
        // A traced run does not report set-up time and sets up once.
        let reps = match self.mode {
            Mode::Plain => self.shape.setup_reps,
            Mode::Traced => 1,
        };
        for _ in 0..reps {
            drop(engine.take());
            self.corpus.clear();
            let _ = std::fs::remove_dir_all(&self.store);
            let mut canary = self.canary.readings();
            let started = Instant::now();
            if self.shape.mapped {
                run_child(&[
                    "build-store".into(),
                    "--workload".into(),
                    self.shape.name.into(),
                    "--seed".into(),
                    seed.to_string(),
                    "--seconds".into(),
                    seconds.to_string(),
                    "--dir".into(),
                    self.store.display().to_string(),
                ])?;
            } else {
                let loaded = set_up(self.shape, self.config, &self.script, seed, &self.store)?;
                self.corpus = loaded.corpus;
                self.row_nnz = loaded.row_nnz;
                engine = loaded.engine;
            }
            let raw = started.elapsed().as_secs_f64();
            canary.extend(self.canary.readings());
            setup_raw_s.push(raw);
            setup_s.push(raw * canary_factor(&canary));
        }
        if self.shape.mapped {
            // The sessions serve the directory; this process only needs
            // the rows the script upserts.
            let loaded = (self.shape.base_rows + self.shape.tail_rows) as usize;
            let rows = generate(
                self.shape.corpus,
                self.script.corpus_rows + SAMPLE_ROWS,
                seed,
            );
            self.row_nnz = rows.iter().map(|row| row.nnz() as u32).collect();
            self.corpus = rows
                .into_iter()
                .enumerate()
                .map(|(row, vector)| (row >= loaded).then_some(vector))
                .collect();
        }
        let sample_rows: Vec<SparseVector> = self.corpus[self.script.corpus_rows as usize..]
            .iter_mut()
            .map(|row| row.take().expect("sample rows are untouched"))
            .collect();

        // --- ground truth (heap SimHash corpus only: AllPairs is exact for
        // cosine, and 40k short rows take ≈ 2 s) ------------------------------
        let truth = match &engine {
            Some(engine) if self.shape.name == "fresh_heap" => {
                let started = Instant::now();
                let collection = engine.snapshot().collection().to_owned_collection();
                let mut sims: Vec<f64> = AllPairs::new(TRUTH_TAU)
                    .pairs(&collection)
                    .into_iter()
                    .map(|(_, _, sim)| sim)
                    .collect();
                sims.sort_by(|a, b| a.partial_cmp(b).expect("similarities are finite"));
                self.readings
                    .insert("exact.allpairs_s", started.elapsed().as_secs_f64());
                Some(sims)
            }
            _ => None,
        };

        // --- trace-only fixtures ---------------------------------------------
        if self.mode == Mode::Traced && self.shape.durable && !self.shape.mapped {
            // The shadow is loaded from a second generation of the same
            // corpus, so the served engine's rows are never cloned.
            let base = generate(
                self.shape.corpus,
                self.script.corpus_rows + SAMPLE_ROWS,
                seed,
            )
            .into_iter()
            .take(self.shape.base_rows as usize)
            .collect();
            self.shadow = Some(Shadow::create(self.config, &self.dir, base)?);
        }

        // --- warm-up ---------------------------------------------------------
        if let Some(engine) = engine {
            self.published_n = engine.snapshot().len();
            self.epoch = engine.current_epoch();
            self.session = Some(Session::local(engine)?);
        } else {
            self.derive_expectations(0)?;
        }
        self.canary.spin(WARMUP_SPIN_S);
        let mut discard = RoundLog::default();
        if self.shape.mapped {
            self.exec(&Op::Start, &mut discard, false);
        }
        for tau in self.script.warmup.clone() {
            self.exec(&Op::Estimate(tau), &mut discard, false);
        }
        if self.shape.mapped {
            self.exec(&Op::Stop, &mut discard, false);
        }
        self.answers.clear();
        self.counters = Counters::default();
        host::release_free_heap();

        // --- measured phase --------------------------------------------------
        self.tracer = Tracer::new();
        let faults_before = vsj_obs::major_page_faults().unwrap_or(0);
        let baseline = self
            .session
            .as_ref()
            .and_then(Session::engine)
            .map(|e| e.stats());
        let rounds = self.script.rounds.clone();
        let verify_every = (rounds.len() as u32 / VERIFY_SAMPLES).max(1);
        let phase_started = Instant::now();
        let mut logs: Vec<RoundLog> = Vec::with_capacity(rounds.len());
        let mut boundary = self.canary.readings();
        let mut truncated = false;
        for (index, ops) in rounds.iter().enumerate() {
            if phase_started.elapsed().as_secs_f64() > OVERRUN_FACTOR * seconds.max(3.0) {
                truncated = true;
                break;
            }
            let mut round = RoundLog {
                traced: self.mode == Mode::Traced && index % TRACE_EVERY == TRACE_EVERY - 1,
                ..RoundLog::default()
            };
            if round.traced {
                self.drain_shadow_backlog()?;
            }
            let (cpu_before, started) = (host::cpu_ms(), Instant::now());
            for op in ops {
                if matches!(op, Op::Stop) {
                    self.close_window(&mut round, cpu_before, started);
                }
                let traced = round.traced;
                self.exec(op, &mut round, traced);
            }
            if round.wall_ms == 0.0 {
                // No `Stop` closed the round's clock.
                self.close_window(&mut round, cpu_before, started);
            }
            let mut around = std::mem::replace(&mut boundary, self.canary.readings());
            around.extend_from_slice(&boundary);
            round.canary_ms = median(&around);
            // Untimed checks between rounds.
            if self.shape.mapped {
                if index + 1 < rounds.len() {
                    self.derive_expectations(index + 1)?;
                }
            } else if self.mode == Mode::Plain && (index as u32).is_multiple_of(verify_every) {
                self.verify_last_answer();
            }
            logs.push(round);
        }

        // --- after the clock stops -------------------------------------------
        let faults = vsj_obs::major_page_faults()
            .unwrap_or(0)
            .saturating_sub(faults_before);
        if self.shape.mapped && self.mode == Mode::Traced {
            // A last session for the readings that need a live server.
            self.counters_frozen = true;
            let mut discard = RoundLog::default();
            self.exec(&Op::Start, &mut discard, false);
        }
        if !self.shape.mapped {
            self.absorb_engine_counters(baseline.as_ref());
        }
        self.counters_frozen = true;
        if truth.is_some() {
            self.accuracy_sweep(seed);
        }
        if self.mode == Mode::Traced {
            self.layer_readings(&sample_rows)?;
        }
        if self.shape.durable {
            let live = &self.script.final_live;
            let nnz = live.values().map(|&row| self.row_nnz[row as usize] as u64);
            let (rows, nnz) = (live.len() as f64, nnz.sum::<u64>() as f64);
            let bytes = replay::dir_bytes(&self.store) as f64;
            self.readings
                .insert("service.disk_bytes_per_row", bytes / rows);
            self.disk_bytes_per_nnz = bytes / nnz;
            let limit = DISK_GROWTH_LIMIT * self.shape.disk_bytes_per_nnz;
            self.check(self.disk_bytes_per_nnz <= limit, || {
                format!(
                    "{:.3} storage bytes per live non-zero exceed {limit:.3}",
                    bytes / nnz
                )
            });
        }
        if self.shape.durable && !self.shape.mapped {
            self.kill_and_recover(seed)?;
        } else {
            self.close_session();
        }
        if let Some(truth) = &truth {
            self.score_accuracy(truth);
        }
        if self.mode == Mode::Traced {
            let path = scratch_root().join(format!("trace-{}.json", self.shape.name));
            self.tracer
                .write(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            let excess = self.tracer.child_excess_pct(&ESTIMATE_CHAIN);
            self.check(excess <= CHILD_EXCESS_LIMIT_PCT, || {
                format!("a replayed estimate layer outweighs its parent span by {excess:.1} %")
            });
        }

        let metrics = self.metrics(&logs, &setup_s, faults);
        let detail = self.detail(seed, seconds, &logs, &setup_raw_s, truncated);
        Ok(Outcome {
            attempted: self.attempted,
            failed: self.failed,
            failures: std::mem::take(&mut self.failures),
            metrics,
            detail,
        })
    }

    fn close_window(&mut self, round: &mut RoundLog, cpu_before: f64, started: Instant) {
        round.wall_ms = ms_since(started);
        round.cpu_ms = host::cpu_ms() - cpu_before;
        round.rss_mb = host::rss_mb(None);
        if let Some(Session {
            host: Host::Child(child),
            ..
        }) = &self.session
        {
            // The child was started inside this round, so all of its CPU
            // time belongs to it; the memory that counts is the child's.
            round.cpu_ms += host::process_cpu_ms(child.0.id()).unwrap_or(0.0);
            round.rss_mb = host::rss_mb(Some(child.0.id()));
        }
    }

    /// Sends one op, times it, checks the answer, and (in a traced
    /// round) replays it into spans.
    fn exec(&mut self, op: &Op, round: &mut RoundLog, traced: bool) {
        if matches!(op, Op::Stop) {
            self.close_session();
            return;
        }
        // The row travels by value to the server; the shadow gets a copy.
        let vector = match *op {
            Op::Insert(row) | Op::Upsert(_, row) => self.corpus[row as usize].take(),
            _ => None,
        };
        let shadow_vector = if self.mode == Mode::Traced && self.shadow.is_some() {
            vector.clone()
        } else {
            None
        };
        if self.mode == Mode::Traced && matches!(op, Op::Compact) {
            // The fold is about to empty both; their peak is now.
            let engine = self.session.as_ref().and_then(Session::engine);
            let stats = engine.expect("traced sessions are local").stats();
            let counters = &mut self.counters;
            counters.tombstones = counters.tombstones.max(stats.tombstones);
            counters.overlay_bytes = counters.overlay_bytes.max(stats.overlay_bytes);
        }
        let started = Instant::now();
        let reply = self.send(op, vector.as_ref());
        let ms = ms_since(started);
        drop(vector);
        round.requests += 1;
        round.samples.push((op.route(), ms));
        if matches!(op, Op::Insert(_) | Op::Upsert(..) | Op::Remove(_)) {
            round.rows_written += 1;
            round.write_ms += ms;
        }
        let reply = match reply {
            Ok(reply) => reply,
            Err(message) => {
                self.check(false, || format!("{op:?}: {message}"));
                return;
            }
        };
        let verdict = self.judge(op, &reply, round);
        self.check(verdict.is_ok(), || {
            format!("{op:?}: {}", verdict.unwrap_err())
        });

        let is_write = !matches!(op, Op::Estimate(_) | Op::Start);
        if !traced {
            if self.shadow.is_some() && is_write {
                self.shadow_backlog.push((*op, shadow_vector));
            }
            return;
        }
        // A request that is not replayed gets no root span either: a
        // root without children would read as time no layer explains.
        let replayed = match (&reply, op) {
            (Reply::Estimate(served), Op::Estimate(tau)) => {
                if round.estimate_replays >= ESTIMATE_REPLAYS_PER_ROUND {
                    return;
                }
                round.estimate_replays += 1;
                let root = self.tracer.root(op.span(), started, ms);
                let engine = self.session.as_ref().and_then(Session::engine);
                let engine = engine.expect("traced sessions are local").clone();
                replay::estimate(&mut self.tracer, root, &engine, &self.pool, *tau, served)
                    .map(|service_ms| round.self_pairs.push(("estimate", ms, service_ms)))
            }
            (
                Reply::Started {
                    recover_ms,
                    start_ms,
                    ..
                },
                _,
            ) => {
                let root = self.tracer.root(op.span(), started, ms);
                self.tracer
                    .child_at("service.recover", root, 0.0, *recover_ms);
                self.tracer
                    .child_at("server.start", root, *recover_ms, *start_ms);
                Ok(())
            }
            _ => match self.shadow.as_mut() {
                Some(shadow) => {
                    let root = self.tracer.root(op.span(), started, ms);
                    let id = self.next_id.wrapping_sub(1);
                    shadow
                        .replay(&mut self.tracer, root, op, shadow_vector, id)
                        .map(|service_ms| {
                            if let Some(service_ms) = service_ms {
                                round.self_pairs.push(("insert", ms, service_ms));
                            }
                        })
                }
                None => Ok(()),
            },
        };
        if let Err(message) = replayed {
            self.check(false, || format!("replay of {op:?}: {message}"));
        }
    }

    fn send(&mut self, op: &Op, vector: Option<&SparseVector>) -> Result<Reply, String> {
        if let Op::Start = op {
            let started = Instant::now();
            let (mut session, recover_ms) = if self.mode == Mode::Plain {
                Session::child(&self.store)?
            } else {
                let engine = EstimationEngine::recover_with(&self.store, tier(StorageTier::Mapped))
                    .map_err(|e| e.to_string())?;
                let recover_ms = ms_since(started);
                (Session::local(Arc::new(engine))?, recover_ms)
            };
            // Part of coming back: ask the server what it recovered.
            let stats = session.client.stats();
            self.session = Some(session);
            let stats = stats.map_err(|e| e.to_string())?;
            let field = |section: &str, name: &str| stats.get(section).and_then(|s| s.get(name));
            return Ok(Reply::Started {
                recover_ms,
                start_ms: ms_since(started) - recover_ms,
                epoch: field("engine", "epoch")
                    .and_then(Json::as_u64)
                    .ok_or("stats lack the epoch")?,
                live: field("engine", "live")
                    .and_then(Json::as_u64)
                    .ok_or("stats lack the live count")? as usize,
                mapped: field("server", "storage_tier").and_then(Json::as_str) == Some("mapped"),
            });
        }
        let client = &mut self.session.as_mut().ok_or("no session is open")?.client;
        let text = |e: vsj_server::ClientError| e.to_string();
        Ok(match *op {
            Op::Publish => Reply::Epoch(client.publish().map_err(text)?),
            Op::Checkpoint => Reply::Epoch(client.checkpoint().map_err(text)?),
            Op::Compact => Reply::Epoch(client.compact().map_err(text)?),
            Op::Estimate(tau) => Reply::Estimate(client.estimate(tau).map_err(text)?),
            Op::Insert(_) => Reply::Id(
                client
                    .insert(vector.ok_or("row already consumed")?)
                    .map_err(text)?,
            ),
            Op::Upsert(id, _) => Reply::Flag(
                client
                    .upsert(id, vector.ok_or("row already consumed")?)
                    .map_err(text)?,
            ),
            Op::Remove(id) => Reply::Flag(client.remove(id).map_err(text)?),
            Op::Start | Op::Stop => unreachable!("handled by the caller"),
        })
    }

    /// Whether `reply` is the answer the script predicts for `op`.
    fn judge(&mut self, op: &Op, reply: &Reply, round: &mut RoundLog) -> Result<(), String> {
        match (op, reply) {
            (Op::Publish | Op::Checkpoint | Op::Compact, Reply::Epoch(epoch)) => {
                let previous = self.epoch;
                self.epoch = *epoch;
                self.published_n = self.live_n;
                // Expectations were derived for the epoch just left.
                self.expect.clear();
                if *epoch <= previous {
                    return Err(format!("epoch went from {previous} to {epoch}"));
                }
            }
            (Op::Insert(_), Reply::Id(id)) => {
                let expected = self.next_id;
                self.next_id += 1;
                self.live_n += 1;
                if *id != expected {
                    return Err(format!("assigned id {id}, expected {expected}"));
                }
            }
            (Op::Upsert(..), Reply::Flag(replaced)) => {
                if !replaced {
                    return Err("upsert of a live id reported an insert".into());
                }
            }
            (Op::Remove(_), Reply::Flag(removed)) => {
                self.live_n -= 1;
                if !removed {
                    return Err("remove of a live id reported nothing removed".into());
                }
            }
            (
                Op::Start,
                Reply::Started {
                    recover_ms,
                    epoch,
                    live,
                    mapped,
                    ..
                },
            ) => {
                round.samples.push(("recover", *recover_ms));
                self.epoch = *epoch;
                self.published_n = *live;
                self.first_after_start = true;
                if !mapped {
                    return Err("recovery fell back to the heap tier".into());
                }
                if self.published_n != self.live_n {
                    return Err(format!(
                        "recovered {} rows, the script has {} live",
                        self.published_n, self.live_n
                    ));
                }
            }
            (Op::Estimate(tau), Reply::Estimate(answer)) => {
                if std::mem::take(&mut self.first_after_start) {
                    let ms = round.samples.last().expect("just pushed").1;
                    round.samples.push(("first_estimate", ms));
                }
                self.answers.push((*tau, *answer));
                if !(answer.value.is_finite() && answer.value >= 0.0) {
                    return Err(format!("answer {} is not a join size", answer.value));
                }
                if answer.cached {
                    return Err("a never-asked τ was served from the cache".into());
                }
                if answer.epoch != self.epoch || answer.n != self.published_n {
                    return Err(format!(
                        "answered at epoch {} over {} rows, expected epoch {} over {}",
                        answer.epoch, answer.n, self.epoch, self.published_n
                    ));
                }
                if self.shape.mapped {
                    match self.expect.get(&tau.to_bits()) {
                        Some(&(epoch, bits)) => {
                            if epoch != answer.epoch || bits != answer.value.to_bits() {
                                return Err(format!(
                                    "mapped answer {} @{} differs from the heap recovery's {} @{epoch}",
                                    answer.value,
                                    answer.epoch,
                                    f64::from_bits(bits)
                                ));
                            }
                        }
                        None => self.unverifiable += 1,
                    }
                }
            }
            _ => return Err("reply does not fit the request".into()),
        }
        Ok(())
    }

    /// restart_mapped: has a child process recover the directory on the
    /// heap tier (untimed, no session is open) and records its answer to
    /// every τ the mapped sessions will be asked before the directory's
    /// epoch next moves.
    fn derive_expectations(&mut self, from_round: usize) -> Result<(), String> {
        let mut taus = Vec::new();
        if from_round == 0 {
            taus.extend_from_slice(&self.script.warmup);
        }
        let next = self.script.rounds.get(from_round).into_iter().flatten();
        taus.extend(
            next.take_while(|op| !matches!(op, Op::Compact | Op::Publish))
                .filter_map(|op| match op {
                    Op::Estimate(tau) => Some(*tau),
                    _ => None,
                }),
        );
        let oracle = ask_oracle(&self.store, &taus)?;
        self.recover_heap_ms.push(oracle.recover_ms);
        self.expect = taus
            .iter()
            .zip(&oracle.value_bits)
            .map(|(tau, bits)| (tau.to_bits(), (oracle.epoch, *bits)))
            .collect();
        Ok(())
    }

    /// Heap workloads: the round's last wire answer must equal a fresh
    /// in-process pass at the same epoch.
    fn verify_last_answer(&mut self) {
        let Some(&(tau, served)) = self.answers.last() else {
            return;
        };
        let engine = self.session.as_ref().and_then(Session::engine);
        let engine = engine
            .expect("heap sessions are local and stay open")
            .clone();
        engine.clear_cache();
        let direct = engine.estimate_batch(&[tau])[0];
        self.check(
            direct.estimate.value.to_bits() == served.value.to_bits()
                && direct.epoch == served.epoch,
            || {
                format!(
                    "wire answer {} @{} at τ={tau} but estimate_batch gives {} @{}",
                    served.value, served.epoch, direct.estimate.value, direct.epoch
                )
            },
        );
    }

    fn drain_shadow_backlog(&mut self) -> Result<(), String> {
        if let Some(shadow) = &self.shadow {
            for (op, vector) in self.shadow_backlog.drain(..) {
                shadow.apply(&op, vector)?;
            }
        }
        Ok(())
    }

    /// Adds what the open session's engine counted since `baseline` (or
    /// since it started) to the run's totals.
    fn absorb_engine_counters(&mut self, baseline: Option<&EngineStats>) {
        let Some(engine) = self.session.as_ref().and_then(Session::engine) else {
            return;
        };
        if self.counters_frozen {
            return;
        }
        let stats = engine.stats();
        let since = |field: fn(&EngineStats) -> u64| field(&stats) - baseline.map_or(0, field);
        let mut counters = std::mem::take(&mut self.counters);
        counters.pool_tasks += since(|s| s.pool_tasks);
        counters.pool_steals += since(|s| s.pool_steals);
        counters.passes += since(|s| s.sampling_passes);
        counters.cache_hits += since(|s| s.cache_hits);
        counters.cache_misses += since(|s| s.cache_misses);
        counters.wal_fsyncs += stats.wal_fsyncs;
        counters.tombstones = counters.tombstones.max(stats.tombstones);
        counters.overlay_bytes = counters.overlay_bytes.max(stats.overlay_bytes);
        if self.shape.mapped {
            // stats() has just refreshed the gauge.
            let text = engine.metrics().render();
            let rows = layers::exposition_value(&text, "vsj_engine_mapped_materialized_vectors");
            counters.materialized_rows = counters.materialized_rows.max(rows.unwrap_or(0.0));
        }
        self.counters = counters;
    }

    fn close_session(&mut self) {
        if self.shape.mapped {
            self.absorb_engine_counters(None);
        }
        if let Some(session) = self.session.take() {
            let stopped = session.close();
            self.check(stopped.is_ok(), || {
                format!("shutdown: {}", stopped.unwrap_err())
            });
            if self.shape.mapped {
                // A traced run restarts in-process; the next session must
                // not inherit this one's freed heap.
                host::release_free_heap();
            }
        }
    }

    /// mixed_durable: two last answers at the final epoch, then the
    /// server and engine are dropped without a checkpoint and the
    /// directory recovered; the recovery must hold exactly the script's
    /// live set and give the same two answers.
    fn kill_and_recover(&mut self, seed: u64) -> Result<(), String> {
        let mut discard = RoundLog::default();
        let last: Vec<f64> = TauStream::new(seed ^ 0xDEAD).take(2).collect();
        let before = self.answers.len();
        for tau in &last {
            self.exec(&Op::Estimate(*tau), &mut discard, false);
        }
        let pre_kill: Vec<(f64, Estimated)> =
            self.answers.split_off(before.min(self.answers.len()));
        self.close_session();
        let started = Instant::now();
        let recovered = EstimationEngine::recover(&self.store).map_err(|e| e.to_string())?;
        self.recover_heap_ms.push(ms_since(started));
        let mismatched = (0..self.script.ids_ever)
            .filter(|id| recovered.contains(*id) != self.script.final_live.contains_key(id))
            .count();
        self.check(mismatched == 0, || {
            format!(
                "{mismatched} ids are live in the recovery but not in the script, or the reverse"
            )
        });
        self.check(pre_kill.len() == last.len(), || {
            "a pre-kill estimate failed".into()
        });
        for (tau, served) in pre_kill {
            let again = recovered.estimate_batch(&[tau])[0];
            self.check(
                again.estimate.value.to_bits() == served.value.to_bits()
                    && again.epoch == served.epoch,
                || {
                    format!(
                        "pre-kill answer {} @{} at τ={tau}, recovered engine says {} @{}",
                        served.value, served.epoch, again.estimate.value, again.epoch
                    )
                },
            );
        }
        Ok(())
    }

    /// fresh_heap: [`ACCURACY_SWEEP`] more answers at τ ≥ 0.7, each at an
    /// epoch (and so a pair sample) of its own.
    fn accuracy_sweep(&mut self, seed: u64) {
        let mut discard = RoundLog::default();
        let squeeze = (TAU_HI - TRUTH_TAU) / (TAU_HI - TAU_LO);
        for tau in TauStream::new(seed ^ 0xACC).take(ACCURACY_SWEEP) {
            self.exec(&Op::Publish, &mut discard, false);
            let tau = TRUTH_TAU + (tau - TAU_LO) * squeeze;
            self.exec(&Op::Estimate(tau), &mut discard, false);
        }
    }

    /// fresh_heap: mean relative error of the answers at τ ≥ 0.7 against
    /// the exact join.
    fn score_accuracy(&mut self, truth_sims: &[f64]) {
        let errors: Vec<f64> = self
            .answers
            .iter()
            .filter(|(tau, _)| *tau >= TRUTH_TAU)
            .filter_map(|(tau, answer)| {
                let exact = (truth_sims.len() - truth_sims.partition_point(|sim| sim < tau)) as f64;
                (exact > 0.0).then(|| (answer.value - exact).abs() / exact)
            })
            .collect();
        if errors.is_empty() {
            return;
        }
        let mean_pct = 100.0 * errors.iter().sum::<f64>() / errors.len() as f64;
        self.readings.insert("core.rel_err_pct", mean_pct);
        let limit = REL_ERR_GROWTH_LIMIT * REL_ERR_BASELINE_PCT;
        self.check(mean_pct <= limit, || {
            format!("mean relative error {mean_pct:.2} % at τ ≥ {TRUTH_TAU} exceeds {limit:.2} %")
        });
    }

    /// The per-layer readings that are not spans (see `layers`).
    fn layer_readings(&mut self, sample_rows: &[SparseVector]) -> Result<(), String> {
        let mut session = self
            .session
            .take()
            .ok_or("no session for the layer readings")?;
        let Host::Local { engine, server } = &session.host else {
            return Err("layer readings need a local session".into());
        };
        let snapshot = engine.snapshot();
        let mut out = std::mem::take(&mut self.readings);
        let server_stats = server.stats();
        let exposition = session.client.metrics().map_err(|e| e.to_string())?;
        out.insert(
            "server.queue_wait_us",
            layers::exposition_mean(&exposition, "vsj_server_queue_wait_us"),
        );
        out.insert(
            "server.batch_wait_us",
            layers::exposition_mean(&exposition, "vsj_server_batch_wait_us"),
        );
        out.insert(
            "server.merge_ratio",
            server_stats.merged_estimates as f64 / server_stats.batched_estimates.max(1) as f64,
        );
        out.insert(
            "server.shed_total",
            (server_stats.shed_estimates + server_stats.shed_ingests + server_stats.shed_wal)
                as f64,
        );
        layers::library(engine, &snapshot, sample_rows, &self.pool, &mut out);
        let stored = layers::storage(engine, self.config, sample_rows, &self.dir, &mut out);
        let wired = layers::wire(&mut session.client, sample_rows, &mut out);
        self.readings = out;
        self.session = Some(session);
        for result in [stored, wired] {
            self.check(result.is_ok(), || result.unwrap_err());
        }
        Ok(())
    }

    fn metrics(
        &self,
        logs: &[RoundLog],
        setup_s: &[f64],
        faults: u64,
    ) -> Vec<(&'static spec::MetricSpec, f64)> {
        // Wire numbers come from rounds that were not replayed.
        let plain: Vec<&RoundLog> = logs.iter().filter(|r| !r.traced).collect();
        let scaled = |route: &str| -> Vec<f64> {
            plain
                .iter()
                .flat_map(|r| {
                    let factor = r.factor();
                    r.samples
                        .iter()
                        .filter(move |(name, _)| *name == route)
                        .map(move |(_, ms)| ms * factor)
                })
                .collect()
        };
        let estimates = scaled("estimate");
        let requests: u64 = plain.iter().map(|r| r.requests).sum();
        let mut values: BTreeMap<&'static str, f64> = self.readings.clone();
        let mut set = |name: &'static str, value: f64| {
            values.insert(name, value);
        };

        // End to end.
        set("setup_s", median(setup_s));
        let round_rates: Vec<f64> = plain
            .iter()
            .map(|r| r.requests as f64 / (r.wall_ms * r.factor() / 1e3))
            .collect();
        set("ops_per_s", median(&round_rates));
        set("estimate_p50_ms", median(&estimates));
        let cpu: f64 = plain.iter().map(|r| r.cpu_ms * r.factor()).sum();
        set("cpu_ms_per_op", cpu / requests.max(1) as f64);
        // The 90th percentile, not the maximum: a peak that a single
        // transient (the buffers of one compaction, caught or missed by
        // the sample) cannot set.
        let rss: Vec<f64> = logs.iter().map(|r| r.rss_mb).collect();
        set("peak_rss_mb", quantile(&rss, 0.9));

        if self.mode == Mode::Traced {
            // What the client saw per route.
            let ingest: Vec<f64> = plain
                .iter()
                .filter(|r| r.rows_written > 0)
                .map(|r| r.rows_written as f64 / (r.write_ms * r.factor() / 1e3))
                .collect();
            set("wire.ingest_rows_per_s", median(&ingest));
            // A cut with nothing pending does no program work worth a
            // metric; only workloads that write report the route. A
            // durable heap round has a delta cut and a full one, so the
            // reading is the round's time inside `/publish`, not a
            // median across two kinds of cut.
            if self.shape.removes_per_round > 0 {
                let publishes: Vec<f64> = plain
                    .iter()
                    .map(|r| {
                        let cuts = r.samples.iter().filter(|(name, _)| *name == "publish");
                        cuts.map(|(_, ms)| ms).sum::<f64>() * r.factor()
                    })
                    .collect();
                set("wire.publish_p50_ms", median(&publishes));
            }
            let restarts: Vec<f64> = plain
                .iter()
                .filter_map(|r| {
                    let find = |route| {
                        r.samples
                            .iter()
                            .find(|(name, _)| *name == route)
                            .map(|s| s.1)
                    };
                    Some((find("restart")? + find("first_estimate")?) * r.factor())
                })
                .collect();
            set("wire.restart_p50_ms", median(&restarts));
            set(
                "wire.failed_ops_pct",
                100.0 * self.failed as f64 / self.attempted.max(1) as f64,
            );
            set("service.checkpoint_ms", median(&scaled("checkpoint")));
            set("service.compact_ms", median(&scaled("compact")));
            set("service.recover_mapped_ms", median(&scaled("recover")));
            set(
                "service.first_estimate_mapped_ms",
                median(&scaled("first_estimate")),
            );
            set("service.recover_heap_ms", median(&self.recover_heap_ms));
            if let Some(pct) = tail_percentile(estimates.len()) {
                set("server.estimate_tail_pct", pct);
                set("server.estimate_tail_ms", quantile(&estimates, pct / 100.0));
            }

            // Spans.
            let span = |name: &str| median(&self.tracer.durations(name));
            set("core.pass_ms", span("core.pass"));
            set("core.draws_ms", span("lsh.draws"));
            set("core.score_ms", span("vector.score"));
            set(
                "core.pass_self_ms",
                (span("core.pass") - span("lsh.draws") - span("vector.score")).max(0.0),
            );
            set("service.estimate_ms", span("service.estimate"));
            set(
                "service.estimate_self_ms",
                (span("service.estimate") - span("core.pass")).max(0.0),
            );
            set("service.insert_us", span("service.insert") * 1e3);
            set("service.wal_append_us", span("service.wal_append") * 1e3);
            set("service.publish_delta_ms", span("service.publish_delta"));
            set("service.publish_full_ms", span("service.publish_full"));
            let self_us = |route: &str| {
                let gaps: Vec<f64> = logs
                    .iter()
                    .flat_map(|r| r.self_pairs.iter())
                    .filter(|(name, ..)| *name == route)
                    .map(|(_, wire, inner)| (wire - inner) * 1e3)
                    .collect();
                median(&gaps)
            };
            set("server.estimate_self_us", self_us("estimate"));
            set("server.insert_self_us", self_us("insert"));
            if let Some(shadow) = &self.shadow {
                set("service.wal_bytes_per_row", shadow.wal_bytes_per_row());
            }

            // Counters.
            let c = &self.counters;
            let passes = c.passes.max(1) as f64;
            set("pool.tasks_per_pass", c.pool_tasks as f64 / passes);
            set("pool.steals_per_pass", c.pool_steals as f64 / passes);
            set(
                "service.cache_hit_ratio",
                c.cache_hits as f64 / (c.cache_hits + c.cache_misses).max(1) as f64,
            );
            set("service.wal_fsyncs", c.wal_fsyncs as f64);
            set("service.major_page_faults", faults as f64);
            set("service.tombstones", c.tombstones as f64);
            set("service.overlay_bytes", c.overlay_bytes as f64);
            set("service.materialized_rows", c.materialized_rows);
            if self.shape.durable {
                let rows = self.script.final_live.len().max(1) as f64;
                let checkpoint = std::fs::metadata(self.store.join("checkpoint.vsjc"))
                    .map_or(0, |meta| meta.len());
                set("service.checkpoint_bytes_per_row", checkpoint as f64 / rows);
            }

            // Host and trace.
            let canary: Vec<f64> = logs.iter().map(|r| r.canary_ms).collect();
            set("host.canary_ms", median(&canary));
            set("host.canary_cv_pct", cv_pct(&canary));
            let raw: Vec<f64> = plain
                .iter()
                .flat_map(|r| r.samples.iter())
                .filter(|(name, _)| *name == "estimate")
                .map(|(_, ms)| *ms)
                .collect();
            set("host.raw_estimate_p50_ms", median(&raw));
            let traced: Vec<f64> = logs
                .iter()
                .filter(|r| r.traced)
                .flat_map(|r| {
                    let factor = r.factor();
                    r.samples
                        .iter()
                        .filter(|(name, _)| *name == "estimate")
                        .map(move |(_, ms)| ms * factor)
                })
                .collect();
            if !traced.is_empty() && !estimates.is_empty() {
                set(
                    "trace.overhead_pct",
                    100.0 * (median(&traced) / median(&estimates) - 1.0),
                );
            }
            set("trace.unattributed_pct", self.tracer.unattributed_pct());
            set(
                "trace.child_excess_pct",
                self.tracer.child_excess_pct(&ESTIMATE_CHAIN),
            );
        }

        let wanted: &'static [spec::MetricSpec] = match self.mode {
            Mode::Plain => &spec::END_TO_END,
            Mode::Traced => &spec::PER_LAYER,
        };
        wanted
            .iter()
            .map(|m| (m, values.get(m.name).copied().unwrap_or(0.0)))
            .collect()
    }

    fn detail(
        &self,
        seed: u64,
        seconds: f64,
        logs: &[RoundLog],
        setup_raw_s: &[f64],
        truncated: bool,
    ) -> Json {
        let host = host::Descriptor::read();
        let counts = Json::Obj(
            self.script
                .counts()
                .into_iter()
                .map(|(route, n)| (route.to_string(), Json::u64(n)))
                .collect(),
        );
        let canary: Vec<f64> = logs.iter().map(|r| r.canary_ms).collect();
        let spans = Json::Obj(
            self.tracer
                .totals()
                .into_iter()
                .map(|(name, t)| {
                    (
                        name.to_string(),
                        Json::obj([
                            ("count", Json::u64(t.count)),
                            ("total_ms", Json::Num(t.total_ms)),
                            ("self_ms", Json::Num(t.self_ms)),
                        ]),
                    )
                })
                .collect(),
        );
        Json::obj([
            ("workload", Json::str(self.shape.name)),
            (
                "mode",
                Json::str(if self.mode == Mode::Plain {
                    "run"
                } else {
                    "trace"
                }),
            ),
            ("seed", Json::u64(seed)),
            ("seconds", Json::Num(seconds)),
            ("rounds", Json::usize(logs.len())),
            ("truncated", Json::Bool(truncated)),
            ("nproc", Json::usize(host.nproc)),
            ("cpu_model", Json::str(host.cpu_model)),
            ("profile", Json::str(host.profile)),
            ("git_rev", Json::str(host.git_rev)),
            (
                "pool_threads",
                Json::usize(self.config.parallel.pool_threads),
            ),
            ("server_workers", Json::usize(SERVER_WORKERS)),
            ("clients", Json::u64(1)),
            (
                "fsync_policy",
                Json::str(if self.shape.durable {
                    "never"
                } else {
                    "none (not durable)"
                }),
            ),
            (
                "n",
                Json::u64((self.shape.base_rows + self.shape.tail_rows) as u64),
            ),
            ("k", Json::usize(self.shape.k)),
            ("family", Json::str(format!("{:?}", self.shape.family))),
            ("corpus", Json::str(format!("{:?}", self.shape.corpus))),
            ("shards", Json::usize(SHARDS)),
            ("engine_seed", Json::u64(ENGINE_SEED)),
            (
                "tau_range",
                Json::Arr(vec![Json::Num(TAU_LO), Json::Num(TAU_HI)]),
            ),
            ("canary_ref_ms", Json::Num(host::CANARY_REF_MS)),
            ("canary_ms", Json::Num(median(&canary))),
            ("canary_cv_pct", Json::Num(cv_pct(&canary))),
            (
                "setup_raw_s",
                Json::Arr(setup_raw_s.iter().map(|s| Json::Num(*s)).collect()),
            ),
            ("requests", counts),
            ("estimates_unverifiable", Json::u64(self.unverifiable)),
            ("disk_bytes_per_nnz", Json::Num(self.disk_bytes_per_nnz)),
            (
                "rel_err_pct",
                Json::Num(
                    self.readings
                        .get("core.rel_err_pct")
                        .copied()
                        .unwrap_or(0.0),
                ),
            ),
            ("spans", spans),
            (
                "failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|f| Json::str(f.as_str()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// What a heap recovery of a storage directory answers.
struct Oracle {
    recover_ms: f64,
    epoch: u64,
    /// One per τ asked, in order.
    value_bits: Vec<u64>,
}

/// Runs this executable with `args` to its end and returns its standard
/// output; a non-zero exit is an error carrying its standard error.
/// Work whose garbage must not sit in this process's `VmRSS` — building
/// the mapped workload's store, recovering it on the heap — runs in a child: glibc
/// does not hand a freed heap of many small rows back to the kernel.
pub fn run_child(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!(
            "child {:?} failed: {}",
            args.first(),
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    String::from_utf8(output.stdout).map_err(|e| e.to_string())
}

fn ask_oracle(store: &Path, taus: &[f64]) -> Result<Oracle, String> {
    let mut args = vec!["oracle".to_string(), store.display().to_string()];
    args.extend(taus.iter().map(|tau| format!("{:x}", tau.to_bits())));
    let stdout = run_child(&args)?;
    let mut lines = stdout.lines();
    let mut field = |name: &str| -> Result<&str, String> {
        lines
            .next()
            .and_then(|line| line.strip_prefix(name))
            .map(str::trim)
            .ok_or_else(|| format!("oracle output lacks {name}"))
    };
    let recover_ms = field("recover_ms")?.parse().map_err(|_| "bad recover_ms")?;
    let epoch = field("epoch")?.parse().map_err(|_| "bad epoch")?;
    let value_bits = lines
        .map(|line| u64::from_str_radix(line.trim(), 16).map_err(|_| "bad answer bits".to_string()))
        .collect::<Result<Vec<u64>, String>>()?;
    if value_bits.len() != taus.len() {
        return Err(format!(
            "oracle answered {} of {} τ",
            value_bits.len(),
            taus.len()
        ));
    }
    Ok(Oracle {
        recover_ms,
        epoch,
        value_bits,
    })
}

/// `vsjbench oracle <dir> <τ bits, hex>…` — the child side of
/// [`ask_oracle`].
pub fn oracle_main(args: &[String]) -> Result<(), String> {
    let (dir, taus) = args.split_first().ok_or("oracle needs a directory")?;
    let taus = taus
        .iter()
        .map(|bits| u64::from_str_radix(bits, 16).map(f64::from_bits))
        .collect::<Result<Vec<f64>, _>>()
        .map_err(|e| e.to_string())?;
    let started = Instant::now();
    let heap = EstimationEngine::recover_with(Path::new(dir), tier(StorageTier::Heap))
        .map_err(|e| e.to_string())?;
    println!("recover_ms {}", ms_since(started));
    println!("epoch {}", heap.current_epoch());
    for answer in heap.estimate_batch(&taus) {
        println!("{:x}", answer.estimate.value.to_bits());
    }
    Ok(())
}

/// `vsjbench build-store --workload W --seed N --seconds S --dir D` —
/// set-up of the mapped workload, in a child.
pub fn build_store_main(shape: &Shape, seed: u64, seconds: f64, dir: &Path) -> Result<(), String> {
    let script = Script::build(shape, seed, seconds);
    set_up(shape, engine_config(shape), &script, seed, dir).map(drop)
}

enum Reply {
    Epoch(u64),
    Id(u64),
    Flag(bool),
    Estimate(Estimated),
    Started {
        recover_ms: f64,
        start_ms: f64,
        epoch: u64,
        live: usize,
        mapped: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::SHAPES;

    /// Same seed ⇒ the same pairs scored, and `m_H + m_L = 2n` of them
    /// are asked for (`core.pairs_scored`), on every workload's engine.
    #[test]
    fn same_seed_scores_the_same_pairs() {
        for shape in &SHAPES {
            let scored = || {
                let engine = EstimationEngine::new(engine_config(shape));
                engine.insert_batch(generate(shape.corpus, 600, 7));
                engine.publish();
                let snapshot = engine.snapshot();
                let config = engine.estimator_config(snapshot.len());
                (
                    config.m_h + config.m_l,
                    replay::draw_pairs(&engine, &snapshot),
                )
            };
            let (first, second) = (scored(), scored());
            assert_eq!(first.0, 2 * 600, "{}", shape.name);
            assert!(!first.1.is_empty(), "{}", shape.name);
            assert_eq!(first, second, "{}", shape.name);
        }
    }
}
