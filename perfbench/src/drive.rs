//! Drives one workload's store from outside: set-up, the closed-loop
//! (`sat`) and open-loop (`lat`) phases, and the shut-down checks. Every
//! call into the store goes through its public API, and in a traced run
//! every one of those calls is wrapped in a span.

use crate::loadgen::{self, Acks, Schedule};
use crate::spans::{timed, Recorder, Span};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vpdt_eval::Omega;
use vpdt_logic::Formula;
use vpdt_net::frame::write_frame;
use vpdt_net::{
    FrameReader, NetClient, NetOptions, NetServer, Request, Response, ServerHandle, WireOutcome,
    PROTOCOL_VERSION,
};
use vpdt_store::history::root_hash;
use vpdt_store::metrics::names;
use vpdt_store::{
    workload, CrossOutcome, Job, MetricsSnapshot, Routed, ServerReport, ShardedBuilder,
    ShardedStore, StoreBuilder, StoreError, StoreServer, TxOutcome, TxTicket, WalOptions,
};
use vpdt_structure::Database;
use vpdt_tx::program::Program;

/// Tickets one closed-loop client keeps in flight.
pub const WINDOW: usize = 64;

/// Cross-shard transactions report no transaction id; their spans use
/// the ack span's own id with this bit set as the trace id.
const CROSS_TRACE: u64 = 1 << 62;

/// How long a phase may take to drain its last acknowledgments.
const DRAIN: Duration = Duration::from_secs(60);

/// How a workload reaches the store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Front {
    /// In-process `Session`s on one `StoreServer`.
    Session,
    /// `NetClient` connections to a loopback `NetServer`.
    Net,
    /// The footprint router of a `ShardedStore` with this many shards.
    Sharded(usize),
}

/// Which generator the job stream comes from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mix {
    /// `workload::sharded_jobs`: uniform over the whole statement menu.
    Menu,
    /// `workload::scaled_jobs`: the same distribution, sampled directly.
    Scaled,
    /// `workload::cross_mix_jobs` with this cross-shard fraction.
    Cross(f64),
}

/// One named workload.
#[derive(Clone, Debug)]
pub struct Spec {
    /// The name `BENCHMARK.json` and the command line use.
    pub name: &'static str,
    /// Binary relations `R0..`.
    pub rels: usize,
    /// Elements per column.
    pub universe: u64,
    /// Probability that a key has a tuple in the initial state.
    pub density: f64,
    /// Job generator.
    pub mix: Mix,
    /// Front door.
    pub front: Front,
    /// Persisted with fsync on and the default group-commit policy.
    pub durable: bool,
    /// Jobs in one closed-loop pass (fixed, so the history a pass leaves
    /// for recovery and audit has the same size on every run).
    pub pass_jobs: usize,
    /// Whether one store serves every closed-loop pass of a phase (a
    /// fresh store per pass otherwise).
    pub shared_store: bool,
    /// Offered rate of the open-loop phase, transactions per second: at
    /// most about a quarter of the saturated rate measured on the recorded
    /// machine.
    pub lat_rate: f64,
}

impl Spec {
    /// The constraint α: one functional dependency per relation.
    pub fn alpha(&self) -> Formula {
        workload::sharded_fd_constraint(self.rels)
    }

    /// The initial state (a pure function of the seed).
    pub fn initial(&self, seed: u64) -> Database {
        workload::sharded_initial(seed, self.rels, self.universe, self.density)
    }

    /// `clients × per_client` jobs from the workload's generator.
    pub fn jobs(&self, seed: u64, clients: usize, per_client: usize) -> Vec<Job> {
        let (c, r, u) = (clients as u64, self.rels, self.universe);
        match self.mix {
            Mix::Menu => workload::sharded_jobs(seed, c, per_client, r, u),
            Mix::Scaled => workload::scaled_jobs(seed, c, per_client, r, u),
            Mix::Cross(f) => workload::cross_mix_jobs(seed, c, per_client, r, u, f),
        }
    }
}

/// Counts of one phase's resolved submissions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Submissions made.
    pub attempted: u64,
    /// Committed (durably, on a persisted store).
    pub committed: u64,
    /// Aborted by the guard (a correct outcome).
    pub aborted: u64,
    /// Failed, refused or errored.
    pub failed: u64,
    /// Of the committed: cross-shard two-phase commits.
    pub cross_committed: u64,
    /// Cross-shard submissions (committed or aborted).
    pub cross: u64,
}

impl Tally {
    /// Adds another tally's counts.
    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.committed += o.committed;
        self.aborted += o.aborted;
        self.failed += o.failed;
        self.cross_committed += o.cross_committed;
        self.cross += o.cross;
    }

    fn count(&mut self, r: Resolved) {
        match r {
            Resolved::Committed => self.committed += 1,
            Resolved::Aborted => self.aborted += 1,
            Resolved::Failed => self.failed += 1,
        }
    }

    fn cross_outcome(&mut self, o: &CrossOutcome) {
        self.cross += 1;
        match o {
            CrossOutcome::Committed { .. } => {
                self.committed += 1;
                self.cross_committed += 1;
            }
            CrossOutcome::Aborted { .. } => self.aborted += 1,
        }
    }

    /// Every submission resolved exactly once.
    pub fn check_resolved(&self, what: &str) -> Result<(), String> {
        if self.committed + self.aborted + self.failed != self.attempted {
            return Err(format!(
                "{what}: committed {} + aborted {} + failed {} != attempted {}",
                self.committed, self.aborted, self.failed, self.attempted
            ));
        }
        Ok(())
    }
}

/// Which count a single-store outcome goes to.
#[derive(Clone, Copy)]
enum Resolved {
    Committed,
    /// Aborted by the guard (or rolled back): a correct outcome.
    Aborted,
    /// Failed, refused or errored.
    Failed,
}

impl Resolved {
    fn of(o: &TxOutcome) -> Self {
        match o {
            TxOutcome::Committed { .. } => Resolved::Committed,
            TxOutcome::Aborted { .. } => Resolved::Aborted,
            TxOutcome::Failed { .. } => Resolved::Failed,
        }
    }

    fn of_wire(o: &WireOutcome) -> Self {
        match o {
            WireOutcome::Committed { .. } => Resolved::Committed,
            WireOutcome::GuardAborted { .. } | WireOutcome::RolledBack { .. } => Resolved::Aborted,
            WireOutcome::Failed { .. } => Resolved::Failed,
        }
    }
}

/// Thread-safe tally for completion callbacks.
#[derive(Default)]
struct SharedTally {
    committed: AtomicU64,
    aborted: AtomicU64,
    failed: AtomicU64,
}

impl SharedTally {
    fn count(&self, r: Resolved) {
        let cell = match r {
            Resolved::Committed => &self.committed,
            Resolved::Aborted => &self.aborted,
            Resolved::Failed => &self.failed,
        };
        cell.fetch_add(1, Ordering::Relaxed);
    }

    /// The callbacks' counts plus `extra` (outcomes seen inline).
    fn into_tally(self, attempted: u64, extra: &Tally) -> Tally {
        let mut t = Tally {
            attempted,
            committed: self.committed.into_inner(),
            aborted: self.aborted.into_inner(),
            failed: self.failed.into_inner(),
            ..Tally::default()
        };
        t.add(extra);
        t
    }
}

/// A started store behind its front door.
pub enum Live {
    /// An in-process server.
    Session(StoreServer),
    /// A loopback network server on its serving thread.
    Net {
        /// Stops the serving loop.
        handle: ServerHandle,
        /// The loopback address clients connect to.
        addr: SocketAddr,
        /// The serving thread; yields the store's final report.
        serving: JoinHandle<ServerReport>,
        /// The store's registry after set-up.
        before: MetricsSnapshot,
    },
    /// A sharded store.
    Sharded(Box<ShardedStore>),
}

/// Everything one set-up needs besides the spec.
pub struct Env<'a> {
    /// Threads and connections on the client side; worker pool sizes.
    pub nproc: usize,
    /// The workload seed (initial state).
    pub seed: u64,
    /// One program per statement shape the run will submit.
    pub shapes: &'a [Program],
    /// Present in traced runs.
    pub rec: Option<&'a Arc<Recorder>>,
}

fn rec<'a>(env: &'a Env<'_>) -> Option<&'a Recorder> {
    env.rec.map(|r| &**r)
}

/// Builds the initial state, starts the store (and `NetServer`), and
/// prepares every statement shape. Returns the live store and the
/// seconds it took — the run's `setup_s` sample.
pub fn setup(spec: &Spec, env: &Env<'_>, dir: Option<&Path>) -> Result<(Live, f64), String> {
    let started = Instant::now();
    let r = rec(env);
    let root = r.map(|r| (r.reserve(), r.now()));
    let parent = root.map_or(0, |(id, _)| id);
    let initial = timed(r, "setup.initial", 0, parent, || spec.initial(env.seed));
    let alpha = spec.alpha();
    let live = match spec.front {
        Front::Session | Front::Net => {
            let mut b = StoreBuilder::new(initial, alpha)
                .workers(env.nproc)
                .trace_capacity(0)
                .retain_outcomes(false);
            if let Some(dir) = dir {
                b = b.persist_with(dir, WalOptions::default());
            }
            let server = timed(r, "store.server.build", 0, parent, || b.build())
                .map_err(|e| format!("store refused to start: {e}"))?;
            prepare_all(env, parent, "store.server.prepare", &|p| server.prepare(p))?;
            if spec.front == Front::Session {
                Live::Session(server)
            } else {
                let opts = NetOptions {
                    reactor_threads: env.nproc,
                    writer_threads: env.nproc,
                    ..NetOptions::default()
                };
                let before = server.metrics();
                let net = timed(r, "net.bind", 0, parent, || {
                    NetServer::bind(server, "127.0.0.1:0", opts)
                })
                .map_err(|e| format!("binding the loopback listener: {e}"))?;
                let handle = net.handle();
                let addr = handle.addr();
                let serving = std::thread::spawn(move || net.serve());
                Live::Net {
                    handle,
                    addr,
                    serving,
                    before,
                }
            }
        }
        Front::Sharded(shards) => {
            // The shards' pools together are sized to nproc (one worker
            // each at least), as a single server's pool is.
            let mut b = ShardedBuilder::new(initial, alpha, shards)
                .workers_per_shard((env.nproc / shards).max(1))
                .trace_capacity(0);
            if let Some(dir) = dir {
                b = b.persist_with(dir, WalOptions::default());
            }
            let store = timed(r, "store.shard.build", 0, parent, || b.build())
                .map_err(|e| format!("sharded store refused to start: {e}"))?;
            prepare_all(env, parent, "store.shard.prepare", &|p| store.prepare(p))?;
            Live::Sharded(Box::new(store))
        }
    };
    if let (Some(r), Some((id, start))) = (r, root) {
        r.finish(id, "setup", 0, 0, start);
    }
    Ok((live, started.elapsed().as_secs_f64()))
}

/// Prepares every statement shape on `nproc` threads, each taking the
/// next unprepared shape as it frees up: compile costs differ between
/// shapes by orders of magnitude.
fn prepare_all(
    env: &Env<'_>,
    parent: u64,
    name: &'static str,
    prepare: &(dyn Fn(&Program) -> Result<(), StoreError> + Sync),
) -> Result<(), String> {
    let next = AtomicUsize::new(0);
    let r = rec(env);
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..env.nproc)
            .map(|_| {
                scope.spawn(|| -> Result<(), String> {
                    while let Some(p) = env.shapes.get(next.fetch_add(1, Ordering::Relaxed)) {
                        timed(r, name, 0, parent, || prepare(p))
                            .map_err(|e| format!("prepare: {e}"))?;
                    }
                    Ok(())
                })
            })
            .collect();
        threads
            .into_iter()
            .try_for_each(|t| t.join().expect("prepare thread panicked"))
    })
}

/// Registry readings of a live store, for serving-window deltas. The
/// net server owns its store, so its reading is the one taken just
/// before binding, when the store was last reachable.
pub fn before(live: &Live) -> MetricsSnapshot {
    match live {
        Live::Session(s) => s.metrics(),
        Live::Net { before, .. } => before.clone(),
        Live::Sharded(st) => registry(st),
    }
}

/// A sharded store's coordinator registry with every shard's merged in.
fn registry(st: &ShardedStore) -> MetricsSnapshot {
    let mut merged = st.metrics();
    for i in 0..st.num_shards() {
        merge(&mut merged, &st.shard(i).metrics());
    }
    merged
}

/// Adds `b`'s counters and histogram buckets into `a`.
pub fn merge(a: &mut MetricsSnapshot, b: &MetricsSnapshot) {
    for (k, v) in &b.counters {
        *a.counters.entry(k.clone()).or_default() += v;
    }
    for (k, h) in &b.histograms {
        match a.histograms.get_mut(k) {
            Some(mine) if mine.bounds == h.bounds => {
                for (c, d) in mine.counts.iter_mut().zip(&h.counts) {
                    *c += d;
                }
                mine.sum += h.sum;
                mine.count += h.count;
            }
            Some(_) => {}
            None => {
                a.histograms.insert(k.clone(), h.clone());
            }
        }
    }
}

/// A closed-loop pass: `nproc` clients, each keeping [`WINDOW`]
/// submissions in flight, until every job has resolved. Returns the
/// tally and the seconds from the first submission to the last ack.
pub fn closed_loop(live: &Live, jobs: &[Job], env: &Env<'_>) -> Result<(Tally, f64), String> {
    let per = jobs.len().div_ceil(env.nproc);
    let tallies: Mutex<Vec<Result<Tally, String>>> = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for chunk in jobs.chunks(per.max(1)) {
            let tallies = &tallies;
            scope.spawn(move || {
                let t = match live {
                    Live::Session(server) => Ok(session_client(server, chunk, env.rec)),
                    Live::Net { addr, .. } => net_client(*addr, chunk, env.rec),
                    Live::Sharded(store) => Ok(sharded_client(store, chunk, env.rec)),
                };
                tallies.lock().expect("tally lock").push(t);
            });
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    let mut total = Tally::default();
    for t in tallies.into_inner().expect("tally lock") {
        total.add(&t?);
    }
    Ok((total, secs))
}

/// Records the client-side ack span of transaction `tx` (submit → outcome)
/// with its submit call as a child, once the outcome is known.
fn ack_span(r: &Recorder, tx: u64, id: u64, start: u64, submit: (&'static str, u64, u64)) {
    let (name, s0, s1) = submit;
    r.push(Span {
        id: r.reserve(),
        parent: id,
        trace: tx,
        name,
        start: s0,
        end: s1,
    });
    r.finish(id, "client.ack", tx, 0, start);
}

/// The tickets one in-process closed-loop client keeps in flight.
struct Window {
    tickets: VecDeque<TxTicket>,
    tally: Tally,
}

impl Window {
    fn new() -> Self {
        Window {
            tickets: VecDeque::with_capacity(WINDOW),
            tally: Tally::default(),
        }
    }

    /// Waits for the oldest ticket while [`WINDOW`] are in flight.
    fn make_room(&mut self) {
        while self.tickets.len() >= WINDOW {
            let oldest = self.tickets.pop_front().expect("window non-empty");
            self.tally.count(Resolved::of(&oldest.wait()));
        }
    }

    /// Waits for every ticket still in flight; the client's tally.
    fn drain(mut self) -> Tally {
        for ticket in self.tickets {
            self.tally.count(Resolved::of(&ticket.wait()));
        }
        self.tally
    }
}

fn session_client(server: &StoreServer, chunk: &[Job], rec: Option<&Arc<Recorder>>) -> Tally {
    let session = server.session();
    let mut window = Window::new();
    for job in chunk {
        window.make_room();
        let ticket = match rec {
            None => session.submit(job.program.clone()),
            Some(r) => {
                let (id, s0) = (r.reserve(), r.now());
                let ticket = session.submit(job.program.clone());
                let s1 = r.now();
                let (r, tx) = (Arc::clone(r), ticket.id());
                ticket
                    .on_resolve(move |_| ack_span(&r, tx, id, s0, ("store.server.submit", s0, s1)));
                ticket
            }
        };
        window.tally.attempted += 1;
        window.tickets.push_back(ticket);
    }
    window.drain()
}

fn net_client(
    addr: SocketAddr,
    chunk: &[Job],
    rec: Option<&Arc<Recorder>>,
) -> Result<Tally, String> {
    let err = |e: vpdt_net::NetError| format!("net client: {e}");
    let mut client = NetClient::connect(addr, "perfbench").map_err(err)?;
    let mut t = Tally::default();
    // (ack span id, submit start, submit end) per in-flight request
    let mut pending: VecDeque<(u64, u64, u64)> = VecDeque::with_capacity(WINDOW);
    let receive = |client: &mut NetClient,
                   pending: &mut VecDeque<(u64, u64, u64)>,
                   t: &mut Tally|
     -> Result<(), String> {
        let started = rec.map(|r| r.now());
        match client.next_outcome() {
            Ok((_, tx, outcome)) => {
                t.count(Resolved::of_wire(&outcome));
                let p = pending.pop_front().expect("one entry per submission");
                if let (Some(r), Some(w0)) = (rec, started) {
                    r.leaf("net.client.next_outcome", tx, p.0, w0);
                    ack_span(r, tx, p.0, p.1, ("net.client.submit", p.1, p.2));
                }
                Ok(())
            }
            Err(vpdt_net::NetError::Remote { .. }) => {
                pending.pop_front();
                t.failed += 1;
                Ok(())
            }
            Err(e) => Err(err(e)),
        }
    };
    for job in chunk {
        if client.inflight() >= WINDOW {
            receive(&mut client, &mut pending, &mut t)?;
        }
        let (id, s0) = rec.map_or((0, 0), |r| (r.reserve(), r.now()));
        client.submit(&job.program).map_err(err)?;
        let s1 = rec.map_or(0, |r| r.now());
        pending.push_back((id, s0, s1));
        t.attempted += 1;
    }
    while client.inflight() > 0 {
        receive(&mut client, &mut pending, &mut t)?;
    }
    client.goodbye().map_err(err)?;
    Ok(t)
}

fn sharded_client(store: &ShardedStore, chunk: &[Job], rec: Option<&Arc<Recorder>>) -> Tally {
    let session = store.session();
    let mut window = Window::new();
    for job in chunk {
        window.make_room();
        window.tally.attempted += 1;
        let (id, s0) = rec.map_or((0, 0), |r| (r.reserve(), r.now()));
        let routed = store.submit(session, job.program.clone());
        let s1 = rec.map_or(0, |r| r.now());
        match routed {
            Ok(Routed::Single { ticket, .. }) => {
                if let Some(r) = rec {
                    let (r, tx) = (Arc::clone(r), ticket.id());
                    ticket.on_resolve(move |_| {
                        ack_span(&r, tx, id, s0, ("store.shard.submit", s0, s1))
                    });
                }
                window.tickets.push_back(ticket);
            }
            Ok(Routed::Cross(outcome)) => {
                window.tally.cross_outcome(&outcome);
                if let Some(r) = rec {
                    let trace = CROSS_TRACE | id;
                    ack_span(r, trace, id, s0, ("store.shard.cross_submit", s0, s1));
                }
            }
            Err(_) => window.tally.failed += 1,
        }
    }
    window.drain()
}

/// What an open-loop phase measured.
pub struct OpenLoop {
    /// Outcomes.
    pub tally: Tally,
    /// Due → ack latency per request, µs.
    pub ack_us: Vec<f64>,
    /// Generator lateness per request, µs.
    pub late_us: Vec<f64>,
    /// Requests issued per second of schedule.
    pub offered_per_s: f64,
    /// Seconds from the schedule's start to its last issue.
    pub span_s: f64,
}

impl OpenLoop {
    /// One open loop's record from its consecutive segments: outcomes
    /// summed, samples in issue order, the offered rate over the segments'
    /// schedules together.
    pub fn join(parts: Vec<OpenLoop>) -> OpenLoop {
        let mut out = OpenLoop {
            tally: Tally::default(),
            ack_us: Vec::new(),
            late_us: Vec::new(),
            offered_per_s: 0.0,
            span_s: 0.0,
        };
        for p in parts {
            out.tally.add(&p.tally);
            out.ack_us.extend(p.ack_us);
            out.late_us.extend(p.late_us);
            out.span_s += p.span_s;
        }
        out.offered_per_s = out.tally.attempted as f64 / out.span_s;
        out
    }
}

/// An open-loop phase: `n` requests offered at `rate` per second, each
/// timed from its due time to its acknowledgment. In-process tickets are
/// acknowledged by completion callbacks, so one generator thread issues
/// everything; the network front uses one connection with a writer (the
/// generator) and a reader thread; the sharded front runs its two-phase
/// commits inline on the caller, so it splits the schedule over `nproc`
/// generator threads (see [`lanes`]).
pub fn open_loop(live: &Live, jobs: &[Job], rate: f64, nproc: usize) -> Result<OpenLoop, String> {
    let n = jobs.len();
    let epoch = Instant::now() + Duration::from_millis(5);
    let acks = Arc::new(Acks::new(n, epoch));
    let tally = Arc::new(SharedTally::default());
    let (schedules, extra) = match live {
        Live::Session(server) => {
            let session = server.session();
            let s = loadgen::run(epoch, rate, 0..n, |i| {
                let ticket = session.submit(jobs[i].program.clone());
                let (acks, tally) = (Arc::clone(&acks), Arc::clone(&tally));
                ticket.on_resolve(move |o| {
                    tally.count(Resolved::of(&o));
                    acks.ack(i);
                });
            });
            (vec![s], Tally::default())
        }
        Live::Net { addr, .. } => (
            vec![open_loop_net(*addr, jobs, rate, epoch, &acks, &tally)?],
            Tally::default(),
        ),
        Live::Sharded(store) => {
            let lanes = lanes(store, jobs, nproc);
            let results: Vec<(Schedule, Tally)> = std::thread::scope(|scope| {
                let handles: Vec<_> = lanes
                    .iter()
                    .map(|lane| {
                        let (acks, tally) = (&acks, &tally);
                        scope.spawn(move || {
                            let session = store.session();
                            let mut extra = Tally::default();
                            let s =
                                loadgen::run(epoch, rate, lane.iter().copied(), |i| {
                                    match store.submit(session, jobs[i].program.clone()) {
                                        Ok(Routed::Single { ticket, .. }) => {
                                            let (acks, tally) =
                                                (Arc::clone(acks), Arc::clone(tally));
                                            ticket.on_resolve(move |o| {
                                                tally.count(Resolved::of(&o));
                                                acks.ack(i);
                                            });
                                        }
                                        Ok(Routed::Cross(o)) => {
                                            extra.cross_outcome(&o);
                                            acks.ack(i);
                                        }
                                        Err(_) => {
                                            extra.failed += 1;
                                            acks.ack(i);
                                        }
                                    }
                                });
                            (s, extra)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("generator thread panicked"))
                    .collect()
            });
            let mut extra = Tally::default();
            let mut schedules = Vec::new();
            for (s, t) in results {
                extra.add(&t);
                schedules.push(s);
            }
            (schedules, extra)
        }
    };
    if !acks.wait_all(DRAIN) {
        return Err(format!(
            "{} open-loop requests never resolved",
            acks.missing()
        ));
    }
    let ack_us = loadgen::latencies_us(&acks, &schedules)?;
    let span = schedules.iter().map(|s| s.span_s).fold(0.0, f64::max);
    let late_us = schedules.into_iter().flat_map(|s| s.late_us).collect();
    let tally = Arc::try_unwrap(tally)
        .map_err(|_| "a completion callback outlived its phase".to_string())?
        .into_tally(n as u64, &extra);
    Ok(OpenLoop {
        tally,
        ack_us,
        late_us,
        offered_per_s: n as f64 / span,
        span_s: span,
    })
}

/// The sharded open loop's generator threads, as the requests each
/// issues. A cross-shard commit runs inline on the thread that submits
/// it, for tens of milliseconds; an independent user's single-shard
/// transaction does not wait behind it, so with two or more threads the
/// cross-shard requests get a thread of their own and the single-shard
/// requests are dealt round-robin over the rest.
fn lanes(store: &ShardedStore, jobs: &[Job], nproc: usize) -> Vec<Vec<usize>> {
    if nproc < 2 {
        return vec![(0..jobs.len()).collect()];
    }
    let mut lanes = vec![Vec::new(); nproc];
    for (i, job) in jobs.iter().enumerate() {
        let p = &job.program;
        let shards: BTreeSet<Option<&usize>> = p
            .read_relations()
            .iter()
            .chain(&p.touched_relations())
            .map(|r| store.assignment().get(r))
            .collect();
        let lane = if shards.len() > 1 {
            nproc - 1
        } else {
            i % (nproc - 1)
        };
        lanes[lane].push(i);
    }
    lanes
}

/// The network open loop over the raw framed protocol, so sending and
/// receiving proceed independently: this thread writes `Submit` frames
/// when due; a reader thread acknowledges each `Outcome` as it arrives.
fn open_loop_net(
    addr: SocketAddr,
    jobs: &[Job],
    rate: f64,
    epoch: Instant,
    acks: &Arc<Acks>,
    tally: &Arc<SharedTally>,
) -> Result<Schedule, String> {
    let io = |e: std::io::Error| format!("open-loop connection: {e}");
    let net = |e: vpdt_net::NetError| format!("open-loop connection: {e}");
    let stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    let mut read_half = stream.try_clone().map_err(io)?;
    let mut out = BufWriter::new(stream);
    let mut frames = FrameReader::new();
    send(
        &mut out,
        &Request::Hello {
            version: PROTOCOL_VERSION,
            client: "perfbench-open-loop".into(),
        },
    )
    .map_err(net)?;
    match Response::decode(&frames.next_frame(&mut read_half).map_err(net)?) {
        Ok(Response::Welcome { .. }) => {}
        other => return Err(format!("open-loop handshake answered {other:?}")),
    }
    let n = jobs.len();
    let reader = {
        let (acks, tally) = (Arc::clone(acks), Arc::clone(tally));
        std::thread::spawn(move || -> Result<(), String> {
            for _ in 0..n {
                let frame = frames.next_frame(&mut read_half).map_err(net)?;
                match Response::decode(&frame) {
                    Ok(Response::Outcome {
                        request_id,
                        outcome,
                        ..
                    }) => {
                        tally.count(Resolved::of_wire(&outcome));
                        acks.ack(request_id as usize);
                    }
                    Ok(Response::Error { request_id, .. }) if request_id < n as u64 => {
                        tally.count(Resolved::Failed);
                        acks.ack(request_id as usize);
                    }
                    other => return Err(format!("open loop: unexpected response {other:?}")),
                }
            }
            Ok(())
        })
    };
    let mut sent = Ok(());
    let schedule = loadgen::run(epoch, rate, 0..n, |i| {
        if sent.is_ok() {
            sent = send(
                &mut out,
                &Request::Submit {
                    request_id: i as u64,
                    program: jobs[i].program.clone(),
                },
            );
        }
    });
    sent.map_err(net)?;
    reader
        .join()
        .map_err(|_| "open-loop reader panicked".to_string())??;
    send(&mut out, &Request::Goodbye).map_err(net)?;
    Ok(schedule)
}

fn send(out: &mut BufWriter<TcpStream>, req: &Request) -> Result<(), vpdt_net::NetError> {
    let mut payload = Vec::new();
    req.encode(&mut payload);
    write_frame(out, &payload)?;
    out.flush().map_err(vpdt_net::NetError::io)
}

/// What shutting a store down left to check and measure.
pub struct Finished {
    /// The serving window's registry delta (store, shards, coordinator).
    pub serving: MetricsSnapshot,
    /// Summed group-commit flush counters (durable stores).
    pub flush: Option<vpdt_store::FlushStats>,
    /// Per shard: (version, root hash) before the crash-shaped exit.
    pub reported: Vec<(u64, u64)>,
}

/// Stops the store and checks it: α holds on every final state (per
/// shard); the store's own outcome counters equal the client's tally; an
/// in-memory store's version equals its commit count. A durable store is
/// dropped without a clean shutdown — the crash-shaped exit — so its log
/// is what recovery and the cold audit replay.
pub fn finish(
    live: Live,
    spec: &Spec,
    tally: &Tally,
    before: &MetricsSnapshot,
) -> Result<Finished, String> {
    tally.check_resolved("client")?;
    let alpha = spec.alpha();
    let omega = Omega::empty();
    let holds = |db: &Database, a: &Formula, what: &str| -> Result<(), String> {
        match vpdt_eval::holds(db, &omega, a) {
            Ok(true) => Ok(()),
            Ok(false) => Err(format!("α does not hold on the final state of {what}")),
            Err(e) => Err(format!("α does not evaluate on {what}: {e}")),
        }
    };
    let check_counts = |snap: &MetricsSnapshot, single: &Tally| -> Result<(), String> {
        let got = (
            snap.counter(names::TX_COMMITTED),
            snap.counter(names::TX_ABORTED),
            snap.counter(names::TX_FAILED),
        );
        let want = (single.committed, single.aborted, single.failed);
        if got != want {
            return Err(format!(
                "store counted (committed, aborted, failed) = {got:?}, clients saw {want:?}"
            ));
        }
        Ok(())
    };
    match live {
        Live::Session(server) => {
            let snap = server.snapshot();
            holds(&snap.db, &alpha, "the store")?;
            if snap.version != tally.committed {
                return Err(format!(
                    "final version {} != {} commits",
                    snap.version, tally.committed
                ));
            }
            let serving = server.metrics().delta(before);
            check_counts(&serving, tally)?;
            let flush = server.flush_stats();
            let reported = vec![(snap.version, root_hash(&snap.db))];
            drop(server);
            Ok(Finished {
                serving,
                flush,
                reported,
            })
        }
        Live::Net {
            handle, serving, ..
        } => {
            handle.stop();
            let report = serving
                .join()
                .map_err(|_| "the net server thread panicked".to_string())?;
            holds(&report.final_db, &alpha, "the store")?;
            if report.final_version != tally.committed {
                return Err(format!(
                    "final version {} != {} commits",
                    report.final_version, tally.committed
                ));
            }
            let serving = report.metrics.delta(before);
            check_counts(&serving, tally)?;
            let reported = vec![(report.final_version, root_hash(&report.final_db))];
            Ok(Finished {
                serving,
                flush: report.flush,
                reported,
            })
        }
        Live::Sharded(store) => {
            let mut reported = Vec::new();
            let mut flush = vpdt_store::FlushStats::default();
            for i in 0..store.num_shards() {
                let shard = store.shard(i);
                let snap = shard.snapshot();
                holds(&snap.db, shard.alpha(), &format!("shard {i}"))?;
                reported.push((snap.version, root_hash(&snap.db)));
                if let Some(f) = shard.flush_stats() {
                    flush.fsyncs += f.fsyncs;
                    flush.flushed_commits += f.flushed_commits;
                    flush.flush_failures += f.flush_failures;
                    for (k, v) in f.batch_sizes {
                        *flush.batch_sizes.entry(k).or_default() += v;
                    }
                }
            }
            let serving = registry(&store).delta(before);
            let single = Tally {
                committed: tally.committed - tally.cross_committed,
                aborted: tally.aborted - (tally.cross - tally.cross_committed),
                failed: tally.failed,
                ..Tally::default()
            };
            check_counts(&serving, &single)?;
            let cross = (
                serving.counter(names::CROSS_COMMITTED),
                serving.counter(names::CROSS_ABORTED),
            );
            if cross != (tally.cross_committed, tally.cross - tally.cross_committed) {
                return Err(format!(
                    "coordinator counted (committed, aborted) = {cross:?}, clients saw {:?}",
                    (tally.cross_committed, tally.cross - tally.cross_committed)
                ));
            }
            drop(store);
            Ok(Finished {
                serving,
                flush: spec.durable.then_some(flush),
                reported,
            })
        }
    }
}

/// Stops a store that served nothing.
pub fn stop(live: Live) -> Result<(), String> {
    match live {
        Live::Session(server) => drop(server),
        Live::Net {
            handle, serving, ..
        } => {
            handle.stop();
            serving
                .join()
                .map_err(|_| "the net server thread panicked".to_string())?;
        }
        Live::Sharded(store) => drop(store),
    }
    Ok(())
}

/// Bytes of every file under `dir` (WAL segments, checkpoints, the
/// decision log).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// Timed cold audit of a stopped durable store's log, from genesis:
/// `wal::recover` + `cold_audit_from` (what `vpdtool audit` runs), or
/// `cold_audit_sharded`. Returns (seconds, commits replayed); any problem
/// fails the run.
pub fn cold_audit(spec: &Spec, dir: &Path, rec: Option<&Recorder>) -> Result<(f64, u64), String> {
    let omega = Omega::empty();
    let t0 = Instant::now();
    let (problems, commits) = timed(rec, "store.audit.cold_audit", 0, 0, || match spec.front {
        Front::Sharded(_) => vpdt_store::cold_audit_sharded(dir, &omega).map(|r| {
            let commits = r.shards.iter().map(|s| s.commits_checked).sum::<usize>();
            let mut problems = r.problems;
            for s in r.shards {
                problems.extend(s.problems);
            }
            (problems, commits)
        }),
        _ => vpdt_store::wal::recover(dir, &omega, Default::default())
            .map(|r| {
                let a = vpdt_store::cold_audit_from(
                    &r.alpha,
                    &omega,
                    r.base_version,
                    &r.initial,
                    &r.db,
                    &r.events,
                    &r.templates,
                );
                (a.problems, a.commits_checked)
            })
            .map_err(vpdt_store::StoreError::Recovery),
    })
    .map_err(|e| format!("cold audit: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    if !problems.is_empty() {
        return Err(format!(
            "cold audit found {} problem(s), first: {}",
            problems.len(),
            problems[0]
        ));
    }
    Ok((secs, commits as u64))
}

/// Timed recovery of a durable store's directory until it serves, then
/// the check that it recovered the exact reported versions and root
/// hashes. Returns (seconds, history events recovered).
pub fn recover(
    spec: &Spec,
    dir: &Path,
    fin: &Finished,
    nproc: usize,
    rec: Option<&Recorder>,
) -> Result<(f64, u64), String> {
    let t0 = Instant::now();
    let states: Vec<(u64, u64, u64)> = match spec.front {
        Front::Sharded(shards) => {
            let store = timed(rec, "store.wal.recover", 0, 0, || {
                ShardedBuilder::recover(dir)
                    .workers_per_shard((nproc / shards).max(1))
                    .build()
            })
            .map_err(|e| format!("sharded recovery: {e}"))?;
            (0..store.num_shards())
                .map(|i| {
                    let s = store.shard(i);
                    let snap = s.snapshot();
                    (
                        snap.version,
                        root_hash(&snap.db),
                        s.history_events().len() as u64,
                    )
                })
                .collect()
        }
        _ => {
            let server = timed(rec, "store.wal.recover", 0, 0, || {
                StoreBuilder::recover(dir)
                    .workers(nproc)
                    .trace_capacity(0)
                    .build()
            })
            .map_err(|e| format!("recovery: {e}"))?;
            let snap = server.snapshot();
            vec![(
                snap.version,
                root_hash(&snap.db),
                server.history_events().len() as u64,
            )]
        }
    };
    let secs = t0.elapsed().as_secs_f64();
    let got: Vec<(u64, u64)> = states.iter().map(|s| (s.0, s.1)).collect();
    if got != fin.reported {
        return Err(format!(
            "recovered (version, root hash) per shard {got:?}, reported {:?}",
            fin.reported
        ));
    }
    Ok((secs, states.iter().map(|s| s.2).sum()))
}

/// A fresh directory for one durable store.
pub fn store_dir(work: &Path, tag: &str) -> Result<PathBuf, String> {
    let dir = work.join(tag);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    Ok(dir)
}

/// Distinct statement shapes of `jobs`, one program each.
pub fn shapes(jobs: &[&[Job]]) -> Result<Vec<Program>, String> {
    let mut seen = BTreeMap::new();
    for job in jobs.iter().flat_map(|j| j.iter()) {
        let (template, _) = vpdt_tx::template::canonicalize(&job.program)
            .map_err(|e| format!("canonicalize: {e}"))?;
        seen.entry(template.key())
            .or_insert_with(|| job.program.clone());
    }
    Ok(seen.into_values().collect())
}
