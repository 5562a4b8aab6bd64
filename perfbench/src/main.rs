//! `perfbench` — the store's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) records spans around every call it makes into the
//! store, replays the job stream through each layer, and prints the
//! per-layer metrics. The last line of standard output is one JSON object
//! with every metric; any failed correctness check exits non-zero before
//! it. See `perfbench/README.md`.

mod drive;
mod loadgen;
mod metrics;
mod record;
mod replay;
mod spans;
mod stats;

use drive::{Env, Finished, Front, Mix, Spec, Tally};
use metrics::{Values, END_TO_END, PER_LAYER};
use spans::Recorder;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use vpdt_store::metrics::names;
use vpdt_store::{workload, Job, MetricsSnapshot};

/// The five workloads (`BENCHMARK.json` lists two of them; see the
/// README). `lat_rate` is at most about a quarter of the saturated
/// transaction rate on the recorded machine (2 cores): at half, the
/// open-loop tail moved from run to run.
fn specs() -> Vec<Spec> {
    vec![
        Spec {
            name: "fd8-group",
            rels: 8,
            universe: 6,
            density: 0.5,
            mix: Mix::Menu,
            front: Front::Session,
            durable: true,
            pass_jobs: 4_000,
            shared_store: false,
            lat_rate: 5_000.0,
        },
        Spec {
            name: "fd8-mem",
            rels: 8,
            universe: 6,
            density: 0.5,
            mix: Mix::Menu,
            front: Front::Session,
            durable: false,
            pass_jobs: 40_000,
            shared_store: false,
            lat_rate: 10_000.0,
        },
        Spec {
            name: "wide32-mem",
            rels: 32,
            universe: 96,
            density: 0.85,
            mix: Mix::Scaled,
            front: Front::Session,
            durable: false,
            pass_jobs: 20_000,
            shared_store: true,
            lat_rate: 4_000.0,
        },
        Spec {
            name: "fd8-net",
            rels: 8,
            universe: 6,
            density: 0.5,
            mix: Mix::Menu,
            front: Front::Net,
            durable: false,
            pass_jobs: 40_000,
            shared_store: false,
            lat_rate: 10_000.0,
        },
        Spec {
            name: "shard4-cross",
            rels: 4,
            universe: 6,
            density: 0.5,
            mix: Mix::Cross(0.05),
            front: Front::Sharded(4),
            durable: true,
            pass_jobs: 750,
            shared_store: true,
            lat_rate: 200.0,
        },
    ]
}

/// Closed-loop passes a run makes at least.
const MIN_PASSES: usize = 3;
/// Share of `--seconds` the open-loop phase gets; the closed loop gets
/// the rest.
const LAT_SHARE: f64 = 0.5;
/// Segments a run's open loop is split into. They run between
/// closed-loop passes, spread over the closed loop's budget, so both
/// phases sample the whole run and a slow spell of the shared host lands
/// on both figures rather than on one.
const ROUNDS: usize = 4;
/// Distinct job streams the passes cycle through, at least.
const STREAMS: usize = 8;
/// Jobs across the distinct streams, at least: on `shard4-cross` each
/// 750-job stream carries 37 ± 6 cross-shard transactions, which set the
/// pass's rate, so a run that cycled through 8 streams repeated one
/// seed-dependent count; 32 streams cover a run without repeats.
const STREAM_JOBS: usize = 24_000;
/// Open-loop requests per run, at least: p99 needs ten samples beyond it.
const MIN_LAT_SAMPLES: usize = 1_200;
/// Windows the open-loop samples are split into: `ack_p50_us` is the
/// lower quartile of their p50s, the printed p99 the median of their p99s.
const LAT_WINDOWS: usize = 20;
/// Jobs of the first pass the layer replay feeds through each layer.
const REPLAY_JOBS: usize = 4_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let usage = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";
    let seconds = seconds.ok_or(usage)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    Ok(Args {
        workload: workload.ok_or(usage)?,
        seed: seed.ok_or(usage)?,
        seconds,
        trace: trace.ok_or(usage)?,
    })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        let spec = specs()
            .into_iter()
            .find(|s| s.name == args.workload)
            .ok_or_else(|| format!("unknown workload {}", args.workload))?;
        let work = Work::create(&args.workload)?;
        run(&spec, &args, &work)
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The run's own directory for store logs, under `.perfbench/` in the
/// working directory; removed when the run ends, whatever the outcome.
struct Work {
    dir: PathBuf,
}

impl Work {
    fn create(workload: &str) -> Result<Self, String> {
        let dir = Path::new(".perfbench").join(format!("run-{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let dir = dir
            .canonicalize()
            .map_err(|e| format!("resolving {}: {e}", dir.display()))?;
        Ok(Work { dir })
    }
}

impl Drop for Work {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Inputs of one run, all generated from the seed before any timing.
struct Inputs {
    passes: Vec<Vec<Job>>,
    lat: Vec<Job>,
    shapes: Vec<vpdt_tx::program::Program>,
}

fn inputs(spec: &Spec, seed: u64, nproc: usize, lat_secs: f64) -> Result<Inputs, String> {
    let per_client = spec.pass_jobs.div_ceil(nproc);
    let streams = STREAMS.max(STREAM_JOBS.div_ceil(spec.pass_jobs));
    let passes: Vec<Vec<Job>> = (0..streams)
        .map(|p| spec.jobs(workload::client_seed(seed, 1 + p as u64), nproc, per_client))
        .collect();
    let n_lat = ((spec.lat_rate * lat_secs) as usize).max(MIN_LAT_SAMPLES);
    let lat = spec.jobs(workload::client_seed(seed, 0), 1, n_lat);
    let mut all: Vec<&[Job]> = passes.iter().map(|p| p.as_slice()).collect();
    all.push(&lat);
    let shapes = drive::shapes(&all)?;
    eprintln!("inputs: {} shapes", shapes.len());
    Ok(Inputs {
        passes,
        lat,
        shapes,
    })
}

/// One store's share of the closed-loop phase: its set-up, the passes it
/// served, the checks at its end, and — for the first durable store of a
/// phase — the timed cold audit and recovery of the log it left.
struct Served {
    setup_s: f64,
    /// (outcomes, seconds) per pass.
    passes: Vec<(Tally, f64)>,
    /// Outcomes of the open-loop segments that ran on this store.
    lat: Tally,
    fin: Finished,
    audit: Option<(f64, u64)>,
    recovery: Option<(f64, u64)>,
    log_bytes: u64,
    /// The process's peak resident set once this store was done, MiB.
    peak_mb: f64,
}

impl Served {
    /// The closed-loop passes' outcomes.
    fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for (p, _) in &self.passes {
            t.add(p);
        }
        t
    }

    /// Commits in this store's log: its passes' and open-loop segments'.
    fn commits(&self) -> u64 {
        self.tally().committed + self.lat.committed
    }
}

/// When a closed-loop phase stops: once its passes have served `budget`
/// seconds (or the phase has spent twice that on the wall clock, open-loop
/// segments left out), with at least [`MIN_PASSES`] passes made and no
/// open-loop segment left.
struct Stop {
    t0: Instant,
    budget: f64,
}

impl Stop {
    fn reached(&self, passes: usize, served: f64, lat: Option<&LatRounds<'_>>) -> bool {
        let wall = self.t0.elapsed().as_secs_f64() - lat.map_or(0.0, |l| l.spent_s);
        passes >= MIN_PASSES
            && !lat.is_some_and(LatRounds::pending)
            && (served >= self.budget || wall >= 2.0 * self.budget)
    }
}

/// Sets up a fresh store and serves closed-loop passes on it, starting at
/// job stream `first` with `served` seconds already served in the phase:
/// one pass, or — on workloads whose stores serve every pass — passes
/// until the phase stops. The open-loop segments that fall due run after
/// the pass that makes them due.
fn serve(
    spec: &Spec,
    env: &Env<'_>,
    work: &Work,
    inputs: &Inputs,
    (first, served, tag): (usize, f64, &str),
    stop: &Stop,
    mut lat: Option<&mut LatRounds<'_>>,
) -> Result<Served, String> {
    let dir = spec
        .durable
        .then(|| drive::store_dir(&work.dir, tag))
        .transpose()?;
    let (live, setup_s) = drive::setup(spec, env, dir.as_deref())?;
    eprintln!("{tag}: set up in {setup_s:.3}s");
    let before = drive::before(&live);
    let mut passes = Vec::new();
    let mut lat_here = Tally::default();
    loop {
        let jobs = &inputs.passes[(first + passes.len()) % inputs.passes.len()];
        let (tally, secs) = drive::closed_loop(&live, jobs, env)?;
        eprintln!("{tag}: {} commits in {secs:.3}s", tally.committed);
        passes.push((tally, secs));
        let served = served + passes.iter().map(|p| p.1).sum::<f64>();
        if let Some(l) = lat.as_deref_mut() {
            lat_here.add(&l.run_due(&live, served)?);
        }
        if !spec.shared_store || stop.reached(first + passes.len(), served, lat.as_deref()) {
            break;
        }
    }
    let mut total = lat_here;
    for (t, _) in &passes {
        total.add(t);
    }
    let fin = drive::finish(live, spec, &total, &before)?;
    let rec = env.rec.map(|r| &**r);
    let mut out = Served {
        setup_s,
        passes,
        lat: lat_here,
        audit: None,
        recovery: None,
        log_bytes: dir.as_deref().map_or(0, drive::dir_bytes),
        fin,
        peak_mb: 0.0,
    };
    // The phase's first store is the one whose log is audited and recovered.
    if let Some(dir) = dir {
        if first == 0 {
            out.audit = Some(drive::cold_audit(spec, &dir, rec)?);
            out.recovery = Some(drive::recover(spec, &dir, &out.fin, env.nproc, rec)?);
        }
        std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    }
    out.peak_mb = record::peak_rss_mb()?;
    Ok(out)
}

/// The closed-loop phase: passes until it stops (see [`Stop`]), with the
/// open loop's segments, if given, in between. Each pass gets a fresh
/// store, except on workloads whose stores share one across passes.
fn sat_phase(
    spec: &Spec,
    env: &Env<'_>,
    work: &Work,
    inputs: &Inputs,
    (budget, tag): (f64, &str),
    mut lat: Option<&mut LatRounds<'_>>,
) -> Result<Vec<Served>, String> {
    let stop = Stop {
        t0: Instant::now(),
        budget,
    };
    let mut stores: Vec<Served> = Vec::new();
    let mut served = 0.0;
    let mut done = 0;
    while !stop.reached(done, served, lat.as_deref()) {
        let store = serve(
            spec,
            env,
            work,
            inputs,
            (done, served, &format!("{tag}-{}", stores.len())),
            &stop,
            lat.as_deref_mut(),
        )?;
        done += store.passes.len();
        served += store.passes.iter().map(|p| p.1).sum::<f64>();
        stores.push(store);
    }
    Ok(stores)
}

/// A run's open loop, in [`ROUNDS`] segments: segment `k` runs
/// once the closed loop has served `(k + 1/2) / ROUNDS` of its budget. On
/// workloads whose stores serve every closed-loop pass the segments run
/// on that store; otherwise on a store of their own, set up before the
/// closed loop starts and stopped after it ends.
struct LatRounds<'a> {
    spec: &'a Spec,
    nproc: usize,
    budget: f64,
    segments: Vec<&'a [Job]>,
    done: Vec<drive::OpenLoop>,
    /// Wall-clock seconds the segments took.
    spent_s: f64,
    own: Option<OwnStore>,
}

/// The open loop's own store: live, its registry after set-up, its log
/// directory, its set-up seconds, and the outcomes it served.
struct OwnStore {
    live: drive::Live,
    before: MetricsSnapshot,
    dir: Option<PathBuf>,
    setup_s: f64,
    tally: Tally,
}

impl<'a> LatRounds<'a> {
    fn new(
        spec: &'a Spec,
        env: &Env<'_>,
        work: &Work,
        jobs: &'a [Job],
        budget: f64,
    ) -> Result<Self, String> {
        let own = if spec.shared_store {
            None
        } else {
            let dir = spec
                .durable
                .then(|| drive::store_dir(&work.dir, "lat"))
                .transpose()?;
            let (live, setup_s) = drive::setup(spec, env, dir.as_deref())?;
            Some(OwnStore {
                before: drive::before(&live),
                live,
                dir,
                setup_s,
                tally: Tally::default(),
            })
        };
        Ok(LatRounds {
            spec,
            nproc: env.nproc,
            budget,
            segments: jobs.chunks(jobs.len().div_ceil(ROUNDS)).collect(),
            done: Vec::new(),
            spent_s: 0.0,
            own,
        })
    }

    fn pending(&self) -> bool {
        self.done.len() < self.segments.len()
    }

    /// Runs every segment due once the closed loop has served `served`
    /// seconds, on `live` unless the open loop has a store of its own.
    /// Returns the outcomes that landed on `live`.
    fn run_due(&mut self, live: &drive::Live, served: f64) -> Result<Tally, String> {
        let mut on_live = Tally::default();
        while self.pending()
            && served >= self.budget * (self.done.len() as f64 + 0.5) / ROUNDS as f64
        {
            let t0 = Instant::now();
            let jobs = self.segments[self.done.len()];
            let target = self.own.as_ref().map_or(live, |o| &o.live);
            let seg = drive::open_loop(target, jobs, self.spec.lat_rate, self.nproc)?;
            match &mut self.own {
                Some(o) => o.tally.add(&seg.tally),
                None => on_live.add(&seg.tally),
            }
            self.done.push(seg);
            self.spent_s += t0.elapsed().as_secs_f64();
        }
        Ok(on_live)
    }

    /// Stops and checks the own store, if any. Returns the whole open
    /// loop and the own store's set-up seconds and shut-down readings.
    fn finish(self) -> Result<(drive::OpenLoop, Option<(f64, Finished)>), String> {
        if self.pending() {
            return Err("the closed loop ended with open-loop segments left".into());
        }
        let own = match self.own {
            Some(o) => {
                let fin = drive::finish(o.live, self.spec, &o.tally, &o.before)?;
                if let Some(dir) = o.dir {
                    std::fs::remove_dir_all(&dir)
                        .map_err(|e| format!("removing {}: {e}", dir.display()))?;
                }
                Some((o.setup_s, fin))
            }
            None => None,
        };
        Ok((drive::OpenLoop::join(self.done), own))
    }
}

/// Set-up samples a run takes at least: the phases' own stores, then
/// stores that are set up and shut down again.
const MIN_SETUPS: usize = 3;

/// A set-up-only sample: the store is dropped as soon as it serves.
fn setup_only(spec: &Spec, env: &Env<'_>, work: &Work, tag: &str) -> Result<f64, String> {
    let dir = spec
        .durable
        .then(|| drive::store_dir(&work.dir, tag))
        .transpose()?;
    let (live, setup_s) = drive::setup(spec, env, dir.as_deref())?;
    drive::stop(live)?;
    if let Some(dir) = dir {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    }
    Ok(setup_s)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run(spec: &Spec, args: &Args, work: &Work) -> Result<String, String> {
    let nproc = nproc();
    let record = record::Record::take(spec, args.seed, nproc, args.trace, &work.dir);
    println!("record {}", record.json());
    if args.trace {
        traced(spec, args, work, nproc, &record)
    } else {
        untraced(spec, args, work, nproc)
    }
}

/// Commits per second over every pass of a phase: all the passes'
/// commits over their serving seconds (set-ups and checks excluded).
fn commit_rate(stores: &[Served]) -> f64 {
    let passes = stores.iter().flat_map(|s| &s.passes);
    let (commits, secs) = passes.fold((0, 0.0), |(c, t), (p, s)| (c + p.committed, t + s));
    stats::ratio(commits as f64, secs)
}

fn untraced(spec: &Spec, args: &Args, work: &Work, nproc: usize) -> Result<String, String> {
    let lat_secs = args.seconds * LAT_SHARE;
    let inputs = inputs(spec, args.seed, nproc, lat_secs)?;
    // The inputs stay resident for the whole run; the peak is measured
    // from here, so it is what the stores (and the clients) added.
    let baseline_mb = record::reset_peak_rss()?;
    let env = Env {
        nproc,
        seed: args.seed,
        shapes: &inputs.shapes,
        rec: None,
    };
    let budget = args.seconds - lat_secs;
    let mut rounds = LatRounds::new(spec, &env, work, &inputs.lat, budget)?;
    let sat = sat_phase(
        spec,
        &env,
        work,
        &inputs,
        (budget, "sat"),
        Some(&mut rounds),
    )?;
    let (lat, own) = rounds.finish()?;
    let mut setups: Vec<f64> = sat.iter().map(|s| s.setup_s).collect();
    setups.extend(own.map(|o| o.0));
    while setups.len() < MIN_SETUPS {
        setups.push(setup_only(
            spec,
            &env,
            work,
            &format!("setup-{}", setups.len()),
        )?);
    }
    let acks = &lat.ack_us;
    let (p50s, p99s) = stats::windowed_p50_p99("ack", acks, LAT_WINDOWS)?;
    let p50 = stats::lower_quartile(&p50s);
    for (q, windows, figure, of) in [
        ("p50", &p50s, p50, "lower quartile"),
        ("p99", &p99s, stats::median(&p99s), "median"),
    ] {
        let shown: Vec<String> = windows.iter().map(|p| format!("{p:.0}")).collect();
        println!(
            "ack {q} {figure:.1} us ({of} of windows: {})",
            shown.join(" ")
        );
    }

    let mut total = lat.tally;
    for s in &sat {
        total.add(&s.tally());
    }
    describe(spec, args.seed, &sat, &lat, &total, acks.len());

    let mut v = Values::new(END_TO_END);
    v.put("commits_per_s", commit_rate(&sat));
    v.put("ack_p50_us", p50);
    v.put("setup_s", stats::median(&setups));
    // Up to the end of the first closed-loop store, a fixed amount of work:
    // the open loop's store (or its segments on this one), then one
    // store's passes and durable checks. Later fresh stores repeat that
    // work, and each new generation of threads
    // only adds allocator arenas (+15 MiB a store on `fd8-net`, for as
    // many stores as the run's speed fits in).
    v.put("peak_rss_mb", sat[0].peak_mb - baseline_mb);
    let done = v.complete()?;
    metrics::print(&done);
    Ok(metrics::result_line(total.attempted, total.failed, &done))
}

/// Human-readable lines: the workload's defining properties, the sample
/// behind each latency, and what the durable checks measured.
fn describe(
    spec: &Spec,
    seed: u64,
    sat: &[Served],
    lat: &drive::OpenLoop,
    total: &Tally,
    samples: usize,
) {
    let resolved = (total.committed + total.aborted).max(1) as f64;
    let passes: usize = sat.iter().map(|s| s.passes.len()).sum();
    println!(
        "workload {}: {passes} passes x {} jobs on {} stores + {} open-loop; guard-abort share \
         {:.4}; cross share {:.4} ({} cross commits); failed {} of {} attempted (failed_frac {})",
        spec.name,
        spec.pass_jobs,
        sat.len(),
        lat.tally.attempted,
        (total.aborted - (total.cross - total.cross_committed)) as f64 / resolved,
        stats::ratio(total.cross as f64, total.attempted as f64),
        total.cross_committed,
        total.failed,
        total.attempted,
        stats::ratio(total.failed as f64, total.attempted as f64),
    );
    println!(
        "initial state: {} resident tuples",
        spec.initial(seed).total_tuples()
    );
    let mut late = lat.late_us.clone();
    stats::sort(&mut late);
    println!(
        "ack samples: {samples} in {ROUNDS} segments (highest supported percentile p{}), \
         offered {:.1}/s at a target of {}/s, generator late p99 {:.1} us",
        stats::supported_percentile(samples).map_or(0.0, |p| p * 100.0),
        lat.offered_per_s,
        spec.lat_rate,
        stats::quantile(&late, 0.99).unwrap_or(0.0),
    );
    let first = &sat[0];
    if let (Some(audit), Some(recovery)) = (first.audit, first.recovery) {
        let commits = first.commits();
        println!(
            "durable: the first store's log ({commits} commits) recovered exactly in {:.3}s and \
             passed the cold audit in {:.3}s; {:.1} log bytes per commit",
            recovery.0,
            audit.0,
            first.log_bytes as f64 / commits.max(1) as f64
        );
    }
}

fn hist_q(snap: &MetricsSnapshot, name: &str, q: f64) -> f64 {
    snap.histogram(name)
        .and_then(|h| h.quantile(q))
        .unwrap_or(0.0)
}

fn hist_mean(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.histogram(name).and_then(|h| h.mean()).unwrap_or(0.0)
}

fn span_q(spans: &[spans::Span], name: &str, q: f64) -> f64 {
    let mut d = spans::durations_us(spans, name);
    stats::sort(&mut d);
    stats::quantile(&d, q).unwrap_or(0.0)
}

fn traced(
    spec: &Spec,
    args: &Args,
    work: &Work,
    nproc: usize,
    record: &record::Record,
) -> Result<String, String> {
    let lat_secs = args.seconds * LAT_SHARE;
    let inputs = inputs(spec, args.seed, nproc, lat_secs)?;
    let rec = Arc::new(Recorder::new());
    let plain = Env {
        nproc,
        seed: args.seed,
        shapes: &inputs.shapes,
        rec: None,
    };
    let traced_env = Env {
        rec: Some(&rec),
        ..plain
    };
    // An untraced and a traced closed-loop phase over the same job
    // streams: their rate difference is the recorder's overhead. The
    // untraced open loop runs between the untraced passes.
    let budget = (args.seconds - lat_secs) / 2.0;
    let mut rounds = LatRounds::new(spec, &plain, work, &inputs.lat, budget)?;
    let plain_sat = sat_phase(
        spec,
        &plain,
        work,
        &inputs,
        (budget, "plain"),
        Some(&mut rounds),
    )?;
    let (lat, own) = rounds.finish()?;
    let traced_sat = sat_phase(spec, &traced_env, work, &inputs, (budget, "traced"), None)?;
    let replay_jobs = &inputs.passes[0][..REPLAY_JOBS.min(inputs.passes[0].len())];
    let replayed = replay::replay(spec, args.seed, &inputs.shapes, replay_jobs, &rec)?;

    let spans = rec.take();
    let span_path =
        Path::new(".perfbench").join(format!("spans-{}-seed{}.jsonl", spec.name, args.seed));
    write_spans(&span_path, record, &spans)?;
    let layers = spans::by_name(&spans);

    let (plain_cps, traced_cps) = (commit_rate(&plain_sat), commit_rate(&traced_sat));
    let first = &traced_sat[0];
    let mut serving = MetricsSnapshot::default();
    let mut tally = Tally::default();
    for s in &traced_sat {
        drive::merge(&mut serving, &s.fin.serving);
        tally.add(&s.tally());
    }
    let commits = tally.committed.max(1) as f64;
    let single_commits = (tally.committed - tally.cross_committed).max(1) as f64;

    let mut v = Values::new(PER_LAYER);
    v.put(
        "tx.template.canonicalize_p50_us",
        span_q(&spans, "tx.template.canonicalize", 0.5),
    );
    v.put(
        "store.guard.prepare_p50_us",
        span_q(&spans, "store.guard.get_or_compile", 0.5),
    );
    v.put(
        "store.guard.prepare_p99_us",
        span_q(&spans, "store.guard.get_or_compile", 0.99),
    );
    let (hits, misses) = (
        serving.counter(names::GUARD_CACHE_HITS) as f64,
        serving.counter(names::GUARD_CACHE_MISSES) as f64,
    );
    v.put("store.guard.hit_ratio", stats::ratio(hits, hits + misses));
    let prepare = match spec.front {
        Front::Sharded(_) => "store.shard.prepare",
        _ => "store.server.prepare",
    };
    v.put(
        "store.guard.compile_ms_per_shape",
        layers.get(prepare).map_or(0.0, |l| l.mean_us / 1e3),
    );
    v.put("eval.guard_p50_us", span_q(&spans, "eval.holds", 0.5));
    v.put("eval.guard_p99_us", span_q(&spans, "eval.holds", 0.99));
    v.put(
        "eval.guard_pass_ratio",
        stats::ratio(replayed.passed as f64, replayed.guards as f64),
    );
    v.put(
        "tx.program.run_p50_us",
        span_q(&spans, "tx.program.run", 0.5),
    );
    v.put(
        "tx.program.run_p99_us",
        span_q(&spans, "tx.program.run", 0.99),
    );
    v.put(
        "store.snapshot.publish_p50_us",
        span_q(&spans, "store.snapshot.try_commit", 0.5),
    );
    v.put(
        "store.snapshot.publish_lock_p99_us",
        hist_q(&serving, names::STAGE_PUBLISH_LOCK, 0.99),
    );
    v.put(
        "store.snapshot.conflicts_per_commit",
        serving.counter(names::TX_CONFLICTS) as f64 / single_commits,
    );
    v.put(
        "store.wal.encode_p50_us",
        span_q(&spans, "store.wal.encode_event", 0.5),
    );
    let mut bytes = replayed.record_bytes.clone();
    stats::sort(&mut bytes);
    v.put(
        "store.wal.record_bytes_p50",
        stats::quantile(&bytes, 0.5).unwrap_or(0.0),
    );
    let flush = traced_sat.iter().filter_map(|s| s.fin.flush.as_ref());
    let (mut fsyncs, mut batches) = (0u64, Vec::new());
    for f in flush {
        fsyncs += f.fsyncs;
        for (size, n) in &f.batch_sizes {
            batches.extend(std::iter::repeat_n(*size as f64, *n as usize));
        }
    }
    stats::sort(&mut batches);
    v.put("store.wal.fsyncs_per_commit", fsyncs as f64 / commits);
    v.put(
        "store.wal.batch_p50",
        stats::quantile(&batches, 0.5).unwrap_or(0.0),
    );
    v.put(
        "store.wal.publish_to_durable_p50_us",
        hist_q(&serving, names::STAGE_PUBLISH_TO_DURABLE, 0.5),
    );
    v.put(
        "store.wal.publish_to_durable_p99_us",
        hist_q(&serving, names::STAGE_PUBLISH_TO_DURABLE, 0.99),
    );
    let (rec_s, rec_events) = first.recovery.unwrap_or((0.0, 0));
    v.put(
        "store.wal.recover_events_per_s",
        stats::ratio(rec_events as f64, rec_s),
    );
    v.put("store.wal.recovery_s", rec_s);
    v.put(
        "store.wal.log_bytes_per_commit",
        first.log_bytes as f64 / first.commits().max(1) as f64,
    );
    let submit = match spec.front {
        Front::Session => "store.server.submit",
        Front::Net => "net.client.submit",
        Front::Sharded(_) => "store.shard.submit",
    };
    v.put("store.server.submit_p50_us", span_q(&spans, submit, 0.5));
    v.put(
        "store.server.queue_wait_p50_us",
        hist_q(&serving, names::STAGE_QUEUE_WAIT, 0.5),
    );
    v.put(
        "store.server.queue_wait_p99_us",
        hist_q(&serving, names::STAGE_QUEUE_WAIT, 0.99),
    );
    v.put(
        "store.server.tx_total_p50_us",
        hist_q(&serving, names::TX_TOTAL, 0.5),
    );

    // The attribution gap: what the layers, the queue and the durable
    // wait account for of the mean client ack, per transaction.
    let replayed_tx = replay_jobs.len().max(1) as f64;
    let layer_sum: f64 = replay::worker_layers(spec)
        .iter()
        .filter_map(|n| layers.get(n))
        .map(|l| l.self_mean_us * l.count as f64 / replayed_tx)
        .sum();
    let submit_mean = layers.get(submit).map_or(0.0, |l| l.self_mean_us);
    let queue = hist_mean(&serving, names::STAGE_QUEUE_WAIT);
    let durable = hist_mean(&serving, names::STAGE_PUBLISH_TO_DURABLE);
    let ack_mean = layers.get("client.ack").map_or(0.0, |l| l.mean_us);
    let attributed = submit_mean + layer_sum + queue + durable;
    v.put(
        "store.server.unattributed_frac",
        1.0 - stats::ratio(attributed, ack_mean),
    );

    v.put(
        "store.shard.cross_submit_p50_us",
        span_q(&spans, "store.shard.cross_submit", 0.5),
    );
    v.put(
        "store.shard.cross_submit_p99_us",
        span_q(&spans, "store.shard.cross_submit", 0.99),
    );
    v.put(
        "store.shard.prepare_p99_us",
        hist_q(&serving, names::CROSS_STAGE_PREPARE, 0.99),
    );
    v.put(
        "store.shard.decide_p50_us",
        hist_q(&serving, names::CROSS_STAGE_DECIDE, 0.5),
    );
    v.put(
        "store.shard.prepare_retries_per_cross",
        stats::ratio(
            serving.counter(names::CROSS_PREPARE_RETRIES) as f64,
            tally.cross as f64,
        ),
    );
    v.put(
        "store.shard.cross_commit_ratio",
        stats::ratio(tally.cross_committed as f64, tally.cross as f64),
    );
    v.put(
        "store.shard.single_conflicts_per_commit",
        match spec.front {
            Front::Sharded(_) => serving.counter(names::TX_CONFLICTS) as f64 / single_commits,
            _ => 0.0,
        },
    );
    v.put(
        "net.request_codec_p50_us",
        span_q(&spans, "net.request_codec", 0.5),
    );
    v.put(
        "net.response_codec_p50_us",
        span_q(&spans, "net.response_codec", 0.5),
    );
    v.put("net.frame_p50_us", span_q(&spans, "net.frame", 0.5));
    let wire_bytes = serving.counter(vpdt_net::names::NET_BYTES_IN_TOTAL)
        + serving.counter(vpdt_net::names::NET_BYTES_OUT_TOTAL);
    v.put(
        "net.bytes_per_tx",
        stats::ratio(wire_bytes as f64, tally.attempted as f64),
    );
    v.put(
        "net.server_request_p50_us",
        hist_q(&serving, vpdt_net::names::NET_REQUEST_US, 0.5),
    );
    // The net front's open loop has a store of its own (fresh stores per
    // pass), so its registry covers exactly the open loop's requests.
    let wire_overhead = match (&own, spec.front) {
        (Some((_, fin)), Front::Net) => {
            let mut acks = lat.ack_us.clone();
            stats::sort(&mut acks);
            stats::quantile(&acks, 0.5).unwrap_or(0.0) - hist_q(&fin.serving, names::TX_TOTAL, 0.5)
        }
        _ => 0.0,
    };
    v.put("net.wire_overhead_p50_us", wire_overhead);
    let (audit_s, audited) = first.audit.unwrap_or((0.0, 0));
    v.put("store.audit.cold_audit_s", audit_s);
    v.put(
        "store.audit.replay_commits_per_s",
        stats::ratio(audited as f64, audit_s),
    );
    let (_, p99s) = stats::windowed_p50_p99("ack", &lat.ack_us, LAT_WINDOWS)?;
    v.put("loadgen.ack_p99_us", stats::median(&p99s));
    let mut late = lat.late_us.clone();
    stats::sort(&mut late);
    v.put(
        "loadgen.late_p99_us",
        stats::quantile(&late, 0.99).unwrap_or(0.0),
    );
    v.put("loadgen.offered_per_s", lat.offered_per_s);
    let failed = tally.failed + lat.tally.failed;
    let attempted = tally.attempted + lat.tally.attempted;
    v.put(
        "loadgen.failed_frac",
        stats::ratio(failed as f64, attempted as f64),
    );
    v.put("trace.commits_per_s", traced_cps);
    v.put(
        "trace.overhead_frac",
        1.0 - stats::ratio(traced_cps, plain_cps),
    );

    println!(
        "self time per layer (mean us per span; spans in {}):",
        span_path.display()
    );
    for (name, l) in &layers {
        println!(
            "  {name:<32} {:>8} spans  mean {:>10.2}  self {:>10.2}",
            l.count, l.mean_us, l.self_mean_us
        );
    }
    println!(
        "attribution: ack mean {ack_mean:.2} us = submit {submit_mean:.2} + layers {layer_sum:.2} \
         + queue wait {queue:.2} + publish->durable {durable:.2} + unattributed {:.2}",
        ack_mean - attributed
    );
    println!(
        "tracing overhead: {:.2}% ({plain_cps:.0} untraced vs {traced_cps:.0} traced commits/s)",
        100.0 * (1.0 - stats::ratio(traced_cps, plain_cps))
    );
    let done = v.complete()?;
    metrics::print(&done);
    Ok(metrics::result_line(attempted, failed, &done))
}

fn write_spans(path: &Path, record: &record::Record, spans: &[spans::Span]) -> Result<(), String> {
    use std::io::Write;
    let err = |e: std::io::Error| format!("writing {}: {e}", path.display());
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(err)?);
    writeln!(out, "{{\"record\":{}}}", record.json()).map_err(err)?;
    spans::write_jsonl(&mut out, spans).map_err(err)
}
