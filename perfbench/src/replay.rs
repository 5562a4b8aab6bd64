//! The single-threaded layer replay: the workload's own job stream fed
//! through the public per-layer functions in the order a store worker
//! calls them, each call a span. No queue, lock contention or fsync is
//! involved, so each span is that layer's own cost on this input.

use crate::drive::{Front, Spec};
use crate::spans::{timed, Recorder};
use std::collections::BTreeSet;
use std::io::Cursor;
use vpdt_eval::Omega;
use vpdt_net::frame::write_frame;
use vpdt_net::{FrameReader, Request, Response, WireOutcome};
use vpdt_store::{CommitOutcome, CommitRequest, Event, GuardCache, Job, VersionedStore};
use vpdt_tx::program::Program;
use vpdt_tx::traits::normalize_domain;

/// Trace ids of replayed transactions are offset from real ones.
const REPLAY_TRACE: u64 = 1 << 61;

/// Counts the replay observed.
#[derive(Clone, Debug, Default)]
pub struct Replayed {
    /// Guards evaluated.
    pub guards: u64,
    /// Guards that passed.
    pub passed: u64,
    /// Encoded commit-record sizes, bytes (durable workloads).
    pub record_bytes: Vec<f64>,
}

/// Replays `jobs` against a private store over the workload's initial
/// state, recording one `replay.tx` span per job with a child per layer
/// call. Every shape is compiled before the first span, as the store's
/// set-up does.
pub fn replay(
    spec: &Spec,
    seed: u64,
    shapes: &[Program],
    jobs: &[Job],
    rec: &Recorder,
) -> Result<Replayed, String> {
    let omega = Omega::empty();
    let store = VersionedStore::new(spec.initial(seed));
    let cache = GuardCache::new(store.schema().clone(), spec.alpha(), omega.clone());
    for p in shapes {
        cache
            .get_or_compile(p)
            .map_err(|e| format!("compile: {e}"))?;
    }
    let r = Some(rec);
    let mut out = Replayed::default();
    for (i, job) in jobs.iter().enumerate() {
        let trace = REPLAY_TRACE | i as u64;
        let root = rec.reserve();
        let start = rec.now();
        timed(r, "tx.template.canonicalize", trace, root, || {
            vpdt_tx::template::canonicalize(&job.program)
        })
        .map_err(|e| format!("canonicalize: {e}"))?;
        let prepared = timed(r, "store.guard.get_or_compile", trace, root, || {
            cache.get_or_compile(&job.program)
        })
        .map_err(|e| format!("get_or_compile: {e}"))?;
        let snap = store.snapshot();
        let pass = timed(r, "eval.holds", trace, root, || {
            vpdt_eval::holds(&snap.db, &omega, &prepared.guard)
        })
        .map_err(|e| format!("guard: {e}"))?;
        out.guards += 1;
        let mut version = snap.version;
        if pass {
            out.passed += 1;
            let new_db = timed(r, "tx.program.run", trace, root, || {
                job.program.run(&snap.db, &omega).map(normalize_domain)
            })
            .map_err(|e| format!("run: {e}"))?;
            if spec.durable {
                let record = timed(r, "store.wal.encode_event", trace, root, || {
                    vpdt_store::wal::encode_event(&Event::Commit {
                        tx: trace,
                        based_on: snap.version,
                        version: 0,
                        writes: prepared.writes().iter().cloned().collect(),
                        shape: prepared.shape.id,
                        bindings: prepared.bindings.clone(),
                        root_hash: 0,
                    })
                });
                out.record_bytes.push(record.len() as f64);
            }
            let req = CommitRequest {
                tx: trace,
                based_on: snap.version,
                reads: prepared.reads().clone(),
                writes: prepared.writes().clone(),
                shape: prepared.shape.id,
                bindings: prepared.bindings.clone(),
                new_db,
                encoded: None,
            };
            let (outcome, _) = timed(r, "store.snapshot.try_commit", trace, root, || {
                store.try_commit_timed(req)
            });
            match outcome {
                CommitOutcome::Committed { version: v, .. } => version = v,
                CommitOutcome::Conflict { version } => {
                    return Err(format!("single-threaded replay conflicted at v{version}"))
                }
            }
        }
        if spec.front == Front::Net {
            wire(rec, trace, root, i as u64, &job.program, pass, version)?;
        }
        rec.finish(root, "replay.tx", trace, 0, start);
    }
    Ok(out)
}

/// The network layer's per-transaction work on this job: the request and
/// response encoded and decoded, and both frames written and read back.
fn wire(
    rec: &Recorder,
    trace: u64,
    root: u64,
    id: u64,
    program: &Program,
    pass: bool,
    version: u64,
) -> Result<(), String> {
    let r = Some(rec);
    let request = Request::Submit {
        request_id: id,
        program: program.clone(),
    };
    let mut req = Vec::new();
    timed(r, "net.request_codec", trace, root, || {
        request.encode(&mut req);
        Request::decode(&req)
    })
    .map_err(|e| format!("request codec: {e}"))?;
    let outcome = if pass {
        WireOutcome::Committed {
            version,
            root_hash: Some(version),
        }
    } else {
        WireOutcome::GuardAborted { version, shape: 0 }
    };
    let response = Response::Outcome {
        request_id: id,
        tx: id,
        outcome,
    };
    let mut resp = Vec::new();
    timed(r, "net.response_codec", trace, root, || {
        response.encode(&mut resp);
        Response::decode(&resp)
    })
    .map_err(|e| format!("response codec: {e}"))?;
    for payload in [&req, &resp] {
        timed(r, "net.frame", trace, root, || {
            let mut buf = Vec::with_capacity(payload.len() + vpdt_net::FRAME_HEADER);
            write_frame(&mut buf, payload)?;
            FrameReader::new().next_frame(&mut Cursor::new(buf))
        })
        .map_err(|e| format!("frame: {e}"))?;
    }
    Ok(())
}

/// Span names of the layer calls one replayed transaction makes on the
/// worker's path: the sum of their mean self times is what the layers
/// account for. `canonicalize` is left out — `get_or_compile` performs it
/// again inside, so its span already covers that cost.
pub fn worker_layers(spec: &Spec) -> BTreeSet<&'static str> {
    let mut names: BTreeSet<&'static str> = [
        "store.guard.get_or_compile",
        "eval.holds",
        "tx.program.run",
        "store.snapshot.try_commit",
    ]
    .into_iter()
    .collect();
    if spec.durable {
        names.insert("store.wal.encode_event");
    }
    if spec.front == Front::Net {
        names.extend(["net.request_codec", "net.response_codec", "net.frame"]);
    }
    names
}
