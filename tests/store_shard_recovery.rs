//! Cross-shard two-phase commit under crash fire.
//!
//! Each test drives a `ShardedStore` into a specific crash window via the
//! coordinator's debug crash points, abandons it without a clean shutdown
//! (no checkpoint, no watermark — exactly what a killed process leaves
//! behind), recovers from the shard WALs plus the decision log, and then
//! demands the recovery-semantics table from the `shard` module docs:
//!
//! * killed **after prepare** (no decision record): nothing is durable,
//!   and the crashed coordinator's in-memory holds leak into nothing —
//!   the recovered store immediately accepts a new transaction on the
//!   same footprint;
//! * killed **after the decision fsync** (no branch applied): recovery
//!   rolls every branch forward;
//! * killed **between shard commits** (first branch applied): the missing
//!   branch is completed and the applied one is not duplicated;
//! * every *acknowledged* cross-shard commit survives;
//!
//! and after each recovery the sharded cold audit (per-shard replay plus
//! decision-log cross-checks) passes on the final artifacts. Tampered
//! layouts — a forged `Cross` hash, a cut decision log, a garbage
//! watermark — are reported by the audit and refused by recovery.

use std::path::{Path, PathBuf};
use vpdt::eval::Omega;
use vpdt::logic::Elem;
use vpdt::store::shard::{CrossCrashPoint, ROUTED_SESSION};
use vpdt::store::wal::{self, DecisionBranch, DecisionRecord, Record, WalWriter};
use vpdt::store::{
    cold_audit_sharded, workload, CrossOutcome, Event, RecoveryError, Routed, ShardedBuilder,
    ShardedStore, StoreError, TxOutcome, WalOptions,
};
use vpdt::tx::program::Program;

const RELS: usize = 2;
const SHARDS: usize = 2;

fn tmp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vpdt-shard-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Test-speed log options: no per-commit fsync (the crash these tests
/// model is a killed process, not power loss — written bytes survive),
/// full retention so the final cold audit replays from genesis.
fn fast_wal() -> WalOptions {
    WalOptions {
        fsync_commits: false,
        retain_segments: true,
        ..WalOptions::default()
    }
}

/// A fresh two-shard store over an empty database (every insert below is
/// then guard-clean under the per-relation fd constraint).
fn fresh(dir: &Path) -> ShardedStore {
    let initial = workload::sharded_initial(11, RELS, 6, 0.0);
    let alpha = workload::sharded_fd_constraint(RELS);
    ShardedBuilder::new(initial, alpha, SHARDS)
        .workers_per_shard(1)
        .persist_with(dir, fast_wal())
        .build()
        .expect("sharded store builds")
}

fn recover(dir: &Path) -> ShardedStore {
    ShardedBuilder::recover(dir)
        .workers_per_shard(1)
        .wal_options(fast_wal())
        .build()
        .expect("sharded store recovers")
}

fn audit_ok(dir: &Path) {
    let report = cold_audit_sharded(dir, &Omega::empty()).expect("cold audit runs");
    assert!(report.ok(), "sharded cold audit failed: {report:?}");
}

/// A two-shard transaction: `R0(a, b)` on shard 0, `R1(c, d)` on shard 1.
fn cross(a: u64, b: u64, c: u64, d: u64) -> Program {
    Program::seq([
        Program::insert_consts("R0", [a, b]),
        Program::insert_consts("R1", [c, d]),
    ])
}

fn t(a: u64, b: u64) -> [Elem; 2] {
    [Elem(a), Elem(b)]
}

#[test]
fn crash_after_prepare_leaves_nothing_durable_and_no_leaked_holds() {
    let dir = tmp_dir("after-prepare");
    let store = fresh(&dir);
    // One acknowledged cross commit first, so recovery has real history.
    let acked = store
        .submit(ROUTED_SESSION, cross(10, 11, 12, 13))
        .expect("first cross commit");
    assert!(matches!(
        acked,
        Routed::Cross(CrossOutcome::Committed { .. })
    ));
    store.debug_set_crash_point(CrossCrashPoint::AfterPrepare);
    let err = store
        .submit(ROUTED_SESSION, cross(20, 21, 22, 23))
        .unwrap_err();
    assert!(matches!(err, StoreError::DebugCrashPoint), "{err}");
    drop(store); // the crash: holds vanish with the process

    let recovered = recover(&dir);
    assert!(recovered.shard(0).snapshot().db.contains("R0", &t(10, 11)));
    // No decision record was written, so the prepared transaction never
    // existed as far as durability is concerned.
    assert!(!recovered.shard(0).snapshot().db.contains("R0", &t(20, 21)));
    assert!(!recovered.shard(1).snapshot().db.contains("R1", &t(22, 23)));
    // And the undecided prepare leaked no footprint: the same relations
    // accept a new cross transaction immediately, no backoff needed.
    let again = recovered
        .submit(ROUTED_SESSION, cross(20, 21, 22, 23))
        .expect("footprint is free after recovery");
    assert!(
        matches!(again, Routed::Cross(CrossOutcome::Committed { .. })),
        "{again:?}"
    );
    recovered.shutdown();
    audit_ok(&dir);
}

#[test]
fn crash_after_decision_rolls_every_branch_forward() {
    let dir = tmp_dir("after-decision");
    let store = fresh(&dir);
    store.debug_set_crash_point(CrossCrashPoint::AfterDecision);
    let err = store.submit(ROUTED_SESSION, cross(1, 2, 3, 4)).unwrap_err();
    assert!(matches!(err, StoreError::DebugCrashPoint), "{err}");
    // Decided but not applied anywhere yet.
    assert!(!store.shard(0).snapshot().db.contains("R0", &t(1, 2)));
    assert!(!store.shard(1).snapshot().db.contains("R1", &t(3, 4)));
    drop(store);

    let recovered = recover(&dir);
    // The decision is durable, so recovery must roll it forward on both
    // shards — presumed-abort stops at the decision fsync, not before.
    assert!(recovered.shard(0).snapshot().db.contains("R0", &t(1, 2)));
    assert!(recovered.shard(1).snapshot().db.contains("R1", &t(3, 4)));
    recovered.shutdown();
    audit_ok(&dir);
}

#[test]
fn crash_between_shard_commits_completes_the_missing_branch() {
    let dir = tmp_dir("between-commits");
    let store = fresh(&dir);
    store.debug_set_crash_point(CrossCrashPoint::BetweenShardCommits);
    let err = store.submit(ROUTED_SESSION, cross(5, 6, 7, 8)).unwrap_err();
    assert!(matches!(err, StoreError::DebugCrashPoint), "{err}");
    // Branches commit in ascending shard order, so shard 0 applied and
    // shard 1 did not.
    assert!(store.shard(0).snapshot().db.contains("R0", &t(5, 6)));
    assert!(!store.shard(1).snapshot().db.contains("R1", &t(7, 8)));
    drop(store);

    let recovered = recover(&dir);
    assert!(recovered.shard(0).snapshot().db.contains("R0", &t(5, 6)));
    assert!(recovered.shard(1).snapshot().db.contains("R1", &t(7, 8)));
    // The already-applied branch must not be applied twice: exactly one
    // Cross event for this decision in shard 0's history.
    let cross_events = recovered
        .shard(0)
        .history_events()
        .iter()
        .filter(|e| matches!(e, Event::Cross { decision: 0, .. }))
        .count();
    assert_eq!(cross_events, 1, "roll-forward must be idempotent");
    assert_eq!(recovered.shard(0).version(), 1);
    assert_eq!(recovered.shard(1).version(), 1);
    recovered.shutdown();
    audit_ok(&dir);
}

/// Decision ids are allocated before the prepare loop, so a coordinator
/// that waited out another's holds appends its lower-id decision *after*
/// the higher-id one it waited for. Roll-forward must replay in append
/// order — the order holds released — not id order. This crafts exactly
/// that inverted log (id 1 inserts a tuple, id 0 — appended later —
/// deletes it again) with both shard `Cross` tails "lost", and demands
/// the recovered state reflect append order: the tuple is gone.
#[test]
fn roll_forward_replays_decisions_in_append_order_not_id_order() {
    let dir = tmp_dir("append-order");
    let store = fresh(&dir);
    store.shutdown();

    let tuple = Program::insert_consts("R0", [9, 9]);
    let undo = Program::delete_consts("R0", [9, 9]);
    let (mut decisions, _) =
        WalWriter::resume(dir.join("decisions"), fast_wal()).expect("decision log resumes");
    // First appended: the decision that won the race for the holds, with
    // the *higher* id (its coordinator allocated after the loser).
    decisions
        .append(&Record::Decision(DecisionRecord {
            id: 1,
            tx: 0,
            branches: vec![DecisionBranch {
                shard: 0,
                tx: 0,
                based_on: 0,
                program: tuple.clone(),
            }],
        }))
        .expect("appends");
    // Second appended: the lower-id decision that blocked on the first
    // one's holds and saw its committed state (based_on 1).
    decisions
        .append(&Record::Decision(DecisionRecord {
            id: 0,
            tx: 1,
            branches: vec![DecisionBranch {
                shard: 0,
                tx: 1,
                based_on: 1,
                program: undo,
            }],
        }))
        .expect("appends");
    decisions.sync().expect("syncs");
    drop(decisions);

    let recovered = recover(&dir);
    // Append order: insert then delete — the tuple must be gone. Id-order
    // replay would run the delete first (a no-op) and leave it present.
    assert!(
        !recovered.shard(0).snapshot().db.contains("R0", &t(9, 9)),
        "replay must follow decision-log append order, not id order"
    );
    assert_eq!(recovered.shard(0).version(), 2, "both branches applied");
    recovered.shutdown();
    audit_ok(&dir);
}

/// Roll-forward goes through the replay step, so a decided branch that
/// would violate `α` on the recovered shard state is refused with a typed
/// `Rejected` before anything is appended to the shard's log.
#[test]
fn roll_forward_refuses_a_branch_that_violates_the_constraint() {
    let dir = tmp_dir("roll-forward-alpha");
    let store = fresh(&dir);
    let routed = store
        .submit(ROUTED_SESSION, Program::insert_consts("R0", [1, 2]))
        .expect("submits");
    let Routed::Single { ticket, .. } = routed else {
        panic!("expected a single-shard route, got {routed:?}");
    };
    assert!(matches!(ticket.wait(), TxOutcome::Committed { .. }));
    store.shutdown();

    // A durable decision whose shard-0 branch gives key 1 a second value
    // under R0's functional dependency.
    let (mut decisions, _) =
        WalWriter::resume(dir.join("decisions"), fast_wal()).expect("decision log resumes");
    decisions
        .append(&Record::Decision(DecisionRecord {
            id: 0,
            tx: 0,
            branches: vec![DecisionBranch {
                shard: 0,
                tx: 1,
                based_on: 1,
                program: Program::insert_consts("R0", [1, 3]),
            }],
        }))
        .expect("appends");
    decisions.sync().expect("syncs");
    drop(decisions);

    match ShardedBuilder::recover(&dir)
        .workers_per_shard(1)
        .wal_options(fast_wal())
        .build()
    {
        Err(StoreError::Recovery(RecoveryError::Rejected { .. })) => {}
        other => panic!("expected Rejected, got {other:?}"),
    }
    let scan = wal::scan_log(dir.join("shard-0")).expect("shard 0's log scans");
    assert!(
        !scan
            .records
            .iter()
            .any(|r| matches!(r.record, Record::Event(Event::Cross { .. }))),
        "a refused branch must not reach the shard's log"
    );
}

/// After a crash point has fired, the store may hold a durable decision
/// whose branches never applied; `shutdown()` would stamp the watermark
/// over it and the decision would never roll forward. It must refuse.
#[test]
#[should_panic(expected = "DebugCrashPoint")]
fn shutdown_refuses_after_a_fired_crash_point() {
    let dir = tmp_dir("shutdown-after-crash");
    let store = fresh(&dir);
    store.debug_set_crash_point(CrossCrashPoint::AfterDecision);
    let err = store.submit(ROUTED_SESSION, cross(1, 2, 3, 4)).unwrap_err();
    assert!(matches!(err, StoreError::DebugCrashPoint), "{err}");
    store.shutdown(); // must panic: the decision is durable but unapplied
}

#[test]
fn acknowledged_cross_commits_survive_an_unclean_exit() {
    let dir = tmp_dir("acked");
    let store = fresh(&dir);
    let mut acked_versions = Vec::new();
    for i in 0..5u64 {
        let (a, b) = (2 * i, 2 * i + 1);
        let routed = store
            .submit(ROUTED_SESSION, cross(a, b, a, b))
            .expect("cross commit");
        let Routed::Cross(CrossOutcome::Committed { versions, .. }) = routed else {
            panic!("expected a cross commit, got {routed:?}");
        };
        acked_versions = versions;
    }
    drop(store); // no shutdown: no checkpoint, no watermark

    let recovered = recover(&dir);
    for i in 0..5u64 {
        let (a, b) = (2 * i, 2 * i + 1);
        assert!(
            recovered.shard(0).snapshot().db.contains("R0", &t(a, b)),
            "acknowledged R0({a}, {b}) must survive"
        );
        assert!(
            recovered.shard(1).snapshot().db.contains("R1", &t(a, b)),
            "acknowledged R1({a}, {b}) must survive"
        );
    }
    // The recovered shards sit exactly at the last acknowledged versions.
    for &(shard, version) in &acked_versions {
        assert_eq!(recovered.shard(shard as usize).version(), version);
    }
    recovered.shutdown();
    audit_ok(&dir);
}

/// The byte spans (start, end) of every record in a segment file, walked
/// with the documented framing: `[u32 len][u64 fnv1a][payload]`.
fn record_spans(path: &Path) -> Vec<(usize, usize)> {
    let bytes = std::fs::read(path).expect("reads segment");
    let mut spans = Vec::new();
    let mut pos = 0;
    while pos + 12 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        spans.push((pos, pos + 12 + len));
        pos += 12 + len;
    }
    assert_eq!(pos, bytes.len(), "trailing bytes in clean segment");
    spans
}

fn last_segment(dir: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("reads dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    segs.sort();
    segs.pop().expect("at least one segment")
}

/// Commits `n` cross-shard transactions and returns the last decision id.
fn commit_crosses(store: &ShardedStore, n: u64) -> u64 {
    let mut last = None;
    for i in 0..n {
        let routed = store
            .submit(ROUTED_SESSION, cross(i, i, i, i))
            .expect("cross commit");
        let Routed::Cross(CrossOutcome::Committed { decision, .. }) = routed else {
            panic!("expected a cross commit, got {routed:?}");
        };
        last = Some(decision);
    }
    last.expect("at least one commit")
}

/// A `Cross` record whose root hash was forged, with its checksum fixed
/// (a tampered log, not a torn one): the sharded audit reports it as a
/// problem of that shard and keeps going, while recovery refuses it.
#[test]
fn forged_cross_hash_is_reported_by_the_audit_and_refused_by_recovery() {
    let dir = tmp_dir("forged-cross");
    let store = fresh(&dir);
    commit_crosses(&store, 3);
    drop(store); // no checkpoint: recovery replays every Cross record

    let seg = last_segment(&dir.join("shard-1"));
    let bytes = std::fs::read(&seg).expect("reads");
    let (start, end) = record_spans(&seg)
        .into_iter()
        .rev()
        .find(|(s, e)| {
            matches!(
                wal::decode_event(&bytes[s + 12..*e]),
                Ok(Event::Cross { .. })
            )
        })
        .expect("shard 1 logged a Cross record");
    let mut event = wal::decode_event(&bytes[start + 12..end]).expect("decodes");
    let Event::Cross { root_hash, .. } = &mut event else {
        unreachable!("found as a Cross record")
    };
    *root_hash ^= 0xffff;
    let forged_hash = *root_hash;
    let payload = wal::encode_event(&event);
    let mut framed = Vec::new();
    framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    framed.extend_from_slice(&vpdt::store::history::fnv1a_64(&payload).to_le_bytes());
    framed.extend_from_slice(&payload);
    assert_eq!(framed.len(), end - start, "re-encoding is byte-stable");
    let mut forged = bytes.clone();
    forged[start..end].copy_from_slice(&framed);
    std::fs::write(&seg, &forged).expect("writes");

    let report = cold_audit_sharded(&dir, &Omega::empty())
        .expect("a forged hash is an audit problem, not an error");
    assert!(report.shards[0].ok(), "shard 0 is untouched: {report:?}");
    let recorded = format!("{forged_hash:#x}");
    assert!(
        report.shards[1]
            .problems
            .iter()
            .any(|p| p.contains(&recorded)),
        "shard 1's audit must name the forged hash: {report:?}"
    );
    match ShardedBuilder::recover(&dir)
        .workers_per_shard(1)
        .wal_options(fast_wal())
        .build()
    {
        Err(StoreError::Recovery(RecoveryError::HashMismatch { .. })) => {}
        other => panic!("expected HashMismatch, got {other:?}"),
    }
}

/// A decision log that lost its last record: the shards still hold that
/// decision's `Cross` records, and the audit reports them as referencing
/// a decision the log does not have.
#[test]
fn cut_decision_log_is_reported_by_the_audit() {
    let dir = tmp_dir("cut-decision");
    let store = fresh(&dir);
    let last = commit_crosses(&store, 2);
    drop(store);

    let seg = last_segment(&dir.join("decisions"));
    let (start, _) = *record_spans(&seg).last().expect("a decision record");
    let bytes = std::fs::read(&seg).expect("reads");
    std::fs::write(&seg, &bytes[..start]).expect("cuts the last record");

    let report = cold_audit_sharded(&dir, &Omega::empty()).expect("the audit runs");
    let missing = format!("references decision {last}, which is not in the decision log");
    assert!(
        report.problems.iter().any(|p| p.contains(&missing)),
        "the audit must report the Cross records of decision {last}: {report:?}"
    );
}

/// A watermark that is present but not a number is a typed divergence for
/// both recovery and the audit — reading it as 0 would roll every
/// decision whose `Cross` records retention retired forward again.
#[test]
fn garbage_watermark_is_a_typed_divergence() {
    let dir = tmp_dir("bad-watermark");
    let store = fresh(&dir);
    commit_crosses(&store, 1);
    store.shutdown();
    std::fs::write(dir.join("decisions").join("applied-through"), b"garbage\n")
        .expect("overwrites the watermark");

    match ShardedBuilder::recover(&dir)
        .workers_per_shard(1)
        .wal_options(fast_wal())
        .build()
    {
        Err(StoreError::Recovery(RecoveryError::Divergence { .. })) => {}
        other => panic!("expected Divergence from recovery, got {other:?}"),
    }
    match cold_audit_sharded(&dir, &Omega::empty()) {
        Err(StoreError::Recovery(RecoveryError::Divergence { .. })) => {}
        other => panic!("expected Divergence from the audit, got {other:?}"),
    }
}
