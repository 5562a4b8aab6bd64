//! History audit: replay what the store committed and re-verify it on the
//! *other* side of the paper's comparison.
//!
//! The executor commits through the statically guarded path
//! (`if wpc(T, α) then T else abort`); the audit replays the committed
//! history through the run-time check-and-rollback path
//! ([`RuntimeChecked`]) and demands that the two agree everywhere:
//!
//! * commit versions are gapless and in log order — the log order *is* a
//!   serialization, and replaying it must reproduce every recorded root
//!   hash and the final state;
//! * every replayed commit passes the deferred `α` check (so `α` holds at
//!   every committed version — zero constraint violations);
//! * every commit's write set matches its program's declared writes;
//! * every commit's recorded prepared-statement provenance — the shape id
//!   and binding vector threaded through the pipeline — instantiates back
//!   to exactly the program the client submitted;
//! * every commit was preceded by a passing guard evaluation at the
//!   version it validated against, and every abort's failing guard agrees
//!   with check-and-rollback at the version it observed.
//!
//! A tampered history — a reordered commit, a forged hash, a commit the
//! guard never passed, a forged binding — is rejected with a concrete
//! complaint.
//!
//! Commits replay through the same step recovery uses (`replay.rs`): the
//! audit records every failed step as a problem and keeps going, where
//! [`wal::recover`] stops at the first. [`cold_audit_dir`] audits a
//! persisted directory in one such pass from its floor checkpoint.

use crate::history::{committed, Event};
use crate::replay::{resolve, Replayer};
use crate::wal::{self, Crossing, Recovered, RecoveryError};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;
use vpdt_core::safe::RuntimeChecked;
use vpdt_eval::{holds, Omega};
use vpdt_logic::Formula;
use vpdt_structure::Database;
use vpdt_tx::program::{Program, ProgramTransaction};
use vpdt_tx::template::Template;
use vpdt_tx::traits::{Transaction, TxError};

/// What the audit found.
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// Complaints; empty means the history verified.
    pub problems: Vec<String>,
    /// Commits replayed.
    pub commits_checked: usize,
    /// Aborts cross-checked against the rollback path.
    pub aborts_checked: usize,
}

impl AuditReport {
    /// Whether the history verified.
    pub fn ok(&self) -> bool {
        self.problems.is_empty()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ok() {
            write!(
                f,
                "audit OK: {} commits replayed, {} aborts cross-checked",
                self.commits_checked, self.aborts_checked
            )
        } else {
            writeln!(
                f,
                "audit FAILED ({} problems over {} commits):",
                self.problems.len(),
                self.commits_checked
            )?;
            for p in &self.problems {
                writeln!(f, "  - {p}")?;
            }
            Ok(())
        }
    }
}

/// Replays `events` from `initial` (version 0) and verifies the run.
///
/// `programs` maps transaction ids to the programs the clients submitted;
/// `templates` maps statement-shape ids (as recorded in `Begin`/`Commit`
/// events) to their canonicalized templates — `GuardCache::templates`
/// provides it, including shapes whose compiled guards were since evicted;
/// `final_db` is the store's state at the end of the run.
pub fn audit(
    alpha: &Formula,
    omega: &Omega,
    initial: &Database,
    final_db: &Database,
    events: &[Event],
    programs: &BTreeMap<u64, Program>,
    templates: &BTreeMap<u64, Template>,
) -> AuditReport {
    audit_from(
        alpha, omega, 0, initial, final_db, events, programs, templates,
    )
}

/// [`audit`] with an explicit base: `initial` is the store at
/// `base_version` and `events` start there — what auditing a
/// retention-truncated log needs, where the history before the floor
/// checkpoint no longer exists on disk. The first replayed commit is
/// expected at `base_version + 1`; guard/abort cross-checks that would
/// need a pre-floor snapshot are skipped (their evidence was legitimately
/// deleted), while everything replay-based — hashes, serialization order,
/// `α` at every surviving version — is verified in full.
#[allow(clippy::too_many_arguments)]
pub fn audit_from(
    alpha: &Formula,
    omega: &Omega,
    base_version: u64,
    initial: &Database,
    final_db: &Database,
    events: &[Event],
    programs: &BTreeMap<u64, Program>,
    templates: &BTreeMap<u64, Template>,
) -> AuditReport {
    let (mut report, replay) = replay_audit(
        alpha,
        omega,
        base_version,
        initial,
        events,
        programs,
        templates,
        &[],
    );
    if replay.state().0 != final_db {
        report
            .problems
            .push("replayed final state differs from the store's final state".to_string());
    }
    report
}

/// The audit pass: replays `events` from `initial` (the store at
/// `base_version`) through the replay step, records every failed step and
/// every other complaint, and returns the report with the replayer where
/// the pass left it.
#[allow(clippy::too_many_arguments)]
fn replay_audit<'a>(
    alpha: &'a Formula,
    omega: &'a Omega,
    base_version: u64,
    initial: &Database,
    events: &[Event],
    programs: &BTreeMap<u64, Program>,
    templates: &BTreeMap<u64, Template>,
    crossings: &[(usize, Crossing)],
) -> (AuditReport, Replayer<'a>) {
    let mut problems = Vec::new();
    let mut commits_checked = 0;
    let mut aborts_checked = 0;

    match holds(initial, omega, alpha) {
        Ok(true) => {}
        Ok(false) => problems.push("initial state violates the constraint".to_string()),
        Err(e) => problems.push(format!(
            "constraint does not evaluate on the initial state: {e}"
        )),
    }

    // Replay commits in log order; remember every version's state so abort
    // events can be cross-checked against the snapshot they observed.
    let mut replay = Replayer::new(alpha, omega, initial.clone(), base_version);
    let mut states: Vec<Database> = vec![initial.clone()];
    let mut passed_guards: BTreeSet<(u64, u64)> = BTreeSet::new();
    let mut crossings = crossings.iter().peekable();

    for (i, event) in events.iter().enumerate() {
        while let Some((_, c)) = crossings.next_if(|(at, _)| *at <= i) {
            if let Err(e) = replay.cross(c) {
                problems.push(e.to_string());
            }
        }
        match event {
            Event::GuardEval { tx, version, pass } => {
                if *pass {
                    passed_guards.insert((*tx, *version));
                }
            }
            Event::Commit { .. } | Event::Cross { .. } => {
                commits_checked += 1;
                // A cross-shard branch commit has no submitted program and
                // no paired `GuardEval`: the global guard ran on the
                // coordinator's union snapshot, and its evidence lives in
                // the decision log, cross-checked by the sharded audit
                // (`shard::cold_audit_sharded`).
                if let Event::Commit {
                    tx,
                    based_on,
                    version,
                    shape,
                    bindings,
                    ..
                } = event
                {
                    if !programs.contains_key(tx) {
                        problems.push(format!("commit of unknown tx {tx}"));
                    }
                    // Provenance: the submitted program must canonicalize
                    // to exactly the recorded (shape, bindings), so a log
                    // with forged bindings or a swapped statement shape
                    // cannot masquerade as the original run.
                    check_provenance(
                        &mut problems,
                        programs,
                        templates,
                        "commit",
                        *tx,
                        *shape,
                        bindings,
                    );
                    // A commit based at or below the floor may have
                    // recorded its guard evaluation before the floor offset
                    // (guard events are written outside the commit critical
                    // section) — evidence the retention pass legitimately
                    // deleted. Only demand the pairing when nothing was
                    // retired (`base_version == 0`: the full log) or the
                    // evaluation must postdate the floor.
                    let evidence_retired = base_version > 0 && *based_on <= base_version;
                    if !passed_guards.contains(&(*tx, *based_on)) && !evidence_retired {
                        problems.push(format!(
                            "tx {tx} committed at version {version} without a passing guard \
                             evaluation at its base version {based_on}"
                        ));
                    }
                }
                // The cross-check: the deferred check-and-rollback path
                // must accept the program the record's provenance
                // instantiates, at the same point. A failed step is a
                // complaint, and the pass goes on from wherever the step
                // left the replayer.
                let c = committed(event).expect("a commit-shaped event");
                if let Err(e) = resolve(templates, c.tx, c.shape, c.bindings)
                    .and_then(|program| replay.step(&c, &program))
                {
                    problems.push(e.to_string());
                }
                let (db, version) = replay.state();
                if version - base_version == states.len() as u64 {
                    states.push(db.clone());
                }
            }
            Event::Abort { tx, version, .. } => {
                // The guard said "would violate α". If we know the state it
                // observed (versions below the floor are gone), the
                // check-and-rollback path must agree.
                let state = version
                    .checked_sub(base_version)
                    .and_then(|i| states.get(i as usize));
                if let (Some(program), Some(state)) = (programs.get(tx), state) {
                    aborts_checked += 1;
                    let checked = RuntimeChecked::new(
                        ProgramTransaction::new("audit", program.clone(), omega.clone()),
                        alpha.clone(),
                        omega.clone(),
                    );
                    match checked.apply(state) {
                        Err(TxError::Aborted(_)) => {}
                        Ok(_) => problems.push(format!(
                            "tx {tx} aborted at version {version}, but check-and-rollback \
                             accepts it there (guard and rollback paths disagree)"
                        )),
                        Err(e) => problems.push(format!(
                            "tx {tx} fails to replay its abort at version {version}: {e}"
                        )),
                    }
                }
            }
            Event::Begin {
                tx,
                shape,
                bindings,
                ..
            } => {
                // Begin provenance is checked too, so a forged binding on a
                // transaction that went on to *abort* is also caught.
                check_provenance(
                    &mut problems,
                    programs,
                    templates,
                    "begin",
                    *tx,
                    *shape,
                    bindings,
                );
            }
        }
    }
    for (_, c) in crossings {
        if let Err(e) = replay.cross(c) {
            problems.push(e.to_string());
        }
    }

    let report = AuditReport {
        problems,
        commits_checked,
        aborts_checked,
    };
    (report, replay)
}

/// Audits a *cold* history — one read back from a persisted log, with no
/// live clients to supply the tx-id → program map. The map is derived from
/// the events' own `(shape, bindings)` provenance instead (two events of
/// one transaction that derive different programs draw a complaint), then
/// the full [`audit`] replay runs: gapless serialization, `α` at every
/// version, root hashes, write sets, guard/rollback agreement. The
/// derived programs make the *provenance* sub-check tautological — what
/// still bites is everything replay-based, which is exactly what a cold
/// log can prove.
///
/// `initial` is the genesis state (offset-0 checkpoint) and `final_db` the
/// recovered state; [`wal::recover`] supplies both. To audit a directory,
/// [`cold_audit_dir`] does the same in one pass over the log.
pub fn cold_audit(
    alpha: &Formula,
    omega: &Omega,
    initial: &Database,
    final_db: &Database,
    events: &[Event],
    templates: &BTreeMap<u64, Template>,
) -> AuditReport {
    cold_audit_from(alpha, omega, 0, initial, final_db, events, templates)
}

/// [`cold_audit`] with an explicit base: `initial` is the floor
/// checkpoint's state at `base_version` and `events` start there — the
/// form [`wal::recover`] hands back
/// (`Recovered::{initial, base_version, events}`), correct whether or not
/// segment retention has deleted a covered prefix of the log.
#[allow(clippy::too_many_arguments)]
pub fn cold_audit_from(
    alpha: &Formula,
    omega: &Omega,
    base_version: u64,
    initial: &Database,
    final_db: &Database,
    events: &[Event],
    templates: &BTreeMap<u64, Template>,
) -> AuditReport {
    let (programs, problems) = derive_programs(events, templates);
    let mut report = audit_from(
        alpha,
        omega,
        base_version,
        initial,
        final_db,
        events,
        &programs,
        templates,
    );
    report.problems.splice(0..0, problems);
    report
}

/// The one-pass cold audit of a persisted directory: loads its floor
/// checkpoint and replays the whole surviving log from there once,
/// through the same step recovery uses, collecting every problem where
/// [`wal::recover`] stops at the first. Every later checkpoint the pass
/// crosses must record the replayed version and root hash.
///
/// Returns what the pass reconstructed (`Recovered::db` is the state the
/// replay reached) with the report. A log or checkpoint that cannot be
/// read or is inconsistent in itself, or a floor checkpoint that does not
/// anchor in the log, is an error, as it is for [`wal::recover`].
pub fn cold_audit_dir(
    dir: impl AsRef<Path>,
    omega: &Omega,
) -> Result<(Recovered, AuditReport), RecoveryError> {
    let log = wal::load(dir.as_ref(), true)?;
    let (programs, problems) = derive_programs(&log.events, &log.templates);
    let (mut report, replay) = replay_audit(
        &log.floor.alpha,
        omega,
        log.floor.version,
        &log.floor.db,
        &log.events,
        &programs,
        &log.templates,
        &log.crossings,
    );
    report.problems.splice(0..0, problems);
    let ((db, version), commits) = (replay.into_state(), report.commits_checked);
    Ok((log.into_recovered(db, version, commits), report))
}

/// The tx-id → program map of a cold history, derived from each event's
/// recorded provenance, and the complaints deriving it raised.
fn derive_programs(
    events: &[Event],
    templates: &BTreeMap<u64, Template>,
) -> (BTreeMap<u64, Program>, Vec<String>) {
    let mut problems = Vec::new();
    let mut programs: BTreeMap<u64, Program> = BTreeMap::new();
    for event in events {
        let (tx, shape, bindings) = match (event, committed(event)) {
            (
                Event::Begin {
                    tx,
                    shape,
                    bindings,
                    ..
                },
                _,
            ) => (*tx, *shape, &bindings[..]),
            (_, Some(c)) => (c.tx, c.shape, c.bindings),
            _ => continue,
        };
        match resolve(templates, tx, shape, bindings) {
            Ok(ground) => {
                if let Some(prev) = programs.get(&tx) {
                    if prev != &ground {
                        problems.push(format!(
                            "tx {tx}'s events derive two different programs from their \
                             recorded provenance"
                        ));
                    }
                } else {
                    programs.insert(tx, ground);
                }
            }
            Err(e) => problems.push(e.to_string()),
        }
    }
    (programs, problems)
}

/// Checks one event's recorded `(shape, bindings)` provenance against the
/// submitted program: the statement shape must be known and the submitted
/// program must canonicalize to exactly that `(shape, bindings)` pair.
/// Comparing canonical forms (rather than instantiations) makes the check
/// insensitive to the α-renaming `canonicalize` performs while still
/// refusing forged bindings or a swapped shape. Unknown transaction ids
/// are skipped here — commits of unknown txs draw their own complaint.
fn check_provenance(
    problems: &mut Vec<String>,
    programs: &BTreeMap<u64, Program>,
    templates: &BTreeMap<u64, Template>,
    what: &str,
    tx: u64,
    shape: u64,
    bindings: &[vpdt_logic::Elem],
) {
    let Some(program) = programs.get(&tx) else {
        return;
    };
    match templates.get(&shape) {
        None => problems.push(format!(
            "{what} of tx {tx} references unknown statement shape {shape}"
        )),
        Some(template) => match vpdt_tx::template::canonicalize(program) {
            Ok((canonical, ground_bindings)) => {
                if &canonical != template || ground_bindings != bindings {
                    problems.push(format!(
                        "tx {tx}'s {what} records statement (shape {shape}, bindings \
                         {bindings:?}), but the submitted program {program:?} \
                         canonicalizes to ({canonical}, {ground_bindings:?})"
                    ));
                }
            }
            Err(e) => problems.push(format!(
                "tx {tx}'s {what}: submitted program does not canonicalize: {e}"
            )),
        },
    }
}
