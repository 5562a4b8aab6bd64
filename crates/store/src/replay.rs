//! The replay engine: one step that re-verifies a logged commit on the
//! *other* side of the paper's comparison, shared by recovery
//! ([`wal::recover`](crate::wal::recover)), the audits
//! ([`audit_from`](crate::audit::audit_from),
//! [`cold_audit_dir`](crate::audit::cold_audit_dir),
//! [`cold_audit_sharded`](crate::shard::cold_audit_sharded)) and cross-shard
//! [`roll_forward`]. [`Replayer::step`] checks that a `Commit` or `Cross`
//! record's version is one past the replayed one, that its program passes
//! the run-time check-and-rollback path ([`RuntimeChecked`]: run `T`, test
//! `α`, roll back), that its write set is the program's, and that the
//! replayed state has the recorded root hash. Recovery stops at the first
//! failed step with its typed [`RecoveryError`]; an audit records it and
//! goes on from where the step left the replayer.

use crate::history::{root_hash, state_hash, Committed, Event};
use crate::wal::{Crossing, DecisionBranch, Record, Recovered, RecoveryError, WalWriter};
use crate::StoreError;
use std::collections::{BTreeMap, BTreeSet};
use vpdt_core::safe::RuntimeChecked;
use vpdt_eval::Omega;
use vpdt_logic::{Elem, Formula};
use vpdt_structure::Database;
use vpdt_tx::program::{Program, ProgramTransaction};
use vpdt_tx::template::{canonicalize, Template};
use vpdt_tx::traits::{Transaction, TxError};

/// The program a record's `(shape, bindings)` provenance instantiates to.
pub(crate) fn resolve(
    templates: &BTreeMap<u64, Template>,
    tx: u64,
    shape: u64,
    bindings: &[Elem],
) -> Result<Program, RecoveryError> {
    templates
        .get(&shape)
        .ok_or(RecoveryError::UnknownShape { tx, shape })?
        .instantiate(bindings)
        .map_err(|e| RecoveryError::Provenance {
            tx,
            detail: e.to_string(),
        })
}

/// A state being moved forward through a log, one commit at a time: `db`
/// is always the replayed state at `version`.
pub(crate) struct Replayer<'a> {
    alpha: &'a Formula,
    omega: &'a Omega,
    db: Database,
    version: u64,
}

impl<'a> Replayer<'a> {
    /// Starts at `db`, the store at `version`, guarding `alpha`.
    pub(crate) fn new(alpha: &'a Formula, omega: &'a Omega, db: Database, version: u64) -> Self {
        Replayer {
            alpha,
            omega,
            db,
            version,
        }
    }

    /// The replayed state and its version.
    pub(crate) fn state(&self) -> (&Database, u64) {
        (&self.db, self.version)
    }

    /// [`state`](Self::state), owned.
    pub(crate) fn into_state(self) -> (Database, u64) {
        (self.db, self.version)
    }

    /// The replay step for one logged `Commit` or `Cross` record, whose
    /// program the caller [`resolve`]d from the record's provenance.
    ///
    /// On failure the replayer stays where a collecting caller should go
    /// on from: an out-of-order version does not advance it; a rejected
    /// or unreplayable program advances the version over the old state; a
    /// write-set or hash mismatch advances to the replayed state.
    pub(crate) fn step(
        &mut self,
        c: &Committed<'_>,
        program: &Program,
    ) -> Result<(), RecoveryError> {
        let computed = self.apply(c.tx, c.version, c.writes, program)?;
        if computed != c.root_hash {
            return Err(RecoveryError::HashMismatch {
                tx: c.tx,
                version: c.version,
                recorded: c.root_hash,
                computed,
            });
        }
        Ok(())
    }

    /// The check at a checkpoint the replay crosses: it must record the
    /// replayed version and root hash.
    pub(crate) fn cross(&self, checkpoint: &Crossing) -> Result<(), RecoveryError> {
        let root = root_hash(&self.db);
        if self.version == checkpoint.version && root == checkpoint.root_hash {
            return Ok(());
        }
        Err(RecoveryError::Divergence {
            detail: format!(
                "checkpoint at offset {} records version {} (root hash {:#x}), but the \
                 replay crosses it at version {} (root hash {root:#x})",
                checkpoint.offset, checkpoint.version, checkpoint.root_hash, self.version
            ),
        })
    }

    /// Everything [`step`](Self::step) checks but the recorded hash:
    /// returns the root hash of the state it reached.
    fn apply(
        &mut self,
        tx: u64,
        version: u64,
        writes: &[String],
        program: &Program,
    ) -> Result<u64, RecoveryError> {
        if version != self.version + 1 {
            return Err(RecoveryError::Divergence {
                detail: format!(
                    "commit of tx {tx} has version {version}, expected {} (reordered or \
                     dropped commit)",
                    self.version + 1
                ),
            });
        }
        self.version = version;
        let checked = RuntimeChecked::new(
            ProgramTransaction::new("replay", program.clone(), self.omega.clone()),
            self.alpha.clone(),
            self.omega.clone(),
        );
        self.db = match checked.apply(&self.db) {
            Ok(next) => next,
            Err(TxError::Aborted(reason)) => {
                return Err(RecoveryError::Rejected {
                    tx,
                    version,
                    reason,
                })
            }
            Err(e) => {
                return Err(RecoveryError::Replay {
                    tx,
                    version,
                    detail: e.to_string(),
                })
            }
        };
        let touched = program.touched_relations();
        if !touched.iter().eq(writes) {
            return Err(RecoveryError::Divergence {
                detail: format!(
                    "tx {tx} recorded writes {writes:?} but its program touches {touched:?}"
                ),
            });
        }
        Ok(root_hash(&self.db))
    }
}

/// Rolls decided-but-unapplied cross-shard branches forward at the end of
/// a recovered shard log. `pending` holds this shard's branches of every
/// decision at or above the watermark, as `(decision id, branch)` in
/// decision-log **append order** — the order the decisions' holds
/// released (id order can invert it). Each branch whose `Cross` record
/// the log lacks goes through the replay step (so `α` is checked); its
/// `Cross` record, carrying the root hash the step reached, and any unseen
/// shape declaration are appended with `writer` and folded into `rec`.
/// Appending at the tail is sound because the decision's holds blocked
/// every conflicting commit until the branch applied.
pub(crate) fn roll_forward(
    rec: &mut Recovered,
    writer: &mut WalWriter,
    logged_shapes: &mut BTreeSet<u64>,
    pending: &[(u64, DecisionBranch)],
    omega: &Omega,
) -> Result<(), StoreError> {
    let applied: BTreeSet<u64> = rec
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Cross { decision, .. } => Some(*decision),
            _ => None,
        })
        .collect();
    let todo: Vec<&(u64, DecisionBranch)> = pending
        .iter()
        .filter(|(d, _)| !applied.contains(d))
        .collect();
    if todo.is_empty() {
        return Ok(());
    }

    let mut replay = Replayer::new(&rec.alpha, omega, rec.db.clone(), rec.version);
    for (decision, branch) in &todo {
        let (template, bindings) = canonicalize(&branch.program)?;
        let shape = match rec.templates.iter().find(|(_, t)| **t == template) {
            Some((&id, _)) => id,
            None => {
                let id = rec.templates.len() as u64;
                writer.append(&Record::Shape {
                    id,
                    template: template.clone(),
                })?;
                logged_shapes.insert(id);
                rec.templates.insert(id, template);
                id
            }
        };
        let writes: Vec<String> = branch.program.touched_relations().into_iter().collect();
        let version = replay.version + 1;
        let root_hash = replay.apply(branch.tx, version, &writes, &branch.program)?;
        for w in &writes {
            rec.rel_versions.insert(w.clone(), version);
        }
        let event = Event::Cross {
            tx: branch.tx,
            decision: *decision,
            based_on: branch.based_on,
            version,
            writes,
            shape,
            bindings,
            root_hash,
        };
        writer.append(&Record::Event(event.clone()))?;
        rec.events.push(event);
        rec.next_tx = rec.next_tx.max(branch.tx + 1);
    }
    writer.sync()?;
    (rec.db, rec.version) = replay.into_state();
    rec.root_hash = root_hash(&rec.db);
    rec.state_hash = state_hash(&rec.db);
    rec.commits_replayed += todo.len();
    Ok(())
}
