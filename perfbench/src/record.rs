//! The run record every output carries: the machine, the filesystem
//! under the store logs, the flush policy, the toolchain and the code.

use crate::drive::Spec;
use std::path::Path;

/// What a result was measured on.
pub struct Record {
    fields: Vec<(&'static str, String)>,
}

impl Record {
    /// Reads the record for a run whose store logs live under `wal_dir`.
    pub fn take(spec: &Spec, seed: u64, nproc: usize, trace: bool, wal_dir: &Path) -> Self {
        let policy = vpdt_store::WalOptions::default();
        let (fstype, device) =
            mount_of(wal_dir).unwrap_or_else(|| ("unknown".into(), "unknown".into()));
        let flush = if spec.durable {
            format!(
                "fsync on, GroupCommitPolicy max_batch {} max_delay {:?} target_batch {}",
                policy.group_commit.max_batch,
                policy.group_commit.max_delay,
                policy.group_commit.target_batch
            )
        } else {
            "none (in memory)".to_string()
        };
        let read = |p: &str| std::fs::read_to_string(p).map(|s| s.trim().to_string());
        Record {
            fields: vec![
                ("workload", spec.name.to_string()),
                ("seed", seed.to_string()),
                ("trace", (trace as u8).to_string()),
                ("nproc", nproc.to_string()),
                ("wal_fs", fstype),
                ("wal_device", device),
                ("flush_policy", flush),
                (
                    "kernel",
                    read("/proc/sys/kernel/osrelease").unwrap_or_else(|_| "unknown".into()),
                ),
                ("rustc", rustc_version()),
                (
                    "git_commit",
                    git_commit().unwrap_or_else(|| "unknown".into()),
                ),
            ],
        }
    }

    /// The record as one JSON object.
    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| {
                format!(
                    "\"{k}\": \"{}\"",
                    v.replace('\\', "\\\\").replace('"', "\\\"")
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A `/proc/self/status` field of this process, MiB.
fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no {field} in /proc/self/status"))
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// resident set and returns that, MiB: the baseline later peaks are
/// measured from.
pub fn reset_peak_rss() -> Result<f64, String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak RSS through /proc/self/clear_refs: {e}"))?;
    status_mb("VmRSS")
}

/// The peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    status_mb("VmHWM")
}

/// The filesystem type and source device of the mount holding `path`.
fn mount_of(path: &Path) -> Option<(String, String)> {
    let info = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    let path = path.canonicalize().ok()?;
    info.lines()
        .filter_map(|line| {
            // id parent major:minor root mountpoint options... - fstype source super
            let fields: Vec<&str> = line.split(' ').collect();
            let dash = fields.iter().position(|f| *f == "-")?;
            let point = *fields.get(4)?;
            let fs = fields.get(dash + 1)?;
            let source = fields.get(dash + 2)?;
            path.starts_with(point).then(|| {
                (
                    point.len(),
                    fs.to_string(),
                    format!("{source} ({})", fields[2]),
                )
            })
        })
        .max_by_key(|m| m.0)
        .map(|(_, fs, dev)| (fs, dev))
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git. `None` outside a git checkout.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}
