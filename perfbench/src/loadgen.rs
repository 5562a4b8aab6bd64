//! The open-loop generator: request `i` is due at `i / rate` after the
//! start, whether or not earlier requests have been answered, and its
//! latency is measured from that due time — so a stall in the system (or
//! in the generator) is charged to every request it delays, not hidden.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Ack times of one open-loop phase, written by whichever thread
/// observes each acknowledgment (a completion callback, a reader thread,
/// or the issuing thread itself).
pub struct Acks {
    epoch: Instant,
    /// Nanoseconds since the epoch, plus one; `0` means "not yet".
    slots: Vec<AtomicU64>,
    /// Acknowledgments for an already acknowledged request.
    repeats: AtomicU64,
}

impl Acks {
    /// Slots for `n` requests, timed from `epoch`.
    pub fn new(n: usize, epoch: Instant) -> Self {
        Acks {
            epoch,
            slots: (0..n).map(|_| AtomicU64::new(0)).collect(),
            repeats: AtomicU64::new(0),
        }
    }

    /// Records that request `i` was acknowledged now.
    pub fn ack(&self, i: usize) {
        let at = self.epoch.elapsed().as_nanos() as u64 + 1;
        if self.slots[i]
            .compare_exchange(0, at, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            self.repeats.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Requests acknowledged more than once.
    pub fn repeats(&self) -> u64 {
        self.repeats.load(Ordering::Relaxed)
    }

    /// The ack time of request `i` (ns since the epoch), if acknowledged.
    pub fn at(&self, i: usize) -> Option<u64> {
        match self.slots[i].load(Ordering::Acquire) {
            0 => None,
            t => Some(t - 1),
        }
    }

    /// Requests not acknowledged yet.
    pub fn missing(&self) -> usize {
        (0..self.slots.len())
            .filter(|&i| self.at(i).is_none())
            .count()
    }

    /// Waits until every request is acknowledged or `timeout` passes.
    pub fn wait_all(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.missing() == 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// What a finished open-loop schedule measured.
#[derive(Clone, Debug, Default)]
pub struct Schedule {
    /// Due time of each request this generator issued, ns since the epoch.
    pub due: Vec<(usize, u64)>,
    /// How late the generator issued each request, µs.
    pub late_us: Vec<f64>,
    /// Seconds from the first due time to the last issue.
    pub span_s: f64,
}

/// Issues requests `requests` (ascending) of a schedule of `rate`
/// requests per second overall, calling `issue(i)` when each is due.
/// Request `i` is due at `i / rate` after `epoch`. The generator sleeps
/// until a due time; when it runs late it issues immediately, and the
/// lateness is recorded.
pub fn run(
    epoch: Instant,
    rate: f64,
    requests: impl IntoIterator<Item = usize>,
    mut issue: impl FnMut(usize),
) -> Schedule {
    let mut out = Schedule::default();
    let period_ns = 1e9 / rate;
    for i in requests {
        let due = (i as f64 * period_ns) as u64;
        let now = epoch.elapsed().as_nanos() as u64;
        if now < due {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        let issued = epoch.elapsed().as_nanos() as u64;
        issue(i);
        out.due.push((i, due));
        out.late_us.push(issued.saturating_sub(due) as f64 / 1e3);
    }
    out.span_s = epoch.elapsed().as_secs_f64();
    out
}

/// Latency samples (µs) of a finished phase: ack time minus due time, per
/// issued request, in due order. Errors when any request was never
/// acknowledged or was acknowledged twice.
pub fn latencies_us(acks: &Acks, schedules: &[Schedule]) -> Result<Vec<f64>, String> {
    if acks.repeats() > 0 {
        return Err(format!("{} requests acknowledged twice", acks.repeats()));
    }
    let mut out = Vec::new();
    for s in schedules {
        for &(i, due) in &s.due {
            let at = acks
                .at(i)
                .ok_or_else(|| format!("request {i} was never acknowledged"))?;
            out.push((i, at.saturating_sub(due) as f64 / 1e3));
        }
    }
    out.sort_unstable_by_key(|&(i, _)| i);
    Ok(out.into_iter().map(|(_, l)| l).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake sink that acknowledges instantly but stalls the issuing
    /// thread for 40 ms on request 3. Every later request the stall
    /// delayed must be charged from its due time — the generator's
    /// lateness and the request's latency both show the stall.
    #[test]
    fn lateness_is_measured_from_due_time_against_a_stalled_sink() {
        let epoch = Instant::now();
        let n = 20;
        let acks = Acks::new(n, epoch);
        let schedule = run(epoch, 1000.0, 0..n, |i| {
            if i == 3 {
                std::thread::sleep(Duration::from_millis(40));
            }
            acks.ack(i);
        });
        let lat = latencies_us(&acks, std::slice::from_ref(&schedule)).unwrap();
        assert_eq!(lat.len(), n);
        // request 3 itself: acked after its own 40 ms stall
        assert!(lat[3] >= 40_000.0, "request 3 latency {}", lat[3]);
        // request 4 was due 1 ms after 3 but could only go out once the
        // stall ended: ≥ 39 ms late, and its latency counts that wait
        assert!(
            schedule.late_us[4] >= 39_000.0,
            "late {}",
            schedule.late_us[4]
        );
        assert!(lat[4] >= 39_000.0, "request 4 latency {}", lat[4]);
        // request 3 was issued on time; the stall was inside the sink
        assert!(schedule.late_us[3] < 39_000.0);
        // the backlog drains: request 19 is due at 19 ms, after the stall
        // ended at ~43 ms, so it is still late, but less than request 4
        assert!(schedule.late_us[19] < schedule.late_us[4]);
        assert!(acks.wait_all(Duration::from_millis(1)));
    }

    #[test]
    fn strided_generators_split_one_schedule_and_unacked_requests_fail() {
        let epoch = Instant::now();
        let acks = Acks::new(10, epoch);
        let even = run(epoch, 10_000.0, (0..10).step_by(2), |i| acks.ack(i));
        let odd = run(epoch, 10_000.0, (1..10).step_by(2), |i| {
            if i != 7 {
                acks.ack(i)
            }
        });
        assert_eq!(even.due.len() + odd.due.len(), 10);
        assert_eq!(odd.due[0], (1, 100_000));
        let err = latencies_us(&acks, &[even.clone(), odd.clone()]).unwrap_err();
        assert!(err.contains("request 7"), "{err}");
        acks.ack(7);
        acks.ack(7);
        let err = latencies_us(&acks, &[even, odd]).unwrap_err();
        assert!(err.contains("twice"), "{err}");
    }
}
