//! The coordinator's lease book: which worker owns which chain range of
//! which job, how far each range has been acked, and when a silent lease
//! expires and gets re-issued.
//!
//! ## State machine
//!
//! Each submitted job's grid is cut into contiguous [`ChainRange`]s
//! (`FleetConfig::lease_chunk` ids each). Every range moves through
//!
//! ```text
//! Pending ──next_lease──▶ Active{lease_id, deadline} ──acked to end──▶ Done
//!    ▲                        │
//!    └── release / expiry ────┘   (re-issued from the acked watermark,
//!                                  old lease_id superseded)
//! ```
//!
//! A range's `acked` watermark only advances when a delta is folded, and a
//! delta is folded **exactly once**: deltas are disjoint intervals, the
//! book insists each one starts exactly at the current watermark
//! (`duplicate ack` otherwise), and deltas carrying a superseded or
//! unknown lease id are rejected outright. So a worker that is SIGKILL'd,
//! hangs past its deadline, or keeps streaming after its lease was
//! re-issued can never double-fold an interval or leave a gap — which is
//! why the folded frontier is byte-identical to the unsharded run's for
//! *any* kill/re-lease schedule.

use crate::protocol::{grid_fingerprint, Delta, Lease};
use std::time::{Duration, Instant};
use vi_noc_core::json::Value;
use vi_noc_core::SynthesisConfig;
use vi_noc_soc::{SocSpec, ViAssignment};
use vi_noc_sweep::{
    frontier_json, validate_entries, ChainRange, GridDescriptor, RangeDelta, ShardProgress,
    SweepGrid,
};

/// Knobs of a coordinator.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Chain ids per lease. Smaller chunks re-balance better when workers
    /// die; larger chunks amortize job-resolution and wire overhead.
    pub lease_chunk: u64,
    /// How long an active lease may go without an acked delta before it is
    /// considered dead and re-issued.
    pub lease_timeout: Duration,
    /// Range positions per streamed delta.
    pub checkpoint_every: u64,
    /// Emit `fleet: metrics ...` lines on the coordinator's stderr after
    /// every lease grant and folded delta (the CLI's `--verbose`).
    pub verbose: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            lease_chunk: 16,
            lease_timeout: Duration::from_secs(10),
            checkpoint_every: 8,
            verbose: false,
        }
    }
}

/// A job payload resolved into everything a sweep needs. Both the
/// coordinator (to cut and fingerprint the grid) and every worker (to
/// evaluate leases) resolve the same payload; [`grid_fingerprint`]
/// equality proves they agree.
pub struct ResolvedJob {
    /// The SoC under sweep.
    pub spec: SocSpec,
    /// Its voltage-island assignment.
    pub vi: ViAssignment,
    /// Synthesis configuration (seed, weights, technology).
    pub cfg: SynthesisConfig,
    /// The candidate grid.
    pub grid: SweepGrid,
    /// The grid's descriptor (identifies the sweep; fingerprinted).
    pub desc: GridDescriptor,
    /// Whether workers run slack-certified dominance pruning.
    pub prune: bool,
}

/// Turns a job payload into a [`ResolvedJob`]. The fleet crate is
/// deliberately ignorant of what payloads mean — the CLI layer resolves
/// scenario documents; tests resolve tiny benchmark grids. Resolution must
/// be a pure function of the payload text: a worker resolves each payload
/// once and reuses the result for every later lease with that payload.
pub trait JobResolver: Send + Sync {
    /// Resolves `payload`, or explains why it cannot be run.
    fn resolve(&self, payload: &str) -> Result<ResolvedJob, String>;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RangeState {
    Pending,
    Active { lease_id: u64, deadline: Instant },
    Done,
}

#[derive(Debug)]
struct RangeSlot {
    range: ChainRange,
    /// Range positions folded so far — the resume point of a re-issue.
    acked: u64,
    state: RangeState,
}

/// One submitted job inside the book.
struct JobSlot {
    job_id: u64,
    payload: String,
    desc: GridDescriptor,
    /// The descriptor re-parsed as a JSON value, for entry validation.
    grid_value: Value,
    grid_fp: String,
    ranges: Vec<RangeSlot>,
    progress: ShardProgress,
    result: Option<Result<String, String>>,
}

impl JobSlot {
    fn finished(&self) -> bool {
        self.result.is_some()
    }
}

/// Where a folded delta left its lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldOutcome {
    /// The lease has more positions to go; `done` is the new watermark.
    Advanced {
        /// Range positions folded so far.
        done: u64,
    },
    /// The delta completed its lease (and possibly its whole job).
    LeaseDone {
        /// Range positions folded — the range length.
        done: u64,
        /// `Some(job_id)` when this delta also completed the job.
        job_finished: Option<u64>,
    },
}

impl FoldOutcome {
    /// The acked watermark after the fold.
    pub fn done(&self) -> u64 {
        match *self {
            FoldOutcome::Advanced { done } => done,
            FoldOutcome::LeaseDone { done, .. } => done,
        }
    }
}

/// The coordinator's bookkeeping for all in-flight jobs. Purely
/// synchronous — the coordinator wraps it in a mutex and drives it from
/// connection threads.
pub struct LeaseBook {
    cfg: FleetConfig,
    next_job_id: u64,
    next_lease_id: u64,
    jobs: Vec<JobSlot>,
    deltas_folded: u64,
    last_fold: Option<Instant>,
}

impl LeaseBook {
    /// An empty book with the given knobs.
    pub fn new(cfg: FleetConfig) -> Self {
        LeaseBook {
            cfg,
            next_job_id: 1,
            next_lease_id: 1,
            jobs: Vec::new(),
            deltas_folded: 0,
            last_fold: None,
        }
    }

    /// The book's knobs.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Registers a job whose payload resolved to `desc`, cutting its grid
    /// into lease ranges. Returns the job id its result is taken by.
    ///
    /// # Errors
    ///
    /// A descriptor that does not re-parse (cannot happen for descriptors
    /// produced by [`GridDescriptor::to_json`]; guarded anyway).
    pub fn submit(&mut self, payload: &str, desc: &GridDescriptor) -> Result<u64, String> {
        let desc_json = desc.to_json();
        let grid_value = vi_noc_core::json::parse(&desc_json)
            .map_err(|e| format!("submit: grid descriptor does not re-parse: {e}"))?;
        let job_id = self.next_job_id;
        self.next_job_id += 1;
        let ranges: Vec<RangeSlot> = ChainRange::cut(desc.num_chains, self.cfg.lease_chunk)
            .into_iter()
            .map(|range| RangeSlot {
                range,
                acked: 0,
                state: RangeState::Pending,
            })
            .collect();
        let mut slot = JobSlot {
            job_id,
            payload: payload.to_string(),
            grid_fp: grid_fingerprint(&desc_json),
            desc: desc.clone(),
            grid_value,
            ranges,
            progress: ShardProgress::new(),
            result: None,
        };
        // A zero-chain grid has nothing to lease: it completes on arrival.
        if slot.ranges.is_empty() {
            slot.result = Some(Ok(frontier_json(&slot.desc, &slot.progress)));
        }
        self.jobs.push(slot);
        Ok(job_id)
    }

    /// Offers the next lease: the first pending — or expired-active —
    /// range of the oldest unfinished job, resumed from its acked
    /// watermark. Expired leases are superseded by the re-issue: their old
    /// lease id will be rejected if the presumed-dead worker resurfaces.
    pub fn next_lease(&mut self, now: Instant) -> Option<Lease> {
        let deadline = now + self.cfg.lease_timeout;
        let (checkpoint_every, mut lease_id) = (self.cfg.checkpoint_every, self.next_lease_id);
        let mut offer = None;
        'jobs: for job in self.jobs.iter_mut().filter(|j| !j.finished()) {
            for slot in &mut job.ranges {
                let expired = matches!(
                    slot.state,
                    RangeState::Active { deadline, .. } if deadline <= now
                );
                if slot.state == RangeState::Pending || expired {
                    slot.state = RangeState::Active { lease_id, deadline };
                    offer = Some(Lease {
                        lease_id,
                        job: job.payload.clone(),
                        grid_fp: job.grid_fp.clone(),
                        start: slot.range.start,
                        end: slot.range.end,
                        from: slot.acked,
                        checkpoint_every,
                    });
                    lease_id += 1;
                    break 'jobs;
                }
            }
        }
        self.next_lease_id = lease_id;
        offer
    }

    /// The earliest deadline of an active lease (only unfinished jobs have
    /// one): when [`LeaseBook::next_lease`] can next re-issue an expired
    /// lease. `None` when no lease is out.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.jobs
            .iter()
            .flat_map(|j| &j.ranges)
            .filter_map(|s| match s.state {
                RangeState::Active { deadline, .. } => Some(deadline),
                _ => None,
            })
            .min()
    }

    fn slot_of_lease(&mut self, lease_id: u64) -> Result<(usize, usize), String> {
        if lease_id >= self.next_lease_id {
            return Err(format!("delta: unknown lease {lease_id}"));
        }
        for (ji, job) in self.jobs.iter().enumerate() {
            for (ri, slot) in job.ranges.iter().enumerate() {
                if let RangeState::Active { lease_id: id, .. } = slot.state {
                    if id == lease_id {
                        return Ok((ji, ri));
                    }
                }
            }
        }
        // The id was issued once but no range carries it any more: the
        // lease timed out (or its connection dropped) and was re-issued.
        Err(format!("delta: lease {lease_id} is superseded"))
    }

    /// Folds one streamed delta into its job, advancing the range's acked
    /// watermark and extending the lease deadline. Exactly-once folding is
    /// enforced here; see the module docs for the argument.
    ///
    /// # Errors
    ///
    /// Unknown or superseded lease ids, a grid-fingerprint mismatch
    /// (descriptor skew), a delta not starting at the watermark
    /// (`duplicate ack`), one overrunning its range, and entries failing
    /// [`validate_entries`] — all pinned by the corpus tests. Errors do
    /// not advance any state.
    pub fn fold_delta(&mut self, d: &Delta, now: Instant) -> Result<FoldOutcome, String> {
        let (ji, ri) = self.slot_of_lease(d.lease_id)?;
        let job = &mut self.jobs[ji];
        if d.grid_fp != job.grid_fp {
            return Err(format!(
                "delta: grid fingerprint '{}' does not match the job's '{}'",
                d.grid_fp, job.grid_fp
            ));
        }
        let slot = &mut job.ranges[ri];
        if d.from != slot.acked {
            return Err(format!(
                "delta: duplicate ack at {} (the watermark is {})",
                d.from, slot.acked
            ));
        }
        if d.taken == 0 || d.from + d.taken > slot.range.len() {
            return Err(format!(
                "delta: interval {}+{} overruns the {}-position lease",
                d.from,
                d.taken,
                slot.range.len()
            ));
        }
        let entries = validate_entries(&d.entries, &job.grid_value)?;

        slot.acked += d.taken;
        job.progress.absorb(RangeDelta {
            from: d.from,
            taken: d.taken,
            stats: d.stats,
            pruned_chains: 0,
            entries: entries.into_iter().map(|(k, e)| (k, e.to_json())).collect(),
        });
        let done = slot.acked;
        if done < slot.range.len() {
            let deadline = now + self.cfg.lease_timeout;
            slot.state = RangeState::Active {
                lease_id: d.lease_id,
                deadline,
            };
            self.deltas_folded += 1;
            self.last_fold = Some(now);
            return Ok(FoldOutcome::Advanced { done });
        }
        slot.state = RangeState::Done;
        let job_finished = if job.ranges.iter().all(|s| s.state == RangeState::Done) {
            job.result = Some(Ok(frontier_json(&job.desc, &job.progress)));
            Some(job.job_id)
        } else {
            None
        };
        self.deltas_folded += 1;
        self.last_fold = Some(now);
        Ok(FoldOutcome::LeaseDone { done, job_finished })
    }

    /// Returns a dropped connection's active leases to `Pending`, keeping
    /// their acked watermarks. The lease ids are implicitly superseded —
    /// they no longer map to any active range.
    pub fn release_leases(&mut self, lease_ids: &[u64]) {
        for job in &mut self.jobs {
            for slot in &mut job.ranges {
                if let RangeState::Active { lease_id, .. } = slot.state {
                    if lease_ids.contains(&lease_id) {
                        slot.state = RangeState::Pending;
                    }
                }
            }
        }
    }

    /// Fails the job owning `lease_id` (a worker sent `refuse`): its
    /// submitter gets the message, its remaining ranges stop being leased.
    pub fn refuse(&mut self, lease_id: u64, message: &str) -> Result<u64, String> {
        let (ji, _) = self.slot_of_lease(lease_id)?;
        let job = &mut self.jobs[ji];
        for slot in &mut job.ranges {
            slot.state = RangeState::Done;
        }
        job.result = Some(Err(format!("lease {lease_id} refused: {message}")));
        Ok(job.job_id)
    }

    /// Hands out a finished job's result (the frontier file, or the failure
    /// message) exactly once and forgets the job; `None` while it runs.
    /// Deltas for leases of a forgotten job are rejected as superseded.
    pub fn take_result(&mut self, job_id: u64) -> Option<Result<String, String>> {
        let i = self
            .jobs
            .iter()
            .position(|j| j.job_id == job_id && j.finished())?;
        // `remove`, not `swap_remove`: leases go out oldest job first.
        self.jobs.remove(i).result
    }

    /// `true` when no unfinished job remains.
    pub fn idle(&self) -> bool {
        self.jobs.iter().all(|j| j.finished())
    }

    /// Leases currently active (issued, neither acked to completion nor
    /// released) across all jobs.
    pub fn leases_outstanding(&self) -> usize {
        self.jobs
            .iter()
            .flat_map(|j| &j.ranges)
            .filter(|s| matches!(s.state, RangeState::Active { .. }))
            .count()
    }

    /// Total deltas folded since the book was created.
    pub fn deltas_folded(&self) -> u64 {
        self.deltas_folded
    }

    /// Milliseconds since the most recent folded delta (0 before the first
    /// fold — an idle coordinator reports no lag, not infinite lag).
    pub fn fold_lag_ms(&self, now: Instant) -> u64 {
        self.last_fold
            .map(|t| now.saturating_duration_since(t).as_millis() as u64)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vi_noc_sweep::SweepStats;

    fn desc(num_chains: u64) -> GridDescriptor {
        GridDescriptor {
            spec_name: "toy".to_string(),
            island_count: 2,
            partition: "logical:2".to_string(),
            seed: 1,
            max_boost: 1,
            freq_scales: vec![1.0],
            max_intermediate: 1,
            num_chains,
            windows: Vec::new(),
        }
    }

    fn delta(lease: &Lease, from: u64, taken: u64) -> Delta {
        Delta {
            lease_id: lease.lease_id,
            grid_fp: lease.grid_fp.clone(),
            from,
            taken,
            stats: SweepStats {
                chains: taken,
                ..SweepStats::default()
            },
            entries: Vec::new(),
        }
    }

    #[test]
    fn ranges_move_pending_active_done_and_finish_the_job() {
        let mut book = LeaseBook::new(FleetConfig {
            lease_chunk: 4,
            checkpoint_every: 2,
            ..FleetConfig::default()
        });
        let t0 = Instant::now();
        let job = book.submit("payload", &desc(6)).unwrap();
        assert!(book.take_result(job).is_none());

        let l1 = book.next_lease(t0).unwrap();
        let l2 = book.next_lease(t0).unwrap();
        assert_eq!((l1.start, l1.end, l1.from), (0, 4, 0));
        assert_eq!((l2.start, l2.end), (4, 6));
        assert!(book.next_lease(t0).is_none(), "everything is leased");

        let out = book.fold_delta(&delta(&l1, 0, 2), t0).unwrap();
        assert_eq!(out, FoldOutcome::Advanced { done: 2 });
        let out = book.fold_delta(&delta(&l1, 2, 2), t0).unwrap();
        assert_eq!(
            out,
            FoldOutcome::LeaseDone {
                done: 4,
                job_finished: None
            }
        );
        let out = book.fold_delta(&delta(&l2, 0, 1), t0).unwrap();
        assert_eq!(out, FoldOutcome::Advanced { done: 1 });
        match book.fold_delta(&delta(&l2, 1, 1), t0).unwrap() {
            FoldOutcome::LeaseDone {
                job_finished: Some(id),
                ..
            } => assert_eq!(id, job),
            other => panic!("job should finish: {other:?}"),
        }
        let result = book.take_result(job).unwrap().unwrap();
        assert!(result.contains("\"chains\":6"), "{result}");
        assert!(book.idle());
    }

    #[test]
    fn a_taken_result_is_forgotten_with_its_job() {
        let mut book = LeaseBook::new(FleetConfig {
            lease_chunk: 4,
            checkpoint_every: 4,
            ..FleetConfig::default()
        });
        let t0 = Instant::now();
        let first = book.submit("first", &desc(4)).unwrap();
        let second = book.submit("second", &desc(4)).unwrap();
        let l1 = book.next_lease(t0).unwrap();
        let l2 = book.next_lease(t0).unwrap();
        assert_eq!((l1.job.as_str(), l2.job.as_str()), ("first", "second"));
        book.fold_delta(&delta(&l1, 0, 4), t0).unwrap();

        assert!(book.take_result(first).unwrap().is_ok());
        assert!(book.take_result(first).is_none(), "a result is taken once");
        let err = book.fold_delta(&delta(&l1, 0, 4), t0).unwrap_err();
        assert_eq!(err, format!("delta: lease {} is superseded", l1.lease_id));

        // The other job is untouched by the first one's eviction.
        assert!(book.take_result(second).is_none());
        book.fold_delta(&delta(&l2, 0, 4), t0).unwrap();
        assert!(book.take_result(second).unwrap().is_ok());
        assert!(book.idle());
    }

    #[test]
    fn expired_leases_are_reissued_from_the_watermark_and_superseded() {
        let cfg = FleetConfig {
            lease_chunk: 8,
            checkpoint_every: 2,
            lease_timeout: Duration::from_millis(100),
            ..FleetConfig::default()
        };
        let mut book = LeaseBook::new(cfg);
        let t0 = Instant::now();
        book.submit("payload", &desc(8)).unwrap();

        let l1 = book.next_lease(t0).unwrap();
        book.fold_delta(&delta(&l1, 0, 2), t0).unwrap();
        // Before the deadline there is nothing to lease...
        assert!(book.next_lease(t0 + Duration::from_millis(50)).is_none());
        // ...after it, the same range is re-issued from the watermark.
        let late = t0 + Duration::from_millis(250);
        let l2 = book.next_lease(late).unwrap();
        assert_eq!((l2.start, l2.end, l2.from), (0, 8, 2));
        assert_ne!(l2.lease_id, l1.lease_id);
        // The zombie's next delta is rejected; the replacement's folds.
        let err = book.fold_delta(&delta(&l1, 2, 2), late).unwrap_err();
        assert_eq!(err, format!("delta: lease {} is superseded", l1.lease_id));
        book.fold_delta(&delta(&l2, 2, 2), late).unwrap();
        // Folding a delta extends the deadline: no re-issue right after.
        assert!(book.next_lease(late + Duration::from_millis(50)).is_none());
    }

    #[test]
    fn fold_rejects_unknown_duplicate_mismatched_and_overrunning_deltas() {
        let mut book = LeaseBook::new(FleetConfig {
            lease_chunk: 8,
            ..FleetConfig::default()
        });
        let t0 = Instant::now();
        book.submit("payload", &desc(8)).unwrap();
        let l = book.next_lease(t0).unwrap();

        let err = book.fold_delta(&delta(&l, 1, 2), t0).unwrap_err();
        assert_eq!(err, "delta: duplicate ack at 1 (the watermark is 0)");
        let mut skewed = delta(&l, 0, 2);
        skewed.grid_fp = "deadbeefdeadbeef".to_string();
        let err = book.fold_delta(&skewed, t0).unwrap_err();
        assert!(
            err.starts_with("delta: grid fingerprint 'deadbeefdeadbeef'"),
            "{err}"
        );
        let err = book.fold_delta(&delta(&l, 0, 9), t0).unwrap_err();
        assert_eq!(err, "delta: interval 0+9 overruns the 8-position lease");
        let mut unknown = delta(&l, 0, 2);
        unknown.lease_id = 99;
        let err = book.fold_delta(&unknown, t0).unwrap_err();
        assert_eq!(err, "delta: unknown lease 99");

        book.fold_delta(&delta(&l, 0, 2), t0).unwrap();
        let err = book.fold_delta(&delta(&l, 0, 2), t0).unwrap_err();
        assert_eq!(err, "delta: duplicate ack at 0 (the watermark is 2)");
    }

    #[test]
    fn released_leases_go_back_to_pending_and_refusal_fails_the_job() {
        let mut book = LeaseBook::new(FleetConfig {
            lease_chunk: 4,
            ..FleetConfig::default()
        });
        let t0 = Instant::now();
        let job = book.submit("payload", &desc(8)).unwrap();
        let l1 = book.next_lease(t0).unwrap();
        book.fold_delta(&delta(&l1, 0, 1), t0).unwrap();
        book.release_leases(&[l1.lease_id]);
        let l2 = book.next_lease(t0).unwrap();
        assert_eq!((l2.start, l2.from), (0, 1), "re-issued from the watermark");
        let err = book.fold_delta(&delta(&l1, 1, 1), t0).unwrap_err();
        assert!(err.contains("superseded"), "{err}");

        let finished = book
            .refuse(l2.lease_id, "grid fingerprint mismatch")
            .unwrap();
        assert_eq!(finished, job);
        let msg = book.take_result(job).unwrap().unwrap_err();
        assert_eq!(
            msg,
            format!("lease {} refused: grid fingerprint mismatch", l2.lease_id)
        );
        assert!(book.idle());
        assert!(book.next_lease(t0).is_none(), "failed jobs lease nothing");
    }

    #[test]
    fn metrics_track_outstanding_leases_and_fold_lag() {
        let mut book = LeaseBook::new(FleetConfig {
            lease_chunk: 4,
            ..FleetConfig::default()
        });
        let t0 = Instant::now();
        assert_eq!(book.leases_outstanding(), 0);
        assert_eq!(book.deltas_folded(), 0);
        assert_eq!(book.fold_lag_ms(t0), 0, "no fold yet means no lag");

        book.submit("payload", &desc(8)).unwrap();
        let l1 = book.next_lease(t0).unwrap();
        let l2 = book.next_lease(t0).unwrap();
        assert_eq!(book.leases_outstanding(), 2);

        book.fold_delta(&delta(&l1, 0, 2), t0).unwrap();
        assert_eq!(book.deltas_folded(), 1);
        assert_eq!(book.fold_lag_ms(t0 + Duration::from_millis(40)), 40);

        // Completing a lease takes it out of the outstanding count;
        // rejected deltas never count as folds.
        book.fold_delta(&delta(&l1, 2, 2), t0).unwrap();
        assert_eq!(book.leases_outstanding(), 1);
        assert_eq!(book.deltas_folded(), 2);
        assert!(book.fold_delta(&delta(&l2, 3, 1), t0).is_err());
        assert_eq!(book.deltas_folded(), 2);

        book.release_leases(&[l2.lease_id]);
        assert_eq!(book.leases_outstanding(), 0);
    }

    #[test]
    fn next_deadline_is_the_earliest_active_lease_deadline() {
        let ms = Duration::from_millis;
        let mut book = LeaseBook::new(FleetConfig {
            lease_chunk: 4,
            lease_timeout: ms(100),
            ..FleetConfig::default()
        });
        let t0 = Instant::now();
        let job = book.submit("payload", &desc(8)).unwrap();
        assert_eq!(book.next_deadline(), None, "pending ranges have none");
        let l1 = book.next_lease(t0).unwrap();
        let l2 = book.next_lease(t0 + ms(30)).unwrap();
        assert_eq!(book.next_deadline(), Some(t0 + ms(100)));
        // A fold extends its lease's deadline: the other one is now first.
        book.fold_delta(&delta(&l1, 0, 1), t0 + ms(50)).unwrap();
        assert_eq!(book.next_deadline(), Some(t0 + ms(130)));
        // A finished job leaves none behind.
        book.fold_delta(&delta(&l1, 1, 3), t0).unwrap();
        book.fold_delta(&delta(&l2, 0, 4), t0).unwrap();
        assert!(book.take_result(job).unwrap().is_ok());
        assert_eq!(book.next_deadline(), None);
    }

    #[test]
    fn empty_grids_complete_on_submission() {
        let mut book = LeaseBook::new(FleetConfig::default());
        let job = book.submit("payload", &desc(0)).unwrap();
        assert!(book.take_result(job).unwrap().is_ok());
        assert!(book.next_lease(Instant::now()).is_none());
    }
}
