//! The deterministic scheduler core: a bounded FIFO job queue with
//! per-client quotas and a four-state job lifecycle.
//!
//! This module is a plain library — no sockets, no threads, no clocks.
//! Every decision (admit, reject, dispatch, finish) is a pure function
//! of the call sequence, which is what makes the admission policy
//! directly unit- and property-testable: the HTTP layer in
//! [`crate::server`] is a thin adapter that translates requests into
//! these calls under one mutex.
//!
//! # Admission policy
//!
//! A submission is checked in a fixed order, and the *first* violated
//! rule names the rejection:
//!
//! 1. the spec must pass [`CampaignSpec::validate`]
//!    ([`SubmitError::InvalidSpec`], a 400-class rejection);
//! 2. the global queue must have room ([`SubmitError::QueueFull`],
//!    429-class);
//! 3. the client must have queue slots left
//!    ([`SubmitError::ClientQueueFull`], 429-class);
//! 4. the client's *active* grid points — queued plus running, plus the
//!    new grid — must fit its point quota
//!    ([`SubmitError::QuotaExceeded`], 429-class). Points are the real
//!    cost unit: one 10⁶-point grid is not the same load as one smoke
//!    grid, so job-count quotas alone would be gameable.
//!
//! Completed and interrupted jobs stop counting against quotas, so a
//! client's budget frees up as its work drains.

use qdc_harness::{Aggregate, CampaignError, CampaignSpec};
use std::collections::{BTreeMap, VecDeque};

/// Per-client and global admission limits.
#[derive(Clone, Copy, Debug)]
pub struct QuotaConfig {
    /// Maximum jobs queued (not yet running) across all clients.
    pub max_queue: usize,
    /// Maximum jobs one client may have queued at once.
    pub max_queued_per_client: usize,
    /// Maximum grid points one client may have active (queued plus
    /// running) at once. Also caps a single submission's size.
    pub max_points_per_client: u64,
}

impl Default for QuotaConfig {
    fn default() -> Self {
        QuotaConfig {
            max_queue: 64,
            max_queued_per_client: 8,
            max_points_per_client: 4096,
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Every grid point is committed to the journal.
    Completed,
    /// Execution stopped early (service shutdown mid-job); the journal
    /// is a resumable record-boundary prefix, and a restart re-enqueues
    /// the job.
    Interrupted,
}

impl JobState {
    /// The wire name of the state (`qdc-job/v1`'s `state` field).
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Interrupted => "interrupted",
        }
    }
}

/// One admitted job.
#[derive(Clone, Debug)]
pub struct Job {
    /// Service-assigned id (monotonic; names the job's files and URLs).
    pub id: u64,
    /// The submitting client's key (token header or peer address).
    pub client: String,
    /// The validated campaign specification.
    pub spec: CampaignSpec,
    /// Whether the job asked for per-point telemetry archives.
    pub telemetry: bool,
    /// Size of the expanded grid (cached from `spec.point_count()`).
    pub total_points: u64,
    /// Lifecycle state.
    pub state: JobState,
    /// Journal lines committed so far (updated at state transitions;
    /// the live count for a running job comes from its journal file).
    pub committed: u64,
    /// Fold of the committed entries (same update discipline).
    pub aggregate: Aggregate,
}

/// Why a submission was rejected. Every variant maps to one
/// `qdc-service-error/v1` body (see [`crate::wire::submit_error_json`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The spec failed semantic validation.
    InvalidSpec(CampaignError),
    /// The global queue is at capacity.
    QueueFull {
        /// Jobs currently queued.
        depth: usize,
        /// The configured bound.
        max: usize,
    },
    /// The client has too many jobs queued already.
    ClientQueueFull {
        /// Jobs this client has queued.
        queued: usize,
        /// The configured per-client bound.
        max: usize,
    },
    /// The submission would push the client past its point quota.
    QuotaExceeded {
        /// Points the new grid would add.
        requested: u64,
        /// Points the client already has active.
        active: u64,
        /// The configured per-client bound.
        max: u64,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::InvalidSpec(e) => write!(f, "invalid campaign spec: {e}"),
            SubmitError::QueueFull { depth, max } => {
                write!(f, "queue full: {depth} of {max} job slots in use")
            }
            SubmitError::ClientQueueFull { queued, max } => {
                write!(f, "client queue full: {queued} of {max} job slots in use")
            }
            SubmitError::QuotaExceeded {
                requested,
                active,
                max,
            } => write!(
                f,
                "point quota exceeded: {requested} requested with {active} active \
                 of {max} allowed"
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Per-client lifetime counters (monotonic; survive job completion).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Jobs admitted.
    pub submitted: u64,
    /// Submissions rejected (any [`SubmitError`]).
    pub rejected: u64,
    /// Jobs that reached [`JobState::Completed`].
    pub completed: u64,
}

/// The deterministic queue/quota/scheduler state machine.
#[derive(Debug, Default)]
pub struct ServiceCore {
    quotas: QuotaConfig,
    next_id: u64,
    queue: VecDeque<u64>,
    jobs: BTreeMap<u64, Job>,
    clients: BTreeMap<String, ClientStats>,
}

impl ServiceCore {
    /// A fresh core with the given admission limits.
    pub fn new(quotas: QuotaConfig) -> ServiceCore {
        ServiceCore {
            quotas,
            next_id: 1,
            ..ServiceCore::default()
        }
    }

    /// The configured limits.
    pub fn quotas(&self) -> QuotaConfig {
        self.quotas
    }

    /// Jobs currently queued (not yet dispatched).
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Jobs in the given state.
    pub fn count_in_state(&self, state: JobState) -> usize {
        self.jobs.values().filter(|j| j.state == state).count()
    }

    /// All jobs, in id order.
    pub fn jobs(&self) -> impl Iterator<Item = &Job> {
        self.jobs.values()
    }

    /// Looks up one job.
    pub fn job(&self, id: u64) -> Option<&Job> {
        self.jobs.get(&id)
    }

    /// Per-client lifetime counters, in key order.
    pub fn clients(&self) -> impl Iterator<Item = (&str, &ClientStats)> {
        self.clients.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Grid points the client has active (queued plus running).
    pub fn active_points(&self, client: &str) -> u64 {
        self.jobs
            .values()
            .filter(|j| {
                j.client == client && matches!(j.state, JobState::Queued | JobState::Running)
            })
            .map(|j| j.total_points)
            .sum()
    }

    /// Jobs the client has queued right now.
    pub fn queued_jobs(&self, client: &str) -> usize {
        self.queue
            .iter()
            .filter(|id| self.jobs[id].client == client)
            .count()
    }

    /// Admits a job or rejects it with the first violated rule (see the
    /// module docs for the check order). Rejections are counted against
    /// the client either way.
    pub fn submit(
        &mut self,
        client: &str,
        spec: CampaignSpec,
        telemetry: bool,
    ) -> Result<u64, SubmitError> {
        let decision = self.admit(client, &spec);
        let stats = self.clients.entry(client.to_string()).or_default();
        match decision {
            Err(e) => {
                stats.rejected += 1;
                Err(e)
            }
            Ok(total_points) => {
                stats.submitted += 1;
                let id = self.next_id;
                self.next_id += 1;
                self.jobs.insert(
                    id,
                    Job {
                        id,
                        client: client.to_string(),
                        spec,
                        telemetry,
                        total_points,
                        state: JobState::Queued,
                        committed: 0,
                        aggregate: Aggregate::default(),
                    },
                );
                self.queue.push_back(id);
                Ok(id)
            }
        }
    }

    /// The admission checks alone (no mutation). Returns the grid size.
    fn admit(&self, client: &str, spec: &CampaignSpec) -> Result<u64, SubmitError> {
        spec.validate().map_err(SubmitError::InvalidSpec)?;
        // Size the grid arithmetically: expanding it (`spec.points()`)
        // before the quota check would let an untrusted 64 KiB spec with
        // two multi-thousand-entry axes allocate a multi-GB cross
        // product under the core mutex just to be told 429.
        let requested = spec.point_count();
        if self.queue.len() >= self.quotas.max_queue {
            return Err(SubmitError::QueueFull {
                depth: self.queue.len(),
                max: self.quotas.max_queue,
            });
        }
        let queued = self.queued_jobs(client);
        if queued >= self.quotas.max_queued_per_client {
            return Err(SubmitError::ClientQueueFull {
                queued,
                max: self.quotas.max_queued_per_client,
            });
        }
        let active = self.active_points(client);
        if active + requested > self.quotas.max_points_per_client {
            return Err(SubmitError::QuotaExceeded {
                requested,
                active,
                max: self.quotas.max_points_per_client,
            });
        }
        Ok(requested)
    }

    /// Never hands out an id at or below `id`: the startup scan passes
    /// the largest id the data dir names, skipped damaged jobs included.
    pub fn reserve_ids_through(&mut self, id: u64) {
        self.next_id = self.next_id.max(id.saturating_add(1));
    }

    /// Re-inserts a job recovered from the service data dir at startup.
    /// Incomplete jobs (`Queued`/`Running`/`Interrupted` on disk) are
    /// re-enqueued as [`JobState::Queued`]; completed ones keep their
    /// terminal state. The id counter advances past every restored id.
    /// Every restored job counts as submitted (and completed ones as
    /// completed), so the lifetime invariant `completed ≤ submitted`
    /// holds across restarts.
    pub fn restore(&mut self, mut job: Job) {
        self.next_id = self.next_id.max(job.id + 1);
        let stats = self.clients.entry(job.client.clone()).or_default();
        stats.submitted += 1;
        if job.state != JobState::Completed {
            job.state = JobState::Queued;
            self.queue.push_back(job.id);
        } else {
            stats.completed += 1;
        }
        self.jobs.insert(job.id, job);
    }

    /// Dispatches the oldest queued job to a worker (FIFO), marking it
    /// running. `None` when the queue is empty.
    pub fn take_next(&mut self) -> Option<Job> {
        let id = self.queue.pop_front()?;
        let job = self.jobs.get_mut(&id).expect("queued jobs exist");
        job.state = JobState::Running;
        Some(job.clone())
    }

    /// Removes a still-queued job entirely (the submit path could not
    /// persist it, so the admission is rolled back as if it never
    /// happened — including the client's `submitted` count).
    pub fn abort_queued(&mut self, id: u64) {
        let Some(pos) = self.queue.iter().position(|&q| q == id) else {
            return;
        };
        self.queue.remove(pos);
        if let Some(job) = self.jobs.remove(&id) {
            if let Some(stats) = self.clients.get_mut(&job.client) {
                stats.submitted = stats.submitted.saturating_sub(1);
            }
        }
    }

    /// Records a finished run: `interrupted = false` marks the job
    /// completed, `true` leaves it resumable (a restart re-enqueues it).
    pub fn finish(&mut self, id: u64, committed: u64, aggregate: Aggregate, interrupted: bool) {
        let Some(job) = self.jobs.get_mut(&id) else {
            return;
        };
        job.committed = committed;
        job.aggregate = aggregate;
        job.state = if interrupted {
            JobState::Interrupted
        } else {
            JobState::Completed
        };
        if !interrupted {
            self.clients
                .get_mut(&job.client)
                .expect("submitting created the entry")
                .completed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdc_harness::builtin;

    fn smoke() -> CampaignSpec {
        builtin("simthm_smoke").expect("builtin")
    }

    fn tiny_quotas() -> QuotaConfig {
        QuotaConfig {
            max_queue: 3,
            max_queued_per_client: 2,
            max_points_per_client: 8,
        }
    }

    #[test]
    fn core_submit_assigns_monotonic_ids_and_fifo_dispatch() {
        let mut core = ServiceCore::new(QuotaConfig::default());
        let a = core.submit("alice", smoke(), false).expect("admits");
        let b = core.submit("bob", smoke(), true).expect("admits");
        assert!(a < b, "ids are monotonic");
        assert_eq!(core.queue_depth(), 2);
        let first = core.take_next().expect("queue has jobs");
        assert_eq!(first.id, a, "FIFO order");
        assert_eq!(core.job(a).expect("exists").state, JobState::Running);
        assert_eq!(core.job(b).expect("exists").state, JobState::Queued);
        assert!(!first.telemetry);
        assert!(core.job(b).expect("exists").telemetry);
    }

    #[test]
    fn core_rejects_invalid_specs_before_any_quota() {
        let mut core = ServiceCore::new(QuotaConfig {
            max_queue: 0, // even a full queue…
            ..QuotaConfig::default()
        });
        let mut spec = smoke();
        spec.name.clear();
        let err = core.submit("alice", spec, false).expect_err("rejects");
        // …must not mask the spec error: validation runs first.
        assert_eq!(
            err,
            SubmitError::InvalidSpec(CampaignError::EmptyName),
            "spec validation precedes quota checks"
        );
        assert_eq!(core.clients().next().expect("counted").1.rejected, 1);
    }

    #[test]
    fn core_enforces_the_global_queue_bound() {
        let mut core = ServiceCore::new(tiny_quotas());
        core.submit("a", smoke(), false).expect("1st");
        core.submit("b", smoke(), false).expect("2nd");
        // Third client, zero active points — only the *global* bound can
        // reject it once c's own quota is fine… but max_queue = 3 admits
        // it, and the fourth submission hits the wall.
        core.submit("c", smoke(), false).expect("3rd");
        let err = core.submit("d", smoke(), false).expect_err("4th");
        assert_eq!(err, SubmitError::QueueFull { depth: 3, max: 3 });
    }

    #[test]
    fn core_enforces_per_client_bounds_and_frees_them_on_finish() {
        let mut core = ServiceCore::new(tiny_quotas());
        let a = core.submit("alice", smoke(), false).expect("1st");
        core.submit("alice", smoke(), false).expect("2nd");
        // Queue slots: 2 of 2 in use.
        let err = core.submit("alice", smoke(), false).expect_err("3rd");
        assert_eq!(err, SubmitError::ClientQueueFull { queued: 2, max: 2 });
        // Dispatching frees a queue slot but not the point quota: the
        // smoke grid is 4 points, so 2 active jobs = 8 = the full budget.
        let job = core.take_next().expect("dispatch");
        assert_eq!(job.id, a);
        let err = core.submit("alice", smoke(), false).expect_err("points");
        assert_eq!(
            err,
            SubmitError::QuotaExceeded {
                requested: 4,
                active: 8,
                max: 8
            }
        );
        // Finishing the running job returns its points to the budget.
        core.finish(a, 4, Aggregate::default(), false);
        core.submit("alice", smoke(), false)
            .expect("quota freed by completion");
        let stats = core
            .clients()
            .find(|(k, _)| *k == "alice")
            .expect("tracked")
            .1;
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.rejected, 2);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn core_oversized_single_job_is_rejected_outright() {
        let mut core = ServiceCore::new(QuotaConfig {
            max_points_per_client: 3,
            ..QuotaConfig::default()
        });
        let err = core.submit("alice", smoke(), false).expect_err("too big");
        assert_eq!(
            err,
            SubmitError::QuotaExceeded {
                requested: 4,
                active: 0,
                max: 3
            }
        );
    }

    #[test]
    fn core_rejects_a_hostile_grid_without_expanding_it() {
        use qdc_harness::CampaignGrid;
        // Two ~4k-entry axes describe a 16M-point grid from a few KiB of
        // spec. Admission must size it arithmetically — expanding the
        // cross product here (as admit() once did via spec.points())
        // would allocate millions of PointSpecs under the core mutex
        // before the rejection.
        let mut core = ServiceCore::new(QuotaConfig::default());
        let mut spec = qdc_harness::builtin("chaos_ensemble").expect("builtin");
        if let CampaignGrid::Chaos { drop_pm, seeds, .. } = &mut spec.grid {
            *drop_pm = vec![0; 4000];
            *seeds = (0..4000).collect();
        }
        let err = core.submit("alice", spec, false).expect_err("rejected");
        assert_eq!(
            err,
            SubmitError::QuotaExceeded {
                requested: 16_000_000,
                active: 0,
                max: QuotaConfig::default().max_points_per_client,
            }
        );
    }

    #[test]
    fn core_restore_re_enqueues_incomplete_jobs_and_advances_ids() {
        let mut core = ServiceCore::new(QuotaConfig::default());
        core.restore(Job {
            id: 7,
            client: "alice".into(),
            spec: smoke(),
            telemetry: false,
            total_points: 4,
            state: JobState::Completed,
            committed: 4,
            aggregate: Aggregate::default(),
        });
        core.restore(Job {
            id: 9,
            client: "bob".into(),
            spec: smoke(),
            telemetry: true,
            total_points: 4,
            state: JobState::Interrupted,
            committed: 2,
            aggregate: Aggregate::default(),
        });
        assert_eq!(core.count_in_state(JobState::Completed), 1);
        assert_eq!(core.count_in_state(JobState::Queued), 1);
        assert_eq!(core.queue_depth(), 1);
        let next = core.take_next().expect("recovered job re-enqueued");
        assert_eq!(next.id, 9, "the interrupted job is back in the queue");
        assert_eq!(next.committed, 2, "its progress marker survives");
        // Restored jobs keep the lifetime counters consistent: every
        // restored job counts as submitted, so `completed ≤ submitted`
        // holds in /status even right after a restart.
        let alice = core.clients().find(|(k, _)| *k == "alice").expect("kept").1;
        assert_eq!((alice.submitted, alice.completed), (1, 1));
        let bob = core.clients().find(|(k, _)| *k == "bob").expect("kept").1;
        assert_eq!((bob.submitted, bob.completed), (1, 0));
        // A fresh submission continues past every restored id.
        let fresh = core.submit("carol", smoke(), false).expect("admits");
        assert_eq!(fresh, 10);
    }

    #[test]
    fn core_abort_queued_rolls_the_admission_back() {
        let mut core = ServiceCore::new(QuotaConfig::default());
        let id = core.submit("alice", smoke(), false).expect("admits");
        core.abort_queued(id);
        assert!(core.job(id).is_none(), "the job is gone");
        assert_eq!(core.queue_depth(), 0, "and not in the queue");
        assert_eq!(
            core.clients().next().expect("tracked").1.submitted,
            0,
            "the submitted count is rolled back"
        );
        // Aborting a dispatched (running) job is a no-op: it is no
        // longer queued, so there is nothing to roll back.
        let id = core.submit("alice", smoke(), false).expect("admits");
        core.take_next().expect("dispatch");
        core.abort_queued(id);
        assert!(core.job(id).is_some(), "running jobs are untouched");
    }

    #[test]
    fn core_errors_display_without_panicking() {
        for e in [
            SubmitError::InvalidSpec(CampaignError::ZeroGamma),
            SubmitError::QueueFull { depth: 3, max: 3 },
            SubmitError::ClientQueueFull { queued: 2, max: 2 },
            SubmitError::QuotaExceeded {
                requested: 9,
                active: 1,
                max: 8,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
