//! The deterministic scheduler core: a bounded FIFO job queue with
//! per-client quotas. It holds only the live jobs, queued and running;
//! a finished job lives on in the data dir alone, and the core keeps
//! just the counters `/status` reports.
//!
//! This module is a plain library — no sockets, no threads, no clocks.
//! Every decision (admit, reject, dispatch, finish) is a pure function
//! of the call sequence, which is what makes the admission policy
//! directly unit- and property-testable: the HTTP layer in
//! [`crate::server`] is a thin adapter that translates requests into
//! these calls under one mutex. Each live job also owns a
//! [`CommitWatch`], created when the job is admitted or restored and
//! closed when the core lets it go; the core hands the watches out and
//! never waits on one.
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

use qdc_harness::{CampaignError, CampaignSpec, CommitWatch};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

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
    /// The run stopped early: the service shut down mid-job, or the run
    /// failed on a journal I/O error, a failed archive or a refused fold.
    /// The journal is a resumable record-boundary prefix, and a restart
    /// re-enqueues the job.
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

/// One admitted job: its submission, as `job_<id>.json` persists it.
/// Neither its state nor its progress is kept here: the core knows
/// which live jobs are queued or running, and the journal in the data
/// dir is the one record of what a job has committed.
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
    queue: VecDeque<Job>,
    running: BTreeMap<u64, Job>,
    /// The commit watch of every live job, queued or running.
    watches: BTreeMap<u64, Arc<CommitWatch>>,
    clients: BTreeMap<String, ClientStats>,
    interrupted: u64,
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

    /// Jobs in the given state: the live ones held here, and the
    /// finished ones counted as they finished or were restored.
    pub fn count_in_state(&self, state: JobState) -> u64 {
        match state {
            JobState::Queued => self.queue.len() as u64,
            JobState::Running => self.running.len() as u64,
            JobState::Completed => self.clients.values().map(|c| c.completed).sum(),
            JobState::Interrupted => self.interrupted,
        }
    }

    /// A live job's state; `None` once it has finished, and for an id
    /// the core never admitted.
    pub fn state(&self, id: u64) -> Option<JobState> {
        if self.running.contains_key(&id) {
            return Some(JobState::Running);
        }
        let queued = self.queue.iter().any(|j| j.id == id);
        queued.then_some(JobState::Queued)
    }

    /// A live job's commit watch, which its run publishes the journal's
    /// durable length on; `None` once the job has finished, and for an
    /// id the core never admitted.
    pub fn watch(&self, id: u64) -> Option<Arc<CommitWatch>> {
        self.watches.get(&id).cloned()
    }

    /// Every live job's commit watch, in id order.
    pub fn watches(&self) -> impl Iterator<Item = &CommitWatch> {
        self.watches.values().map(|w| &**w)
    }

    /// Per-client lifetime counters, in key order.
    pub fn clients(&self) -> impl Iterator<Item = (&str, &ClientStats)> {
        self.clients.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Grid points the client has active (queued plus running).
    pub fn active_points(&self, client: &str) -> u64 {
        self.queue
            .iter()
            .chain(self.running.values())
            .filter(|j| j.client == client)
            .map(|j| j.spec.point_count())
            .sum()
    }

    /// Jobs the client has queued right now.
    pub fn queued_jobs(&self, client: &str) -> usize {
        self.queue.iter().filter(|j| j.client == client).count()
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
            Ok(()) => {
                stats.submitted += 1;
                let id = self.next_id;
                self.next_id += 1;
                self.watches.insert(id, Arc::default());
                self.queue.push_back(Job {
                    id,
                    client: client.to_string(),
                    spec,
                    telemetry,
                });
                Ok(id)
            }
        }
    }

    /// The admission checks alone (no mutation).
    fn admit(&self, client: &str, spec: &CampaignSpec) -> Result<(), SubmitError> {
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
        Ok(())
    }

    /// Never hands out an id at or below `id`: the startup scan passes
    /// the largest id the data dir names, skipped damaged jobs included.
    pub fn reserve_ids_through(&mut self, id: u64) {
        self.next_id = self.next_id.max(id.saturating_add(1));
    }

    /// Takes in a job recovered from the service data dir at startup.
    /// The startup scan classifies each job by its journal alone: a
    /// `completed` one, whose journal holds every grid point, is only
    /// counted, and any other is re-enqueued; its run resumes from the
    /// journal, which also answers for its progress. The id counter
    /// advances past every restored id. Every restored job counts as
    /// submitted (and completed ones as completed), so the lifetime
    /// invariant `completed ≤ submitted` holds across restarts.
    pub fn restore(&mut self, job: Job, completed: bool) {
        self.next_id = self.next_id.max(job.id + 1);
        let stats = self.clients.entry(job.client.clone()).or_default();
        stats.submitted += 1;
        if completed {
            stats.completed += 1;
        } else {
            self.watches.insert(job.id, Arc::default());
            self.queue.push_back(job);
        }
    }

    /// Dispatches the oldest queued job to a worker (FIFO), marking it
    /// running. `None` when the queue is empty.
    pub fn take_next(&mut self) -> Option<Job> {
        let job = self.queue.pop_front()?;
        self.running.insert(job.id, job.clone());
        Some(job)
    }

    /// Removes a still-queued job entirely (the submit path could not
    /// persist it, so the admission is rolled back as if it never
    /// happened — including the client's `submitted` count).
    pub fn abort_queued(&mut self, id: u64) {
        let pos = self.queue.iter().position(|j| j.id == id);
        if let Some(job) = pos.and_then(|pos| self.queue.remove(pos)) {
            self.let_go(id);
            if let Some(stats) = self.clients.get_mut(&job.client) {
                stats.submitted = stats.submitted.saturating_sub(1);
            }
        }
    }

    /// Records a finished run and lets the job go: from here on only
    /// the data dir holds it, and its watch is closed. `interrupted =
    /// false` counts it completed, `true` interrupted, its journal a
    /// resumable prefix that a restart re-enqueues.
    pub fn finish(&mut self, id: u64, interrupted: bool) {
        let Some(job) = self.running.remove(&id) else {
            return;
        };
        self.let_go(id);
        if interrupted {
            self.interrupted += 1;
        } else {
            self.clients
                .get_mut(&job.client)
                .expect("submitting created the entry")
                .completed += 1;
        }
    }

    /// Drops a job's watch once it is closed: a waiter that still holds
    /// it wakes to find nothing more will be published.
    fn let_go(&mut self, id: u64) {
        if let Some(watch) = self.watches.remove(&id) {
            watch.close();
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
        assert_eq!(core.state(a), Some(JobState::Running));
        assert_eq!(core.state(b), Some(JobState::Queued));
        assert!(!first.telemetry);
        assert!(core.take_next().expect("queued").telemetry);
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
        core.finish(a, false);
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
        core.restore(
            Job {
                id: 7,
                client: "alice".into(),
                spec: smoke(),
                telemetry: false,
            },
            true,
        );
        core.restore(
            Job {
                id: 9,
                client: "bob".into(),
                spec: smoke(),
                telemetry: true,
            },
            false,
        );
        assert_eq!(core.count_in_state(JobState::Completed), 1);
        assert_eq!(core.count_in_state(JobState::Queued), 1);
        assert_eq!(core.queue_depth(), 1);
        let next = core.take_next().expect("recovered job re-enqueued");
        assert_eq!(next.id, 9, "the interrupted job is back in the queue");
        assert!(next.telemetry, "with its submission intact");
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
    fn core_finished_jobs_leave_the_core() {
        let mut core = ServiceCore::new(QuotaConfig::default());
        let done = core.submit("alice", smoke(), false).expect("admits");
        let cut = core.submit("alice", smoke(), false).expect("admits");
        let queued = core.submit("alice", smoke(), false).expect("admits");
        core.take_next().expect("dispatch");
        core.take_next().expect("dispatch");
        assert_eq!(core.active_points("alice"), 12);
        core.finish(done, false);
        core.finish(cut, true);
        // Only the queued job is left: the finished ones are counted,
        // and their state is read from the data dir from here on.
        assert_eq!(core.state(done), None);
        assert_eq!(core.state(cut), None);
        assert_eq!(core.state(queued), Some(JobState::Queued));
        let counts = [
            JobState::Queued,
            JobState::Running,
            JobState::Completed,
            JobState::Interrupted,
        ]
        .map(|s| core.count_in_state(s));
        assert_eq!(counts, [1, 0, 1, 1]);
        assert_eq!(core.active_points("alice"), 4);
        assert_eq!(core.queued_jobs("alice"), 1);
        // Finishing a job twice counts it once.
        core.finish(done, false);
        assert_eq!(core.count_in_state(JobState::Completed), 1);

        // A completed job restored at startup is counted, not queued.
        core.restore(
            Job {
                id: 9,
                client: "bob".into(),
                spec: smoke(),
                telemetry: false,
            },
            true,
        );
        assert_eq!(core.state(9), None);
        assert_eq!(core.queue_depth(), 1);
        assert_eq!(core.queued_jobs("bob"), 0);
        assert_eq!(core.active_points("bob"), 0);
        assert_eq!(core.count_in_state(JobState::Completed), 2);
    }

    #[test]
    fn core_live_jobs_hold_a_watch_until_let_go() {
        let mut core = ServiceCore::new(QuotaConfig::default());
        let done = core.submit("alice", smoke(), false).expect("admits");
        let aborted = core.submit("alice", smoke(), false).expect("admits");
        for (id, completed) in [(7, false), (8, true)] {
            let job = Job {
                id,
                client: "bob".into(),
                spec: smoke(),
                telemetry: false,
            };
            core.restore(job, completed);
        }
        assert_eq!(core.watches().count(), 3, "admitted and restored live jobs");
        assert!(core.watch(8).is_none(), "a completed job is not live");

        let watch = core.watch(done).expect("live");
        assert_eq!(core.take_next().expect("dispatch").id, done);
        watch.publish(10);
        core.finish(done, false);
        let now = watch.wait_until(|_| true);
        assert_eq!(now.len, 10);
        assert!(now.closed, "letting a job go closes its watch");
        assert!(core.watch(done).is_none(), "and drops it");

        let watch = core.watch(aborted).expect("live");
        core.abort_queued(aborted);
        assert!(watch.wait_until(|_| true).closed);
        assert_eq!(core.watches().count(), 1);
        assert!(core.watch(7).is_some());
    }

    #[test]
    fn core_abort_queued_rolls_the_admission_back() {
        let mut core = ServiceCore::new(QuotaConfig::default());
        let id = core.submit("alice", smoke(), false).expect("admits");
        core.abort_queued(id);
        assert_eq!(core.state(id), None, "the job is gone");
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
        assert_eq!(
            core.state(id),
            Some(JobState::Running),
            "running jobs are untouched"
        );
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
