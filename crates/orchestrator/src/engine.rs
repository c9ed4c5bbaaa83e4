//! The multi-tenant orchestration engine: a discrete-event loop over a
//! virtual clock in which every optimizer batch of every tenant's real
//! training run is a preemptible device [`Lease`](crate::lease::Lease) on
//! the shared fleet.
//!
//! Dispatch reuses the cloud layer directly: ladder selection per arriving
//! job goes through [`qoncord_cloud::policy::place_job`] over live
//! [`CloudDevice`] load views, and contention at each device is resolved by
//! a fleet-wide [`FairShareQueue`] (heavy tenants sink, light tenants
//! float; priorities enter as usage credit). When restart triage prunes a
//! restart mid-flight, its provisional fine-tuning reservation is released
//! for the other tenants.
//!
//! # Leases and preemption
//!
//! A granted batch occupies its device as a [`Lease`](crate::lease::Lease):
//! the batch's *real*
//! compute is deferred to the lease's expiry, so until then the lease can be
//! **evicted** — the device is handed to a more urgent tenant immediately,
//! the recalled batch re-enters the fair-share queue with usage credit for
//! the occupancy the eviction burned, and the victim later resumes from the
//! [`PhaseRunner`](qoncord_core::phase::PhaseRunner) checkpoint the lease
//! recorded. Results are bit-identical to an uncontended run; only wasted
//! occupancy (telemetry: wasted-work seconds) is lost. Preemption is decided
//! by [`Urgency::may_preempt`] whenever a batch request queues behind a
//! running lease.
//!
//! # Admission control and calibration
//!
//! Jobs carrying a [`Deadline`](crate::admission::Deadline) are assessed on
//! arrival: [`estimate_feasibility`] projects their completion from the
//! current fleet load over the same placements the dispatch policy chose,
//! and the [`AdmissionController`] admits, downgrades to best-effort, or
//! rejects per [`AdmissionConfig`]. With
//! [`AdmissionConfig::decay_aware`], the projection instead models the
//! fair-share queue the way dispatch will run it
//! ([`estimate_feasibility_decayed`]): queued work the arrival outranks
//! does not delay it, and usage-decay epochs projected to pass before its
//! start re-rank the queue. Under
//! [`AdmissionMode::Calibrated`](crate::admission::AdmissionMode)
//! the engine also closes the estimate loop: every completion feeds its
//! realized-vs-projected error into a
//! [`MarginModel`], and the static safety
//! margin is replaced by the learned per-tier/per-class error quantile.
//!
//! # Splitting and fairness
//!
//! With [`SplitConfig::enabled`], a multi-device job is fanned
//! QuSplit-style into per-device shards (see [`crate::split`]); the engine
//! then keeps one batch request or lease in flight *per shard*, so a
//! single job occupies several same-tier devices concurrently. Two
//! fairness guards run underneath: every [`UsageDecayConfig`] epoch of
//! virtual time ages all tenants' fair-share balances (so past-heavy
//! tenants recover priority in the production dispatch path, not just in
//! the fig12 queue simulator), and
//! [`PreemptionConfig::eviction_cap`] grants a job eviction immunity once
//! it has been evicted that many times, bounding how hard a stream of
//! urgent arrivals can starve one victim.

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionDecision, AdmissionMode};
use crate::calibration::{CalibrationConfig, MarginKey, MarginModel, ServiceClass};
use crate::driver::{BatchResult, JobDriver, SelectedDevice};
use crate::events::{Event, EventQueue};
use crate::exec::ShardedExecutor;
use crate::fleet::FleetDevice;
use crate::job::TenantJob;
use crate::lease::{LeaseLedger, LeaseTerms, Urgency};
use crate::shard::ShardTask;
use crate::split::{self, SplitConfig};
use crate::telemetry::{
    DeviceTelemetry, FleetTelemetry, JobRecord, JobStatus, JobTelemetry, OrchestratorReport,
    TenantUsage,
};
use crate::trace::{TraceEvent, TraceHandle, Tracer};
use qoncord_cloud::device::CloudDevice;
use qoncord_cloud::fairshare::{FairShareQueue, FairShareWeights, QueuedRequest};
use qoncord_cloud::policy::{
    estimate_feasibility, estimate_feasibility_decayed, place_job, Placement, Policy, QueueModel,
};

use qoncord_core::phase::ShardCheckpoint;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};

/// Default preemption budget: evictions a job absorbs before its remaining
/// leases gain eviction immunity.
pub const DEFAULT_EVICTION_CAP: u32 = 8;

/// Tuning of lease preemption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreemptionConfig {
    /// Whether urgent batch requests may evict running leases at all.
    /// Disabled, the engine only ever waits for a lease to expire — the
    /// pre-lease-manager behavior.
    pub enabled: bool,
    /// Extra seconds of headroom when judging deadline imminence: a job
    /// counts as imminent once `now + remaining service estimate + margin`
    /// reaches its deadline.
    pub imminence_margin: f64,
    /// Anti-starvation preemption budget: once a job has suffered this many
    /// lease evictions, its remaining leases gain eviction immunity, so a
    /// stream of urgent arrivals cannot re-evict the same victim without
    /// bound. `None` restores the unbounded pre-budget behavior.
    pub eviction_cap: Option<u32>,
}

impl Default for PreemptionConfig {
    fn default() -> Self {
        PreemptionConfig {
            enabled: false,
            imminence_margin: 0.0,
            eviction_cap: Some(DEFAULT_EVICTION_CAP),
        }
    }
}

impl PreemptionConfig {
    /// Preemption switched on with default margins and eviction budget.
    pub fn enabled() -> Self {
        PreemptionConfig {
            enabled: true,
            ..PreemptionConfig::default()
        }
    }
}

/// Virtual-time decay of fair-share usage: every
/// [`epoch_seconds`](qoncord_cloud::policy::UsageDecayModel::epoch_seconds)
/// of the virtual clock, every tenant's consumed-seconds balance is
/// multiplied by
/// [`factor`](qoncord_cloud::policy::UsageDecayModel::factor), so
/// past-heavy tenants recover dispatch priority instead of sinking
/// forever. Disabled by default (infinite epoch).
///
/// This is a re-export of the cloud layer's
/// [`UsageDecayModel`](qoncord_cloud::policy::UsageDecayModel) — the same
/// type the decay-aware feasibility projection consumes, so the
/// dispatcher that applies decay and the admission projection that
/// anticipates it can never drift apart.
pub use qoncord_cloud::policy::UsageDecayModel as UsageDecayConfig;

/// Tuning of the orchestration engine.
#[derive(Debug, Clone, PartialEq)]
pub struct OrchestratorConfig {
    /// Ladder-selection policy per arriving job, evaluated over live device
    /// loads: [`Policy::Qoncord`] picks an LF exploration device and an HF
    /// fine-tuning device; [`Policy::BestFidelity`] is the HF-only
    /// baseline; the other policies place single-device ladders.
    pub policy: Policy,
    /// Fair-share weights of the dispatch queue.
    pub weights: FairShareWeights,
    /// Shots per circuit execution, used to price batch durations.
    pub shots: u64,
    /// Device-seconds of fair-share usage credit granted per priority
    /// level, so higher-priority jobs dequeue sooner.
    pub priority_credit: f64,
    /// Lease-preemption tuning (disabled by default).
    pub preemption: PreemptionConfig,
    /// Deadline-aware admission control (admit-all by default).
    pub admission: AdmissionConfig,
    /// Margin-model tuning for [`AdmissionMode::Calibrated`] (quantile,
    /// window, warm-up threshold). Outcomes feed the model in every mode —
    /// the estimate-error telemetry is always recorded — but only the
    /// calibrated mode *applies* the learned margins.
    pub calibration: CalibrationConfig,
    /// QuSplit-style restart splitting (disabled by default).
    pub split: SplitConfig,
    /// Virtual-time fair-share usage decay (disabled by default).
    pub decay: UsageDecayConfig,
    /// Seed of the placement RNG (only randomized policies consume it).
    pub seed: u64,
    /// Device-group shards of the sharded executor: with `shards > 1` the
    /// fleet is partitioned into `shards` device groups (device index
    /// modulo `shards`) and the deferred batch compute of simultaneous
    /// lease completions is advanced in parallel, one worker thread per
    /// group, between virtual-time barriers. Every result stream — trace
    /// events, telemetry, calibration history, tenant usage — is
    /// byte-identical at any shard count; only wall-clock time changes.
    /// `1` (the default) keeps the engine single-threaded. The
    /// `QONCORD_SHARDS` environment variable, when set to a positive
    /// integer, overrides this field — that is how CI re-runs the whole
    /// suite multi-sharded without touching test code.
    pub shards: usize,
    /// Flight-recorder sink (detached by default): every engine decision is
    /// emitted as a [`TraceEvent`] to the attached
    /// [`TraceSink`](crate::trace::TraceSink). Detached or not, the engine
    /// aggregates the stream into
    /// [`OrchestratorReport::trace`](crate::telemetry::OrchestratorReport).
    pub trace: TraceHandle,
}

impl Default for OrchestratorConfig {
    fn default() -> Self {
        OrchestratorConfig {
            policy: Policy::Qoncord,
            weights: FairShareWeights::default(),
            shots: 1000,
            priority_credit: 50.0,
            preemption: PreemptionConfig::default(),
            admission: AdmissionConfig::default(),
            calibration: CalibrationConfig::default(),
            split: SplitConfig::default(),
            decay: UsageDecayConfig::default(),
            seed: 0x09C0,
            shards: 1,
            trace: TraceHandle::default(),
        }
    }
}

/// The multi-tenant orchestrator over a fixed fleet.
///
/// # Examples
///
/// ```
/// use qoncord_core::executor::QaoaFactory;
/// use qoncord_core::scheduler::QoncordConfig;
/// use qoncord_orchestrator::{
///     fleet::two_lf_one_hf_fleet, Orchestrator, OrchestratorConfig, TenantJob,
/// };
/// use qoncord_vqa::{graph::Graph, maxcut::MaxCut};
///
/// let cfg = QoncordConfig {
///     exploration_max_iterations: 4,
///     finetune_max_iterations: 5,
///     ..QoncordConfig::default()
/// };
/// let jobs: Vec<TenantJob> = (0..2)
///     .map(|i| {
///         let factory = QaoaFactory {
///             problem: MaxCut::new(Graph::new(3, &[(0, 1, 1.0), (1, 2, 1.0)])),
///             layers: 1,
///         };
///         TenantJob::new(i, format!("tenant-{i}"), 0.0, Box::new(factory))
///             .with_restarts(1)
///             .with_config(cfg.clone())
///     })
///     .collect();
/// let orchestrator = Orchestrator::new(OrchestratorConfig::default(), two_lf_one_hf_fleet());
/// let report = orchestrator.run(&jobs);
/// assert_eq!(report.completed(), 2);
/// assert!(report.makespan() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Orchestrator {
    config: OrchestratorConfig,
    fleet: Vec<FleetDevice>,
}

impl Orchestrator {
    /// Creates an orchestrator over `fleet`.
    ///
    /// # Panics
    ///
    /// Panics if the fleet is empty, device names collide (names key the
    /// ladder-to-fleet mapping), or the decay configuration is invalid.
    pub fn new(config: OrchestratorConfig, fleet: Vec<FleetDevice>) -> Self {
        assert!(!fleet.is_empty(), "fleet must not be empty");
        assert!(
            config.decay.epoch_seconds > 0.0,
            "decay epoch must be positive"
        );
        assert!(
            config.decay.factor.is_finite() && (0.0..=1.0).contains(&config.decay.factor),
            "decay factor must lie in [0, 1]"
        );
        let mut names = HashSet::new();
        for device in &fleet {
            assert!(
                names.insert(device.name().to_owned()),
                "duplicate fleet device name {}",
                device.name()
            );
        }
        Orchestrator { config, fleet }
    }

    /// The active configuration.
    pub fn config(&self) -> &OrchestratorConfig {
        &self.config
    }

    /// The fleet.
    pub fn fleet(&self) -> &[FleetDevice] {
        &self.fleet
    }

    /// Runs `jobs` to completion on the virtual clock and returns the full
    /// report (jobs in submission order).
    ///
    /// With [`OrchestratorConfig::shards`] (or its `QONCORD_SHARDS`
    /// environment override) above one, simultaneous lease completions
    /// advance in parallel across device-group shards; the report is
    /// byte-identical to the single-shard run either way.
    pub fn run(&self, jobs: &[TenantJob]) -> OrchestratorReport {
        let mut exec = ShardedExecutor::new(ShardedExecutor::effective_shards(self.config.shards));
        let mut sim = Sim::new(&self.config, &self.fleet, jobs);
        sim.run_loop(&mut exec);
        sim.into_report()
    }
}

/// Runtime accounting of one fleet device. Queued-but-ungranted batch work
/// is no longer tracked here: the fair-share queue's incrementally
/// maintained [`FairShareQueue::device_backlog`] summary is the single
/// source of that estimate.
struct DeviceState {
    busy_seconds: f64,
    wasted_seconds: f64,
    evictions: u64,
    executions: u64,
}

enum Reservation {
    /// A granted-on-pop batch request of one job shard.
    Batch {
        job: usize,
        shard: usize,
        device: usize,
        seconds: f64,
        /// For a batch requeued by eviction: the evicted sub-lease's
        /// recorded checkpoint. The grant path verifies (in debug builds)
        /// that the shard resumes from exactly this state.
        resume: Option<ShardCheckpoint>,
    },
    /// A provisional hold for a restart's future fine-tuning block; never
    /// granted, released (or silently converted) at triage. The owning job
    /// and restart live in `Sim::holds`.
    Hold,
}

/// Determinism invariant (audited; keep it that way): the hash-keyed
/// collections below (`in_flight`, `holds`, `reservations`) are only ever
/// accessed by key or membership — never iterated in an order that can
/// reach events, telemetry sums, or trace output. The one iteration,
/// `resolve_holds`, sorts by restart index first. Anything order-sensitive
/// must either sort before iterating or use an ordered container; this is
/// also what makes shard-merge replay in `run_loop` byte-stable.
struct Sim<'a> {
    config: &'a OrchestratorConfig,
    fleet: &'a [FleetDevice],
    jobs: &'a [TenantJob],
    rng: StdRng,
    queue: FairShareQueue,
    devices: Vec<DeviceState>,
    leases: LeaseLedger,
    events: EventQueue,
    drivers: Vec<Option<JobDriver>>,
    /// Per job: shards with a queued batch request or active lease (a shard
    /// never has more than one pending batch in the system).
    in_flight: Vec<HashSet<usize>>,
    /// Decay epochs already applied to the fair-share balances.
    decay_epochs: u64,
    /// The closed calibration loop: realized-vs-projected completion errors
    /// per (tier, service class), and the learned margins they imply.
    margins: MarginModel,
    /// Per fleet device: its quality tier (rank of its advertised fidelity
    /// among the fleet's distinct values, 0 = lowest) — one axis of the
    /// calibration key.
    device_tier: Vec<usize>,
    /// Per job: the calibration key its admission used (None until
    /// admission, and for jobs rejected by the fidelity filter).
    margin_key: Vec<Option<MarginKey>>,
    telemetry: Vec<JobTelemetry>,
    status: Vec<Option<JobStatus>>,
    /// Per job: the priority it actually runs at (0 after a downgrade).
    effective_priority: Vec<u32>,
    /// Per job: the absolute deadline it carries post-admission.
    deadlines: Vec<Option<f64>>,
    /// Per job: the admission-time service estimate (for imminence checks).
    service_estimate: Vec<f64>,
    /// Per job: outstanding fair-share credit granted for evicted-lease
    /// occupancy, charged back at completion so it cannot outlive the job.
    /// Decayed in lockstep with the queue balances (see `apply_decay`).
    eviction_credit: Vec<f64>,
    /// Per job: the outstanding priority credit granted at admission, also
    /// decayed in lockstep — charging back the undecayed grant would turn
    /// the decayed portion into phantom consumption against the tenant.
    priority_credit: Vec<f64>,
    /// Per job: restart index → (reservation id, fleet device, estimated
    /// seconds).
    holds: Vec<HashMap<usize, (usize, usize, f64)>>,
    reservations: HashMap<usize, Reservation>,
    next_reservation: usize,
    makespan: f64,
    /// The flight recorder: stamps every decision with the virtual clock
    /// and a run-wide sequence number, aggregates metrics, and forwards to
    /// the configured sink.
    tracer: Tracer,
}

/// Ranks the fleet's devices into quality tiers: tier = rank of the
/// device's advertised fidelity among the fleet's distinct values (0 =
/// lowest). Twin devices share a tier, which is what lets their calibration
/// samples pool.
fn device_tiers(fleet: &[FleetDevice]) -> Vec<usize> {
    let mut distinct: Vec<f64> = fleet.iter().map(|d| d.advertised_fidelity()).collect();
    distinct.sort_by(|a, b| a.partial_cmp(b).expect("finite fidelities"));
    distinct.dedup();
    fleet
        .iter()
        .map(|d| {
            distinct
                .iter()
                .position(|f| *f == d.advertised_fidelity())
                .expect("every fidelity is in the distinct list")
        })
        .collect()
}

impl<'a> Sim<'a> {
    fn new(
        config: &'a OrchestratorConfig,
        fleet: &'a [FleetDevice],
        jobs: &'a [TenantJob],
    ) -> Self {
        let mut events = EventQueue::new();
        for (j, job) in jobs.iter().enumerate() {
            events.push(job.arrival, Event::Arrival(j));
        }
        let device_tier = device_tiers(fleet);
        let mut tracer = Tracer::new(config.trace.clone());
        // Run preamble: the fleet's identity, so every trace consumer can
        // resolve device indices (and price device-seconds) from the
        // stream alone.
        for (i, device) in fleet.iter().enumerate() {
            tracer.emit(
                0.0,
                TraceEvent::DeviceDefined {
                    device: i,
                    name: device.name().to_owned(),
                    tier: device_tier[i],
                    speed: device.speed(),
                    cost_per_second: device.cost_per_second(),
                },
            );
        }
        Sim {
            config,
            fleet,
            jobs,
            rng: StdRng::seed_from_u64(config.seed),
            queue: FairShareQueue::with_weights(config.weights),
            devices: fleet
                .iter()
                .map(|_| DeviceState {
                    busy_seconds: 0.0,
                    wasted_seconds: 0.0,
                    evictions: 0,
                    executions: 0,
                })
                .collect(),
            leases: LeaseLedger::new(fleet.len()),
            events,
            drivers: jobs.iter().map(|_| None).collect(),
            in_flight: jobs.iter().map(|_| HashSet::new()).collect(),
            decay_epochs: 0,
            margins: MarginModel::new(config.admission.safety_margin, config.calibration),
            device_tier,
            margin_key: jobs.iter().map(|_| None).collect(),
            telemetry: jobs
                .iter()
                .map(|job| JobTelemetry::new(job.arrival, fleet.len()))
                .collect(),
            status: jobs.iter().map(|_| None).collect(),
            effective_priority: jobs.iter().map(|job| job.priority).collect(),
            deadlines: jobs.iter().map(|_| None).collect(),
            service_estimate: jobs.iter().map(|_| 0.0).collect(),
            eviction_credit: jobs.iter().map(|_| 0.0).collect(),
            priority_credit: jobs.iter().map(|_| 0.0).collect(),
            holds: jobs.iter().map(|_| HashMap::new()).collect(),
            reservations: HashMap::new(),
            next_reservation: 0,
            makespan: 0.0,
            tracer,
        }
    }

    /// The event loop, barrier by barrier: every iteration drains one
    /// virtual instant's events, hoists the hoist-safe deferred batch
    /// compute among them onto the sharded executor (stage A), then
    /// replays the whole batch sequentially in `(time, seq)` order with
    /// the precomputed results spliced in (stage B). Stage B is where all
    /// bookkeeping — queue, ledger, telemetry, trace — happens, on this
    /// thread, so the result streams cannot depend on the shard count.
    fn run_loop(&mut self, exec: &mut ShardedExecutor) {
        let _prof = qoncord_prof::span("engine::run");
        let mut batch = Vec::new();
        while let Some(t) = self.events.pop_batch(&mut batch) {
            // Decay is a function of the clock alone and idempotent within
            // one instant, so once per barrier equals once per event.
            self.apply_decay(t);
            let mut hoisted = self.hoist_batch(&batch, t, exec);
            for (pos, &event) in batch.iter().enumerate() {
                match event {
                    Event::Arrival(job) => self.admit(job, t),
                    Event::LeaseDone { device, lease } => {
                        self.on_lease_done(device, lease, t, hoisted[pos].take())
                    }
                }
            }
        }
    }

    /// Stage A of one barrier: runs the deferred batch compute of the
    /// batch's hoist-safe lease completions on the sharded executor,
    /// returning each event's precomputed [`BatchResult`] by batch
    /// position (`None` = not hoisted, stage B computes inline).
    ///
    /// An expiry is hoist-safe iff its lease is still the device's active
    /// lease *and* it is the job's only batch in flight (`in_flight[job]`
    /// is exactly its shard). Why that is exactly the sequential result:
    ///
    /// - **Its own staleness cannot change inside the barrier.** A lease
    ///   completes only through its unique `LeaseDone` event, and
    ///   preemption never recalls a lease at its expiry boundary
    ///   (`try_preempt` refuses when no occupancy remains to save), so a
    ///   lease live at the barrier's start is live when its event replays
    ///   — and a stale one stays stale.
    /// - **No earlier batch event can touch the job's driver.** With no
    ///   other shard in flight the job has no queued request to grant (no
    ///   checkpoint read) and no other expiry to execute, and triage hold
    ///   releases and new requests only follow its *own* `execute_batch`.
    ///   So the driver's state when its event replays equals its state at
    ///   the barrier's start, and the hoisted compute is bit-identical to
    ///   the inline call.
    ///
    /// An unsplit job always qualifies (one batch in the system at a
    /// time); a split job qualifies once its live rung has narrowed to one
    /// busy shard. Split jobs with several shards in flight share driver
    /// state (the rung barrier) across sub-leases whose same-instant events
    /// *do* interleave with grants reading shard checkpoints — their
    /// compute stays inline in stage B, at its exact sequential position.
    fn hoist_batch(
        &mut self,
        batch: &[Event],
        now: f64,
        exec: &mut ShardedExecutor,
    ) -> Vec<Option<BatchResult>> {
        let mut results: Vec<Option<BatchResult>> = (0..batch.len()).map(|_| None).collect();
        if !exec.is_parallel() {
            return results;
        }
        let mut tasks = Vec::new();
        for (pos, &event) in batch.iter().enumerate() {
            let Event::LeaseDone { device, lease } = event else {
                continue;
            };
            let Some(active) = self.leases.active(device) else {
                continue;
            };
            if active.id != lease {
                continue; // stale expiry: stage B just records it
            }
            let (job, job_shard) = (active.job, active.shard());
            debug_assert!(active.remaining(now) <= 0.0, "expiry event at lease end");
            let in_flight = &self.in_flight[job];
            if in_flight.len() != 1 || !in_flight.contains(&job_shard) {
                continue;
            }
            let runner = self.drivers[job].take().expect("a leased job is active");
            tasks.push(ShardTask {
                pos,
                job,
                job_shard,
                device,
                runner,
            });
        }
        for done in exec.run_barrier(tasks) {
            self.drivers[done.job] = Some(done.runner);
            results[done.pos] = Some(done.result);
        }
        results
    }

    /// Applies every decay epoch the virtual clock has crossed since the
    /// last applied one (this is the production-dispatch hook `decay_usage`
    /// was missing: past-heavy tenants now recover priority as virtual time
    /// passes, not only inside the fig12 queue simulator).
    fn apply_decay(&mut self, now: f64) {
        if !self.config.decay.is_enabled() {
            return;
        }
        let due = (now / self.config.decay.epoch_seconds).floor() as u64;
        if due > self.decay_epochs {
            let crossed = (due - self.decay_epochs).min(i32::MAX as u64) as i32;
            let factor = self.config.decay.factor.powi(crossed);
            self.queue
                .decay_usage(factor)
                .expect("factor validated at construction");
            // Outstanding job-scoped credits live inside the decayed
            // balances; their charge-backs must shrink identically, or the
            // decayed portion would be charged back as usage the tenant
            // never consumed.
            for credit in self
                .eviction_credit
                .iter_mut()
                .chain(self.priority_credit.iter_mut())
            {
                *credit *= factor;
            }
            self.decay_epochs = due;
            self.tracer.emit(
                now,
                TraceEvent::DecayEpoch {
                    crossed: crossed as u64,
                    factor,
                },
            );
        }
    }

    /// Live load views for the placement policy: one [`CloudDevice`] per
    /// fleet device whose schedule carries the device's estimated backlog
    /// (running lease + queued batch work).
    fn placement_views(&self, now: f64) -> Vec<CloudDevice> {
        self.fleet
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let mut view = CloudDevice::new(i, d.advertised_fidelity(), d.speed());
                let backlog = self.queue.device_backlog(i)
                    + self.leases.active(i).map_or(0.0, |l| l.remaining(now));
                if backlog > 0.0 {
                    view.schedule(now, backlog);
                }
                view
            })
            .collect()
    }

    fn admit(&mut self, job: usize, now: f64) {
        let _prof = qoncord_prof::span("engine::admit");
        let spec = &self.jobs[job];
        self.tracer.emit(
            now,
            TraceEvent::Arrival {
                job,
                id: spec.id,
                tenant: spec.tenant.clone(),
                priority: spec.priority,
            },
        );
        let views = self.placement_views(now);
        // The policy only steers device choice here; circuit counts are an
        // a-priori estimate of the job's footprint.
        let circuit_estimate = spec.config.estimated_total_executions(spec.n_restarts);
        let placements = place_job(
            self.config.policy,
            &views,
            circuit_estimate.max(1),
            true,
            now,
            &mut self.rng,
        );
        let mut selected: Vec<SelectedDevice> = Vec::new();
        for p in &placements {
            if !selected.iter().any(|s| s.fleet_index == p.device) {
                selected.push(SelectedDevice::of(self.fleet, p.device));
            }
        }
        let runner =
            match split::build_driver(spec, &selected, self.fleet, &views, self.config, now) {
                Err(rejected) => {
                    self.tracer.emit(
                        now,
                        TraceEvent::FilterRejected {
                            job,
                            devices: rejected.len(),
                        },
                    );
                    self.status[job] = Some(JobStatus::Rejected { rejected });
                    return;
                }
                Ok(runner) => runner,
            };
        self.telemetry[job].shards = runner.shard_count();
        self.tracer.emit(
            now,
            TraceEvent::ShardPlan {
                job,
                shards: runner.shard_count(),
                devices: runner.shard_devices(),
            },
        );

        // Deadline-aware admission: project the job's completion from the
        // fleet load its placements see, then let the controller decide.
        // Placements on devices the fidelity filter rejected from the
        // ladder carry no per-circuit price; their work actually lands on
        // the ladder's entry rung, so reprice them there rather than at
        // zero (which would let unkeepable SLAs through).
        let secs = runner.seconds_per_execution_by_fleet(self.fleet.len());
        let ladder_entry = runner.entry_device();
        let priced: Vec<Placement> = placements
            .iter()
            .map(|p| {
                if secs[p.device] > 0.0 {
                    *p
                } else {
                    Placement {
                        device: ladder_entry,
                        ..*p
                    }
                }
            })
            .collect();
        let assess_prof = qoncord_prof::span("engine::assess");
        let estimate = if self.config.admission.decay_aware {
            self.estimate_decay_aware(job, &priced, &secs, ladder_entry, now)
        } else {
            estimate_feasibility(&priced, &views, &secs, now)
        };
        let key = MarginKey {
            tier: self.device_tier[ladder_entry],
            class: ServiceClass::of(spec.deadline),
        };
        self.margin_key[job] = Some(key);
        let margin = match self.config.admission.mode {
            AdmissionMode::Calibrated => self.margins.margin_for(key),
            _ => self.config.admission.safety_margin,
        };
        self.telemetry[job].admission_estimate = Some(estimate);
        self.telemetry[job].admission_margin = spec.deadline.is_some().then_some(margin);
        self.service_estimate[job] = estimate.service_seconds;
        let outcome = AdmissionController::new(self.config.admission).assess_with_margin(
            now,
            spec.deadline,
            estimate,
            margin,
        );
        drop(assess_prof);
        self.tracer.emit(
            now,
            TraceEvent::AdmissionVerdict {
                job,
                decision: outcome.decision,
                estimate,
                margin: spec.deadline.is_some().then_some(margin),
                deadline: outcome.deadline,
                assessed_deadline: outcome.assessed_deadline,
            },
        );
        match outcome.decision {
            AdmissionDecision::Reject => {
                let snapshot = *self.margins.record_denial(now, key);
                self.tracer
                    .emit(now, TraceEvent::CalibrationUpdate { job, snapshot });
                self.status[job] = Some(JobStatus::Denied {
                    estimate,
                    deadline: outcome
                        .assessed_deadline
                        .expect("only deadline jobs are denied"),
                });
                return;
            }
            AdmissionDecision::Downgrade => {
                self.effective_priority[job] = 0;
                self.telemetry[job].downgraded = true;
            }
            AdmissionDecision::Admit => {}
        }
        self.deadlines[job] = outcome.deadline;
        self.telemetry[job].deadline = outcome.deadline;

        let priority = self.effective_priority[job];
        if priority > 0 {
            // Priorities enter fair-share as usage credit scoped to the
            // job's lifetime: granted on admission, charged back at
            // completion so it cannot leak onto later jobs.
            let credit = priority as f64 * self.config.priority_credit;
            self.queue
                .credit_usage(&spec.tenant, credit)
                .expect("priority credit is finite and non-negative");
            self.priority_credit[job] = credit;
            self.tracer
                .emit(now, TraceEvent::PriorityCredit { job, credit });
        }
        if runner.is_multi_device() {
            // Hold a provisional fine-tuning reservation per restart,
            // dealt across the fine-tuning shards the way triage will deal
            // the survivors; triage converts survivors and releases the
            // rest.
            let targets = runner.finetune_hold_targets();
            for restart in 0..spec.n_restarts {
                let (hold_device, hold_seconds) = targets[restart % targets.len()];
                let id = self.next_id();
                self.reservations.insert(id, Reservation::Hold);
                self.queue
                    .push_hold(
                        QueuedRequest {
                            id,
                            user: spec.tenant.clone(),
                            requested_seconds: hold_seconds,
                            submitted_at: now,
                        },
                        hold_device,
                    )
                    .expect("reservation ids are unique and hold estimates finite");
                self.holds[job].insert(restart, (id, hold_device, hold_seconds));
                self.tracer.emit(
                    now,
                    TraceEvent::HoldPush {
                        reservation: id,
                        job,
                        restart,
                        device: hold_device,
                        seconds: hold_seconds,
                    },
                );
            }
        }
        self.drivers[job] = Some(runner);
        self.enqueue_ready_batches(job, now);
    }

    fn next_id(&mut self) -> usize {
        let id = self.next_reservation;
        self.next_reservation += 1;
        id
    }

    /// Decay-aware feasibility of an arriving job: committed lease backlog
    /// plus only the queued (ungranted) work the job is projected to rank
    /// *behind* under fair-share dispatch — with balances aged by the decay
    /// epochs projected to pass before its start — instead of every
    /// device's whole backlog.
    fn estimate_decay_aware(
        &self,
        job: usize,
        priced: &[Placement],
        secs: &[f64],
        ladder_entry: usize,
        now: f64,
    ) -> qoncord_cloud::policy::FeasibilityEstimate {
        let committed_views: Vec<CloudDevice> = self
            .fleet
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let mut view = CloudDevice::new(i, d.advertised_fidelity(), d.speed());
                let remaining = self.leases.active(i).map_or(0.0, |l| l.remaining(now));
                if remaining > 0.0 {
                    view.schedule(now, remaining);
                }
                view
            })
            .collect();
        let probe = QueuedRequest {
            id: usize::MAX,
            user: self.jobs[job].tenant.clone(),
            requested_seconds: crate::driver::EXECUTIONS_PER_BATCH_ESTIMATE * secs[ladder_entry],
            submitted_at: now,
        };
        // If the job is admitted, its priority enters fair-share as usage
        // credit *after* this estimate — rank the probe with that credit
        // already applied (virtually, via the probe-credit input: no queue
        // clone), or the projection would charge a priority job for queued
        // work its credited requests will in fact outrank. The queue's own
        // device tags supply the request-to-device mapping the old path
        // rebuilt from the reservation and hold tables per decision.
        let credit = self.jobs[job].priority as f64 * self.config.priority_credit;
        estimate_feasibility_decayed(
            priced,
            &committed_views,
            secs,
            now,
            QueueModel {
                queue: &self.queue,
                probe: &probe,
                probe_credit: credit,
                decay: self.config.decay,
            },
        )
    }

    /// Queues a batch request for every shard of `job` that has pending
    /// work and nothing in flight, offering each target device a dispatch
    /// opportunity — by eviction if the request is urgent enough. Unsplit
    /// jobs have one shard; split jobs enqueue one request per active
    /// shard, which is what turns one job into several concurrently
    /// schedulable sub-leases.
    fn enqueue_ready_batches(&mut self, job: usize, now: f64) {
        let ready: Vec<(usize, usize, f64)> = {
            let runner = self.drivers[job].as_ref().expect("active runner");
            runner
                .ready_shards()
                .into_iter()
                .filter(|shard| !self.in_flight[job].contains(shard))
                .map(|shard| {
                    (
                        shard,
                        runner.shard_device(shard),
                        runner.estimated_next_seconds(shard),
                    )
                })
                .collect()
        };
        for (shard, device, seconds) in ready {
            self.in_flight[job].insert(shard);
            let id = self.next_id();
            self.reservations.insert(
                id,
                Reservation::Batch {
                    job,
                    shard,
                    device,
                    seconds,
                    resume: None,
                },
            );
            self.queue
                .push_for_device(
                    QueuedRequest {
                        id,
                        user: self.jobs[job].tenant.clone(),
                        requested_seconds: seconds,
                        submitted_at: now,
                    },
                    device,
                )
                .expect("reservation ids are unique and batch estimates finite");
            self.tracer.emit(
                now,
                TraceEvent::QueuePush {
                    reservation: id,
                    job,
                    shard,
                    device,
                    seconds,
                    requeued: false,
                },
            );
            self.try_dispatch(device, now);
            if self.leases.active(device).is_some() {
                self.try_preempt(device, job, id, now);
            }
        }
    }

    /// Grants the device its best queued batch, if it is idle: the
    /// fair-share winner, unless preemption is enabled and a queued request
    /// outranks it per [`Urgency::may_preempt`] — granting the winner only
    /// for the urgent request to evict it in the same instant would be pure
    /// churn, and a queued urgent request must never wait out a lease it is
    /// entitled to evict.
    fn try_dispatch(&mut self, device: usize, now: f64) {
        let _prof = qoncord_prof::span("engine::dispatch");
        if self.leases.active(device).is_some() {
            return;
        }
        // Every request in the device's ready set is a batch reservation on
        // it (holds live in a separate lane), so the indexed device pop is
        // exactly the old filtered min-scan — as a heap peek.
        let Some(winner) = self.queue.pop_for_device(device) else {
            return;
        };
        let request = self.urgent_override(device, winner, now);
        self.grant(request, now);
    }

    /// The most urgent queued batch request for `device` that may preempt
    /// the fair-share `winner`, or the winner itself when none outranks it
    /// (earliest queue position wins among equally urgent challengers).
    fn urgent_override(&mut self, device: usize, winner: QueuedRequest, now: f64) -> QueuedRequest {
        if !self.config.preemption.enabled {
            return winner;
        }
        let Some(Reservation::Batch { job, .. }) = self.reservations.get(&winner.id) else {
            unreachable!("dispatched requests are batch reservations");
        };
        let winner_urgency = self.urgency(*job, now);
        let mut pick: Option<(usize, Urgency)> = None;
        for request in self.queue.pending_for_device(device) {
            let Some(Reservation::Batch { job, .. }) = self.reservations.get(&request.id) else {
                continue;
            };
            let urgency = self.urgency(*job, now);
            if !urgency.may_preempt(&winner_urgency) {
                continue;
            }
            if pick
                .as_ref()
                .is_none_or(|(_, best)| urgency.may_preempt(best))
            {
                pick = Some((request.id, urgency));
            }
        }
        let Some((id, _)) = pick else {
            return winner;
        };
        self.queue
            .push_for_device(winner, device)
            .expect("the popped winner re-enqueues cleanly");
        self.queue
            .pop_by_id(id)
            .expect("override candidate is queued")
    }

    /// Converts a popped batch request into a device lease. The batch's real
    /// compute is deferred to the lease's expiry, which is what makes the
    /// lease preemptible: until it expires, evicting it loses no training
    /// progress.
    fn grant(&mut self, request: QueuedRequest, now: f64) {
        let Some(Reservation::Batch {
            job,
            shard,
            device,
            seconds,
            resume,
        }) = self.reservations.remove(&request.id)
        else {
            unreachable!("granted requests are batch reservations");
        };
        let checkpoint = self.drivers[job]
            .as_ref()
            .expect("granted job is active")
            .shard_checkpoint(shard);
        if let Some(expected) = resume {
            // An evicted batch must resume from exactly the optimizer state
            // its recalled sub-lease recorded, on the same shard and
            // restart — the losslessness contract.
            debug_assert!(
                expected == checkpoint,
                "evicted shard resumed from a different state than its lease checkpoint"
            );
        }
        let lease = self.leases.grant(
            LeaseTerms {
                job,
                tenant: self.jobs[job].tenant.clone(),
                device,
                priority: self.effective_priority[job],
                deadline: self.deadlines[job],
                seconds,
                checkpoint,
            },
            now,
        );
        let (end, id) = (lease.expires_at, lease.id);
        self.tracer.emit(
            now,
            TraceEvent::LeaseGrant {
                lease: id,
                reservation: request.id,
                job,
                shard,
                device,
                seconds,
                expires_at: end,
            },
        );
        self.events
            .push(end, Event::LeaseDone { device, lease: id });
    }

    /// How pressing `job`'s claim on a device is right now.
    fn urgency(&self, job: usize, now: f64) -> Urgency {
        let deadline_imminent = match self.deadlines[job] {
            None => false,
            Some(deadline) => {
                let done: f64 = self.telemetry[job].device_seconds.iter().sum();
                let remaining = (self.service_estimate[job] - done).max(0.0);
                now + remaining + self.config.preemption.imminence_margin >= deadline
            }
        };
        Urgency {
            priority: self.effective_priority[job],
            deadline_imminent,
        }
    }

    /// Evicts the running lease on `device` for `challenger`'s queued batch
    /// request `reservation` if the challenger outranks the leaseholder —
    /// preemption overrides fair-share, so the challenger is granted the
    /// device directly.
    fn try_preempt(&mut self, device: usize, challenger: usize, reservation: usize, now: f64) {
        if !self.config.preemption.enabled {
            return;
        }
        let Some(holder) = self.leases.active(device) else {
            return;
        };
        // A lease at its expiry boundary is about to complete on its own;
        // recalling it would waste the whole batch for nothing.
        if holder.remaining(now) <= 0.0 {
            return;
        }
        let holder_job = holder.job;
        if !self
            .urgency(challenger, now)
            .may_preempt(&self.urgency(holder_job, now))
        {
            return;
        }
        // Anti-starvation preemption budget: a job that has already been
        // evicted `cap` times holds its remaining leases with immunity, so
        // a stream of urgent arrivals cannot re-evict it without bound.
        if let Some(cap) = self.config.preemption.eviction_cap {
            if self.telemetry[holder_job].evictions >= cap as usize {
                return;
            }
        }
        self.evict(device, now);
        let request = self
            .queue
            .pop_by_id(reservation)
            .expect("challenger's batch request is queued");
        self.grant(request, now);
    }

    /// Recalls the running lease on `device`: the burned occupancy is
    /// accounted as wasted work, and the victim's batch re-enters the
    /// fair-share queue with usage credit for it. The victim's driver was
    /// never advanced (compute is deferred), so it will resume from the
    /// lease's checkpoint bit-identically.
    fn evict(&mut self, device: usize, now: f64) {
        let evicted = self.leases.evict(device, now);
        let victim = evicted.lease.job;
        let shard = evicted.lease.shard();
        self.devices[device].wasted_seconds += evicted.burned_seconds;
        self.devices[device].evictions += 1;
        self.telemetry[victim].evictions += 1;
        self.telemetry[victim].wasted_seconds += evicted.burned_seconds;
        self.telemetry[victim].record_shard_waste(shard, evicted.burned_seconds);
        self.eviction_credit[victim] += evicted.burned_seconds;
        self.tracer.emit(
            now,
            TraceEvent::Eviction {
                lease: evicted.lease.id,
                job: victim,
                shard,
                device,
                burned_seconds: evicted.burned_seconds,
                credit: evicted.burned_seconds,
            },
        );
        let id = self.next_id();
        self.reservations.insert(
            id,
            Reservation::Batch {
                job: victim,
                shard,
                device,
                seconds: evicted.lease.seconds,
                resume: Some(evicted.lease.checkpoint),
            },
        );
        self.queue
            .requeue_with_credit_for_device(
                QueuedRequest {
                    id,
                    user: evicted.lease.tenant.clone(),
                    requested_seconds: evicted.lease.seconds,
                    submitted_at: now,
                },
                device,
                evicted.burned_seconds,
            )
            .expect("burned occupancy is finite and non-negative");
        self.tracer.emit(
            now,
            TraceEvent::QueuePush {
                reservation: id,
                job: victim,
                shard,
                device,
                seconds: evicted.lease.seconds,
                requeued: true,
            },
        );
    }

    /// Lease-completion bookkeeping. `hoisted` carries the batch's
    /// precomputed [`BatchResult`] when stage A already advanced the
    /// runner on a shard worker; `None` runs the compute inline here (the
    /// sequential path, and every non-hoist-safe case).
    fn on_lease_done(&mut self, device: usize, lease: u64, now: f64, hoisted: Option<BatchResult>) {
        let _prof = qoncord_prof::span("engine::lease_done");
        // Expiry of an evicted lease: the device moved on, nothing to do.
        let Some(lease) = self.leases.complete(device, lease) else {
            debug_assert!(
                hoisted.is_none(),
                "a lease live at its barrier's start cannot go stale within the barrier"
            );
            self.tracer
                .emit(now, TraceEvent::StaleExpiry { lease, device });
            return;
        };
        let job = lease.job;
        let shard = lease.shard();
        self.in_flight[job].remove(&shard);
        // The batch's real compute runs now, at its virtual completion —
        // either spliced in from the barrier's parallel stage or inline.
        let result = match hoisted {
            Some(result) => result,
            None => self.drivers[job]
                .as_mut()
                .expect("granted job is active")
                .execute_batch(shard),
        };
        debug_assert_eq!(result.fleet_index, device, "driver/queue device mismatch");
        debug_assert!(
            (result.duration - lease.seconds).abs() < 1e-9,
            "estimated and actual batch durations must agree"
        );
        self.makespan = self.makespan.max(now);
        self.tracer.emit(
            now,
            TraceEvent::LeaseComplete {
                lease: lease.id,
                job,
                shard,
                device,
                granted_at: lease.granted_at,
                seconds: result.duration,
                executions: result.executions,
                finished: result.finished,
            },
        );
        self.devices[device].busy_seconds += result.duration;
        self.devices[device].executions += result.executions;
        let telemetry = &mut self.telemetry[job];
        // Time-to-first-service: the grant that actually delivered compute,
        // not a grant preemption later revoked.
        if telemetry.first_start.is_none() {
            telemetry.first_start = Some(lease.granted_at);
        }
        telemetry.device_seconds[device] += result.duration;
        telemetry.executions += result.executions;
        telemetry.cost += result.duration * self.fleet[device].cost_per_second();
        self.queue
            .record_usage(&self.jobs[job].tenant, result.duration)
            .expect("batch durations are finite and non-negative");

        if let Some(pruned) = &result.pruned {
            self.resolve_holds(job, pruned, now);
        }
        if result.finished {
            debug_assert!(
                self.in_flight[job].is_empty(),
                "a finished job has no shard in flight"
            );
            self.telemetry[job].completion = Some(now);
            // Close the calibration loop: the realized completion against
            // the admission-time projection is one estimate-error sample
            // for the job's (tier, class) key — an SLA miss arrives here as
            // a large positive error.
            if let (Some(key), Some(estimate)) =
                (self.margin_key[job], self.telemetry[job].admission_estimate)
            {
                let snapshot = *self
                    .margins
                    .record_completion(now, key, estimate.completion, now);
                self.tracer
                    .emit(now, TraceEvent::CalibrationUpdate { job, snapshot });
                self.telemetry[job].estimate_error = Some(now - estimate.completion);
            }
            let spec = &self.jobs[job];
            if self.priority_credit[job] > 0.0 {
                // Expire the job-scoped priority credit granted at
                // admission — what remains of it after decay.
                self.queue
                    .record_usage(&spec.tenant, self.priority_credit[job])
                    .expect("priority credit is finite and non-negative");
                self.priority_credit[job] = 0.0;
            }
            if self.eviction_credit[job] > 0.0 {
                // Expire the eviction compensation the same way: it boosts
                // the victim while it is still being delayed, but must not
                // discount the tenant's later jobs.
                self.queue
                    .record_usage(&spec.tenant, self.eviction_credit[job])
                    .expect("burned seconds are finite and non-negative");
                self.eviction_credit[job] = 0.0;
            }
            let report = self.drivers[job]
                .take()
                .expect("finished job had a driver")
                .into_report();
            self.status[job] = Some(JobStatus::Completed { report });
            self.tracer.emit(now, TraceEvent::JobComplete { job });
        } else {
            self.enqueue_ready_batches(job, now);
        }
        self.try_dispatch(device, now);
    }

    /// Resolves every provisional hold of `job` at triage: holds of pruned
    /// restarts are released back to the fleet (and counted); holds of
    /// survivors are converted into the real batch requests that follow.
    /// Holds resolve in restart order — the hold map is unordered, and both
    /// the trace's determinism contract and the released-seconds sum need a
    /// canonical order.
    fn resolve_holds(&mut self, job: usize, pruned: &[usize], now: f64) {
        let pruned: HashSet<usize> = pruned.iter().copied().collect();
        let mut holds: Vec<(usize, (usize, usize, f64))> =
            std::mem::take(&mut self.holds[job]).into_iter().collect();
        holds.sort_by_key(|(restart, _)| *restart);
        for (restart, (id, device, seconds)) in holds {
            self.reservations.remove(&id);
            let cancelled = self.queue.cancel_by_id(id);
            debug_assert!(cancelled.is_some(), "hold was queued exactly once");
            let was_pruned = pruned.contains(&restart);
            self.tracer.emit(
                now,
                TraceEvent::HoldRelease {
                    reservation: id,
                    job,
                    restart,
                    device,
                    seconds,
                    pruned: was_pruned,
                },
            );
            if was_pruned {
                self.telemetry[job].released_reservations += 1;
                self.telemetry[job].released_seconds += seconds;
            }
        }
    }

    fn into_report(self) -> OrchestratorReport {
        let devices = self
            .fleet
            .iter()
            .zip(&self.devices)
            .map(|(spec, state)| DeviceTelemetry {
                name: spec.name().to_owned(),
                busy_seconds: state.busy_seconds,
                wasted_seconds: state.wasted_seconds,
                evictions: state.evictions,
                executions: state.executions,
            })
            .collect();
        let jobs = self
            .jobs
            .iter()
            .zip(self.status)
            .zip(self.telemetry)
            .map(|((spec, status), telemetry)| JobRecord {
                id: spec.id,
                tenant: spec.tenant.clone(),
                priority: spec.priority,
                status: status.expect("every job is admitted and resolved"),
                telemetry,
            })
            .collect();
        let mut tenant_usage: Vec<TenantUsage> = self
            .queue
            .balances()
            .map(|(tenant, usage)| TenantUsage {
                tenant: tenant.to_owned(),
                consumed_seconds: usage.consumed_seconds,
            })
            .collect();
        tenant_usage.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        OrchestratorReport {
            jobs,
            fleet: FleetTelemetry {
                devices,
                makespan: self.makespan,
            },
            tenant_usage,
            queue_ops: self.queue.stats(),
            calibration: self.margins.into_history(),
            trace: self.tracer.into_summary(),
            // Snapshot of whatever profiler the caller installed on this
            // thread; empty (and free) on unprofiled runs.
            perf: qoncord_prof::current_report(),
        }
    }
}
