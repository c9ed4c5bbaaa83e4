//! The per-job state machine: replays the closed-loop Qoncord scheduler
//! (`qoncord_core::scheduler::QoncordScheduler::run`) one device batch at a
//! time, so the engine can interleave many tenants on a shared fleet.
//!
//! A job is a ladder of fidelity rungs, and each rung holds one or more
//! shards — devices serving that rung, each with its own restart queue and
//! at most one pending batch. Rung 0 explores: its shards drain the
//! restarts dealt to them up front. A barrier then merges the exploration
//! reports into restart order and runs restart triage. Each later rung is
//! dealt the survivors round-robin and drains fully before the next rung
//! starts, with the entropy-gate probe in front of every non-final rung.
//! An unsplit job has one shard per rung; restart splitting
//! ([`crate::split`]) only widens rungs with twin devices.
//!
//! Every classical decision — triage, entropy-gate skips, rung transitions —
//! happens between batches and costs zero virtual time; every quantum batch
//! (one SPSA iteration, or one entropy-gate probe evaluation) is surfaced to
//! the engine as a device reservation. Every per-restart quantity derives
//! from job-level seeds addressed by restart index, and each lane sees its
//! restarts in the closed loop's order, so a job's numeric results match
//! the sequential scheduler bit for bit.

use crate::fleet::FleetDevice;
use qoncord_cloud::policy::merge_shard_results;
use qoncord_core::executor::{build_lanes, EvaluatorFactory, RejectedDevice};
use qoncord_core::phase::{PhaseCheckpoint, PhaseRunner, ShardCheckpoint};
use qoncord_core::scheduler::{
    exploration_seed, finetune_seed, DeviceUsage, QoncordConfig, QoncordReport, RestartReport,
};
use qoncord_core::select_restarts;
use qoncord_device::calibration::Calibration;
use qoncord_vqa::evaluator::CostEvaluator;
use qoncord_vqa::restart::{
    executions_for_iterations, random_initial_points, SPSA_EXECUTIONS_PER_ITERATION,
};
use std::collections::{HashMap, VecDeque};

/// A-priori estimate of the circuit executions one batch consumes (SPSA's
/// fixed per-iteration cost); used to size reservations before they run.
pub(crate) const EXECUTIONS_PER_BATCH_ESTIMATE: f64 = SPSA_EXECUTIONS_PER_ITERATION as f64;

/// A fleet device handed to a job's ladder construction.
#[derive(Debug, Clone)]
pub(crate) struct SelectedDevice {
    /// Index of the device in the engine's fleet.
    pub fleet_index: usize,
    /// Its calibration.
    pub calibration: Calibration,
    /// Its relative speed.
    pub speed: f64,
}

impl SelectedDevice {
    /// Fleet device `fleet_index`.
    pub(crate) fn of(fleet: &[FleetDevice], fleet_index: usize) -> Self {
        SelectedDevice {
            fleet_index,
            calibration: fleet[fleet_index].calibration().clone(),
            speed: fleet[fleet_index].speed(),
        }
    }
}

/// A fleet device bound to the job's workload: the evaluator plus
/// everything the driver prices and reports by.
pub(crate) struct Lane {
    /// Index of the device in the engine's fleet.
    pub fleet_index: usize,
    /// The device name (report attribution).
    pub device: String,
    /// The workload evaluator bound to this device.
    pub evaluator: Box<dyn CostEvaluator>,
    /// Estimated execution fidelity (Eq. 1).
    pub p_correct: f64,
    /// Wall-clock seconds one circuit execution occupies on the device.
    pub secs_per_execution: f64,
}

/// The job's fidelity ladder over `selected`: one lane per device that
/// passes the `min_fidelity` filter, ascending fidelity; the evaluator of
/// `selected[i]` is seeded `seed + i·1009`.
///
/// Returns the rejected-device list if no device survives the filter.
pub(crate) fn ladder_lanes(
    factory: &dyn EvaluatorFactory,
    selected: &[SelectedDevice],
    min_fidelity: f64,
    seed: u64,
    shots: u64,
) -> Result<(Vec<Lane>, Vec<RejectedDevice>), Vec<RejectedDevice>> {
    let cals: Vec<Calibration> = selected.iter().map(|s| s.calibration.clone()).collect();
    let (lanes, rejected) = build_lanes(&cals, factory, min_fidelity, seed);
    if lanes.is_empty() {
        return Err(rejected);
    }
    let by_name: HashMap<&str, (usize, f64)> = selected
        .iter()
        .map(|s| (s.calibration.name(), (s.fleet_index, s.speed)))
        .collect();
    let lanes = lanes
        .into_iter()
        .map(|lane| {
            let stats = lane.evaluator.circuit_stats();
            let (fleet_index, speed) = by_name[lane.calibration.name()];
            Lane {
                fleet_index,
                device: lane.calibration.name().to_owned(),
                secs_per_execution: lane.calibration.execution_time_s(&stats, shots) / speed,
                evaluator: lane.evaluator,
                p_correct: lane.p_correct,
            }
        })
        .collect();
    Ok((lanes, rejected))
}

enum Stage {
    /// The entropy-gate probe evaluation before a fine-tuning phase.
    Probe,
    /// A training phase (boxed: a runner carries the full optimizer/trace
    /// state and dwarfs the probe variant).
    Train(Box<PhaseRunner>),
}

/// One device serving one rung of the job.
struct Shard {
    /// The id the engine addresses the shard by.
    id: usize,
    lane: Lane,
    /// Restart indices not yet started, front first.
    queue: VecDeque<usize>,
    /// The restart this shard is working on, and how.
    active: Option<(usize, Stage)>,
}

/// What one granted batch did, as the engine sees it.
#[derive(Debug, Clone)]
pub(crate) struct BatchResult {
    /// Fleet device the batch ran on.
    pub fleet_index: usize,
    /// Device-seconds the batch occupies.
    pub duration: f64,
    /// Circuit executions consumed.
    pub executions: u64,
    /// `Some(pruned restart indices)` when restart triage ran inside this
    /// batch's classical epilogue (empty vector = triage kept everything).
    pub pruned: Option<Vec<usize>>,
    /// Whether the job has no further batches.
    pub finished: bool,
}

pub(crate) struct JobDriver {
    cfg: QoncordConfig,
    /// Shards per rung, ascending fidelity (rung 0 explores).
    rungs: Vec<Vec<Shard>>,
    /// The rung holding the pending batches (`rungs.len()` once done).
    rung: usize,
    initials: Vec<Vec<f64>>,
    /// Exploration reports as shards finish them, merged at triage.
    explored: Vec<(usize, RestartReport)>,
    /// Restart-ordered reports, populated at triage.
    reports: Vec<RestartReport>,
    rejected: Vec<RejectedDevice>,
    ground_energy: f64,
}

impl JobDriver {
    /// Builds the driver over its rungs — `explore` as rung 0, each shard
    /// with the restarts dealt to it; `finetune` as the later rungs — and
    /// starts every exploration shard's first restart.
    ///
    /// Shard ids number the shards rung-major. A ladder whose rungs are
    /// all one shard wide is a single shard climbing it (id 0): only one
    /// of its batches is ever in the system.
    ///
    /// # Panics
    ///
    /// Panics if `n_restarts` is zero, a rung is empty, or an iteration
    /// budget is zero (a zero-budget phase has no batch to reserve).
    pub(crate) fn new(
        cfg: QoncordConfig,
        n_restarts: usize,
        explore: Vec<(Lane, Vec<usize>)>,
        finetune: Vec<Vec<Lane>>,
        rejected: Vec<RejectedDevice>,
    ) -> Self {
        assert!(n_restarts > 0, "need at least one restart");
        assert!(
            cfg.exploration_max_iterations > 0,
            "exploration budget must be positive"
        );
        assert!(
            finetune.is_empty() || cfg.finetune_max_iterations > 0,
            "fine-tuning budget must be positive on a multi-device ladder"
        );
        let split = explore.len() > 1 || finetune.iter().any(|rung| rung.len() > 1);
        let mut next_id = 0;
        let mut shard = |lane: Lane, queue: Vec<usize>| {
            let id = next_id;
            next_id += usize::from(split);
            Shard {
                id,
                lane,
                queue: queue.into(),
                active: None,
            }
        };
        let mut rungs = vec![explore
            .into_iter()
            .map(|(lane, restarts)| shard(lane, restarts))
            .collect::<Vec<_>>()];
        for rung in finetune {
            assert!(!rung.is_empty(), "every rung has a shard");
            rungs.push(
                rung.into_iter()
                    .map(|lane| shard(lane, Vec::new()))
                    .collect(),
            );
        }
        let first = &rungs[0]
            .first()
            .expect("every rung has a shard")
            .lane
            .evaluator;
        let (n_params, ground_energy) = (first.n_params(), first.ground_energy());
        let mut driver = JobDriver {
            initials: random_initial_points(n_params, n_restarts, cfg.seed),
            cfg,
            rungs,
            rung: 0,
            explored: Vec::with_capacity(n_restarts),
            reports: Vec::new(),
            rejected,
            ground_energy,
        };
        for s in 0..driver.rungs[0].len() {
            driver.start_next(s);
        }
        driver
    }

    /// The unsplit driver: one shard per rung, rung 0's shard dealt every
    /// restart.
    pub(crate) fn unsplit(
        cfg: QoncordConfig,
        n_restarts: usize,
        lanes: Vec<Lane>,
        rejected: Vec<RejectedDevice>,
    ) -> Self {
        let mut lanes = lanes.into_iter();
        let entry = lanes.next().expect("non-empty ladder");
        let explore = vec![(entry, (0..n_restarts).collect())];
        let finetune = lanes.map(|lane| vec![lane]).collect();
        JobDriver::new(cfg, n_restarts, explore, finetune, rejected)
    }

    pub(crate) fn is_multi_device(&self) -> bool {
        self.rungs.len() > 1
    }

    /// Number of distinct shard ids (1 for unsplit jobs).
    pub(crate) fn shard_count(&self) -> usize {
        self.rungs.iter().flatten().last().map_or(1, |s| s.id + 1)
    }

    /// Every shard id's fleet device (its first rung's, for the climbing
    /// shard of an unsplit job) — the shard-plan layout the flight recorder
    /// emits at admission.
    pub(crate) fn shard_devices(&self) -> Vec<usize> {
        let shards = self.rungs.iter().flatten().take(self.shard_count());
        shards.map(|s| s.lane.fleet_index).collect()
    }

    /// The ladder's entry device (where the first batch runs).
    pub(crate) fn entry_device(&self) -> usize {
        self.rungs[0][0].lane.fleet_index
    }

    /// Per-shard `(fleet device, estimated seconds)` targets for the
    /// provisional fine-tuning holds, one per final-rung shard; restart
    /// `r`'s hold is booked on target `r % len`, mirroring how survivors
    /// are dealt across the rung.
    pub(crate) fn finetune_hold_targets(&self) -> Vec<(usize, f64)> {
        let iterations = executions_for_iterations(self.cfg.finetune_max_iterations) as f64;
        self.rungs
            .last()
            .expect("non-empty ladder")
            .iter()
            .map(|s| (s.lane.fleet_index, iterations * s.lane.secs_per_execution))
            .collect()
    }

    /// Wall-clock seconds one circuit execution takes per fleet device (0.0
    /// for devices outside the job's ladder) — the per-circuit cost vector
    /// feasibility projections price the job's placements with.
    pub(crate) fn seconds_per_execution_by_fleet(&self, n_devices: usize) -> Vec<f64> {
        let mut secs = vec![0.0; n_devices];
        for shard in self.rungs.iter().flatten() {
            secs[shard.lane.fleet_index] = shard.lane.secs_per_execution;
        }
        secs
    }

    /// Shards that currently have a pending batch to schedule.
    pub(crate) fn ready_shards(&self) -> Vec<usize> {
        self.rungs.get(self.rung).map_or_else(Vec::new, |rung| {
            rung.iter()
                .filter(|s| s.active.is_some())
                .map(|s| s.id)
                .collect()
        })
    }

    /// Fleet device `shard`'s pending batch needs.
    pub(crate) fn shard_device(&self, shard: usize) -> usize {
        self.shard(shard)
            .expect("shard is on the live rung")
            .lane
            .fleet_index
    }

    /// Estimated device-seconds of `shard`'s pending batch.
    pub(crate) fn estimated_next_seconds(&self, shard: usize) -> f64 {
        let shard = self.shard(shard).expect("shard is on the live rung");
        match shard.active {
            Some((_, Stage::Probe)) => shard.lane.secs_per_execution,
            _ => EXECUTIONS_PER_BATCH_ESTIMATE * shard.lane.secs_per_execution,
        }
    }

    /// The optimizer state `shard` would resume from if its pending batch
    /// were granted and then recalled: the active phase's checkpoint, or a
    /// parameter-only snapshot around an entropy-gate probe (probes carry
    /// no phase state of their own).
    pub(crate) fn shard_checkpoint(&self, shard: usize) -> ShardCheckpoint {
        let (restart, params, iteration, executions) =
            match self.shard(shard).and_then(|s| s.active.as_ref()) {
                Some((restart, Stage::Train(runner))) => {
                    let phase = runner.checkpoint();
                    (*restart, phase.params, phase.iteration, phase.executions)
                }
                Some((restart, Stage::Probe)) => {
                    (*restart, self.reports[*restart].final_params.clone(), 0, 0)
                }
                None => (0, Vec::new(), 0, 0),
            };
        ShardCheckpoint {
            shard,
            restart,
            phase: PhaseCheckpoint {
                params,
                iteration,
                executions,
            },
        }
    }

    /// Runs `shard`'s pending batch and advances through its classical
    /// epilogue: the shard's next restart, and once the rung drains, the
    /// rung barrier (triage after exploration) and the next rung's deal.
    ///
    /// # Panics
    ///
    /// Panics if the shard has no pending batch.
    pub(crate) fn execute_batch(&mut self, shard: usize) -> BatchResult {
        let (rung, s) = (self.rung, self.position(shard));
        let lane = &self.rungs[rung][s].lane;
        let (fleet_index, secs) = (lane.fleet_index, lane.secs_per_execution);
        let (restart, stage) = self.rungs[rung][s]
            .active
            .take()
            .expect("shard has a pending batch");
        let (executions, next) = match stage {
            Stage::Probe => {
                // Entropy gate (Sec. IV-F): one probe evaluation at the
                // current iterate on the candidate rung; skip the rung if it
                // looks noisier than where the restart left off.
                let report = &self.reports[restart];
                let evaluator = self.rungs[rung][s].lane.evaluator.as_mut();
                let before = evaluator.executions();
                let probe = evaluator.evaluate(&report.final_params);
                let executions = evaluator.executions() - before;
                let prev_entropy = report
                    .phases
                    .last()
                    .and_then(|p| p.trace.records.last())
                    .map(|r| r.entropy);
                let skip = matches!(prev_entropy, Some(prev)
                    if probe.entropy > prev + self.cfg.entropy_gate_slack);
                let next = (!skip).then(|| {
                    let runner = self.finetune_runner(rung, restart);
                    (restart, Stage::Train(Box::new(runner)))
                });
                (executions, next)
            }
            Stage::Train(mut runner) => {
                let out = runner.step(self.rungs[rung][s].lane.evaluator.as_mut());
                if !out.finished {
                    (out.executions, Some((restart, Stage::Train(runner))))
                } else {
                    let device = self.rungs[rung][s].lane.device.clone();
                    let (params, phase) = (*runner).finish(device);
                    if rung == 0 {
                        let exploration_expectation =
                            phase.trace.final_expectation().unwrap_or(f64::INFINITY);
                        self.explored.push((
                            restart,
                            RestartReport {
                                index: restart,
                                initial_params: self.initials[restart].clone(),
                                final_params: params,
                                phases: vec![phase],
                                survived: true,
                                exploration_expectation,
                                final_expectation: exploration_expectation,
                            },
                        ));
                    } else {
                        let report = &mut self.reports[restart];
                        report.final_params = params;
                        if let Some(e) = phase.trace.final_expectation() {
                            report.final_expectation = e;
                        }
                        report.phases.push(phase);
                    }
                    (out.executions, None)
                }
            }
        };
        let mut pruned = None;
        if next.is_some() {
            self.rungs[rung][s].active = next;
        } else {
            self.start_next(s);
            if self.rungs[rung].iter().all(|s| s.active.is_none()) {
                pruned = self.pass_barrier();
            }
        }
        BatchResult {
            fleet_index,
            duration: executions as f64 * secs,
            executions,
            pruned,
            finished: self.rung == self.rungs.len(),
        }
    }

    /// Consumes the driver into the same report the closed-loop scheduler
    /// produces.
    pub(crate) fn into_report(self) -> QoncordReport {
        QoncordReport {
            restarts: self.reports,
            devices: self
                .rungs
                .iter()
                .flatten()
                .map(|s| DeviceUsage {
                    device: s.lane.device.clone(),
                    p_correct: s.lane.p_correct,
                    executions: s.lane.evaluator.executions(),
                })
                .collect(),
            rejected: self.rejected,
            ground_energy: self.ground_energy,
        }
    }

    /// The live rung's shard with id `shard`, if any.
    fn shard(&self, shard: usize) -> Option<&Shard> {
        self.rungs.get(self.rung)?.iter().find(|s| s.id == shard)
    }

    fn position(&self, shard: usize) -> usize {
        self.rungs[self.rung]
            .iter()
            .position(|s| s.id == shard)
            .expect("shard is on the live rung")
    }

    /// Pops the live rung's shard `s`'s next queued restart into its first
    /// batch: an exploration phase on rung 0, the entropy-gate probe on a
    /// gated non-final rung, a fine-tuning phase otherwise.
    fn start_next(&mut self, s: usize) {
        let rung = self.rung;
        let Some(restart) = self.rungs[rung][s].queue.pop_front() else {
            return;
        };
        let cfg = &self.cfg;
        let stage = if rung == 0 {
            // Same tiering as the closed loop: single-device jobs get the
            // strict checker and the combined budget.
            let (checker, budget) = if self.rungs.len() > 1 {
                (cfg.relaxed, cfg.exploration_max_iterations)
            } else {
                (
                    cfg.strict,
                    cfg.exploration_max_iterations + cfg.finetune_max_iterations,
                )
            };
            Stage::Train(Box::new(PhaseRunner::new(
                self.initials[restart].clone(),
                checker,
                budget,
                exploration_seed(cfg.seed, restart),
            )))
        } else if cfg.entropy_gate && rung + 1 < self.rungs.len() {
            Stage::Probe
        } else {
            Stage::Train(Box::new(self.finetune_runner(rung, restart)))
        };
        self.rungs[rung][s].active = Some((restart, stage));
    }

    /// The fine-tuning phase of `restart` on `rung`, from where the
    /// restart left off.
    fn finetune_runner(&self, rung: usize, restart: usize) -> PhaseRunner {
        let cfg = &self.cfg;
        let checker = if rung + 1 == self.rungs.len() {
            cfg.strict
        } else {
            cfg.relaxed
        };
        PhaseRunner::new(
            self.reports[restart].final_params.clone(),
            checker,
            cfg.finetune_max_iterations,
            finetune_seed(cfg.seed, restart, rung),
        )
    }

    /// The barrier behind a drained rung. After exploration, merges the
    /// shards' reports into restart order and (on a multi-rung ladder)
    /// runs restart triage. Then deals the survivors round-robin across the
    /// next rung's shards. Returns the pruned restart indices when triage
    /// ran.
    fn pass_barrier(&mut self) -> Option<Vec<usize>> {
        let n_rungs = self.rungs.len();
        let mut pruned = None;
        if self.rung == 0 {
            self.reports =
                merge_shard_results(std::mem::take(&mut self.explored), self.initials.len())
                    .expect("every restart explored exactly once across the shards");
            if n_rungs > 1 {
                pruned = Some(self.triage());
            }
        }
        let survivors: Vec<usize> = (0..self.reports.len())
            .filter(|&i| self.reports[i].survived)
            .collect();
        // A triage that kept nothing leaves no rung any work.
        self.rung = if survivors.is_empty() {
            n_rungs
        } else {
            self.rung + 1
        };
        if let Some(shards) = self.rungs.get_mut(self.rung) {
            let width = shards.len();
            for (pos, &restart) in survivors.iter().enumerate() {
                shards[pos % width].queue.push_back(restart);
            }
            for s in 0..width {
                self.start_next(s);
            }
        }
        pruned
    }

    /// Restart triage at the exploration/fine-tuning boundary: marks
    /// survivors per the selection policy over the exploration
    /// expectations and returns the pruned restart indices.
    fn triage(&mut self) -> Vec<usize> {
        let intermediates: Vec<f64> = self
            .reports
            .iter()
            .map(|r| r.exploration_expectation)
            .collect();
        let keep = select_restarts(&intermediates, self.cfg.selection);
        let mut pruned = Vec::new();
        for (i, report) in self.reports.iter_mut().enumerate() {
            report.survived = keep.contains(&i);
            if !report.survived {
                pruned.push(i);
            }
        }
        pruned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoncord_core::executor::QaoaFactory;
    use qoncord_core::scheduler::QoncordScheduler;
    use qoncord_device::catalog;
    use qoncord_vqa::graph::Graph;
    use qoncord_vqa::maxcut::MaxCut;

    fn factory() -> QaoaFactory {
        QaoaFactory {
            problem: MaxCut::new(Graph::paper_graph_7()),
            layers: 1,
        }
    }

    fn small_config() -> QoncordConfig {
        QoncordConfig {
            exploration_max_iterations: 10,
            finetune_max_iterations: 12,
            seed: 23,
            ..QoncordConfig::default()
        }
    }

    fn selected() -> Vec<SelectedDevice> {
        vec![
            SelectedDevice {
                fleet_index: 4,
                calibration: catalog::ibmq_toronto(),
                speed: 1.0,
            },
            SelectedDevice {
                fleet_index: 9,
                calibration: catalog::ibmq_kolkata(),
                speed: 1.0,
            },
        ]
    }

    /// The unsplit driver over `selected`, as the engine builds it when
    /// the job does not split.
    fn ladder(
        cfg: QoncordConfig,
        n_restarts: usize,
        selected: &[SelectedDevice],
    ) -> Result<JobDriver, Vec<RejectedDevice>> {
        let (lanes, rejected) =
            ladder_lanes(&factory(), selected, cfg.min_fidelity, cfg.seed, 1000)?;
        Ok(JobDriver::unsplit(cfg, n_restarts, lanes, rejected))
    }

    /// Drives the job to completion in one go and returns its report.
    fn drain(mut driver: JobDriver) -> QoncordReport {
        let mut batches = 0;
        while !driver.ready_shards().is_empty() {
            let result = driver.execute_batch(0);
            assert!(result.duration > 0.0);
            assert!(result.executions > 0);
            batches += 1;
            assert!(batches < 100_000, "runaway driver");
        }
        driver.into_report()
    }

    #[test]
    fn batchwise_execution_matches_closed_loop_scheduler() {
        let cfg = small_config();
        let devices = [catalog::ibmq_toronto(), catalog::ibmq_kolkata()];
        let closed = QoncordScheduler::new(cfg.clone())
            .run(&devices, &factory(), 5)
            .unwrap();

        let driver = ladder(cfg, 5, &selected()).unwrap();
        assert!(driver.is_multi_device());
        let batched = drain(driver);

        assert_eq!(batched.restarts.len(), closed.restarts.len());
        for (a, b) in batched.restarts.iter().zip(&closed.restarts) {
            assert_eq!(a.survived, b.survived);
            assert_eq!(a.exploration_expectation, b.exploration_expectation);
            assert_eq!(a.final_expectation, b.final_expectation);
            assert_eq!(a.final_params, b.final_params);
        }
        assert_eq!(batched.best_expectation(), closed.best_expectation());
        assert_eq!(batched.total_executions(), closed.total_executions());
        for (a, b) in batched.devices.iter().zip(&closed.devices) {
            assert_eq!(a.device, b.device);
            assert_eq!(a.executions, b.executions);
        }
    }

    #[test]
    fn three_rung_entropy_gated_ladder_matches_closed_loop() {
        let cals = [
            catalog::ibmq_toronto(),
            catalog::ibmq_guadalupe(),
            catalog::ibmq_kolkata(),
        ];
        let devices: Vec<SelectedDevice> = cals
            .iter()
            .enumerate()
            .map(|(i, cal)| SelectedDevice {
                fleet_index: 3 * i + 1,
                calibration: cal.clone(),
                speed: 1.0,
            })
            .collect();
        // The default slack lets every survivor onto the middle rung; a
        // negative one makes the probe skip it. Both must replay the
        // closed loop exactly.
        for (slack, middle_rung_trains) in [(0.15, true), (-0.1, false)] {
            let cfg = QoncordConfig {
                entropy_gate: true,
                entropy_gate_slack: slack,
                ..small_config()
            };
            let closed = QoncordScheduler::new(cfg.clone())
                .run(&cals, &factory(), 4)
                .unwrap();
            assert_eq!(closed.devices.len(), 3, "every rung passes the filter");

            let mut driver = ladder(cfg, 4, &devices).unwrap();
            let mut probes = 0;
            while !driver.ready_shards().is_empty() {
                let result = driver.execute_batch(0);
                assert!(result.executions > 0);
                if result.executions < SPSA_EXECUTIONS_PER_ITERATION {
                    probes += 1;
                }
            }
            let batched = driver.into_report();

            let survivors = batched.restarts.iter().filter(|r| r.survived).count();
            assert!(survivors > 0);
            assert_eq!(probes, survivors, "one middle-rung probe per survivor");
            assert_eq!(batched.restarts.len(), closed.restarts.len());
            for (a, b) in batched.restarts.iter().zip(&closed.restarts) {
                assert_eq!(a.survived, b.survived);
                if a.survived {
                    let rungs = if middle_rung_trains { 3 } else { 2 };
                    assert_eq!(a.phases.len(), rungs, "slack {slack}");
                }
                assert_eq!(a.phases.len(), b.phases.len());
                assert_eq!(a.exploration_expectation, b.exploration_expectation);
                assert_eq!(a.final_expectation, b.final_expectation);
                assert_eq!(a.final_params, b.final_params);
            }
            assert_eq!(batched.devices.len(), 3);
            for (a, b) in batched.devices.iter().zip(&closed.devices) {
                assert_eq!(a.device, b.device);
                assert_eq!(a.executions, b.executions);
            }
        }
    }

    #[test]
    fn single_device_job_matches_closed_loop() {
        let cfg = small_config();
        let closed = QoncordScheduler::new(cfg.clone())
            .run(&[catalog::ibmq_kolkata()], &factory(), 3)
            .unwrap();
        let one = vec![SelectedDevice {
            fleet_index: 0,
            calibration: catalog::ibmq_kolkata(),
            speed: 1.0,
        }];
        let driver = ladder(cfg, 3, &one).unwrap();
        assert!(!driver.is_multi_device());
        let batched = drain(driver);
        assert_eq!(batched.best_expectation(), closed.best_expectation());
        assert_eq!(batched.total_executions(), closed.total_executions());
    }

    #[test]
    fn triage_surfaces_pruned_restarts_once() {
        let cfg = QoncordConfig {
            selection: qoncord_core::SelectionPolicy::TopK(2),
            ..small_config()
        };
        let mut driver = ladder(cfg, 6, &selected()).unwrap();
        let mut triages = 0;
        let mut pruned_total = 0;
        while !driver.ready_shards().is_empty() {
            if let Some(pruned) = driver.execute_batch(0).pruned {
                triages += 1;
                pruned_total = pruned.len();
            }
        }
        assert_eq!(triages, 1, "triage runs exactly once");
        assert_eq!(pruned_total, 4, "TopK(2) of 6 restarts prunes 4");
    }

    #[test]
    fn checkpoint_advances_with_batches() {
        let mut driver = ladder(small_config(), 2, &selected()).unwrap();
        assert_eq!(driver.shard_checkpoint(0).phase.iteration, 0);
        driver.execute_batch(0);
        let ckpt = driver.shard_checkpoint(0).phase;
        assert_eq!(ckpt.iteration, 1);
        assert_eq!(ckpt.executions, SPSA_EXECUTIONS_PER_ITERATION);
        assert!(!ckpt.params.is_empty());
    }

    #[test]
    fn per_fleet_execution_times_follow_the_ladder() {
        let driver = ladder(small_config(), 2, &selected()).unwrap();
        let secs = driver.seconds_per_execution_by_fleet(12);
        assert!(secs[4] > 0.0, "exploration device priced");
        assert!(secs[9] > 0.0, "fine-tune device priced");
        assert_eq!(secs.iter().filter(|&&s| s > 0.0).count(), 2);
    }

    #[test]
    fn all_devices_rejected_reports_reasons() {
        let cfg = QoncordConfig {
            min_fidelity: 0.999,
            ..small_config()
        };
        let err = match ladder(cfg, 2, &selected()) {
            Err(rejected) => rejected,
            Ok(_) => panic!("expected every device to be rejected"),
        };
        assert_eq!(err.len(), 2);
    }

    #[test]
    fn speed_scales_batch_duration() {
        let cfg = small_config();
        let mut fast = selected();
        fast[0].speed = 2.0;
        let mut a = ladder(cfg.clone(), 2, &selected()).unwrap();
        let mut b = ladder(cfg, 2, &fast).unwrap();
        let da = a.execute_batch(0).duration;
        let db = b.execute_batch(0).duration;
        assert!((da / db - 2.0).abs() < 1e-9, "2x speed halves duration");
    }
}
