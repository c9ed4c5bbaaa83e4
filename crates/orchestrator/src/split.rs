//! QuSplit-style restart splitting: one job's restarts fanned out across
//! several fleet devices of the same quality tier.
//!
//! The job driver (the private `driver` module) runs a job as a ladder of
//! rungs, each served by one or more shards. Unsplit, every rung is one
//! device, so a 50-restart exploration serializes on a single
//! low-fidelity machine even when its twin sits idle next to it. This
//! module widens the rungs of a two-rung ladder with twin devices: the
//! fan-out width of each rung is chosen from live load by
//! [`qoncord_cloud::policy::split_restarts`], the engine grants each shard
//! its own preemptible sub-lease, and the driver merges the shards'
//! exploration results back into restart order with
//! [`qoncord_cloud::policy::merge_shard_results`] before triage.
//!
//! # Bit-identical merges
//!
//! Every per-restart quantity is derived from job-level seeds addressed by
//! restart index ([`qoncord_vqa::restart::random_initial_points`],
//! [`qoncord_core::scheduler::exploration_seed`],
//! [`qoncord_core::scheduler::finetune_seed`]), never from shard-local
//! state, and restart triage runs on the merged, index-ordered exploration
//! results. A rung only widens onto devices whose advertised fidelity
//! matches its primary device's, i.e. onto twins sharing its calibration
//! model (the twin fleets of [`crate::fleet`]). A split run therefore
//! reproduces the unsplit run's final energy and parameters for every
//! restart bit for bit — only the timing (and therefore the fleet
//! makespan) changes.

use crate::driver::{ladder_lanes, JobDriver, Lane, SelectedDevice};
use crate::engine::OrchestratorConfig;
use crate::fleet::FleetDevice;
use crate::job::TenantJob;
use qoncord_cloud::device::CloudDevice;
use qoncord_cloud::policy::split_restarts;
use qoncord_core::executor::RejectedDevice;
use qoncord_vqa::restart::executions_for_iterations;

/// Upper bound on a rung's fan-out width (the live-load planner may choose
/// less).
const MAX_FANOUT: usize = 4;

/// How far apart two devices' advertised fidelities may lie and still
/// count as the same tier: tight enough to admit only twin devices, which
/// keeps split results bit-identical to unsplit runs.
const TIER_TOLERANCE: f64 = 1e-9;

/// Tuning of QuSplit-style restart splitting.
///
/// # Examples
///
/// ```
/// use qoncord_orchestrator::SplitConfig;
///
/// assert!(!SplitConfig::default().enabled, "splitting is opt-in");
/// assert!(SplitConfig::enabled().enabled);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SplitConfig {
    /// Whether multi-device jobs may fan their restarts across same-tier
    /// twin devices at all. Disabled, every rung of a job's ladder is one
    /// device.
    pub enabled: bool,
}

impl SplitConfig {
    /// Splitting switched on.
    pub fn enabled() -> Self {
        SplitConfig { enabled: true }
    }
}

/// One rung's shard plan: `(fleet device, restart indices)` per shard.
type TierPlan = Vec<(usize, Vec<usize>)>;

/// Builds the job driver for an admitted job: its fidelity ladder over
/// `selected`, with its rungs widened onto twin devices where
/// [`plan_rungs`] fans them.
///
/// Returns the rejected-device list when no device survives the fidelity
/// filter.
pub(crate) fn build_driver(
    spec: &TenantJob,
    selected: &[SelectedDevice],
    fleet: &[FleetDevice],
    views: &[CloudDevice],
    config: &OrchestratorConfig,
    now: f64,
) -> Result<JobDriver, Vec<RejectedDevice>> {
    let cfg = spec.config.clone();
    let factory = spec.factory.as_ref();
    let (lanes, rejected) =
        ladder_lanes(factory, selected, cfg.min_fidelity, cfg.seed, config.shots)?;
    let Some([explore, finetune]) = plan_rungs(spec, &lanes, fleet, views, config, now) else {
        return Ok(JobDriver::unsplit(cfg, spec.n_restarts, lanes, rejected));
    };
    let mut primaries = lanes.into_iter();
    let mut shards = |(plan, twins): (TierPlan, Vec<Option<Lane>>)| {
        let mut primary = primaries.next();
        plan.into_iter()
            .zip(twins)
            .map(|((_, restarts), twin)| {
                let lane = twin.or_else(|| primary.take());
                (lane.expect("each rung reuses its primary once"), restarts)
            })
            .collect::<Vec<_>>()
    };
    let explore = shards(explore);
    let finetune = shards(finetune).into_iter().map(|(lane, _)| lane);
    Ok(JobDriver::new(
        cfg,
        spec.n_restarts,
        explore,
        vec![finetune.collect()],
        rejected,
    ))
}

/// The shard plans of a two-rung ladder's rungs, each with the lane of
/// every shard on a twin device (`None` on the rung's primary device,
/// whose ladder lane the shard reuses). `None` keeps one device per rung:
/// splitting is disabled, the job has a single restart, the ladder is not
/// the paper's two-tier exploration/fine-tuning pipeline, no rung fans
/// wider than one device, or a twin cannot host the workload — a plan is
/// honored in full or not at all, because dropping a shard would orphan
/// the restarts it owns.
fn plan_rungs(
    spec: &TenantJob,
    lanes: &[Lane],
    fleet: &[FleetDevice],
    views: &[CloudDevice],
    config: &OrchestratorConfig,
    now: f64,
) -> Option<[(TierPlan, Vec<Option<Lane>>); 2]> {
    let cfg = &spec.config;
    if !config.split.enabled || lanes.len() != 2 || spec.n_restarts < 2 {
        return None;
    }
    let plan = |rung: usize, n_restarts: usize, iterations: usize| {
        let lane = &lanes[rung];
        let seconds = executions_for_iterations(iterations) as f64 * lane.secs_per_execution;
        plan_tier(fleet, views, lane.fleet_index, n_restarts, seconds, now)
    };
    let explore = plan(0, spec.n_restarts, cfg.exploration_max_iterations);
    // Only triage survivors ever fine-tune, so the fine-tuning rung is
    // fanned for the selection policy's survivor bound, not the raw
    // restart count — a TopK(2) job must not build shards that can never
    // receive work.
    let finetune = plan(
        1,
        cfg.selection.max_survivors(spec.n_restarts),
        cfg.finetune_max_iterations,
    );
    if explore.len() < 2 && finetune.len() < 2 {
        return None;
    }
    let twins = |plan: &TierPlan, rung: usize, salt: u64| -> Option<Vec<Option<Lane>>> {
        plan.iter()
            .map(|&(device, _)| {
                if device == lanes[rung].fleet_index {
                    return Some(None);
                }
                // A twin is bound to the workload as a one-device ladder.
                let twin = [SelectedDevice::of(fleet, device)];
                let seed = cfg.seed.wrapping_add(salt);
                let factory = spec.factory.as_ref();
                let (mut lane, _) =
                    ladder_lanes(factory, &twin, cfg.min_fidelity, seed, config.shots).ok()?;
                lane.pop().map(Some)
            })
            .collect()
    };
    let explore_twins = twins(&explore, 0, 0)?;
    let finetune_twins = twins(&finetune, 1, 1009)?;
    Some([(explore, explore_twins), (finetune, finetune_twins)])
}

/// Plans one rung's shard devices from live load: candidates are the fleet
/// devices whose advertised fidelity sits within [`TIER_TOLERANCE`] of the
/// rung's primary device, and [`qoncord_cloud::policy::split_restarts`]
/// deals the restarts across the least-loaded of them. Returns
/// `(fleet device, restart indices)` pairs.
fn plan_tier(
    fleet: &[FleetDevice],
    views: &[CloudDevice],
    primary: usize,
    n_restarts: usize,
    seconds_per_restart: f64,
    now: f64,
) -> TierPlan {
    let anchor = fleet[primary].advertised_fidelity();
    let candidates: Vec<CloudDevice> = views
        .iter()
        .enumerate()
        .filter(|(i, _)| (fleet[*i].advertised_fidelity() - anchor).abs() <= TIER_TOLERANCE)
        .map(|(_, v)| v.clone())
        .collect();
    let tier_floor = candidates
        .iter()
        .map(|d| d.fidelity())
        .fold(f64::INFINITY, f64::min);
    let plan = split_restarts(
        &candidates,
        tier_floor,
        n_restarts,
        seconds_per_restart,
        MAX_FANOUT,
        now,
    );
    if plan.is_empty() {
        // The planner found no eligible device (cannot happen while the
        // primary is in its own band, but fall back defensively).
        return vec![(primary, (0..n_restarts).collect())];
    }
    plan.into_iter().map(|p| (p.device, p.restarts)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::two_lf_two_hf_fleet;
    use qoncord_core::executor::{EvaluatorFactory, QaoaFactory};
    use qoncord_core::scheduler::{QoncordConfig, QoncordReport, QoncordScheduler};
    use qoncord_device::catalog;
    use qoncord_vqa::graph::Graph;
    use qoncord_vqa::maxcut::MaxCut;

    fn factory() -> Box<dyn EvaluatorFactory> {
        Box::new(QaoaFactory {
            problem: MaxCut::new(Graph::paper_graph_7()),
            layers: 1,
        })
    }

    fn spec(n_restarts: usize) -> TenantJob {
        let cfg = QoncordConfig {
            exploration_max_iterations: 8,
            finetune_max_iterations: 10,
            seed: 23,
            ..QoncordConfig::default()
        };
        TenantJob::new(0, "splitter", 0.0, factory())
            .with_restarts(n_restarts)
            .with_config(cfg)
    }

    /// A fully fanned driver over the twin reference fleet: the front half
    /// of the restarts explores on lf_east, the back half on lf_west, and
    /// both HF twins fine-tune — seeded as the engine seeds a widened
    /// ladder.
    fn split_driver(spec: &TenantJob, fleet: &[FleetDevice]) -> JobDriver {
        let lane = |device: usize, salt: u64| {
            let twin = [SelectedDevice::of(fleet, device)];
            let cfg = &spec.config;
            let seed = cfg.seed + salt;
            let (mut lanes, _) =
                ladder_lanes(spec.factory.as_ref(), &twin, cfg.min_fidelity, seed, 1000)
                    .expect("twin fleet hosts the workload");
            lanes.pop().expect("one lane per twin")
        };
        let restarts: Vec<usize> = (0..spec.n_restarts).collect();
        let (left, right) = restarts.split_at(spec.n_restarts / 2);
        JobDriver::new(
            spec.config.clone(),
            spec.n_restarts,
            vec![(lane(0, 0), left.to_vec()), (lane(1, 0), right.to_vec())],
            vec![vec![lane(2, 1009), lane(3, 1009)]],
            Vec::new(),
        )
    }

    fn drain(mut driver: JobDriver) -> QoncordReport {
        let mut batches = 0;
        loop {
            let ready = driver.ready_shards();
            if ready.is_empty() {
                break;
            }
            // Round-robin over the ready shards, interleaving them the way
            // concurrent leases would.
            for shard in ready {
                let result = driver.execute_batch(shard);
                assert!(result.duration > 0.0);
                assert!(result.executions > 0);
            }
            batches += 1;
            assert!(batches < 100_000, "runaway split driver");
        }
        driver.into_report()
    }

    #[test]
    fn split_execution_matches_closed_loop_scheduler_per_restart() {
        let spec = spec(5);
        let fleet = two_lf_two_hf_fleet();
        let driver = split_driver(&spec, &fleet);
        assert_eq!(driver.shard_count(), 4);
        let split = drain(driver);

        // The twins share calibration models with the unsplit ladder, so
        // every restart's numbers must match the closed loop bit for bit.
        let closed = QoncordScheduler::new(spec.config.clone())
            .run(
                &[catalog::ibmq_toronto(), catalog::ibmq_kolkata()],
                spec.factory.as_ref(),
                5,
            )
            .unwrap();
        assert_eq!(split.restarts.len(), closed.restarts.len());
        for (a, b) in split.restarts.iter().zip(&closed.restarts) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.survived, b.survived);
            assert_eq!(a.initial_params, b.initial_params);
            assert_eq!(a.exploration_expectation, b.exploration_expectation);
            assert_eq!(a.final_expectation, b.final_expectation);
            assert_eq!(a.final_params, b.final_params);
        }
        assert_eq!(split.best_expectation(), closed.best_expectation());
        assert_eq!(split.total_executions(), closed.total_executions());
    }

    #[test]
    fn every_shard_of_both_tiers_works() {
        let spec = spec(6);
        let fleet = two_lf_two_hf_fleet();
        let report = drain(split_driver(&spec, &fleet));
        assert_eq!(report.devices.len(), 4);
        for usage in &report.devices {
            assert!(
                usage.executions > 0,
                "shard device {} never ran",
                usage.device
            );
        }
    }

    #[test]
    fn shard_checkpoints_name_their_coordinates() {
        let spec = spec(4);
        let fleet = two_lf_two_hf_fleet();
        let mut driver = split_driver(&spec, &fleet);
        let ready = driver.ready_shards();
        assert_eq!(ready, vec![0, 1], "both exploration shards start ready");
        let ckpt = driver.shard_checkpoint(1);
        assert_eq!(ckpt.shard, 1);
        assert_eq!(ckpt.restart, 2, "shard 1 owns the back half of restarts");
        assert_eq!(ckpt.phase.iteration, 0);
        driver.execute_batch(1);
        assert_eq!(driver.shard_checkpoint(1).phase.iteration, 1);
    }
}
