//! Sharded-engine determinism proof: the event-sharded executor must
//! produce a bit-identical `OrchestratorReport` — trace event stream,
//! telemetry, calibration history, tenant usage, queue ops — to the
//! sequential engine, on the 8-tenant preemption and restart-splitting
//! scenarios (the `orchestrator_trace` workloads) and on a lockstep
//! homogeneous fleet engineered to fill every virtual-time barrier with
//! simultaneous lease completions. Wall-clock profiler output
//! (`report.perf`) is the one field allowed to differ.
//!
//! Note: the `QONCORD_SHARDS` environment override (CI's multi-shard leg)
//! deliberately wins over `OrchestratorConfig::shards`, so under that leg
//! every run here is multi-sharded and the comparison degenerates to
//! run-to-run determinism; the plain leg performs the sequential-vs-
//! sharded comparison.

use qoncord::cloud::policy::Policy;
use qoncord::core::executor::QaoaFactory;
use qoncord::core::scheduler::QoncordConfig;
use qoncord::core::SelectionPolicy;
use qoncord::device::catalog;
use qoncord::orchestrator::trace::{JsonlSink, TraceHandle};
use qoncord::orchestrator::{
    two_lf_one_hf_fleet, two_lf_two_hf_fleet, DeadlineClass, FleetDevice, Orchestrator,
    OrchestratorConfig, OrchestratorReport, PreemptionConfig, SplitConfig, TenantJob,
};
use qoncord::vqa::{graph::Graph, maxcut::MaxCut};
use std::cell::RefCell;
use std::rc::Rc;

fn factory() -> QaoaFactory {
    QaoaFactory {
        problem: MaxCut::new(Graph::paper_graph_7()),
        layers: 1,
    }
}

/// Everything the determinism contract covers, in one comparable string:
/// the whole report except `perf` (wall-clock, intentionally excluded),
/// preceded by the raw JSONL trace capture. `Debug` for `f64` prints the
/// shortest round-trip representation, so equal strings mean equal bits.
fn fingerprint(report: &OrchestratorReport, jsonl: &str) -> String {
    format!(
        "trace:{jsonl}\njobs:{:?}\nfleet:{:?}\ntenants:{:?}\nqueue:{:?}\ncalibration:{:?}\nsummary:{:?}",
        report.jobs, report.fleet, report.tenant_usage, report.queue_ops, report.calibration,
        report.trace
    )
}

fn run_fingerprinted(
    config: OrchestratorConfig,
    fleet: Vec<FleetDevice>,
    jobs: &[TenantJob],
) -> String {
    let sink = Rc::new(RefCell::new(JsonlSink::new()));
    let config = OrchestratorConfig {
        trace: TraceHandle::to(sink.clone()),
        ..config
    };
    let report = Orchestrator::new(config, fleet).run(jobs);
    let jsonl = sink.borrow().as_str().to_owned();
    assert!(!jsonl.is_empty(), "scenario must emit a trace");
    assert!(
        report.completed() > 0,
        "scenario must actually run jobs, not reject them all"
    );
    fingerprint(&report, &jsonl)
}

/// Asserts the scenario's report + trace are byte-identical at every
/// shard count in `shard_counts` (the first entry is the baseline).
fn assert_shard_invariant(
    config: &OrchestratorConfig,
    fleet: fn() -> Vec<FleetDevice>,
    jobs: &[TenantJob],
    shard_counts: &[usize],
) {
    let baseline = run_fingerprinted(
        OrchestratorConfig {
            shards: shard_counts[0],
            ..config.clone()
        },
        fleet(),
        jobs,
    );
    for &shards in &shard_counts[1..] {
        let sharded = run_fingerprinted(
            OrchestratorConfig {
                shards,
                ..config.clone()
            },
            fleet(),
            jobs,
        );
        assert_eq!(
            baseline, sharded,
            "report must be bit-identical at {} vs {} shards",
            shard_counts[0], shards
        );
    }
}

/// The `orchestrator_trace` preemption scenario: seven batch tenants at
/// t=0 plus an urgent interactive arrival at t=1, preemption on.
fn preemption_jobs() -> Vec<TenantJob> {
    (0..8)
        .map(|i| {
            let cfg = QoncordConfig {
                exploration_max_iterations: 8,
                finetune_max_iterations: 10,
                seed: 0xBEE5 + i as u64,
                ..QoncordConfig::default()
            };
            let job = TenantJob::new(i, format!("tenant-{i}"), 0.0, Box::new(factory()))
                .with_restarts(3)
                .with_config(cfg);
            if i == 7 {
                let mut job = job
                    .with_priority(4)
                    .with_deadline_class(DeadlineClass::Interactive);
                job.arrival = 1.0;
                job
            } else {
                job
            }
        })
        .collect()
}

/// The `orchestrator_trace` split scenario: eight restart-heavy jobs
/// staggered by `gap`, splitting on, twin 2-LF/2-HF fleet.
fn split_jobs(gap: f64) -> Vec<TenantJob> {
    (0..8)
        .map(|i| {
            let cfg = QoncordConfig {
                exploration_max_iterations: 8,
                finetune_max_iterations: 6,
                selection: SelectionPolicy::TopK(2),
                seed: 100 + i as u64,
                ..QoncordConfig::default()
            };
            TenantJob::new(
                i,
                format!("tenant-{i}"),
                i as f64 * gap,
                Box::new(factory()),
            )
            .with_restarts(6)
            .with_config(cfg)
        })
        .collect()
}

#[test]
fn preemption_scenario_is_bit_identical_across_shard_counts() {
    let config = OrchestratorConfig {
        policy: Policy::Qoncord,
        preemption: PreemptionConfig::enabled(),
        ..OrchestratorConfig::default()
    };
    assert_shard_invariant(&config, two_lf_one_hf_fleet, &preemption_jobs(), &[1, 2, 4]);
}

#[test]
fn split_scenario_is_bit_identical_across_shard_counts() {
    // A split job's completions are hoisted only while its live rung has a
    // single shard in flight; with several in flight they take the inline
    // stage-B path. So this pins the hoist-safety *filter* as much as the
    // executor itself.
    let config = OrchestratorConfig {
        split: SplitConfig::enabled(),
        ..OrchestratorConfig::default()
    };
    assert_shard_invariant(&config, two_lf_two_hf_fleet, &split_jobs(20.0), &[1, 2, 4]);
}

#[test]
fn narrowing_split_scenario_is_bit_identical_across_shard_counts() {
    // Five restarts deal 3/2 across the exploration twins, and TopK(3)
    // deals its survivors 2/1 across the fine-tuning twins, so each rung
    // narrows to one busy shard before it drains. Those completions are
    // the job's only batch in flight, so they are hoisted onto the
    // executor like an unsplit job's.
    let config = OrchestratorConfig {
        split: SplitConfig::enabled(),
        ..OrchestratorConfig::default()
    };
    let jobs: Vec<TenantJob> = split_jobs(20.0)
        .into_iter()
        .map(|job| {
            let cfg = QoncordConfig {
                selection: SelectionPolicy::TopK(3),
                ..job.config.clone()
            };
            job.with_restarts(5).with_config(cfg)
        })
        .collect();
    assert_shard_invariant(&config, two_lf_two_hf_fleet, &jobs, &[1, 2, 4]);
}

#[test]
fn lockstep_homogeneous_fleet_is_bit_identical_across_shard_counts() {
    // Six twin devices, twelve identical jobs arriving together: every
    // device's lease expires at the same virtual instant, so each barrier
    // carries a whole fleet's worth of simultaneous completions — the
    // densest hoist workload the executor can see.
    let fleet = || -> Vec<FleetDevice> {
        (0..6)
            .map(|i| FleetDevice::new(catalog::ibmq_toronto().renamed(format!("twin_{i}"))))
            .collect()
    };
    let jobs: Vec<TenantJob> = (0..12)
        .map(|i| {
            let cfg = QoncordConfig {
                exploration_max_iterations: 6,
                finetune_max_iterations: 4,
                seed: 0x51AD + i as u64,
                ..QoncordConfig::default()
            };
            TenantJob::new(i, format!("tenant-{i}"), 0.0, Box::new(factory()))
                .with_restarts(2)
                .with_config(cfg)
        })
        .collect();
    let config = OrchestratorConfig::default();
    let baseline = run_fingerprinted(
        OrchestratorConfig {
            shards: 1,
            ..config.clone()
        },
        fleet(),
        &jobs,
    );
    for shards in [2, 3, 6] {
        let sharded = run_fingerprinted(
            OrchestratorConfig {
                shards,
                ..config.clone()
            },
            fleet(),
            &jobs,
        );
        assert_eq!(
            baseline, sharded,
            "lockstep report must be bit-identical at 1 vs {shards} shards"
        );
    }
}
