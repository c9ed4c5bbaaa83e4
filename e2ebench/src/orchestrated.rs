//! The three orchestrated workloads: timed `Orchestrator::run` repetitions
//! with tracing off, and the traced pass behind the per-layer metrics.

use crate::host;
use crate::layers;
use crate::report::Outcome;
use crate::stats::{self, median};
use crate::workloads::{self, OrchestratedInput, Workload};
use qoncord_circuit::transpile::transpile;
use qoncord_device::noise_model::SimulatedBackend;
use qoncord_orchestrator::trace::EventCounts;
use qoncord_orchestrator::{
    Orchestrator, OrchestratorReport, TenantJob, TraceEvent, TraceHandle, TraceRecord, TraceSink,
};
use qoncord_prof::Profiler;
use qoncord_vqa::graph::Graph;
use qoncord_vqa::maxcut::MaxCut;
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Repetitions whose times the end-to-end statistics use: about what a
/// 25-second run holds on the development host. A best-of time falls as
/// repetitions are added, so a fixed count keeps a slow host from also
/// reading high through fewer repetitions.
fn timed_reps(workload: Workload) -> usize {
    match workload {
        Workload::DmContended => 16,
        Workload::TrajLockstep => 10,
        Workload::SmallJobsFleet => 24,
        Workload::Admission1e5 => unreachable!("admission_1e5 runs no orchestrator"),
    }
}

/// Host time spent on extra set-up rounds beside each timed repetition,
/// and the most rounds timed there: the median of a sub-millisecond
/// set-up then draws on samples spread over the whole run.
const SETUP_TIME_PER_REP: f64 = 0.1;
const SETUPS_PER_REP: usize = 1000;

/// Set-up rounds behind each `setup_s` sample: one from each quarter of
/// the run.
const SETUP_BLOCKS: usize = 4;

/// Host time the fast and reference replays of `SimulatedBackend::run`
/// are timed for together.
const REPLAY_TIME: Duration = Duration::from_millis(800);

/// Largest difference between fast and reference replay probabilities.
const REPLAY_TOLERANCE: f64 = 1e-9;

/// The host timeline of one run, taken from the flight recorder's public
/// sink: the instant of every trace record, and each job's admission
/// latency — from its `Arrival` record to its `AdmissionVerdict` (or
/// `FilterRejected`) record. Between the two the engine places the job,
/// builds its device ladder (transpiling the circuit per device) and
/// projects its completion.
#[derive(Debug, Default)]
struct Timeline {
    marks: Vec<Instant>,
    opened: Vec<Option<Instant>>,
    /// Per job; infinite until its decision is recorded.
    admit_s: Vec<f64>,
    decisions: usize,
}

impl TraceSink for Timeline {
    fn record(&mut self, record: &TraceRecord) {
        let now = Instant::now();
        self.marks.push(now);
        match record.event {
            TraceEvent::Arrival { job, .. } => self.opened[job] = Some(now),
            TraceEvent::AdmissionVerdict { job, .. } | TraceEvent::FilterRejected { job, .. } => {
                if let Some(t) = self.opened[job].take() {
                    self.admit_s[job] = (now - t).as_secs_f64();
                    self.decisions += 1;
                }
            }
            _ => {}
        }
    }
}

/// Inputs turned into the objects `Orchestrator::run` takes.
struct Prepared {
    input: OrchestratedInput,
    jobs: Vec<TenantJob>,
    orchestrator: Orchestrator,
    timeline: Rc<RefCell<Timeline>>,
}

/// Generates the workload's inputs from `seed` and builds its jobs, fleet
/// and orchestrator at `shards` shards: the set-up `setup_s` times.
fn prepare(workload: Workload, seed: u64, shards: Option<usize>) -> Prepared {
    let input = workloads::orchestrated(workload, seed);
    let jobs = input.tenant_jobs();
    let timeline = Rc::new(RefCell::new(Timeline {
        marks: Vec::new(),
        opened: vec![None; jobs.len()],
        admit_s: vec![f64::INFINITY; jobs.len()],
        decisions: 0,
    }));
    let orchestrator = input.orchestrator(
        shards.unwrap_or(input.shards),
        TraceHandle::to(timeline.clone()),
    );
    Prepared {
        input,
        jobs,
        orchestrator,
        timeline,
    }
}

/// The simulated outcome of a run, bit for bit: what must not change
/// across repetitions, shard counts, or profiling.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    makespan: u64,
    mean_wait: u64,
    approx_ratio: u64,
    best_energy: Vec<Option<u64>>,
    events: EventCounts,
}

/// One executed run.
struct Run {
    report: OrchestratorReport,
    wall_s: f64,
    cpu_s: f64,
    /// Host seconds between consecutive trace records, from the start of
    /// the run to its end: identical runs split into matched pieces.
    segments: Vec<f64>,
    /// Per-job admission latency, seconds.
    admit_s: Vec<f64>,
    admission_decisions: usize,
    approx_ratio: f64,
    fingerprint: Fingerprint,
    /// Jobs that did not complete with a finite energy.
    failed_jobs: u64,
}

fn execute(prepared: Prepared, profiler: Option<&Profiler>) -> Run {
    let cpu = host::cpu_seconds();
    let started = Instant::now();
    let report = {
        let _installed = profiler.map(Profiler::install);
        prepared.orchestrator.run(black_box(&prepared.jobs))
    };
    let ended = Instant::now();
    let wall_s = (ended - started).as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu;
    let timeline = prepared.timeline.take();
    let mut segments = Vec::with_capacity(timeline.marks.len() + 1);
    let mut previous = started;
    for &mark in timeline.marks.iter().chain([&ended]) {
        segments.push(mark.saturating_duration_since(previous).as_secs_f64());
        previous = mark;
    }
    let problems: Vec<MaxCut> = prepared.input.problems();
    let mut ratios = Vec::new();
    let mut failed_jobs = 0;
    let best_energy: Vec<Option<u64>> = report
        .jobs
        .iter()
        .zip(&problems)
        .map(|(job, problem)| {
            let best = job.status.report().map(|r| r.best_expectation());
            match best {
                Some(e) if e.is_finite() => ratios.push(problem.approximation_ratio(e)),
                _ => failed_jobs += 1,
            }
            best.map(f64::to_bits)
        })
        .collect();
    failed_jobs += prepared.jobs.len().saturating_sub(report.jobs.len()) as u64;
    let approx_ratio = if ratios.is_empty() {
        0.0
    } else {
        ratios.iter().sum::<f64>() / ratios.len() as f64
    };
    let fingerprint = Fingerprint {
        makespan: report.makespan().to_bits(),
        mean_wait: report.mean_wait().to_bits(),
        approx_ratio: approx_ratio.to_bits(),
        best_energy,
        events: report.trace.events,
    };
    Run {
        report,
        wall_s,
        cpu_s,
        segments,
        admit_s: timeline.admit_s,
        admission_decisions: timeline.decisions,
        approx_ratio,
        fingerprint,
        failed_jobs,
    }
}

/// Checks one run against the workload's invariants and against the
/// outcome of its first run, recording violations in `outcome`.
fn check(
    workload: Workload,
    label: &str,
    run: &Run,
    reference: Option<&Fingerprint>,
    outcome: &mut Outcome,
) {
    let name = workload.name();
    let jobs = run.fingerprint.best_energy.len() as u64;
    outcome.attempted += jobs;
    outcome.failed += run.failed_jobs;
    if run.failed_jobs > 0 {
        outcome.errors.push(format!(
            "{name}: {label}: {} of {jobs} jobs did not complete with a finite energy",
            run.failed_jobs
        ));
    }
    let ops = run.report.queue_ops;
    if ops.pushes != ops.pops + ops.cancels {
        outcome.errors.push(format!(
            "{name}: {label}: queue pushed {} requests but popped {} and cancelled {}",
            ops.pushes, ops.pops, ops.cancels
        ));
    }
    if run.admission_decisions as u64 != jobs {
        outcome.errors.push(format!(
            "{name}: {label}: {} admission decisions for {jobs} jobs",
            run.admission_decisions
        ));
    }
    if let Some(reference) = reference {
        if *reference != run.fingerprint {
            outcome.failed += jobs.saturating_sub(run.failed_jobs);
            outcome.errors.push(format!(
                "{name}: {label}: simulated outcome differs from the first run \
                 (makespan, waits, energies or event counts)"
            ));
        }
    }
}

/// The end-to-end run: tracing off, repetitions at the workload's shard
/// count until `seconds` have passed and [`timed_reps`] have run, each
/// checked against the first. Every repetition replays the same trace, so
/// the run wall sums each trace segment's best time across the timed
/// repetitions, and each job's admission sample is its best decision
/// across them (see [`stats::best_of`]). The first repetition warms caches
/// and lazy set-up; a piece it slowed keeps a later repetition's time.
pub fn end_to_end(workload: Workload, seed: u64, seconds: f64, outcome: &mut Outcome) {
    let mut setups = Vec::new();
    let timed_setup = |setups: &mut Vec<f64>| {
        let started = Instant::now();
        let prepared = prepare(workload, seed, None);
        setups.push(started.elapsed().as_secs_f64());
        prepared
    };
    let input = workloads::orchestrated(workload, seed);
    let shards = input.shards;
    let timed = timed_reps(workload);

    let mut walls = Vec::new();
    let mut segments = Vec::new();
    let mut admit = Vec::new();
    let mut reference = None;
    let mut last = None;
    let started = Instant::now();
    while walls.len() < timed || started.elapsed().as_secs_f64() < seconds {
        let mut run = execute(timed_setup(&mut setups), None);
        let (mut spent, mut rounds) = (0.0, 0);
        while walls.len() < timed && spent < SETUP_TIME_PER_REP && rounds < SETUPS_PER_REP {
            drop(timed_setup(&mut setups));
            spent += setups.last().expect("just pushed");
            rounds += 1;
        }
        let label = format!("repetition {} at {shards} shards", walls.len() + 1);
        check(workload, &label, &run, reference.as_ref(), outcome);
        reference.get_or_insert_with(|| run.fingerprint.clone());
        walls.push(run.wall_s);
        if segments.len() < timed {
            segments.push(std::mem::take(&mut run.segments));
            admit.push(std::mem::take(&mut run.admit_s));
        }
        last = Some(run);
    }
    let last = last.expect("at least one repetition");
    let best_wall = stats::best_of(&segments).map(|best| best.iter().sum::<f64>());
    let admit = stats::best_of(&admit);
    if best_wall.is_none() || admit.is_none() {
        outcome.errors.push(format!(
            "{}: repetitions recorded different traces",
            workload.name()
        ));
    }
    let wall = best_wall.unwrap_or(f64::NAN);

    outcome.detail("setups_s", stats::summary(&setups));
    outcome.detail(
        "run_walls_s",
        format!(
            "{walls:?} at {shards} shards; \
             best of {} repetitions over {} trace segments: {wall}",
            segments.len(),
            segments[0].len(),
        ),
    );
    outcome.detail("repeated_graph_share", input.repeat_share().to_string());

    outcome.metric("run_wall_s", "s", wall);
    outcome.admission_latencies(workload.name(), &admit.unwrap_or_default());
    outcome.metric(
        "dispatches_per_s",
        "1/s",
        last.report.trace.events.lease_grants as f64 / wall,
    );
    outcome.metric(
        "setup_s",
        "s",
        median(&stats::best_of_blocks(&setups, SETUP_BLOCKS)),
    );
    outcome.metric("peak_rss_mb", "MB", host::peak_rss_mb());
    outcome.metric("makespan_virt_s", "virt_s", last.report.makespan());
    outcome.metric("mean_wait_virt_s", "virt_s", last.report.mean_wait());
    outcome.metric("approx_ratio", "ratio", last.approx_ratio);
}

/// The traced pass: per pass an untraced 1-shard run, a profiled 1-shard
/// run and an untraced 2-shard run, then a replay of the workload's
/// circuits through `SimulatedBackend::run`, fast and reference.
///
/// The profiled run uses one shard because the profiler is thread-local:
/// compute hoisted onto shard workers would vanish from attribution.
pub fn traced(workload: Workload, seed: u64, seconds: f64, outcome: &mut Outcome) {
    let input = workloads::orchestrated(workload, seed);
    let mut seq_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut two_walls = Vec::new();
    let mut cpu_per_wall = Vec::new();
    let mut profile = None;
    let mut last = None;
    let started = Instant::now();
    while seq_walls.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let pass = seq_walls.len() + 1;
        let seq = execute(prepare(workload, seed, Some(1)), None);
        check(
            workload,
            &format!("pass {pass}, 1 shard"),
            &seq,
            None,
            outcome,
        );
        let profiler = Profiler::new();
        let prof = execute(prepare(workload, seed, Some(1)), Some(&profiler));
        let label = format!("pass {pass}, 1 shard profiled");
        check(workload, &label, &prof, Some(&seq.fingerprint), outcome);
        let two = execute(prepare(workload, seed, Some(2)), None);
        check(
            workload,
            &format!("pass {pass}, 2 shards"),
            &two,
            Some(&seq.fingerprint),
            outcome,
        );
        let at_config = if input.shards == 1 { &seq } else { &two };
        cpu_per_wall.push(at_config.cpu_s / at_config.wall_s);
        seq_walls.push(seq.wall_s);
        traced_walls.push(prof.wall_s);
        two_walls.push(two.wall_s);
        profile = Some(prof.report.perf);
        last = Some(seq);
    }
    let last = last.expect("at least one pass");
    let profile = profile.expect("at least one pass");
    let attribution = layers::report(workload, &profile, outcome);

    let (run_us, reference_ratio) = replay(&input, outcome);

    let seq_wall = median(&seq_walls);
    layers::metrics(&attribution, outcome);
    outcome.metric(
        "prof.overhead_ratio",
        "ratio",
        median(&traced_walls) / seq_wall,
    );
    outcome.metric("prof.spans", "count", profile.total_spans() as f64);
    outcome.metric("prof.dropped_spans", "count", profile.dropped_spans as f64);
    outcome.metric("device.run_us", "us", run_us);
    outcome.metric("sim.reference_ratio", "ratio", reference_ratio);
    // The queue calls are timed directly only by admission_1e5.
    outcome.metric("cloud.push_us", "us", 0.0);
    outcome.metric("cloud.pop_us", "us", 0.0);
    outcome.metric("cloud.decay_ms", "ms", 0.0);
    let ops = last.report.queue_ops;
    outcome.metric(
        "cloud.queue.index_rebuilds",
        "count",
        ops.index_rebuilds as f64,
    );
    outcome.metric(
        "cloud.queue.backlog_refreshes",
        "count",
        ops.backlog_refreshes as f64,
    );
    outcome.metric("orchestrator.seq_wall_s", "s", seq_wall);
    outcome.metric(
        "orchestrator.shard_speedup",
        "ratio",
        seq_wall / median(&two_walls),
    );
    outcome.metric("orchestrator.cpu_per_wall", "ratio", median(&cpu_per_wall));
    let events = last.report.trace.events;
    outcome.metric("orchestrator.events", "count", events.total() as f64);
    outcome.metric(
        "orchestrator.lease_grants",
        "count",
        events.lease_grants as f64,
    );
    outcome.metric("orchestrator.evictions", "count", events.evictions as f64);
    outcome.detail("passes", seq_walls.len().to_string());
}

/// Replays the workload's own circuits — each distinct graph's QAOA
/// circuit transpiled onto the fleet's first device — through
/// `SimulatedBackend::run`, fast and under the scalar reference kernels.
/// Returns (µs per fast run, reference ÷ fast).
fn replay(input: &OrchestratedInput, outcome: &mut Outcome) -> (f64, f64) {
    let device = input.fleet().remove(0);
    let backend = SimulatedBackend::from_calibration(device.calibration().clone());
    let mut graphs: Vec<&Graph> = Vec::new();
    for job in &input.jobs {
        if !graphs.contains(&&job.graph) {
            graphs.push(&job.graph);
        }
    }
    let circuits: Vec<_> = graphs
        .iter()
        .map(|g| {
            let circuit = qoncord_vqa::qaoa::build_circuit(g, 1);
            transpile(&circuit, backend.calibration().coupling())
        })
        .collect();
    let params: Vec<Vec<f64>> = circuits
        .iter()
        .map(|t| {
            (0..t.circuit.n_params())
                .map(|i| 0.3 + 0.2 * i as f64)
                .collect()
        })
        .collect();
    let run = |k: usize| {
        backend.run(
            &circuits[k % circuits.len()],
            &params[k % circuits.len()],
            k as u64,
        )
    };

    // Warm both paths once per circuit and compare them.
    for k in 0..circuits.len() {
        let fast = run(k);
        let reference = {
            let _reference = qoncord_sim::reference::ScopedReference::new();
            run(k)
        };
        let diff = fast
            .probabilities()
            .iter()
            .zip(reference.probabilities())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        if diff > REPLAY_TOLERANCE {
            outcome.errors.push(format!(
                "{}: replayed circuit {k} differs from the reference kernels by {diff:e}",
                input.workload.name()
            ));
        }
    }

    // Fast and reference runs alternate, so a drift in host speed during
    // the replay weighs on both sides alike.
    let (mut fast_s, mut reference_s, mut runs) = (0.0, 0.0, 0);
    let started = Instant::now();
    while started.elapsed() < REPLAY_TIME || runs < circuits.len() {
        let t = Instant::now();
        black_box(run(runs));
        fast_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        {
            let _reference = qoncord_sim::reference::ScopedReference::new();
            black_box(run(runs));
        }
        reference_s += t.elapsed().as_secs_f64();
        runs += 1;
    }
    outcome.detail(
        "replay",
        format!(
            "{runs} runs over {} distinct circuits on {}",
            circuits.len(),
            device.name()
        ),
    );
    (fast_s / runs as f64 * 1e6, reference_s / fast_s)
}
