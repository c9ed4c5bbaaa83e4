//! `admission_1e5`: the fair-share queue alone at fleet scale. A full drain
//! of 2×10⁵ device-tagged requests from 10⁵ tenants — round-robin
//! `pop_for_device` + `record_usage`, `decay_usage` every n/16 pops — with
//! decay-aware admission probes spread evenly through it, the first at
//! full depth. Probes therefore read beside writes, on indices the last
//! decay left to be rebuilt lazily.

use crate::host;
use crate::layers;
use crate::report::Outcome;
use crate::stats::{self, median};
use crate::workloads::{
    self, QueueInput, Workload, QUEUE_DEVICES, QUEUE_PROBES, QUEUE_REQUESTS, QUEUE_TENANTS,
};
use qoncord_cloud::device::hypothetical_fleet;
use qoncord_cloud::fairshare::{FairShareQueue, QueuedRequest};
use qoncord_cloud::policy::{estimate_feasibility_decayed, Placement, QueueModel, UsageDecayModel};
use qoncord_prof::Profiler;
use std::hint::black_box;
use std::time::Instant;

/// Drains whose times the end-to-end statistics use. A best-of time falls
/// as drains are added, so a fixed count keeps a slow host from also
/// reading high through fewer drains.
const TIMED_DRAINS: usize = 3;

/// Loop steps (one `pop_for_device` each) per timed dispatch piece.
const PIECE_STEPS: usize = 1024;

/// Usage decay factor applied every n/16 pops.
const DECAY_FACTOR: f64 = 0.9;

/// A loaded queue: the set-up `setup_s` times.
struct Loaded {
    queue: FairShareQueue,
    probe_tenants: Vec<usize>,
    /// Wall seconds of the push loop alone.
    push_s: f64,
}

/// Generates the inputs from `seed` and loads them: tenant balances, then
/// every request tagged round-robin for a device.
fn load(seed: u64) -> Loaded {
    let QueueInput {
        balances,
        requested_seconds,
        probe_tenants,
    } = workloads::queue(seed);
    let mut queue = FairShareQueue::new();
    for (t, balance) in balances.iter().enumerate() {
        queue
            .record_usage(&format!("t{t}"), *balance)
            .expect("finite generated balance");
    }
    let requests: Vec<QueuedRequest> = requested_seconds
        .iter()
        .enumerate()
        .map(|(id, &seconds)| QueuedRequest {
            id,
            user: format!("t{}", id % QUEUE_TENANTS),
            requested_seconds: seconds,
            submitted_at: (id / 4) as f64,
        })
        .collect();
    let started = Instant::now();
    for r in requests {
        let device = r.id % QUEUE_DEVICES;
        queue
            .push_for_device(r, device)
            .expect("unique generated ids");
    }
    Loaded {
        queue,
        probe_tenants,
        push_s: started.elapsed().as_secs_f64(),
    }
}

/// What one drain measured and produced.
struct Drain {
    wall_s: f64,
    cpu_s: f64,
    /// Wall seconds of the pop, charge and decay loop in matched pieces:
    /// up to [`PIECE_STEPS`] steps, cut short by each probe.
    dispatch_s: Vec<f64>,
    probe_s: Vec<f64>,
    /// Per-call seconds of the same probes under the profiler, of
    /// `pop_for_device` and of `decay_usage`, when traced.
    traced_probe_s: Vec<f64>,
    pop_s: Vec<f64>,
    decay_s: Vec<f64>,
    pops: usize,
    makespan: f64,
    /// Total requested seconds over the device count: no schedule of the
    /// drained requests can finish sooner.
    balanced_makespan: f64,
    mean_wait: f64,
    /// Hash of the pop order and every probe estimate, bit for bit.
    fingerprint: u64,
    failed: u64,
    errors: Vec<String>,
    stats: qoncord_cloud::fairshare::QueueOpStats,
    profile: Option<qoncord_prof::ProfileReport>,
}

fn mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Drains `loaded`, probing admission [`QUEUE_PROBES`] times.
///
/// With `profiler`, each probe also runs once under it, right before or
/// after the untraced call (alternating, so neither order is favoured):
/// the pair prices profiling on identical queue state, and their estimates
/// must agree bit for bit. Every pop and decay is then timed on its own.
fn drain(mut loaded: Loaded, profiler: Option<&Profiler>) -> Drain {
    let q = &mut loaded.queue;
    let n = QUEUE_REQUESTS;
    let devices = QUEUE_DEVICES;
    let decay_every = n / 16;
    let probe_every = n / QUEUE_PROBES;
    let fleet = hypothetical_fleet(devices, 0.3, 0.9);
    let seconds_per_circuit = vec![1.0; devices];
    let decay = UsageDecayModel::every(50.0, DECAY_FACTOR);
    let mut popped = vec![false; n];
    let mut clock = vec![0.0f64; devices];
    let mut wait_sum = 0.0;
    let mut fingerprint = 0xCBF2_9CE4_8422_2325u64;
    let mut out = Drain {
        wall_s: 0.0,
        cpu_s: 0.0,
        dispatch_s: Vec::new(),
        probe_s: Vec::with_capacity(QUEUE_PROBES),
        traced_probe_s: Vec::new(),
        pop_s: Vec::new(),
        decay_s: Vec::new(),
        pops: 0,
        makespan: 0.0,
        balanced_makespan: 0.0,
        mean_wait: 0.0,
        fingerprint: 0,
        failed: 0,
        errors: Vec::new(),
        stats: Default::default(),
        profile: None,
    };
    let cpu = host::cpu_seconds();
    let started = Instant::now();
    let mut d = 0;
    let mut probes = 0;
    let mut steps = 0;
    let mut piece = started;
    while !q.is_empty() {
        let probing = probes < QUEUE_PROBES && out.pops >= probes * probe_every;
        if probing {
            out.dispatch_s.push(piece.elapsed().as_secs_f64());
        }
        while probes < QUEUE_PROBES && out.pops >= probes * probe_every {
            let k = probes;
            let placements = [Placement {
                device: k % devices,
                circuits: 10,
                quality_weight: 1.0,
            }];
            let probe = QueuedRequest {
                id: usize::MAX,
                user: format!("t{}", loaded.probe_tenants[k]),
                requested_seconds: 8.0,
                submitted_at: 1000.0,
            };
            let model = QueueModel {
                queue: q,
                probe: &probe,
                probe_credit: (k % 3) as f64 * 10.0,
                decay,
            };
            let estimate_timed = |profiler: Option<&Profiler>| {
                let t = Instant::now();
                let _installed = profiler.map(Profiler::install);
                let e = estimate_feasibility_decayed(
                    &placements,
                    &fleet,
                    &seconds_per_circuit,
                    0.0,
                    model,
                );
                (e, t.elapsed().as_secs_f64())
            };
            let untraced = || estimate_timed(None);
            let ((estimate, seconds), traced) = match profiler {
                None => (untraced(), None),
                Some(p) if k % 2 == 1 => {
                    let traced = estimate_timed(Some(p));
                    (untraced(), Some(traced))
                }
                Some(p) => (untraced(), Some(estimate_timed(Some(p)))),
            };
            out.probe_s.push(seconds);
            if let Some((traced, seconds)) = traced {
                out.traced_probe_s.push(seconds);
                if traced != estimate {
                    out.failed += 1;
                    out.errors.push(format!(
                        "admission_1e5: probe {k} estimate differs under the profiler"
                    ));
                }
            }
            if !estimate.completion.is_finite() {
                out.failed += 1;
                out.errors
                    .push(format!("admission_1e5: probe {k} estimate is not finite"));
            }
            fingerprint = mix(fingerprint, estimate.completion.to_bits());
            fingerprint = mix(fingerprint, estimate.queue_seconds.to_bits());
            probes += 1;
        }
        if probing {
            piece = Instant::now();
        }
        let t = profiler.map(|_| Instant::now());
        let request = q.pop_for_device(d);
        if let Some(t) = t {
            out.pop_s.push(t.elapsed().as_secs_f64());
        }
        if let Some(r) = request {
            if r.id >= n || popped[r.id] || r.id % devices != d {
                out.failed += 1;
                out.errors.push(format!(
                    "admission_1e5: request {} popped twice or for the wrong device",
                    r.id
                ));
            } else {
                popped[r.id] = true;
            }
            fingerprint = mix(fingerprint, r.id as u64);
            wait_sum += clock[d];
            clock[d] += r.requested_seconds;
            q.record_usage(&r.user, r.requested_seconds)
                .expect("finite generated seconds");
            out.pops += 1;
            if out.pops.is_multiple_of(decay_every) {
                let t = profiler.map(|_| Instant::now());
                q.decay_usage(DECAY_FACTOR).expect("valid decay factor");
                if let Some(t) = t {
                    out.decay_s.push(t.elapsed().as_secs_f64());
                }
            }
        }
        d = (d + 1) % devices;
        steps += 1;
        if steps % PIECE_STEPS == 0 {
            let now = Instant::now();
            out.dispatch_s.push((now - piece).as_secs_f64());
            piece = now;
        }
    }
    out.dispatch_s.push(piece.elapsed().as_secs_f64());
    out.wall_s = started.elapsed().as_secs_f64();
    out.cpu_s = host::cpu_seconds() - cpu;
    let lost = popped.iter().filter(|p| !**p).count();
    if lost > 0 || probes != QUEUE_PROBES {
        out.failed += lost as u64 + (QUEUE_PROBES - probes) as u64;
        out.errors.push(format!(
            "admission_1e5: drain lost {lost} requests and ran {probes} of {QUEUE_PROBES} probes"
        ));
    }
    out.makespan = clock.iter().copied().fold(0.0, f64::max);
    out.balanced_makespan = clock.iter().sum::<f64>() / devices as f64;
    out.mean_wait = wait_sum / n as f64;
    fingerprint = mix(fingerprint, out.makespan.to_bits());
    out.fingerprint = mix(fingerprint, out.mean_wait.to_bits());
    out.stats = q.stats();
    out.profile = profiler.map(Profiler::report);
    out
}

/// Counts one drain into `outcome`, checking it against the first.
fn check(label: &str, drain: &mut Drain, reference: Option<u64>, outcome: &mut Outcome) {
    outcome.attempted += (QUEUE_REQUESTS + QUEUE_PROBES) as u64;
    outcome.failed += drain.failed;
    for e in drain.errors.drain(..) {
        outcome.errors.push(format!("{label}: {e}"));
    }
    if reference.is_some_and(|r| r != drain.fingerprint) {
        outcome.failed += ((QUEUE_REQUESTS + QUEUE_PROBES) as u64).saturating_sub(drain.failed);
        outcome.errors.push(format!(
            "admission_1e5: {label}: pop order or estimates differ from the first drain"
        ));
    }
}

/// The end-to-end run: drains until `seconds` have passed and
/// [`TIMED_DRAINS`] have run, each on a freshly loaded queue and checked
/// against the first. Every drain repeats the same pops and probes, so
/// each dispatch piece and each probe keeps its best time across the timed
/// drains (see [`stats::best_of`]).
pub fn end_to_end(seed: u64, seconds: f64, outcome: &mut Outcome) {
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut dispatch = Vec::new();
    let mut probes = Vec::new();
    let mut reference = None;
    let mut last = None;
    let started = Instant::now();
    while walls.len() < TIMED_DRAINS || started.elapsed().as_secs_f64() < seconds {
        let timed = walls.len() < TIMED_DRAINS;
        let t = Instant::now();
        let loaded = black_box(load(seed));
        if timed {
            setups.push(t.elapsed().as_secs_f64());
        }
        let mut d = drain(loaded, None);
        check(
            &format!("drain {}", walls.len() + 1),
            &mut d,
            reference,
            outcome,
        );
        reference.get_or_insert(d.fingerprint);
        walls.push(d.wall_s);
        if timed {
            dispatch.push(std::mem::take(&mut d.dispatch_s));
            probes.push(std::mem::take(&mut d.probe_s));
        }
        last = Some(d);
    }
    let last = last.expect("at least one drain");
    let sum = |xs: Vec<f64>| xs.iter().sum::<f64>();
    let dispatch_s = stats::best_of(&dispatch).map(sum);
    let probes = stats::best_of(&probes);
    if dispatch_s.is_none() || probes.is_none() {
        outcome
            .errors
            .push("admission_1e5: drains timed different numbers of pieces or probes".to_owned());
    }
    let dispatch_s = dispatch_s.unwrap_or(f64::NAN);
    let probes = probes.unwrap_or_default();
    let wall = dispatch_s + probes.iter().sum::<f64>();
    outcome.detail(
        "drains",
        format!(
            "{} of {QUEUE_REQUESTS} requests from {QUEUE_TENANTS} tenants over {QUEUE_DEVICES} \
             devices: {walls:?}; best of {} over {} dispatch pieces and {QUEUE_PROBES} probes: \
             {wall}",
            walls.len(),
            dispatch.len(),
            dispatch[0].len(),
        ),
    );
    outcome.detail("setups_s", stats::summary(&setups));
    outcome.metric("run_wall_s", "s", wall);
    outcome.admission_latencies("admission_1e5", &probes);
    outcome.metric("dispatches_per_s", "1/s", last.pops as f64 / dispatch_s);
    // A run loads the queue only a few times, so `setup_s` is the fastest
    // timed load: the best-of-repetitions figure the other host times use.
    let fastest_load = setups.iter().copied().fold(f64::INFINITY, f64::min);
    outcome.metric("setup_s", "s", fastest_load);
    outcome.metric("peak_rss_mb", "MB", host::peak_rss_mb());
    outcome.metric("makespan_virt_s", "virt_s", last.makespan);
    outcome.metric("mean_wait_virt_s", "virt_s", last.mean_wait);
    // No variational solve runs here; the ratio is the dispatch schedule's:
    // its balanced lower bound (total seconds over devices) ÷ its makespan.
    outcome.metric(
        "approx_ratio",
        "ratio",
        last.balanced_makespan / last.makespan,
    );
}

/// The traced pass: per pass one drain with the profiler installed around
/// a second, paired run of every probe, and every push, pop and decay
/// timed on its own.
pub fn traced(seed: u64, seconds: f64, outcome: &mut Outcome) {
    let mut push_us = Vec::new();
    let mut pop_us = Vec::new();
    let mut decay_ms = Vec::new();
    let mut overhead = Vec::new();
    let mut cpu_per_wall = Vec::new();
    let mut reference = None;
    let mut last = None;
    let started = Instant::now();
    while last.is_none() || started.elapsed().as_secs_f64() < seconds {
        let pass = overhead.len() + 1;
        let loaded = load(seed);
        push_us.push(loaded.push_s / QUEUE_REQUESTS as f64 * 1e6);
        let profiler = Profiler::new();
        let mut d = drain(loaded, Some(&profiler));
        check(&format!("pass {pass}"), &mut d, reference, outcome);
        reference.get_or_insert(d.fingerprint);
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        overhead.push(mean(&d.traced_probe_s) / mean(&d.probe_s));
        pop_us.push(mean(&d.pop_s) * 1e6);
        decay_ms.push(mean(&d.decay_s) * 1e3);
        cpu_per_wall.push(d.cpu_s / d.wall_s);
        last = Some(d);
    }
    let last = last.expect("at least one pass");
    let profile = last.profile.unwrap_or_default();
    let attribution = layers::report(Workload::Admission1e5, &profile, outcome);
    outcome.detail("passes", overhead.len().to_string());

    layers::metrics(&attribution, outcome);
    outcome.metric("prof.overhead_ratio", "ratio", median(&overhead));
    outcome.metric("prof.spans", "count", profile.total_spans() as f64);
    outcome.metric("prof.dropped_spans", "count", profile.dropped_spans as f64);
    // No circuit runs here.
    outcome.metric("device.run_us", "us", 0.0);
    outcome.metric("sim.reference_ratio", "ratio", 0.0);
    outcome.metric("cloud.push_us", "us", median(&push_us));
    outcome.metric("cloud.pop_us", "us", median(&pop_us));
    outcome.metric("cloud.decay_ms", "ms", median(&decay_ms));
    outcome.metric(
        "cloud.queue.index_rebuilds",
        "count",
        last.stats.index_rebuilds as f64,
    );
    outcome.metric(
        "cloud.queue.backlog_refreshes",
        "count",
        last.stats.backlog_refreshes as f64,
    );
    // No orchestrator runs here.
    outcome.metric("orchestrator.seq_wall_s", "s", 0.0);
    outcome.metric("orchestrator.shard_speedup", "ratio", 0.0);
    outcome.metric("orchestrator.cpu_per_wall", "ratio", median(&cpu_per_wall));
    outcome.metric("orchestrator.events", "count", 0.0);
    outcome.metric("orchestrator.lease_grants", "count", 0.0);
    outcome.metric("orchestrator.evictions", "count", 0.0);
}
