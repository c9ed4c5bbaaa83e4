//! The fail-closed map from `qoncord-prof` span labels to the benchmark's
//! layer groups, and the per-group attribution of a traced run.
//!
//! Every label the workspace records must match exactly one rule. A label
//! that matches none (a span added later without a rule here) or several
//! fails the benchmark by name, so no span can silently drop out of the
//! per-layer sums.

use crate::report::Outcome;
use crate::workloads::Workload;
use qoncord_prof::ProfileReport;
use std::collections::BTreeMap;

/// One mapping rule: a label pattern and the group it belongs to. A
/// pattern ending in `::` matches every label under that prefix; any other
/// pattern matches exactly one label.
struct Rule {
    pattern: &'static str,
    group: &'static str,
}

/// The layer groups, in report order. A group's first dotted component is
/// the workspace crate it lives in; `core` has no spans of its own, so its
/// phase-runner cost shows under `vqa`.
pub const GROUPS: [&str; 9] = [
    "sim.dm",
    "sim.sv",
    "sim.fuse",
    "circuit",
    "vqa.eval",
    "vqa.spsa",
    "cloud.fairshare",
    "cloud.projection",
    "orchestrator.engine",
];

const RULES: [Rule; 12] = [
    Rule {
        pattern: "sim::dm::",
        group: "sim.dm",
    },
    Rule {
        pattern: "sim::sv::",
        group: "sim.sv",
    },
    Rule {
        pattern: "sim::fuse::",
        group: "sim.fuse",
    },
    Rule {
        pattern: "circuit::",
        group: "circuit",
    },
    // Pauli expectations run inside the evaluators' calls.
    Rule {
        pattern: "vqa::eval::",
        group: "vqa.eval",
    },
    Rule {
        pattern: "vqa::pauli::",
        group: "vqa.eval",
    },
    Rule {
        pattern: "vqa::spsa_step",
        group: "vqa.spsa",
    },
    Rule {
        pattern: "fairshare::push",
        group: "cloud.fairshare",
    },
    Rule {
        pattern: "fairshare::pop",
        group: "cloud.fairshare",
    },
    Rule {
        pattern: "fairshare::rebuild",
        group: "cloud.fairshare",
    },
    Rule {
        pattern: "fairshare::projection",
        group: "cloud.projection",
    },
    Rule {
        pattern: "engine::",
        group: "orchestrator.engine",
    },
];

fn matches(pattern: &str, label: &str) -> bool {
    if pattern.ends_with("::") {
        label.starts_with(pattern)
    } else {
        label == pattern
    }
}

/// The group of span label `label`.
///
/// # Errors
///
/// Names the label when no rule or more than one rule matches it.
pub fn group_of(label: &str) -> Result<&'static str, String> {
    let mut hits = RULES.iter().filter(|r| matches(r.pattern, label));
    match (hits.next(), hits.next()) {
        (Some(rule), None) => Ok(rule.group),
        (None, _) => Err(format!("span label {label:?} maps to no layer")),
        (Some(_), Some(_)) => Err(format!("span label {label:?} maps to several layers")),
    }
}

/// Self time and span count of one group.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupCost {
    /// Wall nanoseconds inside the group's spans, minus their child spans.
    pub self_ns: u64,
    /// Closed spans of the group.
    pub calls: u64,
}

/// Per-group attribution of one profile.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Cost per group; every group of [`GROUPS`] is present.
    pub groups: BTreeMap<&'static str, GroupCost>,
    /// Inclusive wall time of the top-of-stack spans.
    pub root_ns: u64,
    /// Closed spans per exact leaf label, for the counters that name one.
    pub label_calls: BTreeMap<&'static str, u64>,
}

impl Attribution {
    /// The cost of `group` (zero when it recorded nothing).
    pub fn group(&self, group: &str) -> GroupCost {
        self.groups.get(group).copied().unwrap_or_default()
    }

    /// Sum of the groups' self times.
    pub fn self_total_ns(&self) -> u64 {
        self.groups.values().map(|g| g.self_ns).sum()
    }

    /// Closed spans whose leaf label starts with `prefix`.
    pub fn calls_with_prefix(&self, prefix: &str) -> u64 {
        self.label_calls
            .iter()
            .filter(|(label, _)| label.starts_with(prefix))
            .map(|(_, n)| n)
            .sum()
    }

    /// The group with the largest self time.
    pub fn largest(&self) -> Option<&'static str> {
        self.groups
            .iter()
            .max_by_key(|(_, cost)| cost.self_ns)
            .map(|(g, _)| *g)
    }
}

/// Attributes every entry of `report` to its group.
///
/// # Errors
///
/// Returns every label that maps to no group or to several.
pub fn attribute(report: &ProfileReport) -> Result<Attribution, Vec<String>> {
    let mut out = Attribution {
        groups: GROUPS.iter().map(|g| (*g, GroupCost::default())).collect(),
        ..Attribution::default()
    };
    let mut errors = Vec::new();
    for entry in &report.entries {
        if entry.path.len() == 1 {
            out.root_ns += entry.total_ns;
        }
        *out.label_calls.entry(entry.label()).or_default() += entry.count;
        match group_of(entry.label()) {
            Ok(group) => {
                let cost = out.groups.get_mut(group).expect("rules name listed groups");
                cost.self_ns += entry.self_ns();
                cost.calls += entry.count;
            }
            Err(e) if !errors.contains(&e) => errors.push(e),
            Err(_) => {}
        }
    }
    if errors.is_empty() {
        Ok(out)
    } else {
        Err(errors)
    }
}

/// Attributes the traced run's `profile` of `workload`, recording an error
/// for every unmapped label and for self times that do not add up to the
/// root spans' total, and printing the per-group table.
pub fn report(workload: Workload, profile: &ProfileReport, outcome: &mut Outcome) -> Attribution {
    let name = workload.name();
    let attribution = attribute(profile).unwrap_or_else(|unmapped| {
        for e in unmapped {
            outcome.errors.push(format!("{name}: {e}"));
        }
        Attribution::default()
    });
    if attribution.self_total_ns() != attribution.root_ns {
        outcome.errors.push(format!(
            "{name}: layer self times sum to {} ns but the root spans total {} ns",
            attribution.self_total_ns(),
            attribution.root_ns
        ));
    }
    describe(&attribution, outcome);
    attribution
}

/// Prints the per-group self-time table of a traced run.
fn describe(attribution: &Attribution, outcome: &mut Outcome) {
    let total = attribution.root_ns.max(1) as f64;
    let mut rows: Vec<_> = attribution.groups.iter().collect();
    rows.sort_by_key(|(_, c)| std::cmp::Reverse(c.self_ns));
    for (group, cost) in rows {
        outcome.detail(
            format!("layer {group}"),
            format!(
                "self {:.6} s ({:.1}%), {} spans",
                cost.self_ns as f64 / 1e9,
                100.0 * cost.self_ns as f64 / total,
                cost.calls
            ),
        );
    }
    if let Some(largest) = attribution.largest() {
        outcome.detail("largest layer", largest);
    }
}

/// The span-derived per-layer metrics every workload reports.
pub fn metrics(a: &Attribution, outcome: &mut Outcome) {
    let secs = |group: &str| a.group(group).self_ns as f64 / 1e9;
    let calls = |group: &str| a.group(group).calls as f64;
    outcome.metric("sim.dm.self_s", "s", secs("sim.dm"));
    outcome.metric("sim.dm.calls", "count", calls("sim.dm"));
    outcome.metric("sim.sv.self_s", "s", secs("sim.sv"));
    outcome.metric("sim.sv.calls", "count", calls("sim.sv"));
    outcome.metric("sim.fuse.self_s", "s", secs("sim.fuse"));
    outcome.metric("circuit.self_s", "s", secs("circuit"));
    outcome.metric(
        "circuit.transpile.calls",
        "count",
        a.calls_with_prefix("circuit::transpile") as f64,
    );
    outcome.metric("vqa.eval.self_s", "s", secs("vqa.eval"));
    outcome.metric(
        "vqa.evals",
        "count",
        a.calls_with_prefix("vqa::eval::") as f64,
    );
    outcome.metric("vqa.spsa.self_s", "s", secs("vqa.spsa"));
    outcome.metric("cloud.fairshare.self_s", "s", secs("cloud.fairshare"));
    outcome.metric("cloud.fairshare.calls", "count", calls("cloud.fairshare"));
    outcome.metric("cloud.projection.self_s", "s", secs("cloud.projection"));
    outcome.metric(
        "orchestrator.engine.self_s",
        "s",
        secs("orchestrator.engine"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoncord_prof::{span, Profiler};
    use std::path::{Path, PathBuf};

    /// Span labels recorded by the workspace's library code: every
    /// `qoncord_prof::span("…")` literal outside `#[cfg(test)]` modules.
    fn workspace_span_labels() -> Vec<String> {
        let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates");
        let mut files = Vec::new();
        let mut dirs: Vec<PathBuf> = vec![crates];
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(&dir).expect("readable source tree") {
                let path = entry.expect("directory entry").path();
                if path.is_dir() {
                    dirs.push(path);
                } else if path.extension().is_some_and(|e| e == "rs")
                    && path.components().any(|c| c.as_os_str() == "src")
                {
                    files.push(path);
                }
            }
        }
        let needle = "qoncord_prof::span(\"";
        let mut labels = Vec::new();
        for file in files {
            let text = std::fs::read_to_string(&file).expect("readable source file");
            let library = text.split("#[cfg(test)]").next().unwrap_or("");
            for (at, _) in library.match_indices(needle) {
                let rest = &library[at + needle.len()..];
                let end = rest.find('"').expect("closed string literal");
                labels.push(rest[..end].to_owned());
            }
        }
        labels.sort();
        labels.dedup();
        labels
    }

    #[test]
    fn every_workspace_span_label_maps_to_exactly_one_group() {
        let labels = workspace_span_labels();
        assert!(
            labels.iter().any(|l| l == "engine::run"),
            "the source scan missed the engine's root span: {labels:?}"
        );
        for label in &labels {
            if let Err(e) = group_of(label) {
                panic!("{e}");
            }
        }
    }

    #[test]
    fn unmapped_labels_fail_by_name() {
        let profiler = Profiler::new();
        {
            let _installed = profiler.install();
            let _outer = span("engine::run");
            let _stray = span("stray::kernel");
        }
        let errors = attribute(&profiler.report()).expect_err("stray label must fail");
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("stray::kernel"), "{errors:?}");
    }

    #[test]
    fn group_self_times_sum_to_the_root_total() {
        let profiler = Profiler::new();
        {
            let _installed = profiler.install();
            for _ in 0..3 {
                let _run = span("engine::run");
                {
                    let _admit = span("engine::admit");
                    let _transpile = span("circuit::transpile");
                    let _decompose = span("circuit::decompose");
                }
                let _eval = span("vqa::eval::qaoa");
                let _kernel = span("sim::dm::apply_1q");
            }
            let _probe = span("fairshare::projection");
            let _rebuild = span("fairshare::rebuild");
        }
        let report = profiler.report();
        let attribution = attribute(&report).expect("all labels mapped");
        assert!(attribution.root_ns > 0);
        assert_eq!(attribution.self_total_ns(), attribution.root_ns);
        assert_eq!(attribution.group("circuit").calls, 6);
        assert_eq!(attribution.calls_with_prefix("circuit::transpile"), 3);
        assert_eq!(attribution.group("cloud.projection").calls, 1);
        assert_eq!(attribution.group("sim.sv"), GroupCost::default());
    }
}
