//! The per-layer split of a traced run, computed from spans.
//!
//! The benchmark records its own spans around each public call
//! (`bench.job` ⊃ `bench.core` + `bench.analysis`); the program records its
//! phase spans beneath them (`encode`, `bisect-window`, `search` with its
//! `result` attr, `preprocess`, `certify`). Each span's self time (its
//! duration minus the union of its children) goes to exactly one layer, so
//! the layers of a job sum to its root span.

use crate::stats::self_time;
use optalloc_obs::{Obs, SpanRecord};
use std::collections::HashMap;

/// Benchmark span around one job (the root).
pub const JOB: &str = "bench.job";
/// Benchmark span around the `Optimizer` call.
pub const CORE: &str = "bench.core";
/// Benchmark span around the answer check (validate + objective).
pub const ANALYSIS: &str = "bench.analysis";

/// Milliseconds per layer plus the span-derived counts.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// `bench.core` self time: model encoding, decode, internal validation.
    pub core_self: f64,
    /// `encode` spans: formula preparation, blasting, probe guard bounds.
    pub encode: f64,
    /// `search` self time (preprocessing excluded).
    pub search: f64,
    /// `search` spans including nested preprocessing.
    pub search_total: f64,
    /// `preprocess` spans (simplify-first, inprocess, vivify).
    pub preprocess: f64,
    /// `certify` spans.
    pub certify: f64,
    /// `bench.analysis`: the benchmark's own validate + objective call.
    pub validate: f64,
    /// The unbounded first `search` (outside any `bisect-window`).
    pub first_solve: f64,
    /// `bisect-window` spans whose search answered SAT.
    pub sat_probe: f64,
    /// `bisect-window` spans whose search answered UNSAT.
    pub unsat_probe: f64,
    /// Time no layer span covers: the benchmark's loop, bisection
    /// bookkeeping, and calls that record no phase spans at all.
    pub unattributed: f64,
    /// `search` spans, i.e. SAT calls.
    pub probes: u64,
    /// Σ self time over every span (equals `root` when spans nest).
    pub span_sum: f64,
    /// Duration of the `bench.job` root span(s).
    pub root: f64,
}

impl Layers {
    /// Adds every field of `o` into `self`.
    pub fn absorb(&mut self, o: &Layers) {
        self.core_self += o.core_self;
        self.encode += o.encode;
        self.search += o.search;
        self.search_total += o.search_total;
        self.preprocess += o.preprocess;
        self.certify += o.certify;
        self.validate += o.validate;
        self.first_solve += o.first_solve;
        self.sat_probe += o.sat_probe;
        self.unsat_probe += o.unsat_probe;
        self.unattributed += o.unattributed;
        self.probes += o.probes;
        self.span_sum += o.span_sum;
        self.root += o.root;
    }
}

fn attr<'a>(s: &'a SpanRecord, key: &str) -> Option<&'a str> {
    s.attrs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// Splits a set of spans into layers.
pub fn split(spans: &[SpanRecord]) -> Layers {
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent.filter(|p| by_id.contains_key(p)) {
            children.entry(p).or_default().push(s);
        }
    }
    let interval = |s: &SpanRecord| {
        let start = s.start_us as f64 / 1e3;
        (start, start + s.dur_ms)
    };
    let phase_of = |id: Option<u64>| id.and_then(|p| by_id.get(&p)).map(|p| p.phase.as_str());

    let mut l = Layers::default();
    for s in spans {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let (start, end) = interval(s);
        let iv: Vec<(f64, f64)> = kids.iter().map(|c| interval(c)).collect();
        let own = self_time(start, end, &iv);
        l.span_sum += own;
        match s.phase.as_str() {
            JOB => {
                l.root += s.dur_ms;
                l.unattributed += own;
            }
            // A call that records no phase spans (feasibility, encoder-level
            // infeasibility) cannot be split: its time is unattributed.
            CORE if kids.is_empty() => l.unattributed += own,
            CORE => l.core_self += own,
            ANALYSIS => l.validate += own,
            "encode" => l.encode += own,
            "preprocess" => l.preprocess += own,
            "certify" => l.certify += own,
            "search" => {
                l.search += own;
                l.search_total += s.dur_ms;
                l.probes += 1;
                if phase_of(s.parent) != Some("bisect-window") {
                    l.first_solve += s.dur_ms;
                }
            }
            "bisect-window" => {
                l.unattributed += own;
                let result = kids
                    .iter()
                    .find(|c| c.phase == "search")
                    .and_then(|c| attr(c, "result"));
                match result {
                    Some("sat") => l.sat_probe += s.dur_ms,
                    Some("unsat") => l.unsat_probe += s.dur_ms,
                    _ => {}
                }
            }
            _ => l.unattributed += own,
        }
    }
    l
}

/// SAT-layer counters read from the metrics registry the solvers export
/// into (covers infeasible runs, whose reports are discarded).
#[derive(Clone, Debug, Default)]
pub struct SatCounts {
    pub conflicts: u64,
    pub decisions: u64,
    pub propagations: u64,
    pub restarts: u64,
    pub deleted: u64,
    pub elim_vars: u64,
    /// High-water mark of retained learned clauses (max, not a sum).
    pub peak_learnts: u64,
}

impl SatCounts {
    /// Reads the `solver.*` metrics of an enabled handle.
    pub fn from_obs(obs: &Obs) -> SatCounts {
        let Some(m) = obs.metrics() else {
            return SatCounts::default();
        };
        let snap = m.snapshot();
        let c = |name: &str| snap.counter(name).unwrap_or(0);
        SatCounts {
            conflicts: c("solver.conflicts"),
            decisions: c("solver.decisions"),
            propagations: c("solver.propagations"),
            restarts: c("solver.restarts"),
            deleted: c("solver.deleted"),
            elim_vars: c("solver.elim_vars"),
            peak_learnts: snap.gauge("solver.peak_learnts").unwrap_or(0).max(0) as u64,
        }
    }

    /// Sums counters; keeps the larger peak.
    pub fn absorb(&mut self, o: &SatCounts) {
        self.conflicts += o.conflicts;
        self.decisions += o.decisions;
        self.propagations += o.propagations;
        self.restarts += o.restarts;
        self.deleted += o.deleted;
        self.elim_vars += o.elim_vars;
        self.peak_learnts = self.peak_learnts.max(o.peak_learnts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attributed(l: &Layers) -> f64 {
        l.core_self + l.encode + l.search + l.preprocess + l.certify + l.validate + l.unattributed
    }

    fn span(id: u64, parent: Option<u64>, phase: &str, start_ms: f64, dur: f64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            phase: phase.to_string(),
            start_us: (start_ms * 1e3) as u64,
            dur_ms: dur,
            tid: 0,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn nested_spans_split_into_layers_that_sum_to_the_root() {
        let mut sat = span(6, Some(5), "search", 21.0, 8.0);
        sat.attrs.push(("result".into(), "sat".into()));
        let spans = vec![
            span(1, None, JOB, 0.0, 40.0),
            span(2, Some(1), CORE, 1.0, 34.0),
            span(3, Some(2), "encode", 2.0, 4.0),
            span(4, Some(2), "search", 7.0, 12.0),
            span(7, Some(4), "preprocess", 8.0, 3.0),
            span(5, Some(2), "bisect-window", 20.0, 10.0),
            sat,
            span(8, Some(1), ANALYSIS, 36.0, 2.0),
        ];
        let l = split(&spans);
        assert_eq!(l.root, 40.0);
        assert_eq!(l.encode, 4.0);
        assert_eq!(l.preprocess, 3.0);
        assert_eq!(l.search, 9.0 + 8.0);
        assert_eq!(l.search_total, 20.0);
        assert_eq!(l.first_solve, 12.0);
        assert_eq!(l.sat_probe, 10.0);
        assert_eq!(l.unsat_probe, 0.0);
        assert_eq!(l.probes, 2);
        assert_eq!(l.validate, 2.0);
        // core: 34 − (4 + 12 + 10) = 8; job: 40 − 34 − 2 = 4; window: 2.
        assert_eq!(l.core_self, 8.0);
        assert_eq!(l.unattributed, 4.0 + 2.0);
        assert!((attributed(&l) - l.root).abs() < 1e-9);
        assert!((l.span_sum - l.root).abs() < 1e-9);
    }

    #[test]
    fn a_call_without_phase_spans_is_unattributed() {
        let spans = vec![
            span(1, None, JOB, 0.0, 10.0),
            span(2, Some(1), CORE, 0.0, 9.0),
            span(3, Some(1), ANALYSIS, 9.0, 1.0),
        ];
        let l = split(&spans);
        assert_eq!(l.core_self, 0.0);
        assert_eq!(l.unattributed, 9.0);
        assert!((attributed(&l) - l.root).abs() < 1e-9);
    }
}
