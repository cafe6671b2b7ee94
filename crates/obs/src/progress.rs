//! Throttled solver progress events.
//!
//! The SAT solver's conflict loop is the hottest code in the system, so the
//! progress stream is designed around two costs:
//!
//! 1. **No hook installed** (the default): the per-conflict cost is a single
//!    `Option` branch in the solver.
//! 2. **Hook installed**: the per-conflict cost is one integer comparison
//!    ([`ProgressThrottle::due`]'s fast path); `Instant::now` and the
//!    callback run only every `every_conflicts` conflicts, further limited
//!    to one event per `min_interval_ms` of wall time.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// One progress sample from a running solver. All counters are cumulative
/// for the emitting solver; rates are computed over the interval since the
/// previous event.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ProgressEvent {
    /// Worker index, when the solver runs inside a window search.
    pub worker: Option<usize>,
    /// Conflicts analyzed so far.
    pub conflicts: u64,
    /// Conflict rate over the last inter-event interval (per second).
    pub conflicts_per_s: f64,
    /// Propagations so far.
    pub propagations: u64,
    /// Restarts so far.
    pub restarts: u64,
    /// Learned clauses currently retained in the CORE tier.
    pub learnt_core: u64,
    /// Learned clauses currently retained in TIER2.
    pub learnt_mid: u64,
    /// Learned clauses currently retained in the LOCAL tier.
    pub learnt_local: u64,
    /// The cost window `[lo, hi]` currently being probed, when the solver
    /// runs under the `BIN_SEARCH` bisection.
    pub window: Option<(i64, i64)>,
    /// Variables removed by bounded variable elimination so far.
    pub elim_vars: u64,
}

/// A shared callback receiving [`ProgressEvent`]s. Cheap to clone; wrap in
/// `Some(..)` on `SolverConfig::progress` to subscribe.
#[derive(Clone)]
pub struct ProgressHook(Arc<dyn Fn(&ProgressEvent) + Send + Sync>);

impl ProgressHook {
    /// Wraps a callback.
    pub fn new(f: impl Fn(&ProgressEvent) + Send + Sync + 'static) -> ProgressHook {
        ProgressHook(Arc::new(f))
    }

    /// Delivers one event.
    #[inline]
    pub fn emit(&self, ev: &ProgressEvent) {
        (self.0)(ev)
    }

    /// A hook that forwards to `f` after stamping the worker index —
    /// how a parallel search tags each worker's stream before merging.
    pub fn with_worker(&self, worker: usize) -> ProgressHook {
        let inner = self.clone();
        ProgressHook::new(move |ev| {
            let mut ev = ev.clone();
            ev.worker = Some(worker);
            inner.emit(&ev);
        })
    }
}

impl fmt::Debug for ProgressHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ProgressHook(..)")
    }
}

/// Decides *when* to emit: every `every_conflicts` conflicts, at most one
/// event per `min_interval_ms` of wall time.
#[derive(Debug)]
pub struct ProgressThrottle {
    every_conflicts: u64,
    min_interval_ms: u64,
    /// Conflict count at which the next (integer-only) check fires.
    next_check: u64,
    /// `(wall time, conflict count)` of the last emitted event.
    last: Option<(Instant, u64)>,
}

impl ProgressThrottle {
    /// A throttle emitting every `every_conflicts` conflicts but at most
    /// once per `min_interval_ms` milliseconds.
    pub fn new(every_conflicts: u64, min_interval_ms: u64) -> ProgressThrottle {
        let every = every_conflicts.max(1);
        ProgressThrottle {
            every_conflicts: every,
            min_interval_ms,
            next_check: every,
            last: None,
        }
    }

    /// Called once per conflict with the cumulative conflict count. Returns
    /// `Some(conflicts_per_s)` when an event should be emitted now. The
    /// fast path — almost every call — is one integer comparison.
    #[inline]
    pub fn due(&mut self, conflicts: u64) -> Option<f64> {
        if conflicts < self.next_check {
            return None;
        }
        self.due_slow(conflicts)
    }

    #[cold]
    fn due_slow(&mut self, conflicts: u64) -> Option<f64> {
        self.next_check = conflicts + self.every_conflicts;
        let now = Instant::now();
        match self.last {
            None => {
                self.last = Some((now, conflicts));
                // First event: no interval yet, report a zero rate.
                Some(0.0)
            }
            Some((t, c)) => {
                let dt = now.duration_since(t).as_secs_f64();
                if dt * 1e3 < self.min_interval_ms as f64 {
                    return None;
                }
                self.last = Some((now, conflicts));
                Some((conflicts - c) as f64 / dt.max(1e-9))
            }
        }
    }
}

/// Renders a compact single-line summary of an event — the CLI's
/// `--progress` live line.
pub fn format_progress_line(ev: &ProgressEvent) -> String {
    let worker = match ev.worker {
        Some(w) => format!("w{w} "),
        None => String::new(),
    };
    let window = match ev.window {
        Some((lo, hi)) => format!(" win=[{lo},{hi}]"),
        None => String::new(),
    };
    format!(
        "{worker}conflicts={} ({:.0}/s) restarts={} learnts={}/{}/{} elim={}{window}",
        ev.conflicts,
        ev.conflicts_per_s,
        ev.restarts,
        ev.learnt_core,
        ev.learnt_mid,
        ev.learnt_local,
        ev.elim_vars,
    )
}
