//! # optalloc-portfolio
//!
//! Parallel **window search** over one encoded
//! [`IntProblem`](optalloc_intopt::IntProblem):
//! [`minimize_window_search`] runs N identical incremental `BIN_SEARCH`
//! workers that split the remaining cost interval into **disjoint
//! sub-windows**, so the terminal UNSAT certification is solved once,
//! divided across workers, instead of once per worker (see the [`window`]
//! module docs for the protocol and the determinism contract).
//!
//! Racing workers cooperate through two channels:
//!
//! * **Learned-clause sharing** — every worker solves the *same base
//!   encoding*, so they exchange short, low-glue learned clauses over a
//!   lock-free [`optalloc_sat::ClauseExchange`] ring — the multi-thread
//!   analogue of the paper's §7 incremental clause reuse.
//! * **Cooperative cancellation** — a worker whose window falls outside the
//!   remaining interval has its interrupt flag raised; the CDCL search loop
//!   observes it at the next conflict or decision boundary and aborts with
//!   [`optalloc_sat::SolveResult::Interrupted`], and the worker is
//!   reassigned.

#![warn(missing_docs)]

use std::fmt;
use std::time::Duration;

use optalloc_intopt::{Certificate, EncodeStats, MinimizeOptions, MinimizeStatus};
use optalloc_sat::SolverStats;

pub mod window;

pub use window::minimize_window_search;

/// Options for [`minimize_window_search`].
#[derive(Clone, Debug)]
pub struct PortfolioOptions {
    /// Number of workers.
    pub workers: usize,
    /// `true` runs barrier-synchronised rounds with an index-ordered fold —
    /// bit-stable output. `false` races: windows are handed out as workers
    /// free up, and stale windows are interrupted.
    pub deterministic: bool,
    /// Base minimization options applied to every worker. Its `mode`
    /// (always incremental) and `solver_config.exchange` fields are
    /// overwritten by the scheduler.
    /// `solver_config.interrupt` is honoured as the **job-scoped** cancel
    /// flag: raising it aborts every worker cooperatively (the hook a
    /// service timeout or shutdown uses).
    pub base: MinimizeOptions,
}

impl Default for PortfolioOptions {
    fn default() -> PortfolioOptions {
        PortfolioOptions {
            workers: 4,
            deterministic: false,
            base: MinimizeOptions::default(),
        }
    }
}

/// What one worker's minimization ended as (model-free summary).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WorkerVerdict {
    /// Proved the optimum with its own witnessing model.
    Optimal,
    /// Proved the constraints infeasible.
    Infeasible,
    /// Helped prove an optimum whose witnessing model another worker found.
    ExternalOptimal,
    /// Conflict budget ran out first.
    Unknown,
    /// Cancelled after another worker closed the search.
    Interrupted,
}

/// Per-worker execution record, for stats lines and ablation tables.
#[derive(Clone, Debug)]
pub struct WorkerReport {
    /// Worker index.
    pub index: usize,
    /// Human-readable configuration descriptor, e.g. `win/pb/w0`.
    pub config: String,
    /// How the worker's search ended.
    pub verdict: WorkerVerdict,
    /// The cost the worker proved or last incumbent it held, if any.
    pub value: Option<i64>,
    /// `SOLVE` calls the worker issued.
    pub solve_calls: u32,
    /// The worker's solver counters.
    pub stats: SolverStats,
    /// Wall-clock time of the worker's search.
    pub wall: Duration,
    /// Whether this worker's report closed the search.
    pub winner: bool,
    /// Cost windows this worker probed, in order.
    pub windows: Vec<(i64, i64)>,
}

impl fmt::Display for WorkerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "worker {} [{}]{}: {:?}{} in {:.3}s — {} calls, {} conflicts, {} decisions, {} propagations, {} restarts, {} learned",
            self.index,
            self.config,
            if self.winner { " *winner*" } else { "" },
            self.verdict,
            match self.value {
                Some(v) => format!(" (cost {v})"),
                None => String::new(),
            },
            self.wall.as_secs_f64(),
            self.solve_calls,
            self.stats.conflicts,
            self.stats.decisions,
            self.stats.propagations,
            self.stats.restarts,
            self.stats.learned,
        )?;
        if !self.windows.is_empty() {
            write!(f, ", {} windows", self.windows.len())?;
        }
        Ok(())
    }
}

/// Result of a window-search run.
#[derive(Clone, Debug)]
pub struct PortfolioOutcome {
    /// The combined verdict.
    pub status: MinimizeStatus,
    /// Total `SOLVE` calls across all workers.
    pub solve_calls: u32,
    /// Encoding size reported by worker 0.
    pub encode: EncodeStats,
    /// Solver counters summed over all workers.
    pub stats: SolverStats,
    /// Index of the worker whose report closed the search, if any.
    pub winner: Option<usize>,
    /// Per-worker execution records, indexed by worker.
    pub workers: Vec<WorkerReport>,
    /// Optimality certificate stitched from *every* worker's proof traces
    /// — present when [`MinimizeOptions::certify`] was set on the base
    /// options and the run ended [`MinimizeStatus::Optimal`]. No single
    /// worker covers the whole range, so the merged set of certified
    /// windows is what [`Certificate::verify`] checks for gap-free
    /// coverage.
    pub certificate: Option<Certificate>,
}
