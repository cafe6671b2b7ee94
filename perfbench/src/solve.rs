//! Solve workloads (`large`, `batch`, `certified`): each job is one call of
//! the public `Optimizer::minimize` / `find_feasible`, wrapped in the
//! benchmark's spans and followed by the correctness gate.

use crate::check::{check, confirm_infeasible, Answer};
use crate::inputs::{Expect, Job};
use crate::layers::{self, Layers, SatCounts};
use optalloc::{intopt::Certificate, Objective, OptError, Optimizer};
use optalloc_obs::{Obs, Phase};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What one job did, as the gate and the metrics need it.
pub struct JobRun {
    /// Call to validated answer, in ms.
    pub latency_ms: f64,
    /// `Err` when the answer failed the gate (or the call failed).
    pub verdict: Result<Option<i64>, String>,
    /// SAT calls the report states (0 when no report came back).
    pub solve_calls: u32,
    /// Conflicts the report states (0 when no report came back).
    pub conflicts: u64,
    /// Encoding size: variables, literals, constraints.
    pub sizes: [u64; 3],
    /// The verified certificate and its checker summary (steps, verified
    /// additions), kept only on traced runs for the re-check.
    pub certificate: Option<(Certificate, [u64; 2])>,
    /// Span-derived layers and registry counters (traced runs only).
    pub traced: Option<(Layers, SatCounts)>,
}

enum Solved {
    Optimal(Box<optalloc::OptimizeReport>),
    Feasible(optalloc::AllocationSolution),
}

/// Runs one job; `traced` records spans and solver metrics.
// `OptError` is the library's own (large) error type, passed through as is.
#[allow(clippy::result_large_err)]
pub fn run_job(job: &Job, traced: bool) -> JobRun {
    let obs = if traced {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    let mut opts = job.opts.clone();
    opts.obs = obs.clone();
    let (arch, tasks) = (&job.instance.arch, &job.instance.tasks);
    let optimizer = Optimizer::new(arch, tasks).with_options(opts);
    let config = optimizer.analysis_config();

    // The stopwatches always measure; they record spans only when traced.
    let root = obs.stopwatch(Phase::Other(layers::JOB));
    let core = obs.stopwatch(Phase::Other(layers::CORE));
    let result = catch_unwind(AssertUnwindSafe(|| match job.objective {
        Objective::Feasibility => optimizer.find_feasible().map(Solved::Feasible),
        _ => optimizer
            .minimize(&job.objective)
            .map(|r| Solved::Optimal(Box::new(r))),
    }));
    core.finish();
    let gate = obs.stopwatch(Phase::Other(layers::ANALYSIS));
    let answer = match &result {
        Ok(Ok(Solved::Optimal(r))) => Answer::Allocation(&r.solution.allocation, Some(r.cost)),
        Ok(Ok(Solved::Feasible(s))) => Answer::Allocation(&s.allocation, None),
        Ok(Err(OptError::Infeasible)) => Answer::Infeasible,
        Ok(Err(e)) => Answer::Failed(e.to_string()),
        Err(_) => Answer::Failed("the solver panicked".into()),
    };
    let mut verdict = check(arch, tasks, &job.objective, &config, &job.expect, answer);
    gate.finish();
    let latency_ms = root.finish();

    let mut run = JobRun {
        latency_ms,
        verdict: Ok(None),
        solve_calls: 0,
        conflicts: 0,
        sizes: [0; 3],
        certificate: None,
        traced: traced.then(|| (layers::split(&obs.spans()), SatCounts::from_obs(&obs))),
    };
    if let Ok(Ok(Solved::Optimal(r))) = result {
        run.solve_calls = r.solve_calls;
        run.conflicts = r.stats.conflicts;
        run.sizes = [r.encode.bool_vars, r.encode.literals, r.encode.constraints];
        match (r.certificate, job.opts.certify) {
            (Some(c), true) if traced => {
                let s = &c.summary;
                run.certificate = Some((c.certificate, [s.steps as u64, s.adds_verified as u64]));
            }
            (None, true) if verdict.is_ok() => {
                verdict = Err("certification was requested but no certificate came back".into());
            }
            _ => {}
        }
    }
    run.verdict = verdict;
    run
}

/// One pass over a workload's jobs.
pub struct Pass {
    /// Wall time of the pass, in s.
    pub wall_s: f64,
    /// Per-job results, in job order.
    pub jobs: Vec<JobRun>,
    /// Timed `Certificate::verify` re-checks of the pass's certificates
    /// (traced passes only; outside `wall_s`, like the second opinion on
    /// unwitnessed `Infeasible` answers), in ms.
    pub check_ms: f64,
}

/// Runs every job once, in order. [`confirm`] completes the gate.
pub fn run_pass(jobs: &[Job], traced: bool) -> Pass {
    let start = Instant::now();
    let runs: Vec<JobRun> = jobs.iter().map(|j| run_job(j, traced)).collect();
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        jobs: runs,
        check_ms: 0.0,
    }
}

/// The part of the gate that runs after a pass, outside `wall_s` and its
/// memory reading: the second opinion on unwitnessed `Infeasible` answers
/// and the timed certificate re-checks.
pub fn confirm(jobs: &[Job], pass: &mut Pass) {
    for (job, run) in jobs.iter().zip(&mut pass.jobs) {
        if job.expect == Expect::Unwitnessed && run.verdict == Ok(None) {
            let i = &job.instance;
            run.verdict = confirm_infeasible(&i.arch, &i.tasks, &job.opts);
        }
        if let Some((cert, _)) = &run.certificate {
            let t = Instant::now();
            let ok = cert.verify();
            pass.check_ms += t.elapsed().as_secs_f64() * 1e3;
            if let (Err(e), Ok(_)) = (ok, &run.verdict) {
                run.verdict = Err(format!("certificate re-check failed: {e}"));
            }
        }
    }
}
