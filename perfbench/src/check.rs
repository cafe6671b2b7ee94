//! The correctness gate: every answer is re-validated through
//! `optalloc_analysis`, its objective recomputed there, and compared with
//! the job's expected answer.

use crate::inputs::Expect;
use optalloc::{EncoderOpt, Objective, OptError, Optimizer, SearchEngine, SolveOptions};
use optalloc_analysis::{
    bus_load_permille, ecu_utilization_permille, sum_trt, token_rotation_time,
    utilization_minmax_spread_permille, validate, AnalysisConfig,
};
use optalloc_model::{Allocation, Architecture, TaskSet};

/// An allocation's objective value, computed by the analysis layer alone.
pub fn objective_value(
    arch: &Architecture,
    tasks: &TaskSet,
    alloc: &Allocation,
    objective: &Objective,
) -> i64 {
    match objective {
        Objective::TokenRotationTime(m) => token_rotation_time(arch, alloc, *m).unwrap_or(0) as i64,
        Objective::SumTokenRotationTimes => sum_trt(arch, alloc) as i64,
        Objective::BusLoadPermille(m) => bus_load_permille(arch, tasks, alloc, *m) as i64,
        Objective::MaxUtilizationPermille => {
            ecu_utilization_permille(tasks, alloc, arch.num_ecus())
                .into_iter()
                .max()
                .unwrap_or(0) as i64
        }
        Objective::UtilizationSpreadPermille => {
            utilization_minmax_spread_permille(tasks, alloc, arch.num_ecus()) as i64
        }
        Objective::Feasibility => 0,
    }
}

/// What the program answered, reduced to what the gate checks.
pub enum Answer<'a> {
    /// An allocation with its claimed cost (`None` for feasibility).
    Allocation(&'a Allocation, Option<i64>),
    /// No feasible allocation.
    Infeasible,
    /// Any other terminal path (budget, timeout, error, rejection, panic).
    Failed(String),
}

/// Checks one answer. `Ok` carries the verified cost (0 for feasibility,
/// `None` for infeasible); `Err` says what was wrong.
pub fn check(
    arch: &Architecture,
    tasks: &TaskSet,
    objective: &Objective,
    config: &AnalysisConfig,
    expect: &Expect,
    answer: Answer<'_>,
) -> Result<Option<i64>, String> {
    match answer {
        Answer::Failed(why) => Err(why),
        // An unwitnessed `Infeasible` is confirmed after the timed section
        // by [`confirm_infeasible`].
        Answer::Infeasible => match expect {
            Expect::Infeasible | Expect::Unwitnessed | Expect::NotBelow(_) => Ok(None),
            other => Err(format!("answered Infeasible, expected {other:?}")),
        },
        Answer::Allocation(alloc, claimed) => {
            let report = validate(arch, tasks, alloc, config);
            if !report.is_feasible() {
                return Err(format!(
                    "allocation fails re-validation: {:?}",
                    report.violations
                ));
            }
            let cost = objective_value(arch, tasks, alloc, objective);
            if let Some(claimed) = claimed {
                if claimed != cost {
                    return Err(format!(
                        "claimed cost {claimed}, analysis recomputes {cost}"
                    ));
                }
            }
            match *expect {
                Expect::Optimum(v) if cost != v => {
                    Err(format!("cost {cost}, certified optimum is {v}"))
                }
                Expect::AtMost(v) if cost > v => {
                    Err(format!("cost {cost} exceeds the planted allocation's {v}"))
                }
                Expect::NotBelow(v) if cost < v => Err(format!(
                    "cost {cost} after a WCET bump is below the original's {v}"
                )),
                Expect::Infeasible => Err(format!(
                    "found an allocation of cost {cost} for an instance built infeasible"
                )),
                _ => Ok(Some(cost)),
            }
        }
    }
}

/// The options of a second opinion: the same model (`opts`) with the
/// legacy search engine and the unoptimized encoding, untraced.
fn second_opinion(opts: &SolveOptions) -> SolveOptions {
    let mut opts = opts.clone();
    opts.search = SearchEngine::legacy();
    opts.encoder_opt = EncoderOpt::none();
    opts.certify = false;
    opts.obs = optalloc_obs::Obs::disabled();
    opts
}

/// Second opinion on an `Infeasible` answer that has no witness: a
/// feasibility search of the same model. Anything but `Infeasible` from it
/// fails the answer. Runs outside the timed section.
pub fn confirm_infeasible(
    arch: &Architecture,
    tasks: &TaskSet,
    opts: &SolveOptions,
) -> Result<Option<i64>, String> {
    match Optimizer::new(arch, tasks)
        .with_options(second_opinion(opts))
        .find_feasible()
    {
        Err(OptError::Infeasible) => Ok(None),
        Ok(_) => Err("answered Infeasible; the legacy engine finds an allocation".into()),
        Err(e) => Err(format!("answered Infeasible; the legacy engine fails: {e}")),
    }
}

/// Second opinion on a verified answer (`Some(cost)`, or `None` for
/// infeasible) that has no cheaper gate: a cold minimization of the same
/// model must reach the same optimum. Runs outside the timed section.
pub fn confirm_optimum(
    arch: &Architecture,
    tasks: &TaskSet,
    objective: &Objective,
    opts: &SolveOptions,
    answered: Option<i64>,
) -> Result<Option<i64>, String> {
    let reference = match Optimizer::new(arch, tasks)
        .with_options(second_opinion(opts))
        .minimize(objective)
    {
        Ok(report) => Some(report.cost),
        Err(OptError::Infeasible) => None,
        Err(e) => return Err(format!("the legacy engine fails: {e}")),
    };
    if reference == answered {
        Ok(answered)
    } else {
        Err(format!(
            "answered {answered:?}; the legacy engine finds {reference:?}"
        ))
    }
}
