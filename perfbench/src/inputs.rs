//! Workload inputs, generated in-process from the workload seed.
//!
//! Every instance is built here; set-up then serializes it to the
//! service's wire JSON and parses it back ([`reparse`]), so the program
//! under test receives only generated inputs.
//! Expected answers come from `expected.json` (fixed paper instances), from
//! the generator's planted allocation (an upper bound on the optimum), or
//! from construction (instances built to be infeasible).

use crate::check::objective_value;
use optalloc::{InstanceDelta, Objective, SolveOptions};
use optalloc_model::{EcuId, MediumId, MediumKind, TaskId, TaskSet};
use optalloc_service::protocol::Instance;
use optalloc_testkit::spec::ObjectiveSpec;
use optalloc_testkit::{gen_spec, GenConfig, InstanceSpec};
use optalloc_workloads::{generate, table4_workload, task_scaling, Fig2, GenParams, Workload};
use std::collections::{BTreeMap, BTreeSet};

/// The slot bound of every solve workload (the paper tables' quick scale).
pub const MAX_SLOT: u64 = 24;

/// What a correct answer looks like.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// A DRAT-certified optimum recorded in `expected.json`.
    Optimum(i64),
    /// The cost of the generator's planted allocation: the optimum may not
    /// exceed it.
    AtMost(i64),
    /// The optimum after a WCET bump: never below the original's.
    /// `Infeasible` is accepted (a bump may remove every allocation).
    NotBelow(i64),
    /// Built to have no feasible allocation.
    Infeasible,
    /// No witness: an allocation is re-validated and its cost recomputed,
    /// an `Infeasible` verdict is taken as given.
    Unwitnessed,
}

/// One solve job: an instance, what to minimize, how, and the answer gate.
#[derive(Clone, Debug)]
pub struct Job {
    /// Human-readable origin of the instance.
    pub label: String,
    /// The instance, as parsed back from its JSON form.
    pub instance: Instance,
    /// The objective (`Feasibility` routes to `find_feasible`).
    pub objective: Objective,
    /// Solver options (tracing is switched on per run).
    pub opts: SolveOptions,
    /// The correctness gate.
    pub expect: Expect,
}

/// Deterministic 64-bit generator (SplitMix64) for everything the
/// workloads draw from the seed.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            xs.swap(i, j);
        }
    }
}

/// The generator of group `k` of a seed's workload: groups are
/// independent streams, so a run can draw as many as it has time for.
fn group_rng(seed: u64, k: usize) -> SplitMix {
    let base = SplitMix::new(seed).next_u64();
    SplitMix::new(base ^ (k as u64 + 1).wrapping_mul(0xd1b5_4a32_d192_ed03))
}

/// The certified optima of the fixed instances (`expected.json`).
fn expected_optimum(name: &str) -> i64 {
    let text = include_str!("../expected.json");
    let v: serde::Value = serde_json::from_str(text).expect("expected.json parses");
    let optimum = v
        .get("optima")
        .and_then(|o| o.get(name))
        .unwrap_or_else(|| panic!("expected.json has no optimum for {name}"));
    match optimum {
        serde::Value::Int(i) => *i,
        serde::Value::UInt(u) => *u as i64,
        other => panic!("expected.json: {name} is not an integer: {other:?}"),
    }
}

/// Serializes and re-parses an instance: the program sees the wire form.
pub fn reparse(inst: &Instance) -> Instance {
    let json = serde_json::to_string(inst).expect("instances serialize");
    serde_json::from_str(&json).expect("instances parse back")
}

fn solve_opts(certify: bool) -> SolveOptions {
    SolveOptions {
        max_slot: MAX_SLOT,
        certify,
        ..SolveOptions::default()
    }
}

/// The Table-4 quick scale: 14 tasks of the Tindell-style set.
fn table4_quick() -> GenParams {
    GenParams {
        n_tasks: 14,
        n_chains: 4,
        utilization: 0.30,
        ..GenParams::tindell43()
    }
}

fn fixed_job(name: &str, w: Workload, objective: Objective, certify: bool) -> Job {
    Job {
        label: name.to_string(),
        instance: Instance {
            arch: w.arch,
            tasks: w.tasks,
        },
        objective,
        opts: solve_opts(certify),
        expect: Expect::Optimum(expected_optimum(name)),
    }
}

/// `large`: Table-3 t30 (TRT) and Table-4 quick Arch B (ΣTRT). The
/// instances are the fixed paper ones; the seed only orders them.
pub fn large(seed: u64) -> Vec<Job> {
    let trt = Objective::TokenRotationTime(MediumId(0));
    let mut jobs = vec![
        fixed_job("table3-t30", task_scaling(30), trt, false),
        fixed_job(
            "table4-quick-archB",
            table4_workload(Fig2::B, &table4_quick()),
            Objective::SumTokenRotationTimes,
            false,
        ),
    ];
    SplitMix::new(seed).shuffle(&mut jobs);
    jobs
}

/// `certified`: t12 and t20 (TRT) and quick Arch C (ΣTRT), all certified.
/// Fixed instances; the seed only orders them.
pub fn certified(seed: u64) -> Vec<Job> {
    let trt = Objective::TokenRotationTime(MediumId(0));
    let mut jobs = vec![
        fixed_job("table3-t12", task_scaling(12), trt.clone(), true),
        fixed_job("table3-t20", task_scaling(20), trt, true),
        fixed_job(
            "table4-quick-archC",
            table4_workload(Fig2::C, &table4_quick()),
            Objective::SumTokenRotationTimes,
            true,
        ),
    ];
    SplitMix::new(seed).shuffle(&mut jobs);
    jobs
}

/// The planted allocation's cost, when the planted allocation lies inside
/// the search space (its TDMA slots respect `max_slot`).
pub fn planted_bound(w: &Workload, objective: &Objective, max_slot: u64) -> Expect {
    let slots_fit = w.arch.iter_media().all(|(id, m)| match &m.kind {
        MediumKind::Tdma { slots } => w
            .planted
            .effective_slots(id, slots)
            .iter()
            .all(|&s| s <= max_slot),
        MediumKind::Priority => true,
    });
    if slots_fit {
        Expect::AtMost(objective_value(&w.arch, &w.tasks, &w.planted, objective))
    } else {
        Expect::Unwitnessed
    }
}

/// A synthetic Tindell-style instance with a planted allocation.
pub fn synthetic(rng: &mut SplitMix, n_tasks: usize, token_ring: bool, tag: &str) -> Workload {
    generate(&GenParams {
        name: format!("{tag}-t{n_tasks}"),
        n_tasks,
        n_chains: (n_tasks / 3).max(1),
        n_ecus: rng.range(4, 6) as usize,
        seed: rng.next_u64(),
        utilization: 0.30 + 0.05 * rng.range(0, 2) as f64,
        restricted_fraction: 0.25,
        redundant_pairs: 1,
        token_ring,
        deadline_slack: 1.4,
    })
}

/// Rebuilds a spec so that `k + 1` tasks may only run on the same `k`
/// hosting ECUs while being pairwise separated: infeasible by pigeonhole,
/// yet the solver still has to search to prove it.
fn make_infeasible(spec: &mut InstanceSpec) {
    let hosts: Vec<usize> = (0..spec.ecus.len())
        .filter(|&e| !spec.ecus[e].gateway_only)
        .take(2)
        .collect();
    let crowd: Vec<usize> = (0..=hosts.len()).collect();
    for &t in &crowd {
        let task = &mut spec.tasks[t];
        let wcet = task.wcet.iter().map(|&(_, w)| w).min().unwrap_or(1);
        task.wcet = hosts.iter().map(|&e| (e, wcet)).collect();
        task.deadline = task.deadline.max(wcet);
        for &other in &crowd {
            if other != t && !task.separation.contains(&other) {
                task.separation.push(other);
            }
        }
    }
}

fn spec_job(label: String, spec: &InstanceSpec, expect: Expect) -> Job {
    let (arch, tasks) = spec.build().expect("generated specs build");
    Job {
        label,
        instance: Instance { arch, tasks },
        objective: spec.objective.to_objective(),
        opts: solve_opts(false),
        expect,
    }
}

/// Light synthetic jobs of the `batch` mix: `(token ring, objective)`.
const LIGHT_KINDS: [(bool, Objective); 5] = [
    (true, Objective::MaxUtilizationPermille),
    (true, Objective::UtilizationSpreadPermille),
    (false, Objective::BusLoadPermille(MediumId(0))),
    (false, Objective::MaxUtilizationPermille),
    (false, Objective::UtilizationSpreadPermille),
];
/// Jobs per light kind in a `batch` group.
const LIGHT_PER_KIND: usize = 5;
/// Testkit jobs of a `batch` group: own objective, feasibility only,
/// built infeasible.
const SPEC_JOBS: [usize; 3] = [7, 2, 2];
/// Most tasks of a `batch` testkit instance (the generator's floor is 3).
const SPEC_TASKS: usize = 6;
/// Tasks of a `batch` synthetic instance.
const BATCH_TASKS: usize = 8;

fn synthetic_job(w: Workload, ring: bool, objective: Objective) -> Job {
    let expect = planted_bound(&w, &objective, MAX_SLOT);
    Job {
        label: format!(
            "{}-{}-{objective:?}",
            w.name,
            if ring { "ring" } else { "can" }
        ),
        instance: Instance {
            arch: w.arch,
            tasks: w.tasks,
        },
        objective,
        opts: solve_opts(false),
        expect,
    }
}

/// `batch` group `k`: short jobs, none dominant, covering every objective,
/// both medium kinds, gateways, and the feasibility and infeasible terminal
/// paths. Every group has the same mix; the seed and `k` draw the
/// instances. Most jobs are of the light synthetic kinds, so the median
/// latency falls inside one dense distribution.
pub fn batch(seed: u64, k: usize) -> Vec<Job> {
    let mut rng = group_rng(seed, k);
    let mut jobs = Vec::new();
    // Synthetic single-bus instances with planted allocations.
    for _ in 0..LIGHT_PER_KIND {
        for (ring, objective) in &LIGHT_KINDS {
            let w = synthetic(&mut rng, BATCH_TASKS, *ring, "gen");
            jobs.push(synthetic_job(w, *ring, objective.clone()));
        }
    }
    // Gateway-chained testkit instances: their own objectives, then
    // feasibility only, then built to be infeasible.
    let cfg = GenConfig {
        max_tasks: SPEC_TASKS,
        ..GenConfig::default()
    };
    for (kind, &count) in SPEC_JOBS.iter().enumerate() {
        for _ in 0..count {
            let mut spec = gen_spec(rng.next_u64(), &cfg);
            let expect = match kind {
                0 => Expect::Unwitnessed,
                1 => {
                    spec.objective = ObjectiveSpec::Feasibility;
                    Expect::Unwitnessed
                }
                _ => {
                    make_infeasible(&mut spec);
                    Expect::Infeasible
                }
            };
            let label = format!("spec-{}t-{:?}-{expect:?}", spec.tasks.len(), spec.objective);
            jobs.push(spec_job(label, &spec, expect));
        }
    }
    jobs
}

/// Re-declares an instance with its ECUs and tasks in another order: ids
/// change, names and content do not, so the canonical fingerprint (and
/// with it the service's result cache) must match the original.
///
/// Tasks that send messages keep their positions. Message priorities break
/// deadline ties by message id, which follows the sender's position, so
/// moving a sender changes the instance while its fingerprint stays put
/// (the known defect in `README.md`); the other tasks trade places.
pub fn permuted(inst: &Instance, rng: &mut SplitMix) -> Instance {
    let mut ecu_order: Vec<usize> = (0..inst.arch.ecus.len()).collect();
    rng.shuffle(&mut ecu_order);
    let mut task_order: Vec<usize> = (0..inst.tasks.len()).collect();
    let silent: Vec<usize> = (0..inst.tasks.len())
        .filter(|&t| inst.tasks.tasks[t].messages.is_empty())
        .collect();
    let mut moved = silent.clone();
    rng.shuffle(&mut moved);
    for (&slot, &t) in silent.iter().zip(&moved) {
        task_order[slot] = t;
    }
    let mut ecu_new = vec![0; ecu_order.len()];
    for (new, &old) in ecu_order.iter().enumerate() {
        ecu_new[old] = new;
    }
    let mut task_new = vec![0; task_order.len()];
    for (new, &old) in task_order.iter().enumerate() {
        task_new[old] = new;
    }
    let ecu = |e: EcuId| EcuId(ecu_new[e.0 as usize] as u32);
    let task = |t: TaskId| TaskId(task_new[t.0 as usize] as u32);

    let mut arch = inst.arch.clone();
    arch.ecus = ecu_order
        .iter()
        .map(|&i| inst.arch.ecus[i].clone())
        .collect();
    for m in &mut arch.media {
        // Member order is kept: a TDMA slot table is indexed by it.
        for e in &mut m.members {
            *e = ecu(*e);
        }
    }
    let mut tasks = TaskSet::new();
    for &old in &task_order {
        let mut t = inst.tasks.tasks[old].clone();
        t.wcet = t
            .wcet
            .iter()
            .map(|(&e, &w)| (ecu(e), w))
            .collect::<BTreeMap<_, _>>();
        for m in &mut t.messages {
            m.to = task(m.to);
        }
        t.separation = t
            .separation
            .iter()
            .map(|&s| task(s))
            .collect::<BTreeSet<_>>();
        tasks.tasks.push(t);
    }
    Instance { arch, tasks }
}

/// One request of the `service` script.
#[derive(Clone, Debug)]
pub enum Step {
    /// First solve of instance `i` of the pool.
    Cold(usize),
    /// Re-submission of already-answered instance `i`, re-declared in
    /// another order.
    Hit(usize, Instance),
    /// A delta against already-answered instance `i`.
    Delta(usize, Vec<InstanceDelta>),
}

/// A `service` group: the instance pool and the request script of its
/// single closed-loop client. With two clients, the order in which their
/// jobs reached the single worker changed from run to run, and with it the
/// warm-start path and the queue wait: `wall_s` spread 0.27 across ten
/// seeds, more than any bound allows.
#[derive(Clone, Debug)]
pub struct Script {
    /// `(instance, objective, gate of the cold solve)` per pool entry.
    pub pool: Vec<(Instance, Objective, Expect)>,
    /// The requests, in send order.
    pub steps: Vec<Step>,
}

/// Requests in a `service` group.
pub const SERVICE_STEPS: usize = 50;
/// Tasks of a `service` instance: enough that solving, not the request
/// round trip, is most of a cold or delta request.
const SERVICE_TASKS: usize = 8;
/// Re-submissions and deltas pick among this many most recent instances,
/// so they stay inside the service's result cache.
const SERVICE_RECENT: usize = 16;

/// A WCET bump or a deadline tightening of one task of `inst`.
fn delta_ops(inst: &Instance, rng: &mut SplitMix) -> Vec<InstanceDelta> {
    let t = &inst.tasks.tasks[rng.range(0, inst.tasks.len() as u64 - 1) as usize];
    if rng.chance(0.5) {
        let entries: Vec<(&EcuId, &u64)> = t.wcet.iter().collect();
        let (&e, &w) = entries[rng.range(0, entries.len() as u64 - 1) as usize];
        vec![InstanceDelta::SetWcet {
            task: t.name.clone(),
            ecu: inst.arch.ecus[e.0 as usize].name.clone(),
            wcet: w + (w / 10).max(1),
        }]
    } else {
        let wmax = t.wcet.values().copied().max().unwrap_or(1);
        vec![InstanceDelta::SetDeadline {
            task: t.name.clone(),
            deadline: (t.deadline - t.deadline / 20).max(wmax),
        }]
    }
}

/// Cold-solve kinds of the `service` workload: `(token ring, objective)`.
const SERVICE_KINDS: [(bool, Objective); 3] = [
    (true, Objective::MaxUtilizationPermille),
    (false, Objective::MaxUtilizationPermille),
    (false, Objective::BusLoadPermille(MediumId(0))),
];

/// The request pattern the `service` client repeats: 40% cold solves,
/// 40% re-submissions, 20% deltas, in a fixed order so that the seed
/// changes instances, never proportions.
const SERVICE_PATTERN: [char; 5] = ['c', 'h', 'c', 'd', 'h'];

/// `service` group `k`: cold solves of new synthetic 8-task instances,
/// reordered re-submissions of answered ones, and deltas against answered
/// ones.
pub fn service(seed: u64, k: usize) -> Script {
    let mut rng = group_rng(seed, k);
    let mut pool = Vec::new();
    let mut steps = Vec::new();
    for step in 0..SERVICE_STEPS {
        if SERVICE_PATTERN[step % SERVICE_PATTERN.len()] == 'c' {
            // Objectives whose optimum cannot drop under a WCET bump, so
            // WCET deltas have a cheap gate.
            let (ring, objective) = SERVICE_KINDS[rng.range(0, 2) as usize].clone();
            let w = synthetic(&mut rng, SERVICE_TASKS, ring, "svc");
            let expect = planted_bound(&w, &objective, SolveOptions::default().max_slot);
            steps.push(Step::Cold(pool.len()));
            let instance = Instance {
                arch: w.arch,
                tasks: w.tasks,
            };
            pool.push((instance, objective, expect));
        } else {
            let lo = pool.len().saturating_sub(SERVICE_RECENT) as u64;
            let i = rng.range(lo, pool.len() as u64 - 1) as usize;
            if SERVICE_PATTERN[step % SERVICE_PATTERN.len()] == 'h' {
                steps.push(Step::Hit(i, permuted(&pool[i].0, &mut rng)));
            } else {
                steps.push(Step::Delta(i, delta_ops(&pool[i].0, &mut rng)));
            }
        }
    }
    Script { pool, steps }
}
