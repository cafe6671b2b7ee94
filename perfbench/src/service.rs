//! The `service` workload: a loopback `optalloc_service::serve` server with
//! the default `ServiceConfig`, driven by one closed-loop client connection
//! replaying a seeded request script.

use crate::check::{check, confirm_infeasible, confirm_optimum, Answer};
use crate::inputs::{Expect, Script, Step};
use crate::layers::{self, Layers, SatCounts};
use optalloc::{apply_deltas, InstanceDelta};
use optalloc_obs::Obs;
use optalloc_service::fingerprint::fingerprint;
use optalloc_service::protocol::{Instance, JobOutcome, Request, Response, WarmLabel};
use optalloc_service::{serve, Server, Service, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

/// A group's script with its request lines serialized ahead of time, plus
/// the timed public `fingerprint` calls.
pub struct Prepared {
    script: Script,
    /// One JSON request line per step (newline included).
    lines: Vec<String>,
    /// The fingerprint each pool instance must be answered under.
    fingerprints: Vec<String>,
    /// Mean `fingerprint` call time over the pool, in ms.
    pub fingerprint_ms: f64,
}

/// Serializes every request and fingerprints every pool instance.
pub fn prepare(script: Script) -> Prepared {
    let opts = ServiceConfig::default().solve;
    let mut fp_ms = 0.0;
    let fingerprints: Vec<String> = script
        .pool
        .iter()
        .map(|(inst, obj, _)| {
            let t = Instant::now();
            let fp = fingerprint(inst, obj, &opts, None).to_string();
            fp_ms += t.elapsed().as_secs_f64() * 1e3;
            fp
        })
        .collect();
    let lines = script
        .steps
        .iter()
        .map(|step| {
            let request = match step {
                Step::Cold(i) => solve_request(&script.pool[*i].0, &script.pool[*i].1),
                Step::Hit(i, inst) => solve_request(inst, &script.pool[*i].1),
                Step::Delta(i, ops) => Request::Delta {
                    base: Some(fingerprints[*i].clone()),
                    ops: ops.clone(),
                    objective: None,
                    timeout_ms: None,
                },
            };
            let mut line = serde_json::to_string(&request).expect("requests serialize");
            line.push('\n');
            line
        })
        .collect();
    Prepared {
        fingerprint_ms: fp_ms / script.pool.len().max(1) as f64,
        script,
        lines,
        fingerprints,
    }
}

fn solve_request(instance: &Instance, objective: &optalloc::Objective) -> Request {
    Request::Solve {
        instance: instance.clone(),
        objective: objective.clone(),
        timeout_ms: None,
    }
}

/// Starts a server on an ephemeral loopback port.
pub fn start_server(obs: Obs) -> Server {
    let mut config = ServiceConfig::default();
    config.solve.obs = obs;
    serve(Service::new(config), "127.0.0.1:0").expect("bind a loopback port")
}

/// Request kinds, for the per-kind latency medians.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    Cold,
    Hit,
    Delta,
}

/// One answered request.
pub struct Reply {
    pub kind: Kind,
    pub latency_ms: f64,
    pub verdict: Result<Option<i64>, String>,
    /// The server's own job time (`JobResult.solve_ms`, whole ms).
    pub job_ms: f64,
    pub cached: bool,
    /// Answered by re-using or seeding from earlier search state.
    pub warm: bool,
    pub request_bytes: usize,
    pub response_bytes: usize,
}

/// One pass: the client replaying a group's script against the server.
pub struct Pass {
    pub wall_s: f64,
    /// Replies in script order.
    pub replies: Vec<Reply>,
}

/// A long-lived server for a whole run, with the observability handle its
/// jobs record into.
pub struct Served {
    pub server: Server,
    pub obs: Obs,
}

impl Served {
    pub fn start(traced: bool) -> Served {
        let obs = if traced {
            Obs::enabled()
        } else {
            Obs::disabled()
        };
        Served {
            server: start_server(obs.clone()),
            obs,
        }
    }

    /// Span-derived layers and solver counters of everything served so far.
    pub fn layers(&self) -> (Layers, SatCounts) {
        (
            layers::split(&self.obs.spans()),
            SatCounts::from_obs(&self.obs),
        )
    }
}

/// A deadline change can re-order deadline-monotonic task and message
/// priorities, and with them the jitter the holistic analysis propagates,
/// so the optimum of a tightened deadline may lie below the original's.
/// A WCET bump keeps every priority and only lengthens response times.
fn sets_a_deadline(ops: &[InstanceDelta]) -> bool {
    ops.iter()
        .any(|op| matches!(op, InstanceDelta::SetDeadline { .. }))
}

/// Runs one pass over a fresh connection. [`confirm`] completes the gate.
pub fn run_pass(prepared: &Prepared, served: &Served) -> Pass {
    let stream = TcpStream::connect(served.server.addr()).expect("connect to the server");
    let start = Instant::now();
    let replies = drive(prepared, stream);
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        replies,
    }
}

/// The part of the gate that runs after a pass, outside `wall_s` and its
/// memory reading: the second opinion on unwitnessed `Infeasible` cold
/// answers and on the answers to deadline deltas.
pub fn confirm(prepared: &Prepared, pass: &mut Pass) {
    let opts = ServiceConfig::default().solve;
    for (step, reply) in prepared.script.steps.iter().zip(&mut pass.replies) {
        match step {
            Step::Cold(i) => {
                let (inst, _, expect) = &prepared.script.pool[*i];
                if *expect == Expect::Unwitnessed && reply.verdict == Ok(None) {
                    reply.verdict = confirm_infeasible(&inst.arch, &inst.tasks, &opts);
                }
            }
            Step::Delta(i, ops) if sets_a_deadline(ops) => {
                if let Ok(answered) = reply.verdict {
                    let (inst, objective, _) = &prepared.script.pool[*i];
                    let mut tasks = inst.tasks.clone();
                    apply_deltas(&inst.arch, &mut tasks, ops).expect("checked in the pass");
                    reply.verdict = confirm_optimum(&inst.arch, &tasks, objective, &opts, answered);
                }
            }
            _ => {}
        }
    }
}

/// Replays the script over the connection, closed loop: each request is
/// sent after the previous answer was checked.
fn drive(prepared: &Prepared, stream: TcpStream) -> Vec<Reply> {
    let mut writer = stream.try_clone().expect("clone the client socket");
    let mut reader = BufReader::new(stream);
    let pool = &prepared.script.pool;
    // The checked answer of each pool instance's cold solve: `Some(None)`
    // for infeasible, `None` while unanswered or after a failed check.
    let mut base: Vec<Option<Option<i64>>> = vec![None; pool.len()];
    let mut replies = Vec::with_capacity(prepared.lines.len());
    let mut line = String::new();
    for (step, request) in prepared.script.steps.iter().zip(&prepared.lines) {
        let start = Instant::now();
        line.clear();
        let io = writer
            .write_all(request.as_bytes())
            .and_then(|_| reader.read_line(&mut line));
        let response: Result<Response, String> = match io {
            Ok(0) => Err("the server closed the connection".into()),
            Ok(_) => serde_json::from_str(&line).map_err(|e| format!("bad response: {e}")),
            Err(e) => Err(format!("i/o error: {e}")),
        };
        let (kind, i) = match step {
            Step::Cold(i) => (Kind::Cold, *i),
            Step::Hit(i, _) => (Kind::Hit, *i),
            Step::Delta(i, _) => (Kind::Delta, *i),
        };
        let mut reply = Reply {
            kind,
            latency_ms: 0.0,
            verdict: Ok(None),
            job_ms: 0.0,
            cached: false,
            warm: false,
            request_bytes: request.len(),
            response_bytes: line.len(),
        };
        reply.verdict = match response {
            Ok(Response::Result(r)) => {
                reply.job_ms = r.solve_ms as f64;
                reply.cached = r.cached;
                reply.warm = matches!(r.warm, WarmLabel::Reused | WarmLabel::Seeded);
                let (inst, objective, _) = &pool[i];
                let answer = match &r.outcome {
                    JobOutcome::Optimal {
                        cost, allocation, ..
                    } => Answer::Allocation(allocation, Some(*cost)),
                    JobOutcome::Infeasible => Answer::Infeasible,
                    other => Answer::Failed(format!("{other:?}")),
                };
                let config = optalloc::Optimizer::new(&inst.arch, &inst.tasks).analysis_config();
                match step {
                    Step::Cold(_) if r.fingerprint != prepared.fingerprints[i] => Err(format!(
                        "answered under fingerprint {}, computed {}",
                        r.fingerprint, prepared.fingerprints[i]
                    )),
                    Step::Cold(_) => {
                        let v = check(
                            &inst.arch,
                            &inst.tasks,
                            objective,
                            &config,
                            &pool[i].2,
                            answer,
                        );
                        base[i] = v.as_ref().ok().copied();
                        v
                    }
                    // A re-submission answers exactly as the original did; a
                    // WCET bump can only raise the optimum, and keeps an
                    // infeasible instance infeasible. A deadline delta is
                    // re-validated here and re-solved after the pass.
                    Step::Hit(_, permuted) => match base[i] {
                        Some(b) => check(
                            &permuted.arch,
                            &permuted.tasks,
                            objective,
                            &config,
                            &b.map_or(Expect::Infeasible, Expect::Optimum),
                            answer,
                        ),
                        None => Err("re-submission of an instance that has no answer".into()),
                    },
                    Step::Delta(_, ops) => {
                        let mut tasks = inst.tasks.clone();
                        match (apply_deltas(&inst.arch, &mut tasks, ops), base[i]) {
                            (Ok(_), Some(b)) => {
                                let expect = if sets_a_deadline(ops) {
                                    Expect::Unwitnessed
                                } else {
                                    b.map_or(Expect::Infeasible, Expect::NotBelow)
                                };
                                check(&inst.arch, &tasks, objective, &config, &expect, answer)
                            }
                            (Err(e), _) => Err(format!("delta does not apply: {e}")),
                            (_, None) => Err("delta against an instance with no answer".into()),
                        }
                    }
                }
            }
            Ok(other) => Err(format!("unexpected response: {other:?}")),
            Err(e) => Err(e),
        };
        reply.latency_ms = start.elapsed().as_secs_f64() * 1e3;
        replies.push(reply);
    }
    replies
}
