//! `optalloc-perfbench`: time to a validated, proven-optimal allocation on
//! four workloads, and the per-layer split of that time.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <large|batch|certified|service> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures with tracing off and prints the end-to-end
//! metrics; `--trace 1` alternates untraced and traced passes and prints
//! the per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for what each metric means and which layer
//! should move which end-to-end number.

mod check;
mod inputs;
mod layers;
mod service;
mod solve;
mod stats;

use layers::{Layers, SatCounts};
use stats::{median, tail};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// Groups one set-up prepares. One group takes a few milliseconds and its
/// size depends on the seed; several average over the seed's instances.
const SETUP_GROUPS: usize = 8;
/// Set-up processes before and again after the passes; `setup_s` is the
/// median of all of them. On a shared host the speed of allocation-heavy
/// set-up code differs by up to ~1.7x from one process to the next and
/// drifts over seconds, so fresh processes at both ends of the run average
/// it out.
const SETUP_PROCS: usize = 9;
/// Untraced passes every `large` run makes at least. One pass takes about
/// 15 s, near half of the run a caller asks for, so a rule based on time
/// alone would let host noise decide between one and two samples.
const LARGE_MIN_PASSES: usize = 2;
/// Allowed gap between the sum of a job's span self times and its root
/// span: 0.5% of the root plus 0.2 ms (start offsets are whole µs).
const SPAN_SUM_TOLERANCE: (f64, f64) = (0.005, 0.2);

const WORKLOADS: [&str; 4] = ["large", "batch", "certified", "service"];

/// A named, unit-tagged metric value in output order.
struct Metrics(Vec<(&'static str, &'static str, f64)>);

impl Metrics {
    fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0
            .push((name, unit, if value.is_finite() { value } else { 0.0 }));
    }
}

/// What every workload run hands back for printing.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    /// Problems that make the run incorrect without failing a single job
    /// (traced/untraced disagreement, spans that do not add up).
    inconsistencies: Vec<String>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set up, then exit: the child process [`setup_times`] times.
    setup_only: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: optalloc-perfbench --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" | "--setup-only" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                };
                if flag == "--trace" {
                    args.trace = on;
                } else {
                    args.setup_only = on;
                }
            }
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) || args.seconds <= 0.0 {
        usage();
    }
    args
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sets up groups `0..SETUP_GROUPS` as the workload's passes receive
/// them, and on `service` binds and starts a server. Returns the time
/// instance generation took, in s.
fn set_up(args: &Args) -> f64 {
    let gen_s: f64 = (0..SETUP_GROUPS)
        .map(|k| {
            if args.workload == "service" {
                service_group(args, k).1
            } else {
                solve_group(args, k).1
            }
        })
        .sum();
    if args.workload == "service" {
        service::start_server(optalloc_obs::Obs::disabled()).shutdown();
    }
    gen_s
}

/// `SETUP_PROCS` runs of this program with `--setup-only 1`: for each,
/// the time from spawning the process to its exit, in s.
fn setup_times(args: &Args) -> Vec<f64> {
    let exe = std::env::current_exe().expect("locate the benchmark executable");
    let seed = args.seed.to_string();
    (0..SETUP_PROCS)
        .map(|_| {
            let t = Instant::now();
            let status = Command::new(&exe)
                .args(["--workload", &args.workload, "--seed", &seed])
                .args(["--setup-only", "1"])
                .stdout(Stdio::null())
                .status()
                .expect("start a set-up process");
            assert!(status.success(), "a set-up process failed: {status}");
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// Resets `VmHWM` to the current resident set, so that the next reading
/// is the peak of what ran in between.
fn reset_peak_rss() {
    // Best effort: without it the reading is the process-lifetime peak.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The passes of one run: pass `i`, traced or not, ran `groups[i]`.
struct Runs<G, P> {
    groups: Vec<G>,
    plain: Vec<P>,
    traced: Vec<P>,
    /// Peak resident set of each untraced pass, in MB.
    peak_rss_mb: Vec<f64>,
}

/// Runs passes over fresh groups, untraced only or as (untraced, traced)
/// pairs of the same group: at least `min_rounds`, then for as long as
/// another round still ends within `seconds`. Making a group is not timed;
/// `confirm` finishes a pass's gate after its memory reading.
fn timed_passes<G, P>(
    seconds: f64,
    trace: bool,
    min_rounds: usize,
    mut make: impl FnMut(usize) -> G,
    mut pass: impl FnMut(&G, bool) -> P,
    mut confirm: impl FnMut(&G, &mut P),
) -> Runs<G, P> {
    let mut runs = Runs {
        groups: Vec::new(),
        plain: Vec::new(),
        traced: Vec::new(),
        peak_rss_mb: Vec::new(),
    };
    let start = Instant::now();
    for i in 0.. {
        let group = make(i);
        reset_peak_rss();
        let mut plain = pass(&group, false);
        runs.peak_rss_mb.push(peak_rss_mb());
        confirm(&group, &mut plain);
        runs.plain.push(plain);
        if trace {
            let mut traced = pass(&group, true);
            confirm(&group, &mut traced);
            runs.traced.push(traced);
        }
        runs.groups.push(group);
        let elapsed = start.elapsed().as_secs_f64();
        if i + 1 >= min_rounds && elapsed + elapsed / (i + 1) as f64 > seconds {
            return runs;
        }
    }
    unreachable!("the pass loop only ends by returning")
}

/// The end-to-end metrics of the untraced passes; `jobs` were completed
/// in the passes whose wall times are `walls`.
fn end_to_end(
    m: &mut Metrics,
    walls: &[f64],
    latencies: &[f64],
    jobs: usize,
    setup_s: f64,
    rss_mb: &[f64],
) {
    let wall_s = median(walls);
    let t = tail(latencies);
    eprintln!(
        "job_tail_ms is the p{:.1} latency: {} samples, {} beyond it",
        t.pct, t.n, t.beyond
    );
    eprintln!(
        "within-run spread (IQR/median): wall_s {:.4} over {} passes, job latency {:.4}",
        stats::spread(walls),
        walls.len(),
        stats::spread(latencies)
    );
    m.put("wall_s", "s", wall_s);
    m.put("job_p50_ms", "ms", median(latencies));
    m.put("job_tail_ms", "ms", t.value);
    m.put("jobs_per_s", "1/s", jobs as f64 / walls.iter().sum::<f64>());
    m.put("setup_s", "s", setup_s);
    m.put("peak_rss_mb", "MB", median(rss_mb));
}

/// The per-layer metrics shared by all workloads, per traced pass.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    m: &mut Metrics,
    gen_ms: f64,
    l: &Layers,
    sat: &SatCounts,
    sizes: [u64; 3],
    cert: [f64; 4],
    passes: f64,
    overhead: f64,
) {
    let per = |x: f64| x / passes;
    m.put("workloads.gen_ms", "ms", gen_ms);
    m.put("core.self_ms", "ms", per(l.core_self));
    m.put("intopt.encode_ms", "ms", per(l.encode));
    m.put("intopt.vars", "count", per(sizes[0] as f64));
    m.put("intopt.literals", "count", per(sizes[1] as f64));
    m.put("intopt.constraints", "count", per(sizes[2] as f64));
    m.put("intopt.probes", "count", per(l.probes as f64));
    m.put("intopt.first_solve_ms", "ms", per(l.first_solve));
    m.put("intopt.sat_probe_ms", "ms", per(l.sat_probe));
    m.put("intopt.unsat_probe_ms", "ms", per(l.unsat_probe));
    m.put("sat.search_ms", "ms", per(l.search));
    m.put("sat.preprocess_ms", "ms", per(l.preprocess));
    m.put("sat.conflicts", "count", per(sat.conflicts as f64));
    m.put("sat.decisions", "count", per(sat.decisions as f64));
    m.put("sat.propagations", "count", per(sat.propagations as f64));
    let search_ms = l.search_total;
    m.put(
        "sat.props_per_ms",
        "1/ms",
        if search_ms > 0.0 {
            sat.propagations as f64 / search_ms
        } else {
            0.0
        },
    );
    m.put("sat.restarts", "count", per(sat.restarts as f64));
    m.put("sat.deleted", "count", per(sat.deleted as f64));
    m.put("sat.peak_learnts", "count", sat.peak_learnts as f64);
    m.put("sat.elim_vars", "count", per(sat.elim_vars as f64));
    m.put("analysis.validate_ms", "ms", per(l.validate));
    let [certify_ms, check_ms, steps, adds] = cert;
    m.put("certify.ms", "ms", per(certify_ms));
    m.put("certify.check_ms", "ms", per(check_ms));
    m.put("certify.proof_steps", "count", per(steps));
    m.put("certify.adds_verified", "count", per(adds));
    m.put(
        "certify.steps_per_ms",
        "1/ms",
        if check_ms > 0.0 {
            steps / check_ms
        } else {
            0.0
        },
    );
    m.put("obs.overhead_frac", "frac", overhead);
    m.put("unattributed_ms", "ms", per(l.unattributed));
}

/// Service-layer metrics: zero outside the `service` workload.
#[derive(Default)]
struct ServiceLayer {
    wait_ms: f64,
    job_ms: f64,
    fingerprint_ms: f64,
    hit_ratio: f64,
    warm_ratio: f64,
    request_bytes: f64,
    response_bytes: f64,
    hit_p50_ms: f64,
    delta_p50_ms: f64,
}

fn service_metrics(m: &mut Metrics, s: &ServiceLayer) {
    m.put("service.wait_ms", "ms", s.wait_ms);
    m.put("service.job_ms", "ms", s.job_ms);
    m.put("service.fingerprint_ms", "ms", s.fingerprint_ms);
    m.put("service.hit_ratio", "frac", s.hit_ratio);
    m.put("service.warm_ratio", "frac", s.warm_ratio);
    m.put("service.request_bytes", "B", s.request_bytes);
    m.put("service.response_bytes", "B", s.response_bytes);
    m.put("service.hit_p50_ms", "ms", s.hit_p50_ms);
    m.put("service.delta_p50_ms", "ms", s.delta_p50_ms);
}

fn overhead(plain: &[f64], traced: &[f64]) -> f64 {
    median(traced) / median(plain) - 1.0
}

/// Group `k` of a solve workload, as the program receives it, with the
/// time its generation took (s).
fn solve_group(args: &Args, k: usize) -> (Vec<inputs::Job>, f64) {
    let t = Instant::now();
    let mut jobs = match args.workload.as_str() {
        "large" => inputs::large(args.seed),
        "batch" => inputs::batch(args.seed, k),
        _ => inputs::certified(args.seed),
    };
    let gen_s = t.elapsed().as_secs_f64();
    for job in &mut jobs {
        job.instance = inputs::reparse(&job.instance);
    }
    (jobs, gen_s)
}

fn run_solve(args: &Args) -> Outcome {
    let (gen_s, mut setup) = (set_up(args), setup_times(args));
    let min_rounds = if args.workload == "large" && !args.trace {
        LARGE_MIN_PASSES
    } else {
        1
    };
    let runs = timed_passes(
        args.seconds,
        args.trace,
        min_rounds,
        |k| solve_group(args, k).0,
        |jobs: &Vec<inputs::Job>, traced| solve::run_pass(jobs, traced),
        |jobs, pass| solve::confirm(jobs, pass),
    );
    setup.extend(setup_times(args));
    let setup_s = median(&setup);
    let (plain, traced) = (&runs.plain, &runs.traced);
    let group = |i: usize| &runs.groups[i];

    let mut out = Outcome {
        metrics: Metrics(Vec::new()),
        attempted: 0,
        failed: 0,
        inconsistencies: Vec::new(),
    };
    for (i, pass) in plain.iter().enumerate().chain(traced.iter().enumerate()) {
        for (job, run) in group(i).iter().zip(&pass.jobs) {
            out.attempted += 1;
            if let Err(e) = &run.verdict {
                out.failed += 1;
                eprintln!("FAILED {}: {e}", job.label);
            }
        }
    }
    let walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    if !args.trace {
        // `large` and `certified` repeat one fixed group: each job is one
        // sample, the median of its passes, so that the sample count (and
        // with it the tail rule) does not depend on how many passes fit.
        let latencies: Vec<f64> = if matches!(args.workload.as_str(), "large" | "certified") {
            (0..plain[0].jobs.len())
                .map(|j| {
                    median(
                        &plain
                            .iter()
                            .map(|p| p.jobs[j].latency_ms)
                            .collect::<Vec<_>>(),
                    )
                })
                .collect()
        } else {
            plain
                .iter()
                .flat_map(|p| p.jobs.iter().map(|j| j.latency_ms))
                .collect()
        };
        let jobs = plain.iter().map(|p| p.jobs.len()).sum();
        end_to_end(
            &mut out.metrics,
            &walls,
            &latencies,
            jobs,
            setup_s,
            &runs.peak_rss_mb,
        );
        return out;
    }

    // Traced and untraced runs of the same Single-strategy search must
    // agree exactly; the spans of each traced job must add up.
    let mut l = Layers::default();
    let mut sat = SatCounts::default();
    let (mut sizes, mut cert) = ([0u64; 3], [0.0f64; 4]);
    for (i, (p, t)) in plain.iter().zip(traced).enumerate() {
        cert[1] += t.check_ms;
        for ((job, a), b) in group(i).iter().zip(&p.jobs).zip(&t.jobs) {
            let key = |r: &solve::JobRun| (r.verdict.clone().ok(), r.solve_calls, r.conflicts);
            if key(a) != key(b) {
                out.inconsistencies.push(format!(
                    "{}: untraced (cost, probes, conflicts) {:?} != traced {:?}",
                    job.label,
                    key(a),
                    key(b)
                ));
            }
            let (jl, js) = b.traced.as_ref().expect("traced pass records layers");
            let (rel, abs) = SPAN_SUM_TOLERANCE;
            if (jl.span_sum - b.latency_ms).abs() > rel * b.latency_ms + abs {
                out.inconsistencies.push(format!(
                    "{}: span self times sum to {:.3} ms, job took {:.3} ms",
                    job.label, jl.span_sum, b.latency_ms
                ));
            }
            if b.solve_calls > 0 && js.conflicts != b.conflicts {
                out.inconsistencies.push(format!(
                    "{}: registry counts {} conflicts, report {}",
                    job.label, js.conflicts, b.conflicts
                ));
            }
            l.absorb(jl);
            sat.absorb(js);
            for (s, x) in sizes.iter_mut().zip(b.sizes) {
                *s += x;
            }
            if let Some((_, [steps, adds])) = &b.certificate {
                cert[2] += *steps as f64;
                cert[3] += *adds as f64;
            }
        }
    }
    cert[0] = l.certify;
    let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
    layer_metrics(
        &mut out.metrics,
        gen_s * 1e3,
        &l,
        &sat,
        sizes,
        cert,
        traced.len() as f64,
        overhead(&walls, &traced_walls),
    );
    service_metrics(&mut out.metrics, &ServiceLayer::default());
    out
}

/// Group `k` of the service workload, serialized, with the time its
/// generation took (s).
fn service_group(args: &Args, k: usize) -> (service::Prepared, f64) {
    let t = Instant::now();
    let script = inputs::service(args.seed, k);
    let gen_s = t.elapsed().as_secs_f64();
    (service::prepare(script), gen_s)
}

fn run_service(args: &Args) -> Outcome {
    let (gen_s, mut setup) = (set_up(args), setup_times(args));
    // One untraced server for the whole run, as a deployed service lives,
    // and a traced one beside it on traced runs; every group brings new
    // instances, so the cache only answers the group's own re-submissions.
    let plain_server = service::Served::start(false);
    let traced_server = args.trace.then(|| service::Served::start(true));
    let runs = timed_passes(
        args.seconds,
        args.trace,
        1,
        |k| service_group(args, k).0,
        |group, traced| {
            let served = if traced {
                traced_server
                    .as_ref()
                    .expect("traced runs start a traced server")
            } else {
                &plain_server
            };
            service::run_pass(group, served)
        },
        service::confirm,
    );
    setup.extend(setup_times(args));
    let setup_s = median(&setup);
    let traced_split = traced_server.as_ref().map(|s| s.layers());
    for mut s in std::iter::once(plain_server).chain(traced_server) {
        s.server.shutdown();
    }
    let (plain, traced) = (&runs.plain, &runs.traced);

    let mut out = Outcome {
        metrics: Metrics(Vec::new()),
        attempted: 0,
        failed: 0,
        inconsistencies: Vec::new(),
    };
    for pass in plain.iter().chain(traced) {
        for (k, r) in pass.replies.iter().enumerate() {
            out.attempted += 1;
            if let Err(e) = &r.verdict {
                out.failed += 1;
                eprintln!("FAILED request {k} ({:?}): {e}", r.kind);
            }
        }
    }
    let walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    let all: Vec<&service::Reply> = plain.iter().flat_map(|p| &p.replies).collect();
    let latency = |f: &dyn Fn(&service::Reply) -> bool| -> Vec<f64> {
        all.iter().filter(|r| f(r)).map(|r| r.latency_ms).collect()
    };
    for kind in [
        service::Kind::Cold,
        service::Kind::Hit,
        service::Kind::Delta,
    ] {
        let of_kind = latency(&|r| r.kind == kind);
        eprintln!(
            "{kind:?}: {} requests, median {:.2} ms, total {:.0} ms",
            of_kind.len(),
            median(&of_kind),
            of_kind.iter().sum::<f64>()
        );
    }
    if !args.trace {
        end_to_end(
            &mut out.metrics,
            &walls,
            &latency(&|_| true),
            all.len(),
            setup_s,
            &runs.peak_rss_mb,
        );
        return out;
    }

    // Optima must not depend on tracing. Replies carry no search
    // counters, so only the answers are compared.
    for (p, t) in plain.iter().zip(traced) {
        for (k, (x, y)) in p.replies.iter().zip(&t.replies).enumerate() {
            if x.verdict.as_ref().ok() != y.verdict.as_ref().ok() {
                out.inconsistencies.push(format!(
                    "request {k}: untraced {:?} != traced {:?}",
                    x.verdict, y.verdict
                ));
            }
        }
    }
    let mean = |xs: Vec<f64>| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let ratio = |kind: service::Kind, f: &dyn Fn(&service::Reply) -> bool| {
        let of_kind: Vec<_> = all.iter().filter(|r| r.kind == kind).collect();
        of_kind.iter().filter(|r| f(r)).count() as f64 / of_kind.len().max(1) as f64
    };
    let svc = ServiceLayer {
        wait_ms: mean(all.iter().map(|r| r.latency_ms - r.job_ms).collect()),
        job_ms: mean(all.iter().map(|r| r.job_ms).collect()),
        fingerprint_ms: mean(runs.groups.iter().map(|g| g.fingerprint_ms).collect()),
        hit_ratio: ratio(service::Kind::Hit, &|r| r.cached),
        warm_ratio: ratio(service::Kind::Delta, &|r| r.warm),
        request_bytes: mean(all.iter().map(|r| r.request_bytes as f64).collect()),
        response_bytes: mean(all.iter().map(|r| r.response_bytes as f64).collect()),
        hit_p50_ms: median(&latency(&|r| r.kind == service::Kind::Hit && r.cached)),
        delta_p50_ms: median(&latency(&|r| r.kind == service::Kind::Delta)),
    };
    let (l, sat) = traced_split.expect("traced runs start a traced server");
    let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
    // Encoding sizes, certificates and the benchmark-side split are not
    // visible through the wire protocol; they stay zero here.
    layer_metrics(
        &mut out.metrics,
        gen_s * 1e3,
        &l,
        &sat,
        [0; 3],
        [l.certify, 0.0, 0.0, 0.0],
        traced.len() as f64,
        overhead(&walls, &traced_walls),
    );
    service_metrics(&mut out.metrics, &svc);
    out
}

fn main() {
    let args = parse_args();
    if args.setup_only {
        set_up(&args);
        return;
    }
    let out = if args.workload == "service" {
        run_service(&args)
    } else {
        run_solve(&args)
    };
    for problem in &out.inconsistencies {
        eprintln!("INCONSISTENT {problem}");
    }
    eprintln!(
        "failed_frac = {} ({} of {} jobs)",
        stats::failed_frac(out.failed, out.attempted),
        out.failed,
        out.attempted
    );
    let metrics: Vec<String> = out
        .metrics
        .0
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.inconsistencies.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}
