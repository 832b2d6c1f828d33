//! The repository benchmark: Owan controller slot throughput, plan
//! latency and plan quality on three workloads, plus a traced run that
//! splits the time by layer from the outside.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload isp-owan --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`); a human-readable report
//! goes to standard error and, for traced runs, with the spans to
//! `perfbench/out/`. The exit code is 0 when every output check passed,
//! 1 when one failed, and 2 on bad arguments.

mod args;
mod layers;
mod metrics;
mod speed;
mod stats;
mod trace;
mod workloads;

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::workloads::{run_pass, Instance, Outcome, Pass, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 31;

/// Instances the traced run covers (the first ones of the run); the
/// per-layer split needs no more, and the cap bounds the traced run's
/// length on the costliest workload.
const TRACED_INSTANCES: usize = 2;

/// Obs counters that are deterministic work counts, gated for equality
/// between passes over the same instance.
const EXACT_COUNTERS: &[&str] = &[
    "anneal.cache_hit",
    "anneal.cache_miss",
    "anneal.cache_miss.cold",
    "anneal.cache_miss.flush",
    "circuits.shortest_path_calls",
    "circuits.built",
    "circuits.wavelength_failures",
    "rates.paths_examined",
    "rates.delta_evals",
    "rates.full_evals",
];

fn main() {
    let args = match args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds N --trace 0|1");
            std::process::exit(2);
        }
    };
    let (result, catalogue) = if args.trace {
        (run_traced(&args), PER_LAYER)
    } else {
        (run_untraced(&args), END_TO_END)
    };
    match result.to_json(catalogue) {
        Ok(line) => {
            println!("{line}");
            if !result.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: FAIL: {e}");
            std::process::exit(1);
        }
    }
}

/// Generates the run's instances and constructs their engines
/// [`SETUP_REPEATS`] times; returns the instances and the median set-up
/// time in seconds.
fn setup(args: &args::Args) -> (Vec<Instance>, f64) {
    let seeds = args.workload.instance_seeds(args.seed);
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut speed = speed::Speed::default();
    let mut instances = Vec::new();
    for _ in 0..SETUP_REPEATS {
        speed.sample();
        let start = Instant::now();
        instances = seeds
            .iter()
            .map(|&s| Instance::generate(args.workload, s))
            .collect();
        for inst in &instances {
            let log = workloads::Log::default();
            std::hint::black_box(inst.engine(&inst.network.plant, &log));
        }
        times.push(start.elapsed().as_secs_f64());
    }
    speed.sample();
    let scaled: Vec<f64> = times
        .iter()
        .enumerate()
        .map(|(i, t)| t * speed.factor_at(i))
        .collect();
    eprintln!(
        "setup: median {:.6} s unscaled, {SETUP_REPEATS} repeats",
        stats::median(&times).expect("SETUP_REPEATS > 0")
    );
    (
        instances,
        stats::median(&scaled).expect("SETUP_REPEATS > 0"),
    )
}

/// Checks and counts passes: the same instance must repeat its outcome
/// exactly, and a pass must not stop on a `plan_error` or a failed audit.
/// A pass is one operation; transfers a pass leaves unfinished are a
/// result of it (`finished_frac`), not a failed operation.
struct Ledger {
    first: Vec<Option<Outcome>>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Ledger {
    fn new(k: usize) -> Self {
        Ledger {
            first: vec![None; k],
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    fn book(&mut self, i: usize, inst: &Instance, pass: &Pass) {
        let o = &pass.outcome;
        self.attempted += 1;
        let mut failed = false;
        if o.unfinished() > 0 && self.first[i].is_none() {
            eprintln!(
                "perfbench: instance seed {}: {} of {} transfers unfinished after {} slots",
                inst.seed,
                o.unfinished(),
                inst.requests.len(),
                o.slots
            );
        }
        if let Some(e) = &o.error {
            failed = true;
            self.errors
                .push(format!("instance seed {}: {e}", inst.seed));
        }
        match &self.first[i] {
            None => self.first[i] = Some(o.clone()),
            Some(f) if f != o => {
                failed = true;
                self.errors.push(format!(
                    "instance seed {}: a repeated pass gave different results",
                    inst.seed
                ));
            }
            Some(_) => {}
        }
        self.failed += u64::from(failed);
    }

    fn outcomes(&self) -> Vec<&Outcome> {
        self.first.iter().flatten().collect()
    }
}

/// Median over instances of a per-instance figure. Each instance is an
/// independent input; under chaos an instance's p95 completion time
/// varies several-fold with where its faults strike, and the median
/// keeps one extreme instance from moving the run's figure.
fn instance_median(outcomes: &[&Outcome], f: impl Fn(&Outcome) -> f64) -> f64 {
    let per: Vec<f64> = outcomes.iter().map(|o| f(o)).collect();
    stats::median(&per).unwrap_or(f64::NAN)
}

/// Completion times, relative to arrival, of the transfers that finished.
fn completion_times(o: &Outcome) -> Vec<f64> {
    o.completions
        .iter()
        .filter_map(|c| c.completion_time_s())
        .collect()
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn run_untraced(args: &args::Args) -> metrics::Result {
    let (instances, setup_s) = setup(args);
    let k = instances.len();
    let budget = Duration::from_secs(args.seconds);
    let mut ledger = Ledger::new(k);
    let mut plan_ms: Vec<f64> = Vec::new();
    let mut raw_plan_ms: Vec<f64> = Vec::new();
    let (mut wall_s, mut raw_wall_s) = (0.0, 0.0);
    let mut refs: Vec<f64> = Vec::new();
    let mut passes = 0usize;
    let start = Instant::now();
    // Round-robin over the instances until the window is spent; at least
    // one instance runs twice so every run checks repeatability.
    while passes <= k || start.elapsed() < budget {
        let i = passes % k;
        let pass = run_pass(&instances[i], None);
        ledger.book(i, &instances[i], &pass);
        let speed = &pass.log.speed;
        refs.extend(speed.samples.iter().map(|&ns| ns as f64));
        for (i, &ns) in pass.log.plan_ns.iter().enumerate() {
            raw_plan_ms.push(ns as f64 / 1e6);
            plan_ms.push(ns as f64 / 1e6 * speed.factor_at(i));
        }
        raw_wall_s += pass.wall_ns as f64 / 1e9;
        wall_s += pass.wall_ns as f64 / 1e9 * speed.factor();
        passes += 1;
    }
    let outcomes = ledger.outcomes();
    let tail = stats::tail(&plan_ms);
    let mut correct = ledger.errors.is_empty();
    for e in &ledger.errors {
        eprintln!("perfbench: FAIL: {e}");
    }
    if tail.is_none() {
        eprintln!(
            "perfbench: FAIL: {} slots are too few for a tail",
            plan_ms.len()
        );
        correct = false;
    }
    let rss = peak_rss_mb();
    if rss.is_none() {
        eprintln!("perfbench: FAIL: cannot read peak resident memory");
        correct = false;
    }
    let tail = tail.unwrap_or(stats::Tail {
        value: f64::NAN,
        percentile: 0.0,
        samples: plan_ms.len(),
    });
    eprintln!(
        "{}: seed {} instances {:?}; {passes} passes, {} slots in {raw_wall_s:.2} s; \
         plan_ms_tail is p{:.1} of {} slots",
        args.workload.name(),
        args.seed,
        args.workload.instance_seeds(args.seed),
        plan_ms.len(),
        tail.percentile,
        tail.samples
    );
    eprintln!(
        "unscaled: slots_per_s {:.4}, plan_ms_p50 {:.4}, plan_ms_tail {:.4}; \
         reference kernel median {:.0} ns over {} samples",
        raw_plan_ms.len() as f64 / raw_wall_s,
        stats::median(&raw_plan_ms).unwrap_or(f64::NAN),
        stats::tail(&raw_plan_ms).map_or(f64::NAN, |t| t.value),
        stats::median(&refs).unwrap_or(f64::NAN),
        refs.len()
    );
    let pooled_times: Vec<f64> = outcomes.iter().flat_map(|o| completion_times(o)).collect();
    for (seed, o) in args
        .workload
        .instance_seeds(args.seed)
        .iter()
        .zip(&outcomes)
    {
        let times = completion_times(o);
        eprintln!(
            "instance {seed}: {} finished, avg {:.3} s, p95 {:.3} s, makespan {:.3} s",
            times.len(),
            mean(times.iter().copied()),
            stats::nearest_rank(&times, 95.0).unwrap_or(f64::NAN),
            o.makespan_s()
        );
    }
    metrics::Result {
        correct,
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics: vec![
            ("setup_s", setup_s),
            ("slots_per_s", plan_ms.len() as f64 / wall_s),
            ("plan_ms_p50", stats::median(&plan_ms).unwrap_or(f64::NAN)),
            ("plan_ms_tail", tail.value),
            ("peak_rss_mb", rss.unwrap_or(f64::NAN)),
            ("avg_completion_s", mean(pooled_times.iter().copied())),
            (
                "p95_completion_s",
                instance_median(&outcomes, |o| {
                    stats::nearest_rank(&completion_times(o), 95.0).unwrap_or(f64::NAN)
                }),
            ),
            ("makespan_s", mean(outcomes.iter().map(|o| o.makespan_s()))),
            (
                "delivered_gbits",
                mean(outcomes.iter().map(|o| o.delivered_gbits)),
            ),
            (
                "finished_frac",
                ratio(
                    outcomes.iter().map(|o| o.finished() as f64).sum(),
                    instances.iter().map(|i| i.requests.len() as f64).sum(),
                ),
            ),
        ],
    }
}

/// Σ `plan_slot` time of one pass, ms, each slot scaled for machine speed.
fn scaled_plan_ms(pass: &Pass) -> f64 {
    let speed = &pass.log.speed;
    pass.log
        .plan_ns
        .iter()
        .enumerate()
        .map(|(i, &ns)| ns as f64 / 1e6 * speed.factor_at(i))
        .sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn run_traced(args: &args::Args) -> metrics::Result {
    let (mut instances, _) = setup(args);
    instances.truncate(TRACED_INSTANCES);
    let k = instances.len();
    let budget = Duration::from_secs(args.seconds);
    let tracer = Tracer::default();
    let mut ledger = Ledger::new(k);
    let mut kept: Vec<Option<Pass>> = (0..k).map(|_| None).collect();
    let mut exact: Vec<Option<(BTreeMap<&str, u64>, owan_core::EnergyCacheStats)>> = vec![None; k];
    let mut overheads: Vec<f64> = Vec::new();
    let (mut plan_ms_sum, mut loop_ms_sum) = (0.0, 0.0);
    let start = Instant::now();
    let mut round = 0usize;
    // Untraced and traced passes alternate (which goes first alternates by
    // round and instance) until the window is spent; at least one round.
    while round == 0 || start.elapsed() < budget {
        for (i, inst) in instances.iter().enumerate() {
            let mut pair = [None, None];
            let traced_first = !(round + i).is_multiple_of(2);
            for traced in [traced_first, !traced_first] {
                let pass = run_pass(inst, traced.then_some(&tracer));
                ledger.book(i, inst, &pass);
                pair[traced as usize] = Some(pass);
            }
            let [Some(plain), Some(traced)] = pair else {
                unreachable!("both passes ran")
            };
            let sps = |p: &Pass| {
                p.log.plan_ns.len() as f64 / (p.wall_ns as f64 / 1e9 * p.log.speed.factor())
            };
            overheads.push(sps(&plain) / sps(&traced) - 1.0);
            if round == 0 {
                let raw_plan: u64 = plain.log.plan_ns.iter().sum();
                plan_ms_sum += scaled_plan_ms(&plain);
                loop_ms_sum +=
                    plain.wall_ns.saturating_sub(raw_plan) as f64 / 1e6 * plain.log.speed.factor();
            }
            let counts: BTreeMap<&str, u64> = EXACT_COUNTERS
                .iter()
                .map(|&n| (n, traced.counters.get(n).copied().unwrap_or(0)))
                .collect();
            let this = (counts, traced.log.cache_stats);
            match &exact[i] {
                None => exact[i] = Some(this),
                Some(first) if *first != this => ledger.errors.push(format!(
                    "instance seed {}: exact work counts differ between passes",
                    inst.seed
                )),
                Some(_) => {}
            }
            if kept[i].is_none() {
                kept[i] = Some(traced);
            }
        }
        round += 1;
    }

    let mut replays = layers::Replays::default();
    for (inst, pass) in instances.iter().zip(kept.iter().flatten()) {
        if let Err(e) = layers::replay(inst, pass, &tracer, &mut replays) {
            ledger
                .errors
                .push(format!("instance seed {}: replay: {e}", inst.seed));
        }
    }
    let passes: Vec<&Pass> = kept.iter().flatten().collect();
    let counter = |name: &str| -> f64 {
        passes
            .iter()
            .map(|p| p.counters.get(name).copied().unwrap_or(0))
            .sum::<u64>() as f64
    };
    let mut cache = owan_core::EnergyCacheStats::default();
    for p in &passes {
        cache.merge(&p.log.cache_stats);
    }
    let chaos = passes.iter().filter_map(|p| p.outcome.chaos).fold(
        owan_chaos::ChaosStats::default(),
        |mut a, s| {
            a.faults_detected += s.faults_detected;
            a.crashes += s.crashes;
            a.fallback_slots += s.fallback_slots;
            a.op_retries += s.op_retries;
            a.op_aborts += s.op_aborts;
            a
        },
    );
    let is_chaos = args.workload == Workload::InterdcChaos;
    let runner_ops: u64 = passes.iter().map(|p| p.outcome.update_ops as u64).sum();
    if is_chaos && runner_ops != replays.update_ops {
        ledger.errors.push(format!(
            "re-planned updates hold {} ops, the runner scheduled {runner_ops}",
            replays.update_ops
        ));
    }
    let outcomes: Vec<&Outcome> = passes.iter().map(|p| &p.outcome).collect();
    let with_deadline: Vec<_> = outcomes
        .iter()
        .flat_map(|o| o.completions.iter().filter(|c| c.deadline_s.is_some()))
        .collect();
    let met = with_deadline.iter().filter(|c| c.met_deadline()).count();
    let admitted: usize = instances.iter().map(|i| i.requests.len()).sum();
    let unfinished: usize = outcomes
        .iter()
        .map(|o| o.unfinished() + usize::from(o.error.is_some()))
        .sum();
    let evals = counter("anneal.cache_hit") + counter("anneal.cache_miss");
    let built = counter("circuits.built");
    let wl_fail = counter("circuits.wavelength_failures");
    let rates_delta = counter("rates.delta_evals");

    let metrics = vec![
        ("core.engine.plan_ms_sum", plan_ms_sum),
        ("sim.loop_ms", loop_ms_sum),
        ("core.anneal.evals", evals),
        (
            "core.anneal.evals_per_s",
            ratio(evals, replays.anneal.ns / 1e9),
        ),
        (
            "core.cache.outcome_hit_rate",
            ratio(counter("anneal.cache_hit"), evals),
        ),
        (
            "core.cache.relay_hit_rate",
            ratio(
                cache.relay_hits as f64,
                (cache.relay_hits + cache.relay_misses) as f64,
            ),
        ),
        ("core.cache.miss.cold", counter("anneal.cache_miss.cold")),
        ("core.cache.miss.flush", counter("anneal.cache_miss.flush")),
        ("core.circuits.build_ms", replays.circuits.mean_ms()),
        (
            "core.circuits.shortest_path_calls",
            counter("circuits.shortest_path_calls"),
        ),
        ("core.regen.build_us", replays.regen.mean_ms() * 1e3),
        ("graph.yen_us", replays.yen.mean_ms() * 1e3),
        ("optical.provision_us", replays.provision.mean_ms() * 1e3),
        ("optical.circuits_built", built),
        ("optical.wavelength_failures", wl_fail),
        (
            "optical.wavelength_fail_frac",
            ratio(wl_fail, built + wl_fail),
        ),
        ("core.rates.assign_ms", replays.rates.mean_ms()),
        ("core.rates.paths_examined", counter("rates.paths_examined")),
        (
            "core.rates.delta_frac",
            ratio(rates_delta, rates_delta + counter("rates.full_evals")),
        ),
        ("update.plan_ms", replays.update.mean_ms()),
        ("update.exec_us", replays.exec.mean_ms() * 1e3),
        (
            "update.ops",
            if is_chaos {
                runner_ops
            } else {
                replays.update_ops
            } as f64,
        ),
        ("update.op_retries", chaos.op_retries as f64),
        ("update.op_aborts", chaos.op_aborts as f64),
        ("chaos.faults_detected", chaos.faults_detected as f64),
        ("chaos.crashes", chaos.crashes as f64),
        ("chaos.fallback_slots", chaos.fallback_slots as f64),
        (
            "chaos.lost_gbits",
            mean(outcomes.iter().map(|o| o.lost_gbits)),
        ),
        ("te.build_mcf_ms", replays.mcf.mean_ms()),
        ("solver.lp_ms", replays.lp.mean_ms()),
        (
            "sim.deadlines_met_frac",
            ratio(met as f64, with_deadline.len() as f64),
        ),
        (
            "sim.unfinished_frac",
            ratio(unfinished as f64, admitted as f64),
        ),
        (
            "bench.trace_overhead",
            stats::median(&overheads).unwrap_or(f64::NAN),
        ),
    ];

    // The annealing time split by layer: each layer's loop work count times
    // its isolated cost per call. Rate passes answered incrementally are
    // not priced and stay in the annealer's own share.
    let loop_plan_ms: f64 = passes.iter().map(|p| scaled_plan_ms(p)).sum();
    let spc = counter("circuits.shortest_path_calls");
    let anneal_ms = replays.anneal.ns / 1e6;
    let mut split = vec![
        ("core.regen", spc * replays.regen.mean_ms()),
        ("graph", spc * replays.yen.mean_ms()),
        ("optical", (built + wl_fail) * replays.provision.mean_ms()),
        (
            "core.rates",
            counter("rates.full_evals") * replays.rates.mean_ms(),
        ),
    ];
    let priced: f64 = split.iter().map(|r| r.1).sum();
    split.push(("core.anneal", anneal_ms - priced));
    split.sort_by(|a, b| b.1.total_cmp(&a.1));
    let split = if replays.anneal.calls > 0 {
        Some(Split {
            anneal_ms,
            plan_ms: loop_plan_ms,
            rows: split,
        })
    } else {
        None
    };
    let report = layer_report(args, &tracer, &metrics, &replays, &overheads, round, split);
    eprint!("{report}");
    if let Err(e) = write_outputs(args, &tracer, &report) {
        ledger.errors.push(format!("writing the trace: {e}"));
    }
    for e in &ledger.errors {
        eprintln!("perfbench: FAIL: {e}");
    }
    metrics::Result {
        correct: ledger.errors.is_empty(),
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
    }
}

/// The replayed annealing time split by layer, next to the in-loop plan
/// time it replays.
struct Split {
    anneal_ms: f64,
    plan_ms: f64,
    rows: Vec<(&'static str, f64)>,
}

/// The traced run's report: layers ranked by self time, the overhead of
/// tracing, and every per-layer number.
fn layer_report(
    args: &args::Args,
    tracer: &Tracer,
    metrics: &[(&str, f64)],
    replays: &layers::Replays,
    overheads: &[f64],
    rounds: usize,
    split: Option<Split>,
) -> String {
    let spans = tracer.spans();
    let rows = trace::self_times(&spans);
    let total: u64 = rows.iter().map(|r| r.2).sum();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} seed {} (nproc {}): layers by self time over {} spans, {rounds} rounds",
        args.workload.name(),
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        spans.len()
    );
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>12} {:>7}",
        "layer", "self_ms", "total_ms", "share"
    );
    for (name, tot, own) in &rows {
        let _ = writeln!(
            out,
            "{name:<16} {:>12.3} {:>12.3} {:>6.1}%",
            *own as f64 / 1e6,
            *tot as f64 / 1e6,
            100.0 * ratio(*own as f64, total as f64)
        );
    }
    let calls = [
        ("core.anneal", replays.anneal),
        ("core.circuits", replays.circuits),
        ("core.regen", replays.regen),
        ("graph", replays.yen),
        ("optical", replays.provision),
        ("core.rates", replays.rates),
        ("update", replays.update),
        ("update.exec", replays.exec),
        ("te", replays.mcf),
        ("solver", replays.lp),
    ];
    let _ = writeln!(out, "isolated replays: calls and mean time per call");
    for (name, t) in calls {
        let _ = writeln!(
            out,
            "{name:<16} {:>8} calls {:>12.4} ms",
            t.calls,
            t.mean_ms()
        );
    }
    if let Some(Split {
        anneal_ms,
        plan_ms,
        rows,
    }) = split
    {
        let _ = writeln!(
            out,
            "anneal replays {anneal_ms:.1} ms ({:.2}x the in-loop plan time {plan_ms:.1} ms), \
             split by layer as loop count x isolated cost per call:",
            ratio(anneal_ms, plan_ms)
        );
        for (name, ms) in rows {
            let _ = writeln!(
                out,
                "{name:<16} {ms:>12.3} ms {:>6.1}%",
                100.0 * ratio(ms, anneal_ms)
            );
        }
    }
    let q = |p: f64| stats::quantile(overheads, p).unwrap_or(f64::NAN);
    let _ = writeln!(
        out,
        "trace overhead (untraced/traced slots_per_s - 1): median {:.4}, quartiles {:.4}..{:.4}, {} pairs",
        q(0.5),
        q(0.25),
        q(0.75),
        overheads.len()
    );
    for (name, value) in metrics {
        let _ = writeln!(out, "{name} = {value}");
    }
    out
}

/// Writes the spans and the report under `perfbench/out/`.
fn write_outputs(args: &args::Args, tracer: &Tracer, report: &str) -> std::io::Result<()> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir)?;
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    std::fs::write(
        dir.join(format!("{stem}.spans.jsonl")),
        trace::to_jsonl(&tracer.spans()),
    )?;
    std::fs::write(dir.join(format!("{stem}.report.txt")), report)
}
