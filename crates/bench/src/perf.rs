//! The annealing fast-path benchmark behind `BENCH_anneal.json`.
//!
//! Three measurements, all at *fixed search quality* — every accelerated
//! configuration is asserted to produce bit-identical results to the naive
//! reference before its timing is reported:
//!
//! 1. **Energy-evaluation rate** — one annealing run on the ISP backbone,
//!    naive vs cached, reporting energy-evals/sec, the
//!    `circuits.shortest_path_calls` counts (the ≥5× reduction target),
//!    the relay-search hit rate (`cache_hit_rate`), and the outcome-memo
//!    hit rate (`outcome_hit_rate`).
//! 2. **Pipeline wall clock** — the Fig 10(d)-style inter-DC simulation at
//!    a fixed iteration budget, cache off vs on (the ≥2× speedup target),
//!    plus slots/sec.
//! 3. **Multi-chain scaling** — N independently-seeded chains run
//!    sequentially vs through [`anneal_parallel`], same best-of result.
//!
//! Output is a flat JSON object so the CI smoke job can grep a single key
//! against the checked-in baseline without a JSON parser.

use crate::scale::{net_by_name, workload_for, Scale};
use owan_core::{
    anneal_parallel_pooled, anneal_with_cache, chain_seed, default_topology, AnnealConfig,
    AnnealResult, CircuitBuildConfig, CoreTelemetry, EnergyCache, EnergyCacheStats, EnergyContext,
    Profiler, RateAssignConfig, SchedulingPolicy, Topology, Transfer,
};
use owan_obs::Recorder;
use owan_scope::{ScopeConfig, ScopeRecorder};
use owan_sim::runner::{run_engine_probed, EngineKind, RunnerConfig};
use owan_sim::sim::SimResult;
use owan_sim::{Probes, SimConfig};
use std::time::Instant;

/// Everything one benchmark run measured. Field names match the JSON keys.
#[derive(Debug, Clone)]
pub struct AnnealBenchReport {
    /// Scale label ("quick" or "full").
    pub scale: String,
    /// Git commit the benchmark binary was built from (short hash, or
    /// `"unknown"` outside a git checkout) — perf numbers without a commit
    /// are not comparable across time.
    pub commit: String,
    /// Annealing iterations per run.
    pub iterations: usize,
    /// Chains used in the multi-chain measurement.
    pub chains: usize,
    /// CPU cores visible to the benchmark (`available_parallelism`).
    /// `chains_speedup` below 1.0 is expected when this is 1: the scoped
    /// threads only add spawn overhead on a single core.
    pub cores: usize,
    /// Naive single-run wall time, seconds (ISP).
    pub naive_wall_s: f64,
    /// Naive energy evaluations per second.
    pub naive_evals_per_s: f64,
    /// Naive `circuits.shortest_path_calls`.
    pub naive_shortest_path_calls: u64,
    /// Cached single-run wall time, seconds (ISP).
    pub fast_wall_s: f64,
    /// Cached energy evaluations per second.
    pub fast_evals_per_s: f64,
    /// Cached `circuits.shortest_path_calls`.
    pub fast_shortest_path_calls: u64,
    /// `naive_shortest_path_calls / fast_shortest_path_calls`.
    pub shortest_path_reduction: f64,
    /// `naive_wall_s / fast_wall_s` for the single run.
    pub eval_speedup: f64,
    /// Relay-search hit rate over the cached run:
    /// `relay_hits / (relay_hits + relay_misses)`, the share of circuit
    /// requests the lazy first-path search settled without building a
    /// `RegenGraph` and running Yen. This is the layer that removes the
    /// expensive work — an annealing walk rarely revisits whole
    /// topologies, so the outcome memo alone cannot carry the fast path.
    pub cache_hit_rate: f64,
    /// Outcome-memo hit rate over the cached run's evaluations (whole
    /// revisited topologies answered without Algorithm 3).
    pub outcome_hit_rate: f64,
    /// Fig 10(d)-style pipeline wall, cache off, seconds (inter-DC).
    pub pipeline_naive_wall_s: f64,
    /// Same pipeline with the cache on.
    pub pipeline_fast_wall_s: f64,
    /// `pipeline_naive_wall_s / pipeline_fast_wall_s`.
    pub pipeline_speedup: f64,
    /// Same pipeline (cache on) with telemetry enabled but the flight
    /// recorder off, seconds (best of 3).
    pub pipeline_obs_wall_s: f64,
    /// Same pipeline with telemetry and the flight recorder both
    /// attached, seconds (best of 3).
    pub pipeline_scope_wall_s: f64,
    /// `pipeline_scope_wall_s / pipeline_obs_wall_s - 1` — the flight
    /// recorder's own enabled-path overhead on top of telemetry
    /// (fraction; the target is < 0.05).
    pub scope_overhead: f64,
    /// Same pipeline with telemetry and the region profiler attached,
    /// seconds (best of 3).
    pub pipeline_prof_wall_s: f64,
    /// `pipeline_prof_wall_s / pipeline_obs_wall_s - 1` — the profiler's
    /// enabled-path overhead on top of telemetry (fraction; the target is
    /// < 0.05, recorded alongside `scope_overhead`).
    pub prof_overhead: f64,
    /// Slots simulated by the pipeline.
    pub pipeline_slots: usize,
    /// Slots per second with the cache on.
    pub pipeline_slots_per_s: f64,
    /// Wall time of the N chains run back to back, seconds.
    pub chains_seq_wall_s: f64,
    /// Wall time of the same N chains through `anneal_parallel`.
    pub chains_par_wall_s: f64,
    /// `chains_seq_wall_s / chains_par_wall_s`.
    pub chains_speedup: f64,
    /// Summed per-chain busy time inside the parallel run, seconds
    /// (from the `anneal.parallel.busy_ns` counter).
    pub chains_busy_s: f64,
    /// `chains_busy_s / chains_par_wall_s` — how many chains were alive
    /// per wall second. Near `chains` means the spawn/join window was
    /// fully overlapped (whether or not the hardware ran them
    /// concurrently); below it, spawn latency or skew left gaps.
    pub chains_concurrency: f64,
    /// `chains_speedup / min(chains, cores)` — achieved fraction of the
    /// hardware speedup ceiling. On a single core the ceiling is 1× and
    /// this directly reads off the spawn/scheduling tax behind a 0.95×
    /// "speedup"; on real parallel hardware it reads off scaling loss.
    pub chains_utilization: f64,
    /// Cache-miss attribution from the cached single run, one count per
    /// [`owan_core::MissReason`] slug (evaluation-level; sums to the
    /// outcome-miss total).
    pub miss_by_reason: [(&'static str, u64); 2],
    /// The dominant attributed miss cause (slug) and its count.
    pub miss_dominant: (String, u64),
    /// Comparability caveats baked into the report itself (e.g. a
    /// multi-chain scaling measurement taken on a single core, where
    /// `chains_speedup` reads pool overhead rather than parallelism).
    /// Serialized so a report can never silently claim numbers its own
    /// run conditions undermine.
    pub warnings: Vec<String>,
}

/// Builds the single-run annealing fixture on a named network: the energy
/// context inputs and the initial topology.
fn anneal_fixture(net_name: &str, scale: &Scale) -> (owan_topo::Network, Vec<Transfer>, Topology) {
    let net = net_by_name(net_name);
    let reqs = workload_for(&net, 1.0, None, scale);
    let transfers: Vec<Transfer> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| Transfer::from_request(i, r))
        .collect();
    let initial = if net.static_topology.total_links() > 0 {
        net.static_topology.clone()
    } else {
        default_topology(&net.plant)
    };
    (net, transfers, initial)
}

/// One observed annealing run; returns the result, wall seconds, and the
/// counter snapshot values `(evals, shortest_path_calls, cache_hits)`.
fn timed_anneal(
    net: &owan_topo::Network,
    transfers: &[Transfer],
    initial: &Topology,
    config: &AnnealConfig,
    cache: Option<&mut EnergyCache>,
) -> (AnnealResult, f64, u64, u64, u64) {
    let fiber_dist = net.plant.fiber_distance_matrix();
    let ctx = EnergyContext {
        plant: &net.plant,
        fiber_dist: &fiber_dist,
        transfers,
        policy: SchedulingPolicy::ShortestJobFirst,
        slot_len_s: 300.0,
        circuit_config: CircuitBuildConfig::default(),
        rate_config: RateAssignConfig::default(),
        prof: Profiler::disabled(),
    };
    let recorder = Recorder::enabled();
    let telemetry = CoreTelemetry::new(&recorder);
    let start = Instant::now();
    let result = anneal_with_cache(&ctx, initial, config, cache, &telemetry);
    let wall = start.elapsed().as_secs_f64();
    let snap = recorder.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let evals = counter("anneal.cache_hit") + counter("anneal.cache_miss");
    (
        result,
        wall,
        evals,
        counter("circuits.shortest_path_calls"),
        counter("anneal.cache_hit"),
    )
}

/// Runs the Fig 10(d)-style inter-DC pipeline at a fixed iteration budget
/// under `probes` and returns `(result, wall_s)`. Attaching one tier at a
/// time on top of the recorder isolates that tier's enabled-path overhead
/// at fixed search quality.
fn timed_pipeline(scale: &Scale, use_cache: bool, probes: &Probes) -> (SimResult, f64) {
    let net = net_by_name("interdc");
    let reqs = workload_for(&net, 1.0, None, scale);
    let cfg = RunnerConfig {
        sim: SimConfig {
            slot_len_s: scale.slot_len_s,
            max_slots: 2_000,
            ..Default::default()
        },
        anneal_iterations: scale.anneal_iterations,
        seed: scale.seed,
        anneal_use_cache: use_cache,
        ..Default::default()
    };
    let start = Instant::now();
    let res = run_engine_probed(EngineKind::Owan, &net, &reqs, &cfg, probes);
    (res, start.elapsed().as_secs_f64())
}

/// The short git commit hash of the working tree, or `"unknown"` when git
/// or the checkout is unavailable (e.g. a source tarball build).
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Asserts two simulation runs produced identical plans (same throughput
/// trajectory and same per-transfer completions).
fn assert_same_sim(a: &SimResult, b: &SimResult) {
    assert_eq!(a.slots, b.slots, "slot counts differ");
    assert_eq!(
        a.throughput_series, b.throughput_series,
        "throughput series differ"
    );
    let key = |r: &SimResult| -> Vec<(usize, Option<f64>)> {
        r.completions
            .iter()
            .map(|c| (c.id, c.completion_s))
            .collect()
    };
    assert_eq!(key(a), key(b), "completions differ");
}

/// Runs the full benchmark. `reps` single-anneal repetitions are measured
/// and the fastest wall is kept (reduces scheduler noise; counters are
/// identical across reps by determinism). `workers` is the evaluation-pool
/// budget for the multi-chain measurement: `None` sizes it to the machine,
/// `Some(w)` pins it (the plans are identical either way — only wall
/// clock moves).
pub fn bench_anneal(
    scale: &Scale,
    scale_label: &str,
    chains: usize,
    workers: Option<usize>,
) -> AnnealBenchReport {
    let iterations = scale.anneal_iterations;
    let config = AnnealConfig {
        max_iterations: iterations,
        seed: scale.seed,
        ..Default::default()
    };
    let (net, transfers, initial) = anneal_fixture("isp", scale);

    // --- single-run evaluation rate, naive vs cached (ISP) ---
    let reps = 3;
    let mut naive: Option<(AnnealResult, f64, u64, u64)> = None;
    let mut fast: Option<(AnnealResult, f64, u64, u64, f64)> = None;
    let mut fast_stats = EnergyCacheStats::default();
    for _ in 0..reps {
        let (res, wall, evals, sp, _) = timed_anneal(&net, &transfers, &initial, &config, None);
        naive = match naive {
            Some(prev) if prev.1 <= wall => Some(prev),
            _ => Some((res, wall, evals, sp)),
        };
    }
    for _ in 0..reps {
        let mut cache = EnergyCache::new();
        let (res, wall, evals, sp, hits) =
            timed_anneal(&net, &transfers, &initial, &config, Some(&mut cache));
        // Counters are identical across reps by determinism, so any rep's
        // stats stand for the kept one.
        fast_stats = cache.stats;
        let outcome_rate = if evals > 0 {
            hits as f64 / evals as f64
        } else {
            0.0
        };
        fast = match fast {
            Some(prev) if prev.1 <= wall => Some(prev),
            _ => Some((res, wall, evals, sp, outcome_rate)),
        };
    }
    let (naive_res, naive_wall, naive_evals, naive_sp) = naive.expect("reps >= 1");
    let (fast_res, fast_wall, fast_evals, fast_sp, outcome_hit_rate) = fast.expect("reps >= 1");
    // The headline hit rate is the relay search's: the share of circuit
    // requests that needed no RegenGraph + Yen run.
    let relay_requests = fast_stats.relay_hits + fast_stats.relay_misses;
    let cache_hit_rate = if relay_requests > 0 {
        fast_stats.relay_hits as f64 / relay_requests as f64
    } else {
        0.0
    };
    let attributed: u64 = fast_stats.miss_by_reason.iter().sum();
    assert_eq!(
        attributed, fast_stats.outcome_misses,
        "per-reason miss counters must account for every outcome miss"
    );
    assert_eq!(
        naive_res.topology, fast_res.topology,
        "cached anneal diverged from naive"
    );
    assert_eq!(naive_res.energy_gbps(), fast_res.energy_gbps());
    assert_eq!(naive_evals, fast_evals, "same search, same evaluations");

    // --- pipeline speedup at fixed quality (inter-DC) ---
    let (pipe_naive, pipeline_naive_wall_s) = timed_pipeline(scale, false, &Probes::off());
    let (pipe_fast, pipeline_fast_wall_s) = timed_pipeline(scale, true, &Probes::off());
    assert_same_sim(&pipe_naive, &pipe_fast);
    // Observability must not perturb: both instrumented runs' plans are
    // asserted identical before overheads are reported. Best-of-3 walls —
    // the quick-scale pipeline finishes in ~0.1 s, so single shots are
    // too noisy to compare.
    let mut pipeline_obs_wall_s = f64::INFINITY;
    let mut pipeline_scope_wall_s = f64::INFINITY;
    let mut pipeline_prof_wall_s = f64::INFINITY;
    for _ in 0..3 {
        let observed = || Probes {
            recorder: Recorder::enabled(),
            ..Probes::off()
        };
        let (pipe_obs, obs_wall) = timed_pipeline(scale, true, &observed());
        assert_same_sim(&pipe_fast, &pipe_obs);
        let scoped = Probes {
            scope: ScopeRecorder::enabled(ScopeConfig::default()),
            ..observed()
        };
        let (pipe_scope, scope_wall) = timed_pipeline(scale, true, &scoped);
        assert_same_sim(&pipe_fast, &pipe_scope);
        let profiled = Probes {
            prof: Profiler::enabled(),
            ..observed()
        };
        let (pipe_prof, prof_wall) = timed_pipeline(scale, true, &profiled);
        assert_same_sim(&pipe_fast, &pipe_prof);
        pipeline_obs_wall_s = pipeline_obs_wall_s.min(obs_wall);
        pipeline_scope_wall_s = pipeline_scope_wall_s.min(scope_wall);
        pipeline_prof_wall_s = pipeline_prof_wall_s.min(prof_wall);
    }

    // --- multi-chain scaling (ISP) ---
    let fiber_dist = net.plant.fiber_distance_matrix();
    let ctx = EnergyContext {
        plant: &net.plant,
        fiber_dist: &fiber_dist,
        transfers: &transfers,
        policy: SchedulingPolicy::ShortestJobFirst,
        slot_len_s: 300.0,
        circuit_config: CircuitBuildConfig::default(),
        rate_config: RateAssignConfig::default(),
        prof: Profiler::disabled(),
    };
    // Both sides of the scaling comparison carry an enabled recorder —
    // the parallel run needs one for its busy counters, and a telemetry
    // mismatch would otherwise bill the recorder's per-iteration cost to
    // the pool.
    // Rounds per side of the scaling comparison; min wall wins.
    const SCALING_ROUNDS: usize = 3;
    let seq_recorder = Recorder::enabled();
    let seq_telemetry = CoreTelemetry::new(&seq_recorder);
    // The parallel run carries an enabled recorder so the spawn-to-join
    // wall and summed per-chain busy counters come from the measured run
    // itself (the recorder costs two counter adds and 2N clock reads).
    let par_recorder = Recorder::enabled();
    let par_telemetry = CoreTelemetry::new(&par_recorder);
    // Each side takes the best of `SCALING_ROUNDS` walls, with the sides
    // interleaved inside each round: on a busy or thermally throttled box
    // the min over repeats is the least-biased estimate of true cost, and
    // interleaving keeps a slow drift from landing entirely on one side.
    // The chains are deterministic, so every round computes the identical
    // result.
    let mut chains_seq_wall_s = f64::INFINITY;
    let mut chains_par_wall_s = f64::INFINITY;
    let mut seq_best: Option<AnnealResult> = None;
    let mut par_opt: Option<AnnealResult> = None;
    for _round in 0..SCALING_ROUNDS {
        let start = Instant::now();
        let mut round_best: Option<AnnealResult> = None;
        for i in 0..chains {
            let cfg = AnnealConfig {
                seed: chain_seed(config.seed, i),
                ..config
            };
            let mut cache = EnergyCache::new();
            let r = anneal_with_cache(&ctx, &initial, &cfg, Some(&mut cache), &seq_telemetry);
            round_best = match round_best {
                Some(b) if r.energy_gbps() <= b.energy_gbps() => Some(b),
                _ => Some(r),
            };
        }
        chains_seq_wall_s = chains_seq_wall_s.min(start.elapsed().as_secs_f64());
        seq_best = round_best;

        let mut par_caches: Vec<EnergyCache> = if config.use_cache {
            (0..chains).map(|_| EnergyCache::new()).collect()
        } else {
            Vec::new()
        };
        let start = Instant::now();
        let par = anneal_parallel_pooled(
            &ctx,
            &initial,
            &config,
            chains,
            &mut par_caches,
            workers,
            &par_telemetry,
        );
        chains_par_wall_s = chains_par_wall_s.min(start.elapsed().as_secs_f64());
        par_opt = Some(par);
    }
    let par = par_opt.expect("SCALING_ROUNDS >= 1");
    let par_snap = par_recorder.snapshot();
    let par_counter = |name: &str| par_snap.counters.get(name).copied().unwrap_or(0);
    // The recorder accumulated over all rounds; report per-round values so
    // chains_busy_s stays on the same scale as chains_par_wall_s.
    let chains_wall_ns = par_counter("anneal.parallel.wall_ns") / SCALING_ROUNDS as u64;
    let chains_busy_ns = par_counter("anneal.parallel.busy_ns") / SCALING_ROUNDS as u64;
    let seq_best = seq_best.expect("chains >= 1");
    assert_eq!(
        seq_best.topology, par.topology,
        "parallel best-of diverged from sequential best-of"
    );
    assert_eq!(seq_best.energy_gbps(), par.energy_gbps());

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chains_speedup = chains_seq_wall_s / chains_par_wall_s.max(1e-9);
    let mut warnings = Vec::new();
    if cores == 1 && chains > 1 {
        warnings.push(format!(
            "multi-chain scaling measured with {chains} chains on 1 core: \
             chains_speedup reads pool overhead, not parallelism"
        ));
    }
    AnnealBenchReport {
        scale: scale_label.to_string(),
        commit: git_commit(),
        iterations,
        chains,
        cores,
        naive_wall_s: naive_wall,
        naive_evals_per_s: naive_evals as f64 / naive_wall.max(1e-9),
        naive_shortest_path_calls: naive_sp,
        fast_wall_s: fast_wall,
        fast_evals_per_s: fast_evals as f64 / fast_wall.max(1e-9),
        fast_shortest_path_calls: fast_sp,
        shortest_path_reduction: naive_sp as f64 / (fast_sp as f64).max(1.0),
        eval_speedup: naive_wall / fast_wall.max(1e-9),
        cache_hit_rate,
        outcome_hit_rate,
        pipeline_naive_wall_s,
        pipeline_fast_wall_s,
        pipeline_speedup: pipeline_naive_wall_s / pipeline_fast_wall_s.max(1e-9),
        pipeline_obs_wall_s,
        pipeline_scope_wall_s,
        scope_overhead: pipeline_scope_wall_s / pipeline_obs_wall_s.max(1e-9) - 1.0,
        pipeline_prof_wall_s,
        prof_overhead: pipeline_prof_wall_s / pipeline_obs_wall_s.max(1e-9) - 1.0,
        pipeline_slots: pipe_fast.slots,
        pipeline_slots_per_s: pipe_fast.slots as f64 / pipeline_fast_wall_s.max(1e-9),
        chains_seq_wall_s,
        chains_par_wall_s,
        chains_speedup,
        chains_busy_s: chains_busy_ns as f64 / 1e9,
        chains_concurrency: chains_busy_ns as f64 / (chains_wall_ns as f64).max(1.0),
        chains_utilization: chains_speedup / chains.min(cores).max(1) as f64,
        miss_by_reason: fast_stats.miss_reasons(),
        miss_dominant: fast_stats
            .dominant_miss_cause()
            .map_or(("none".to_string(), 0), |(slug, n)| (slug.to_string(), n)),
        warnings,
    }
}

impl AnnealBenchReport {
    /// Serializes as a flat JSON object (stable key order).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let mut kv = |key: &str, val: String| {
            s.push_str(&format!("  \"{key}\": {val},\n"));
        };
        kv("scale", format!("\"{}\"", self.scale));
        kv("commit", format!("\"{}\"", self.commit));
        kv("iterations", self.iterations.to_string());
        kv("chains", self.chains.to_string());
        kv("cores", self.cores.to_string());
        kv("naive_wall_s", format!("{:.6}", self.naive_wall_s));
        kv(
            "naive_evals_per_s",
            format!("{:.2}", self.naive_evals_per_s),
        );
        kv(
            "naive_shortest_path_calls",
            self.naive_shortest_path_calls.to_string(),
        );
        kv("fast_wall_s", format!("{:.6}", self.fast_wall_s));
        kv("fast_evals_per_s", format!("{:.2}", self.fast_evals_per_s));
        kv(
            "fast_shortest_path_calls",
            self.fast_shortest_path_calls.to_string(),
        );
        kv(
            "shortest_path_reduction",
            format!("{:.2}", self.shortest_path_reduction),
        );
        kv("eval_speedup", format!("{:.2}", self.eval_speedup));
        kv("cache_hit_rate", format!("{:.4}", self.cache_hit_rate));
        kv("outcome_hit_rate", format!("{:.4}", self.outcome_hit_rate));
        kv(
            "pipeline_naive_wall_s",
            format!("{:.6}", self.pipeline_naive_wall_s),
        );
        kv(
            "pipeline_fast_wall_s",
            format!("{:.6}", self.pipeline_fast_wall_s),
        );
        kv("pipeline_speedup", format!("{:.2}", self.pipeline_speedup));
        kv(
            "pipeline_obs_wall_s",
            format!("{:.6}", self.pipeline_obs_wall_s),
        );
        kv(
            "pipeline_scope_wall_s",
            format!("{:.6}", self.pipeline_scope_wall_s),
        );
        kv("scope_overhead", format!("{:.4}", self.scope_overhead));
        kv(
            "pipeline_prof_wall_s",
            format!("{:.6}", self.pipeline_prof_wall_s),
        );
        kv("prof_overhead", format!("{:.4}", self.prof_overhead));
        kv("pipeline_slots", self.pipeline_slots.to_string());
        kv(
            "pipeline_slots_per_s",
            format!("{:.2}", self.pipeline_slots_per_s),
        );
        kv(
            "chains_seq_wall_s",
            format!("{:.6}", self.chains_seq_wall_s),
        );
        kv(
            "chains_par_wall_s",
            format!("{:.6}", self.chains_par_wall_s),
        );
        kv("chains_speedup", format!("{:.2}", self.chains_speedup));
        kv("chains_busy_s", format!("{:.6}", self.chains_busy_s));
        kv(
            "chains_concurrency",
            format!("{:.2}", self.chains_concurrency),
        );
        kv(
            "chains_utilization",
            format!("{:.2}", self.chains_utilization),
        );
        for (slug, n) in self.miss_by_reason {
            kv(&format!("cache_miss_{slug}"), n.to_string());
        }
        // One line per warning; double quotes inside a warning would break
        // the line-oriented readers, so they are normalized away.
        let warnings = self
            .warnings
            .iter()
            .map(|w| format!("\"{}\"", w.replace('"', "'")))
            .collect::<Vec<_>>()
            .join(", ");
        kv("warnings", format!("[{warnings}]"));
        kv("miss_dominant", format!("\"{}\"", self.miss_dominant.0));
        let last = format!("  \"miss_dominant_count\": {}\n", self.miss_dominant.1);
        s.push_str(&last);
        s.push('}');
        s.push('\n');
        s
    }
}

/// Extracts a numeric value from a flat JSON object by key. Intentionally
/// minimal — the baseline file is machine-written by this module.
pub fn json_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let rest = &json[json.find(&needle)? + needle.len()..];
    let end = rest.find([',', '\n', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Extracts a string value from a flat JSON object by key (same minimal
/// contract as [`json_number`]).
pub fn json_string(json: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let rest = &json[json.find(&needle)? + needle.len()..];
    let rest = rest.trim_start().strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Compares a fresh report against a checked-in baseline: fails when the
/// fresh energy-evaluation rate regresses more than `tolerance` (fraction)
/// below the baseline's. The baseline's `scale` must match the report's —
/// evals/s at different network/workload sizes are not commensurable, so
/// a cross-scale comparison would make the floor arbitrary. Returns a
/// human-readable summary on success.
pub fn check_against_baseline(
    report: &AnnealBenchReport,
    baseline_json: &str,
    tolerance: f64,
) -> Result<String, String> {
    let base_scale = json_string(baseline_json, "scale").ok_or("baseline is missing scale")?;
    if base_scale != report.scale {
        return Err(format!(
            "scale mismatch: report is \"{}\" but baseline is \"{base_scale}\" — \
             regenerate the baseline at the same scale",
            report.scale
        ));
    }
    let base = json_number(baseline_json, "fast_evals_per_s")
        .ok_or("baseline is missing fast_evals_per_s")?;
    let fresh = report.fast_evals_per_s;
    let floor = base * (1.0 - tolerance);
    if fresh < floor {
        return Err(format!(
            "fast_evals_per_s regressed: {fresh:.1} < {floor:.1} \
             (baseline {base:.1}, tolerance {:.0}%)",
            tolerance * 100.0
        ));
    }
    let mut summary = format!(
        "fast_evals_per_s {fresh:.1} within {:.0}% of baseline {base:.1}",
        tolerance * 100.0
    );
    // Core-count mismatch does not fail the check (evals/s is single-
    // threaded) but makes chain-scaling keys incomparable — say so.
    if let Some(base_cores) = json_number(baseline_json, "cores") {
        if base_cores as usize != report.cores {
            summary.push_str(&format!(
                "; warning: baseline ran on {} cores, this run on {} — \
                 chain-scaling keys are not comparable",
                base_cores as usize, report.cores
            ));
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_and_check() {
        let report = AnnealBenchReport {
            scale: "quick".into(),
            commit: "abc1234".into(),
            iterations: 10,
            chains: 2,
            cores: 1,
            naive_wall_s: 1.0,
            naive_evals_per_s: 100.0,
            naive_shortest_path_calls: 1_000,
            fast_wall_s: 0.25,
            fast_evals_per_s: 400.0,
            fast_shortest_path_calls: 100,
            shortest_path_reduction: 10.0,
            eval_speedup: 4.0,
            cache_hit_rate: 0.75,
            outcome_hit_rate: 0.05,
            pipeline_naive_wall_s: 2.0,
            pipeline_fast_wall_s: 1.0,
            pipeline_speedup: 2.0,
            pipeline_obs_wall_s: 1.01,
            pipeline_scope_wall_s: 1.02,
            scope_overhead: 0.02,
            pipeline_prof_wall_s: 1.03,
            prof_overhead: 0.02,
            pipeline_slots: 6,
            pipeline_slots_per_s: 6.0,
            chains_seq_wall_s: 1.0,
            chains_par_wall_s: 0.5,
            chains_speedup: 2.0,
            chains_busy_s: 0.9,
            chains_concurrency: 1.8,
            chains_utilization: 2.0,
            miss_by_reason: [("cold", 40), ("capacity", 3)],
            miss_dominant: ("cold".into(), 40),
            warnings: vec!["multi-chain scaling measured with 2 chains on 1 core".into()],
        };
        let json = report.to_json();
        assert_eq!(json_number(&json, "fast_evals_per_s"), Some(400.0));
        assert_eq!(json_number(&json, "chains_speedup"), Some(2.0));
        assert_eq!(json_number(&json, "pipeline_slots"), Some(6.0));
        assert_eq!(json_string(&json, "scale").as_deref(), Some("quick"));
        assert_eq!(json_string(&json, "commit").as_deref(), Some("abc1234"));
        assert_eq!(json_number(&json, "prof_overhead"), Some(0.02));
        assert_eq!(json_number(&json, "chains_concurrency"), Some(1.8));
        assert_eq!(json_number(&json, "cache_hit_rate"), Some(0.75));
        assert_eq!(json_number(&json, "outcome_hit_rate"), Some(0.05));
        assert_eq!(json_number(&json, "cache_miss_cold"), Some(40.0));
        assert_eq!(json_number(&json, "cache_miss_capacity"), Some(3.0));
        assert!(
            json.contains("\"warnings\": [\"multi-chain scaling"),
            "warnings must serialize as a row:\n{json}"
        );
        assert_eq!(json_number(&json, "miss_dominant_count"), Some(40.0));
        assert_eq!(json_string(&json, "miss_dominant").as_deref(), Some("cold"));

        assert!(check_against_baseline(&report, &json, 0.3).is_ok());
        let mut slower = report.clone();
        slower.fast_evals_per_s = 100.0;
        assert!(check_against_baseline(&slower, &json, 0.3).is_err());

        // A baseline taken at a different scale is rejected outright,
        // even when the rate would pass the floor.
        let mut other_scale = report.clone();
        other_scale.scale = "full".into();
        let err = check_against_baseline(&other_scale, &json, 0.3).unwrap_err();
        assert!(err.contains("scale mismatch"), "{err}");

        // A core-count mismatch still passes but carries a warning — the
        // chain-scaling keys stop being comparable, the eval rate doesn't.
        let mut other_cores = report.clone();
        other_cores.cores = 8;
        let ok = check_against_baseline(&other_cores, &json, 0.3).unwrap();
        assert!(ok.contains("warning"), "{ok}");
        assert!(ok.contains("8"), "{ok}");
    }

    #[test]
    fn bench_smoke_tiny() {
        // A minutes-free smoke of the full measurement path.
        let scale = Scale {
            duration_s: 900.0,
            max_requests: 8,
            anneal_iterations: 15,
            ..Scale::quick()
        };
        let report = bench_anneal(&scale, "tiny", 2, Some(2));
        assert!(report.naive_shortest_path_calls > 0);
        if report.cores == 1 {
            assert!(
                !report.warnings.is_empty(),
                "a 1-core multi-chain report must carry a warning row"
            );
        }
        assert!(
            report.cache_hit_rate >= 0.0 && report.cache_hit_rate <= 1.0,
            "relay hit rate out of range: {}",
            report.cache_hit_rate
        );
        assert!(report.fast_shortest_path_calls <= report.naive_shortest_path_calls);
        let attributed: u64 = report.miss_by_reason.iter().map(|&(_, n)| n).sum();
        assert!(
            attributed > 0,
            "a fresh cache must record attributed misses"
        );
        assert_eq!(
            report.miss_dominant.1,
            report.miss_by_reason.iter().map(|&(_, n)| n).max().unwrap()
        );
        assert!(report.chains_busy_s > 0.0, "busy counter did not record");
        assert!(report.chains_concurrency > 0.0);
        assert!(
            report.shortest_path_reduction >= 1.0,
            "cache can only remove shortest-path work, got {}",
            report.shortest_path_reduction
        );
        assert!(report.pipeline_slots > 0);
    }
}
