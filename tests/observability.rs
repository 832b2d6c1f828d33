//! Probes must observe, never perturb: no observability tier may change
//! a single planning decision or run outcome, and the recorder's own
//! primitives must measure exactly what the injected clock says.

mod common;

use std::sync::Arc;

use owan::core::engine::{OwanConfig, OwanEngine, SlotInput, TrafficEngineer};
use owan::core::types::Transfer;
use owan::core::{AnnealConfig, Profiler};
use owan::obs::{ManualClock, Recorder};
use owan::scope::{ScopeConfig, ScopeRecorder};
use owan::sim::runner::{run_engine, run_engine_probed, EngineKind, RunnerConfig};
use owan::sim::{Probes, SimConfig};
use owan::topo::{internet2_testbed, isp_backbone};
use owan::why::{WhyConfig, WhyRecorder};
use owan::workload::{generate, WorkloadConfig};

fn small_workload() -> (owan::topo::Network, Vec<owan::core::TransferRequest>) {
    let net = internet2_testbed();
    let mut cfg = WorkloadConfig::testbed(0.5, 7);
    cfg.duration_s = 1_200.0;
    let requests: Vec<_> = generate(&net, &cfg).into_iter().take(6).collect();
    (net, requests)
}

fn fast_runner() -> RunnerConfig {
    RunnerConfig {
        sim: SimConfig {
            slot_len_s: 300.0,
            max_slots: 200,
            ..Default::default()
        },
        anneal_iterations: 50,
        seed: 11,
        ..Default::default()
    }
}

/// The Owan engine, slot by slot: a recording recorder and the no-op
/// recorder must produce bit-identical `SlotPlan`s from the same seed.
#[test]
fn recording_does_not_change_slot_plans() {
    let (net, requests) = small_workload();
    let owan_cfg = OwanConfig {
        anneal: AnnealConfig {
            max_iterations: 50,
            seed: 11,
            ..Default::default()
        },
        ..Default::default()
    };
    let initial = net.static_topology.clone();
    let mut observed = OwanEngine::new(initial.clone(), owan_cfg);
    observed.set_recorder(Recorder::enabled());
    let mut plain = OwanEngine::new(initial, owan_cfg);

    let transfers: Vec<Transfer> = requests
        .iter()
        .enumerate()
        .map(|(id, r)| Transfer::from_request(id, r))
        .collect();
    for slot in 0..4 {
        let input = SlotInput {
            transfers: &transfers,
            slot_len_s: 300.0,
            now_s: slot as f64 * 300.0,
        };
        let a = observed.plan_slot(&net.plant, &input);
        let b = plain.plan_slot(&net.plant, &input);
        assert_eq!(a, b, "slot {slot} diverged under telemetry");
    }
}

/// The probe sets the determinism test runs under: all off, each tier
/// alone, and all four on. Built fresh per run — enabled tiers
/// accumulate state.
fn probe_sets() -> Vec<(&'static str, Probes)> {
    let why = || WhyRecorder::enabled(WhyConfig::default(), &Recorder::disabled());
    let scope = || ScopeRecorder::enabled(ScopeConfig::default());
    let recorder = Recorder::enabled();
    vec![
        ("off", Probes::off()),
        (
            "recorder",
            Probes {
                recorder: Recorder::enabled(),
                ..Probes::off()
            },
        ),
        (
            "scope",
            Probes {
                scope: scope(),
                ..Probes::off()
            },
        ),
        (
            "prof",
            Probes {
                prof: Profiler::enabled(),
                ..Probes::off()
            },
        ),
        (
            "why",
            Probes {
                why: why(),
                ..Probes::off()
            },
        ),
        (
            "all",
            Probes {
                recorder: recorder.clone(),
                scope: scope(),
                prof: Profiler::enabled(),
                why: WhyRecorder::enabled(WhyConfig::default(), &recorder),
            },
        ),
    ]
}

/// Observe, never perturb: every probe set — off, each tier alone, all
/// on — yields identical completions, slot counts and series, on the
/// ideal simulator and on the hardened chaos loop (faults, blackholes,
/// crashes, op faults).
#[test]
fn recording_does_not_change_simulation_results() {
    let net = isp_backbone(42);
    let mut wl = WorkloadConfig::simulation(0.6, 42).with_deadlines(300.0, 1.5);
    wl.duration_s = 3_000.0;
    let requests: Vec<_> = generate(&net, &wl).into_iter().take(8).collect();
    let cfg = RunnerConfig {
        anneal_iterations: 40,
        ..fast_runner()
    };
    let plain = run_engine(EngineKind::Owan, &net, &requests, &cfg);
    for (name, probes) in probe_sets() {
        let probed = run_engine_probed(EngineKind::Owan, &net, &requests, &cfg, &probes);
        assert_eq!(plain.completions, probed.completions, "sim under {name}");
        assert_eq!(plain.slots, probed.slots, "sim under {name}");
        assert_eq!(plain.makespan_s, probed.makespan_s, "sim under {name}");
        assert_eq!(
            plain.throughput_series, probed.throughput_series,
            "sim under {name}"
        );
        assert_eq!(
            plain.delivered_series, probed.delivered_series,
            "sim under {name}"
        );
        if name == "prof" {
            // Without telemetry or an audit to consume it, the ideal
            // simulator schedules no update at all.
            let regions = probes.prof.snapshot().nodes;
            assert!(regions.iter().any(|n| n.name == "slot"));
            assert!(regions.iter().all(|n| n.name != "update"));
        }
    }

    let chaos =
        |probes: &Probes| common::internet2_chaos(42, probes).expect("no audit, no failure");
    let plain = chaos(&Probes::off());
    assert!(plain.stats.blackhole_gbits > 0.0, "the cut must bite");
    for (name, probes) in probe_sets() {
        let probed = chaos(&probes);
        assert_eq!(plain.completions, probed.completions, "chaos under {name}");
        assert_eq!(plain.slots, probed.slots, "chaos under {name}");
        assert_eq!(plain.makespan_s, probed.makespan_s, "chaos under {name}");
        assert_eq!(
            plain.delivered_series, probed.delivered_series,
            "chaos under {name}"
        );
        assert_eq!(
            plain.background_series, probed.background_series,
            "chaos under {name}"
        );
        assert_eq!(plain.stats, probed.stats, "chaos under {name}");
    }
}

/// An observed run carries one telemetry row per planned slot, with the
/// stage splits nested inside the measured planning time, and the
/// recorder sees the whole pipeline.
#[test]
fn observed_run_reports_every_stage() {
    let (net, requests) = small_workload();
    let recorder = Recorder::enabled();
    let probes = Probes {
        recorder: recorder.clone(),
        ..Probes::off()
    };
    let observed = run_engine_probed(EngineKind::Owan, &net, &requests, &fast_runner(), &probes);
    let plain = run_engine(EngineKind::Owan, &net, &requests, &fast_runner());
    assert!(plain.telemetry.is_none());

    let rows = observed.telemetry.as_ref().expect("telemetry rows");
    assert_eq!(rows.len(), observed.throughput_series.len());
    for row in rows {
        assert!(row.anneal_ns <= row.plan_ns, "{row:?}");
        assert!(row.circuits_ns + row.rates_ns <= row.anneal_ns, "{row:?}");
        assert!((row.throughput_gbps - observed.throughput_series[row.slot].1).abs() < 1e-12);
    }
    let snap = recorder.snapshot();
    for stage in [
        "stage.slot",
        "stage.anneal",
        "stage.circuits",
        "stage.rates",
        "stage.update",
    ] {
        assert!(
            snap.counters
                .get(&format!("{stage}.calls"))
                .copied()
                .unwrap_or(0)
                > 0,
            "{stage} never ran"
        );
    }
    assert!(snap.counters["anneal.iterations"] > 0);
}

/// Span nesting under a [`ManualClock`]: a parent span's duration covers
/// its children plus its own time; `cancel` discards a span entirely.
#[test]
fn manual_clock_span_nesting() {
    let clock = Arc::new(ManualClock::new());
    let recorder = Recorder::with_clock(clock.clone());
    let parent = recorder.stage("parent");
    let child = recorder.stage("child");

    {
        let _outer = parent.enter();
        clock.advance_ns(5_000_000);
        {
            let _inner = child.enter();
            clock.advance_ns(2_000_000);
        }
        clock.advance_ns(1_000_000);
    }
    child.enter().cancel();

    assert_eq!(child.total_ns(), 2_000_000);
    assert_eq!(parent.total_ns(), 8_000_000);
    let snap = recorder.snapshot();
    assert_eq!(snap.counters["parent.calls"], 1);
    assert_eq!(
        snap.counters["child.calls"], 1,
        "cancelled span must not count"
    );
}

/// Histogram bucket boundaries are inclusive on the upper bound, with one
/// overflow bucket past the last bound.
#[test]
fn histogram_bucket_boundaries() {
    let recorder = Recorder::enabled();
    let hist = recorder.histogram("lat", &[1.0, 10.0]);
    hist.observe(0.5); // <= 1.0
    hist.observe(1.0); // boundary: still the first bucket
    hist.observe(1.0 + 1e-9); // > 1.0: second bucket
    hist.observe(10.0); // boundary: second bucket
    hist.observe(11.0); // overflow
    let snap = recorder.snapshot().histograms["lat"].clone();
    assert_eq!(snap.counts, vec![2, 2, 1]);
    assert_eq!(snap.total, 5);
    assert!((snap.sum - 23.5).abs() < 1e-6);
    assert!((snap.mean() - 4.7).abs() < 1e-6);
}

/// Every exported line is a self-contained JSON object (checked
/// structurally: object delimiters, quoting, and no raw control bytes —
/// CI parses the CLI's export with a real JSON parser on top of this).
#[test]
fn jsonl_export_is_line_structured() {
    let recorder = Recorder::enabled();
    recorder.counter("c").add(3);
    recorder.gauge("g").set(2.5);
    recorder.histogram("h", &[1.0]).observe(0.5);
    recorder.event("e", &[("msg", "with \"quotes\" and\nnewline".into())]);
    let mut out: Vec<u8> = Vec::new();
    recorder.export_jsonl(&mut out).unwrap();
    let text = String::from_utf8(out).expect("utf-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4);
    for line in lines {
        assert!(line.starts_with("{\"type\":\""), "{line}");
        assert!(line.ends_with('}'), "{line}");
        assert!(
            line.bytes().all(|b| b >= 0x20),
            "control byte leaked unescaped: {line:?}"
        );
        let quotes = line.chars().filter(|&c| c == '"').count();
        assert_eq!(quotes % 2, 0, "unbalanced quotes: {line}");
    }
}
