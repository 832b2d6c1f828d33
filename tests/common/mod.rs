//! The seeded chaos run several suites share.

use owan::chaos::OpFaultModel;
use owan::chaos::{run_chaos_probed, seeded_scenario, ChaosConfig, ChaosResult, ChaosSpec};
use owan::core::{default_topology, AnnealConfig, OwanConfig, OwanEngine, TrafficEngineer};
use owan::sim::Probes;
use owan::topo::internet2_testbed;
use owan::workload::{generate, WorkloadConfig};

/// The hardened loop on Internet2 at load 0.5: 16 slots of 300 s under
/// the seeded fault scenario and op faults, 30 anneal iterations. The
/// detection delay is longer than the horizon, so the mid-run fiber cut
/// stays undetected and blackholes live circuits.
pub fn internet2_chaos(seed: u64, probes: &Probes) -> Result<ChaosResult, String> {
    let net = internet2_testbed();
    let requests = generate(&net, &WorkloadConfig::testbed(0.5, seed));
    let config = ChaosConfig {
        slot_len_s: 300.0,
        max_slots: 16,
        detection_delay_s: 400.0,
        ..Default::default()
    };
    let events = seeded_scenario(&net.plant, seed, 300.0 * 16.0);
    let faults = ChaosSpec {
        events: &events,
        op_faults: OpFaultModel {
            seed,
            timeout_prob: 0.1,
            fail_prob: 0.05,
        },
    };
    let mut make_engine = |p: &owan::optical::FiberPlant| {
        let owan_config = OwanConfig {
            anneal: AnnealConfig {
                max_iterations: 30,
                seed: seed.wrapping_add(1),
                ..Default::default()
            },
            ..Default::default()
        };
        Box::new(OwanEngine::new(default_topology(p), owan_config)) as Box<dyn TrafficEngineer>
    };
    run_chaos_probed(
        &net.plant,
        &requests,
        &mut make_engine,
        &config,
        faults,
        probes,
        None,
    )
}
