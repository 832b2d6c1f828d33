//! Failure recovery (§3.4): a fiber cut mid-transfer. The controller
//! removes the failed fiber from its physical-network view and recomputes
//! the network state; because Owan re-optimizes the optical layer every
//! slot, the transfers reroute over surviving fibers.
//!
//! Run with: `cargo run --release --example failure_recovery`

use owan::core::{default_topology, OwanConfig, OwanEngine, TransferRequest};
use owan::sim::{simulate_with_failures, Failure, FailureEvent, Probes, SimConfig};
use owan::topo::internet2_wan;

fn main() {
    let net = internet2_wan();
    let plant = &net.plant;
    let seat = plant.site_by_name("SEAT").unwrap();
    let kans = plant.site_by_name("KANS").unwrap();

    // A large backup from SEAT to KANS — big enough (62.5 TB) to span the
    // failure: SEAT's two 100 Gbps ports need ~42 minutes.
    let requests = vec![TransferRequest {
        src: seat,
        dst: kans,
        volume_gbits: 500_000.0,
        arrival_s: 0.0,
        deadline_s: None,
    }];

    // Cut the SEAT-SALT fiber twenty minutes in.
    let cut = plant
        .fibers()
        .iter()
        .position(|f| (f.a == seat || f.b == seat) && (plant.site(f.other(seat)).name == "SALT"))
        .expect("SEAT-SALT fiber exists");
    let events = [FailureEvent {
        time_s: 1_200.0,
        failure: Failure::FiberCut(cut),
    }];

    let mut engine = OwanEngine::new(default_topology(plant), OwanConfig::default());
    let cfg = SimConfig {
        slot_len_s: 300.0,
        ..Default::default()
    };
    let result = simulate_with_failures(
        plant,
        &requests,
        &mut engine,
        &cfg,
        &events,
        &Probes::off(),
        None,
    );

    println!("fiber SEAT-SALT cut at t=1200 s");
    for (t, gbps) in &result.throughput_series {
        println!("t={t:>6.0}s  allocated {gbps:>7.1} Gbps");
    }
    match result.completions[0].completion_s {
        Some(t) => println!("\nbackup completed at t={t:.0} s despite the cut"),
        None => println!("\nbackup did NOT complete"),
    }
    assert!(result.all_completed(), "Owan must reroute around the cut");
}
