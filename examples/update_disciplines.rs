//! The full controller loop (§3.1 + §3.3): the same workload run twice,
//! once applying topology changes with the consistent (Dionysus-extended)
//! scheduler and once firing every device operation at the slot boundary
//! in one shot. The controller charges transition windows against
//! delivered volume, so the one-shot run loses real gigabits whenever the
//! annealer moves circuits.
//!
//! Run with: `cargo run --release --example update_disciplines`

use owan::core::{default_topology, OwanConfig, OwanEngine};
use owan::sim::{run_controller, Probes, SimConfig, UpdateDiscipline};
use owan::topo::internet2_testbed;
use owan::workload::{generate, WorkloadConfig};

fn main() {
    let net = internet2_testbed();
    let mut wl = WorkloadConfig::testbed(1.5, 21);
    wl.duration_s = 3_600.0;
    let requests = generate(&net, &wl);
    println!("workload: {} transfers over an hour\n", requests.len());

    println!("discipline,completed,makespan_s,update_ops,transition_loss_gbits");
    for discipline in [UpdateDiscipline::Consistent, UpdateDiscipline::OneShot] {
        let mut engine = OwanEngine::new(default_topology(&net.plant), OwanConfig::default());
        let cfg = SimConfig::default();
        let res = run_controller(
            &net.plant,
            &requests,
            &mut engine,
            &cfg,
            discipline,
            &Probes::off(),
        );
        println!(
            "{discipline:?},{}/{},{:.0},{},{:.1}",
            res.completions
                .iter()
                .filter(|c| c.completion_s.is_some())
                .count(),
            res.completions.len(),
            res.makespan_s,
            res.update_ops,
            res.transition_loss_gbits,
        );
        assert!(res.all_completed());
    }
    println!("\nthe loss column charges each plan's own transition window against the");
    println!("ideal allocation: one-shot loses real packets on darkened circuits,");
    println!("while the consistent plan's 'loss' is serialization delay (make-before-");
    println!("break ramps the new rates in later). For the per-instant carried-traffic");
    println!("comparison — where consistent never dips — see `fig10b`.");
}
