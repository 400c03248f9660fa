//! Demonstrate the `ipass-sim` determinism contract from the outside:
//! the same seeded Monte Carlo run is bit-identical for any thread
//! count, early stopping trims the unit budget without breaking that,
//! and subassembly starvation surfaces as a typed error.
//!
//! Run with `cargo run --release --example sim_substrate`.

use integrated_passives::gps::experiments;
use integrated_passives::moe::{
    CostCategory, Flow, Line, Part, Process, SimOptions, StopRule, Test, YieldModel,
};

fn main() {
    // The paper's solution-2 production flow, simulated at 100k units.
    let (_, flow) = experiments::solution(1).expect("solution 2 builds a flow");

    println!("== determinism: seeded run across thread counts ==");
    let baseline = flow
        .simulate(&SimOptions::new(100_000).with_seed(7))
        .expect("simulation runs");
    for threads in [1usize, 2, 4, 8] {
        let report = flow
            .simulate(&SimOptions::new(100_000).with_seed(7).with_threads(threads))
            .expect("simulation runs");
        println!(
            "threads={threads}: shipped {:.0}, final cost/shipped {:.6} — {}",
            report.shipped(),
            report.final_cost_per_shipped().units(),
            if report == baseline {
                "bit-identical"
            } else {
                "MISMATCH!"
            }
        );
        assert_eq!(report, baseline);
    }

    println!("\n== sequential early stopping (±0.5 % shipped-fraction CI) ==");
    let adaptive = flow
        .simulate_adaptive(
            &SimOptions::new(1_000_000).with_seed(7).with_threads(4),
            StopRule::half_width_95(0.005),
        )
        .expect("adaptive simulation runs");
    println!(
        "stopped early: {} after {:.0} of 1,000,000 units (shipped fraction {:.4})",
        adaptive.stopped_early,
        adaptive.report.started(),
        adaptive.report.shipped_fraction()
    );

    println!("\n== subassembly retry budget is a typed error, not a hang ==");
    let dead_sub = Line::builder("dead-sub", Part::new("blank", CostCategory::Substrate))
        .process(Process::new("kill").with_yield(YieldModel::percent(0.0)))
        .test(Test::new("probe"))
        .build()
        .expect("line builds");
    let starving = Flow::new(
        Line::builder("main", Part::new("pcb", CostCategory::Substrate))
            .attach(integrated_passives::moe::Attach::new("join").input(dead_sub, 1))
            .build()
            .expect("line builds"),
    );
    match starving.simulate(&SimOptions::new(100).with_seed(1).with_retry_budget(50)) {
        Err(e) => println!("error (as expected): {e}"),
        Ok(_) => unreachable!("a 0 % yield subassembly cannot deliver"),
    }
}
