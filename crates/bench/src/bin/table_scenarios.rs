//! The scenario matrix: {Algorithm B, Algorithm C} × 3 geo-topologies × 3
//! workload shapes, each cell condensed into its SLO row — the paper's
//! Fig. 1 columns (SNOW letters, rounds) with latency as a derived quantity.
//!
//! Latencies are virtual site-ticks from pure per-message hashes, so every
//! cell is a pure function of `(cell, seed)`; `tests/topology_scenarios.rs`
//! pins these rows exactly.

use snow_bench::{header, row, scenario_rows};

fn main() {
    println!("# Scenario matrix — seed 42, 256 closed-loop rounds per cell\n");
    println!(
        "{}",
        header(&[
            "Scenario",
            "SNOW",
            "committed",
            "aborted",
            "READ p50 (site-ticks)",
            "READ p99 (site-ticks)",
            "mean rounds",
            "C2C messages",
            "duration (site-ticks)",
        ])
    );
    for cells in scenario_rows() {
        println!("{}", row(&cells));
    }
    println!("\nExpected shape: Alg C reads take one round (1.01 where its counted fallback fired) against");
    println!("Alg B's two and are faster in every cell; WAN cells cost a multiple of the single-DC floor.");
}
