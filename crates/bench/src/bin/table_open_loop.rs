//! Open-loop study: latency versus offered load, the saturation knee, and
//! hot-key (Zipf) contention.
//!
//! Latencies are virtual ticks measured from the *scheduled* arrival, so
//! every cell is a pure function of the seeds; `tests/open_loop.rs` pins
//! these rows exactly.

use snow_bench::{header, open_loop_rows, row, zipf_rows, OPEN_LOOP_RATES};

fn main() {
    println!("# Open loop — p50/p99 latency (virtual ticks) by offered rate (arrivals per kilotick)");
    let rates: Vec<String> = OPEN_LOOP_RATES.iter().map(|r| format!("@{r}")).collect();
    let curve_head: Vec<&str> =
        ["Protocol", "knee"].into_iter().chain(rates.iter().map(String::as_str)).collect();
    let zipf_head =
        ["Protocol", "Zipf exponent", "achieved/offered", "saturated", "p99", "READ p99"];
    println!("\n## 400 TAO-like arrivals, mwmr(4,4,4)\n");
    println!("{}", header(&curve_head));
    for cells in open_loop_rows() {
        println!("{}", row(&cells));
    }
    println!("\n## Hot keys — 200 write-heavy arrivals at rate 30, mwmr(2,2,2)\n");
    println!("{}", header(&zipf_head));
    for cells in zipf_rows() {
        println!("{}", row(&cells));
    }
    println!("\nExpected shape: Alg C (1 round) holds a lower latency and a later knee than Alg B");
    println!("(2 rounds); Blocking 2PL saturates first, and at rate 30 is past its knee at every skew.");
}
