//! Wire-profile ablation — Section 3.2 of the paper observes that
//! `TRANSFER^M` "is also affected by the row-prefetch setting, which
//! specifies the number of tuples fetched at a time by JDBC", and that
//! transfer costs drive the middleware/DBMS split.
//!
//! This harness sweeps (a) the JDBC row-prefetch and (b) the link
//! bandwidth, showing how each changes the measured transfer time and —
//! more interestingly — how the *optimizer's placement decision* for
//! Query 1 flips as transfers get cheaper or dearer (on an instant wire
//! even the DBMS's awful temporal aggregation would lose to shipping
//! nothing; on a slow one the middleware must earn its transfers).
//!
//! Usage: `cargo run --release -p tango-bench --bin wire_ablation`

use std::time::Instant;
use tango_bench::plans::placement_summary;
use tango_bench::setup::load_uis;
use tango_minidb::{LinkProfile, WireMode};
use tango_uis::queries::q1_sql;
use tango_uis::UisConfig;

fn main() {
    let cfg = UisConfig { position_rows: 20_000, employee_rows: 8_000, seed: 0xEC1 };

    println!("== row-prefetch sweep: TRANSFER^M of POSITION ({} rows) ==", cfg.position_rows);
    println!("{:>9} {:>12} {:>12} {:>12}", "prefetch", "roundtrips", "wire", "total");
    for prefetch in [1usize, 10, 50, 200, 1000] {
        let profile = LinkProfile {
            roundtrip_latency_us: 500.0,
            bytes_per_sec: 4.0 * 1024.0 * 1024.0,
            row_prefetch: prefetch,
            mode: WireMode::Virtual,
        };
        let setup = load_uis(&cfg, profile, false);
        setup.db.link().reset();
        let t0 = Instant::now();
        let r = setup.conn.query_all("SELECT PosID, EmpID, T1, T2 FROM POSITION").unwrap();
        let wall = t0.elapsed();
        let wire = setup.db.link().total();
        println!(
            "{prefetch:>9} {:>12} {:>11.2}s {:>11.2}s",
            r.len().div_ceil(prefetch),
            wire.as_secs_f64(),
            (wall + wire).as_secs_f64()
        );
    }

    println!("\n== bandwidth sweep: Query 1 placement decision ==");
    println!("{:>12} {:>10} {:>12}  chosen placement", "bytes/sec", "p_tm", "est. cost");
    for mbps in [0.5f64, 2.0, 8.0, 64.0, 1e6] {
        let profile = LinkProfile {
            roundtrip_latency_us: if mbps >= 1e6 { 0.0 } else { 500.0 },
            bytes_per_sec: mbps * 1024.0 * 1024.0,
            row_prefetch: 50,
            mode: WireMode::Virtual,
        };
        let mut setup = load_uis(&cfg, profile, true);
        let q = setup.tango.optimize(&q1_sql("POSITION")).unwrap();
        let label = if mbps >= 1e6 { "(instant)".to_string() } else { format!("{mbps} MB/s") };
        println!(
            "{label:>12} {:>10.3} {:>10.0}ms  {}",
            setup.tango.factors().p_tm,
            q.est_cost_us / 1e3,
            placement_summary(&q.plan)
        );
    }
    println!(
        "\nSlower wires raise the calibrated p_tm, making the optimizer keep more \
         work in the DBMS; faster wires pull it into the middleware."
    );
}
