//! The Cost Estimator (Figure 1): determines the cost factors for the
//! optimizer's formulas by *calibration* — running a family of sample
//! queries against both execution sites and fitting each factor by least
//! squares, following Du, Krishnamurthy & Shan (VLDB 1992) as the paper
//! does ("we use a similar approach, but we assume that we do not know
//! the specific algorithms used by the DBMS").

use crate::cost::CostFactors;
use crate::error::{Result, TangoError};
use crate::phys::{Algo, PhysNode};
use crate::{engine, to_sql};
use rand_free::SmallRng;
use std::sync::Arc;
use tango_algebra::{tup, AggFunc, AggSpec, Attr, Batch, Schema, SortSpec, Type};
use tango_minidb::Connection;
use tango_trace::Stopwatch;
use tango_xxl::{collect as drain, BatchScan};

/// A tiny deterministic PRNG so the calibrator needs no extra crate
/// dependencies in this module (xorshift64*).
mod rand_free {
    pub struct SmallRng(u64);

    impl SmallRng {
        pub fn new(seed: u64) -> Self {
            SmallRng(seed.max(1))
        }

        pub fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        pub fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n.max(1)
        }
    }
}

/// One calibration observation.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Which probe produced it.
    pub probe: &'static str,
    /// The statistic the formula weighs (bytes, bytes·log₂ n, ...).
    pub x: f64,
    /// Observed microseconds.
    pub t_us: f64,
}

/// Calibration outcome: fitted factors plus the raw samples.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// The fitted cost factors.
    pub factors: CostFactors,
    /// The raw observations behind the fit.
    pub samples: Vec<Sample>,
}

/// Least squares through the origin.
fn fit(samples: &[(f64, f64)]) -> Option<f64> {
    let sxx: f64 = samples.iter().map(|(x, _)| x * x).sum();
    if sxx <= 0.0 {
        return None;
    }
    let sxt: f64 = samples.iter().map(|(x, t)| x * t).sum();
    Some((sxt / sxx).max(1e-9))
}

/// Least squares with intercept; returns (intercept, slope).
fn fit_affine(samples: &[(f64, f64)]) -> Option<(f64, f64)> {
    let n = samples.len() as f64;
    if samples.len() < 2 {
        return None;
    }
    let sx: f64 = samples.iter().map(|(x, _)| x).sum();
    let st: f64 = samples.iter().map(|(_, t)| t).sum();
    let sxx: f64 = samples.iter().map(|(x, _)| x * x).sum();
    let sxt: f64 = samples.iter().map(|(x, t)| x * t).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-9 {
        return None;
    }
    let slope = (n * sxt - sx * st) / denom;
    let intercept = (st - slope * sx) / n;
    Some((intercept.max(0.0), slope.max(1e-9)))
}

fn probe_schema() -> Schema {
    Schema::with_inferred_period(vec![
        Attr::new("K", Type::Int),
        Attr::new("V", Type::Int),
        Attr::new("S", Type::Str),
        Attr::new("T1", Type::Int),
        Attr::new("T2", Type::Int),
    ])
}

fn probe_rows(n: usize, rng: &mut SmallRng) -> Vec<tango_algebra::Tuple> {
    (0..n)
        .map(|_| {
            // skewed keys, like real grouping attributes: calibration
            // queries should resemble the workload (Du et al.)
            let u = rng.below(1_000_000) as f64 / 1_000_000.0;
            let k = (u.powf(1.5) * (n as f64 / 8.0)) as i64;
            let t1 = rng.below(10_000) as i64;
            let dur = 1 + rng.below(400) as i64;
            tup![
                k,
                rng.below(1_000_000) as i64,
                format!("pad-{:08}", rng.below(100_000_000)),
                t1,
                t1 + dur
            ]
        })
        .collect()
}

/// Run the calibration experiment and fit the cost factors.
///
/// Creates temporary `TANGO_CAL_*` tables in the DBMS, probes each
/// algorithm at several input sizes, and drops the tables again. The
/// probes fetch the way the engine's `TRANSFER^M` does at `batch_rows`
/// (one round trip per batch, see [`engine::query_batched`]), so `p_tm`
/// prices the transfer the session will run.
pub fn calibrate(conn: &Connection, seed: u64, batch_rows: usize) -> Result<Calibration> {
    let mut rng = SmallRng::new(seed | 1);
    let sizes = [1_000usize, 4_000, 12_000];
    let mut samples: Vec<Sample> = Vec::new();
    let mut factors = CostFactors::default();

    let add = |probe: &'static str, x: f64, t_us: f64, out: &mut Vec<Sample>| {
        out.push(Sample { probe, x, t_us });
    };

    let fetch = |sql: &str| -> Result<Vec<Batch>> {
        engine::fetch_all(conn, sql, batch_rows).map_err(|e| TangoError::Dbms(e.to_string()))
    };
    // a middleware operator's input, as a `TRANSFER^M` delivers it
    let scan = |b: &[Batch]| Box::new(BatchScan::new(Arc::new(probe_schema()), b.to_vec()));
    // the one value of a `COUNT(*)` probe's answer
    let count = |r: &[Batch]| r.first().and_then(|b| b.value_at(0, 0).as_f64()).unwrap_or(0.0);
    // wire-aware timing helper: wall time + virtual wire delta
    let timed = |conn: &Connection, f: &mut dyn FnMut() -> Result<()>| -> Result<f64> {
        let sw = Stopwatch::start(conn.wire_time());
        f()?;
        Ok(sw.elapsed_us(conn.wire_time()))
    };

    for (i, &n) in sizes.iter().enumerate() {
        let table = format!("TANGO_CAL_{i}");
        let batch = Batch::new(Arc::new(probe_schema()), probe_rows(n, &mut rng)).columnarize();
        let bytes = batch.byte_size() as f64;
        let log2n = (n as f64).log2();

        // TRANSFER^D (direct-path load of columns, as the engine's) —
        // affine in bytes
        let t = timed(conn, &mut || {
            conn.load_direct_batches(&table, probe_schema(), vec![batch.clone()])
                .map_err(|e| TangoError::Dbms(e.to_string()))?;
            Ok(())
        })?;
        add("transfer_d", bytes, t, &mut samples);
        conn.execute(&format!("ANALYZE TABLE {table} COMPUTE STATISTICS"))
            .map_err(|e| TangoError::Dbms(e.to_string()))?;

        // TRANSFER^M (scan + fetch over the wire) — linear in bytes
        let mut fetched = None;
        let t = timed(conn, &mut || {
            fetched = Some(fetch(&format!("SELECT K, V, S, T1, T2 FROM {table}"))?);
            Ok(())
        })?;
        add("transfer_m", bytes, t, &mut samples);
        let plain_scan_t = t;
        // invariant: `timed` returned `Ok`, so its closure ran past the assignment
        let fetched = fetched.unwrap();

        // SORT^D: sorted fetch minus plain fetch
        let mut sorted = None;
        let t_sorted = timed(conn, &mut || {
            sorted = Some(fetch(&format!("SELECT K, V, S, T1, T2 FROM {table} ORDER BY K, T1"))?);
            Ok(())
        })?;
        add("sort_d", bytes * log2n, (t_sorted - plain_scan_t).max(1.0), &mut samples);

        // SORT^M over the materialized relation
        let t = timed(conn, &mut || {
            drain(Box::new(tango_xxl::Sort::new(scan(&fetched), SortSpec::by(["K", "T1"]))))
                .map_err(|e| TangoError::Exec(e.to_string()))?;
            Ok(())
        })?;
        add("sort_m", bytes * log2n, t, &mut samples);

        // FILTER^M
        let pred = tango_algebra::Expr::cmp(
            tango_algebra::CmpOp::Lt,
            tango_algebra::Expr::col("V"),
            tango_algebra::Expr::lit(500_000),
        );
        let t = timed(conn, &mut || {
            drain(Box::new(tango_xxl::Filter::new(scan(&fetched), pred.clone())))
                .map_err(|e| TangoError::Exec(e.to_string()))?;
            Ok(())
        })?;
        add("filter_m", bytes, t, &mut samples);

        // TAGGR^M over the sorted fetch
        let sorted = sorted.ok_or_else(|| TangoError::Exec("sorted fetch did not run".into()))?;
        let t = timed(conn, &mut || {
            let agg = tango_xxl::TemporalAggregate::new(
                scan(&sorted),
                vec!["K".into()],
                vec![AggSpec::new(AggFunc::Count, Some("K"), "C")],
            )
            .map_err(|e| TangoError::Exec(e.to_string()))?;
            drain(Box::new(agg)).map_err(|e| TangoError::Exec(e.to_string()))?;
            Ok(())
        })?;
        add("taggr_m", bytes, t, &mut samples);

        // MERGEJOIN^M (self join on K over sorted copies)
        let mut out_bytes = 0f64;
        let t = timed(conn, &mut || {
            let mj = tango_xxl::MergeJoin::new(
                scan(&sorted),
                scan(&sorted),
                &[("K".to_string(), "K".to_string())],
            )
            .map_err(|e| TangoError::Exec(e.to_string()))?;
            let out = drain(Box::new(mj)).map_err(|e| TangoError::Exec(e.to_string()))?;
            out_bytes = out.byte_size() as f64;
            Ok(())
        })?;
        add("mergejoin_m", 2.0 * bytes + out_bytes / 2.0, t.max(1.0), &mut samples);
    }

    // -- first fit the transfer rate: the DBMS-side probes below must
    // subtract the cost of shipping their results over the wire, and the
    // subtraction needs the *fitted* p_tm, not the default.
    {
        let pick = |probe: &str| -> Vec<(f64, f64)> {
            samples.iter().filter(|s| s.probe == probe).map(|s| (s.x, s.t_us)).collect()
        };
        if let Some(p) = fit(&pick("transfer_m")) {
            factors.p_tm = p;
        }
    }

    // -- second pass: DBMS-side composite probes
    for (i, &n) in sizes.iter().enumerate() {
        let table = format!("TANGO_CAL_{i}");
        // input size from the stored table's statistics
        let bytes = conn.table_stats(&table).unwrap_or_default().size_bytes();

        // JOIN^D (generic): wrap the join in COUNT(*) so only one row
        // crosses the wire and the measurement is the join itself
        let mut join_out_rows = 0f64;
        let t = timed(conn, &mut || {
            let r = fetch(&format!(
                "SELECT COUNT(*) AS N FROM \
                 (SELECT A.K k, A.V v, B.V w FROM {table} A, {table} B WHERE A.K = B.K) J"
            ))?;
            join_out_rows = count(&r);
            Ok(())
        })?;
        let join_out_bytes = join_out_rows * 24.0; // three int columns
        add("join_d", 2.0 * bytes + join_out_bytes, t.max(1.0), &mut samples);

        // TAGGR^D (constant-period SQL). The algorithm is superlinear in
        // the group sizes, so probing up to the largest size matters: the
        // least-squares fit (x²-weighted) then reflects realistic inputs.
        if n <= 12_000 {
            let scan = PhysNode {
                algo: Algo::ScanD(table.clone()),
                schema: Arc::new(probe_schema()),
                children: vec![],
            };
            let aggs = vec![AggSpec::new(AggFunc::Count, Some("K"), "C")];
            let out_schema =
                tango_algebra::logical::taggr_schema(&["K".to_string()], &aggs, &probe_schema())
                    .map_err(TangoError::from)?;
            let node = PhysNode {
                algo: Algo::TAggrD { group_by: vec!["K".into()], aggs },
                schema: Arc::new(out_schema),
                children: vec![scan],
            };
            let sql = to_sql::render_select(&node)?;
            let mut out_rows = 0f64;
            let t = timed(conn, &mut || {
                let r = fetch(&format!("SELECT COUNT(*) AS N FROM ({sql}) X"))?;
                out_rows = count(&r);
                Ok(())
            })?;
            add("taggr_d", bytes + out_rows * 32.0, t.max(1.0), &mut samples);
        }
    }

    // fit factors from the samples ------------------------------------
    let pick = |probe: &str| -> Vec<(f64, f64)> {
        samples.iter().filter(|s| s.probe == probe).map(|s| (s.x, s.t_us)).collect()
    };
    if let Some((fixed, slope)) = fit_affine(&pick("transfer_d")) {
        factors.p_td_fixed = fixed;
        factors.p_td = slope;
    }
    if let Some(p) = fit(&pick("sort_d")) {
        factors.p_sd = p;
    }
    if let Some(p) = fit(&pick("sort_m")) {
        factors.p_sm = p;
    }
    if let Some(p) = fit(&pick("filter_m")) {
        factors.p_sem = p;
        factors.p_pm = p; // projection moves the same bytes
    }
    if let Some(p) = fit(&pick("taggr_m")) {
        factors.p_taggm1 = p;
        factors.p_taggm2 = p / 2.0;
    }
    if let Some(p) = fit(&pick("mergejoin_m")) {
        factors.p_mjm = p;
        factors.p_mjout = p / 2.0;
    }
    if let Some(p) = fit(&pick("join_d")) {
        factors.p_jd = p;
    }
    if let Some(p) = fit(&pick("taggr_d")) {
        factors.p_taggd1 = p;
        factors.p_taggd2 = p;
    }

    // drop the probe tables
    for i in 0..sizes.len() {
        let _ = conn.execute(&format!("DROP TABLE IF EXISTS TANGO_CAL_{i}"));
    }
    Ok(Calibration { factors, samples })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_minidb::Database;

    #[test]
    fn fit_through_origin() {
        let p = fit(&[(1.0, 2.0), (2.0, 4.0), (3.0, 6.1)]).unwrap();
        assert!((p - 2.0).abs() < 0.05);
        assert!(fit(&[]).is_none());
    }

    #[test]
    fn fit_with_intercept() {
        let (b, m) = fit_affine(&[(0.0, 10.0), (10.0, 30.0), (20.0, 50.0)]).unwrap();
        assert!((b - 10.0).abs() < 1e-6);
        assert!((m - 2.0).abs() < 1e-6);
    }

    #[test]
    fn calibration_produces_positive_factors() {
        let conn = Connection::new(Database::in_memory());
        let cal = calibrate(&conn, 7, 1024).unwrap();
        let f = cal.factors;
        for v in [f.p_tm, f.p_td, f.p_sem, f.p_sm, f.p_sd, f.p_taggm1, f.p_taggd1, f.p_mjm, f.p_jd]
        {
            assert!(v > 0.0);
        }
        // probe tables are cleaned up
        assert!(conn.query("SELECT K FROM TANGO_CAL_0").is_err());
        // the wire makes transfers far more expensive per byte than local
        // filtering
        assert!(f.p_tm > f.p_sem, "p_tm={} p_sem={}", f.p_tm, f.p_sem);
        // and DBMS temporal aggregation much more expensive than middleware
        assert!(f.p_taggd1 > f.p_taggm1, "taggd={} taggm={}", f.p_taggd1, f.p_taggm1);
    }

    /// The transfer probe fetches the way the engine will: on the default
    /// link (50-row prefetch, 500 µs a trip) a session that fetches 1,024
    /// rows a trip pays far less latency per byte than a row-at-a-time
    /// one, whose fetches stay at the prefetch floor.
    #[test]
    fn transfer_factor_follows_the_fetch_size() {
        let conn = Connection::new(Database::in_memory());
        let p_tm = |batch_rows| calibrate(&conn, 7, batch_rows).unwrap().factors.p_tm;
        let (row, batch) = (p_tm(1), p_tm(1024));
        // ≈ 0.33 vs ≈ 0.54 µs/B on the bench host; the wire part alone is
        // 0.25 vs 0.46, the rest is decode time, which noise inflates
        assert!(batch < 0.8 * row, "p_tm at batch 1024 {batch} vs batch 1 {row}");
    }
}
