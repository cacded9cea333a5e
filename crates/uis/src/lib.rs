//! # tango-uis
//!
//! Synthetic stand-in for the University Information System (UIS) dataset
//! (Gendrano, Shah, Snodgrass & Yang, TIMECENTER CD-1, 1998) used in the
//! paper's performance study. The original CD is not redistributable, so
//! this generator reproduces the properties the experiments depend on:
//!
//! * **EMPLOYEE**: 49,972 tuples of 31 attributes, ≈13.8 MB (≈276 B/row);
//! * **POSITION**: 83,857 tuples of 8 attributes, ≈6.7 MB (≈80 B/row),
//!   plus the eight smaller variants (8k–74k rows) used in Queries 1 and 4;
//! * most POSITION periods concentrated after 1992, with ~65 % starting
//!   in 1995 or later (this skew produces the knees in Figures 10 and 11a);
//! * skewed PosID frequencies (the non-uniformity blamed for the
//!   optimizer's mid-range errors in Query 3);
//! * `PayRate` spanning $2–$50 so the "> $10" predicate of Query 2 keeps
//!   roughly half the tuples.
//!
//! Generation is deterministic for a given seed.

pub mod figure3;
pub mod queries;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use tango_algebra::date::day;
use tango_algebra::{tup, Attr, Day, Relation, Schema, Tuple, Type, Value};

/// Row counts from the paper.
pub const POSITION_ROWS: usize = 83_857;
pub const EMPLOYEE_ROWS: usize = 49_972;
/// The eight POSITION variants of Section 5.1.
pub const POSITION_VARIANTS: [usize; 8] =
    [8_000, 17_000, 27_000, 36_000, 46_000, 55_000, 64_000, 74_000];

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct UisConfig {
    pub position_rows: usize,
    pub employee_rows: usize,
    pub seed: u64,
}

impl Default for UisConfig {
    fn default() -> Self {
        UisConfig { position_rows: POSITION_ROWS, employee_rows: EMPLOYEE_ROWS, seed: 0xEC1 }
    }
}

impl UisConfig {
    /// A scaled-down configuration for fast tests.
    pub fn small(seed: u64) -> Self {
        UisConfig { position_rows: 2_000, employee_rows: 1_200, seed }
    }
}

/// POSITION(PosID, EmpID, Dept, PosCode, PayRate, Hours, T1, T2) — 8
/// attributes like the paper's relation.
pub fn position_schema() -> Schema {
    Schema::with_inferred_period(vec![
        Attr::new("PosID", Type::Int),
        Attr::new("EmpID", Type::Int),
        Attr::new("Dept", Type::Int),
        Attr::new("PosCode", Type::Str),
        Attr::new("PayRate", Type::Double),
        Attr::new("Hours", Type::Int),
        Attr::new("T1", Type::Date),
        Attr::new("T2", Type::Date),
    ])
}

/// EMPLOYEE: 31 attributes (id, name, address fields, misc numeric HR
/// fields) sized to ≈276 bytes per row like the paper's relation.
pub fn employee_schema() -> Schema {
    let mut attrs = vec![
        Attr::new("EmpID", Type::Int),
        Attr::new("EmpName", Type::Str),
        Attr::new("Address", Type::Str),
        Attr::new("City", Type::Str),
        Attr::new("State", Type::Str),
        Attr::new("Zip", Type::Str),
        Attr::new("Phone", Type::Str),
        Attr::new("Email", Type::Str),
        Attr::new("BirthDate", Type::Date),
        Attr::new("HireDate", Type::Date),
        Attr::new("Dept", Type::Int),
        Attr::new("Title", Type::Str),
        Attr::new("Salary", Type::Double),
    ];
    for i in 1..=16 {
        attrs.push(Attr::new(format!("Misc{i}"), Type::Int));
    }
    attrs.push(Attr::new("Notes", Type::Str));
    assert_eq!(attrs.len(), 30);
    attrs.push(Attr::new("Status", Type::Str));
    Schema::new(attrs)
}

/// The dataset's "current date": open positions end here.
pub fn dataset_now() -> Day {
    day(2000, 6, 1)
}

fn syllable_name(rng: &mut StdRng, syllables: usize) -> String {
    const CONS: &[&str] = &["b", "d", "g", "k", "l", "m", "n", "r", "s", "t", "v", "z"];
    const VOW: &[&str] = &["a", "e", "i", "o", "u"];
    let mut s = String::new();
    for _ in 0..syllables {
        s.push_str(CONS[rng.gen_range(0..CONS.len())]);
        s.push_str(VOW[rng.gen_range(0..VOW.len())]);
    }
    let mut c = s.chars();
    match c.next() {
        Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
        None => s,
    }
}

/// A period start with the paper's skew: ~10 % before 1992, ~25 % in
/// 1992–1994, ~65 % in 1995 or later.
fn skewed_start(rng: &mut StdRng) -> Day {
    let u: f64 = rng.gen();
    let (lo, hi) = if u < 0.10 {
        (day(1980, 1, 1), day(1992, 1, 1))
    } else if u < 0.35 {
        (day(1992, 1, 1), day(1995, 1, 1))
    } else {
        (day(1995, 1, 1), day(2000, 1, 1))
    };
    rng.gen_range(lo..hi)
}

/// Generate the POSITION relation.
pub fn generate_position(cfg: &UisConfig) -> Relation {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x705);
    let schema = Arc::new(position_schema());
    // Skewed position popularity: a long tail of rarely-held positions and
    // a head of positions held by many employees over time. Average ~5
    // assignments per position.
    let n_pos = (cfg.position_rows / 5).max(1);
    let mut rows = Vec::with_capacity(cfg.position_rows);
    for _ in 0..cfg.position_rows {
        // skew towards low PosIDs (max group ≈ 25× the average): enough
        // to break the optimizer's uniformity assumption (Query 3's
        // mid-range plan-choice errors) while keeping the DBMS-side
        // constant-period self-joins tractable
        let u: f64 = rng.gen();
        let pos_id = ((u.powf(1.5) * n_pos as f64) as i64).min(n_pos as i64 - 1) + 1;
        let emp_id = rng.gen_range(1..=cfg.employee_rows as i64);
        let dept = 1 + pos_id % 40;
        let pos_code = format!("P{:05}", pos_id);
        let pay_rate = 2.0 + rng.gen::<f64>() * 48.0;
        let hours = [10i64, 20, 30, 40][rng.gen_range(0..4usize)];
        let t1 = skewed_start(&mut rng);
        // durations: weeks to a few years, clipped at the dataset's "now"
        let dur = rng.gen_range(14i32..1460);
        let t2 = (t1 + dur).min(dataset_now());
        rows.push(tup![
            pos_id,
            emp_id,
            dept,
            pos_code,
            pay_rate,
            hours,
            Value::Date(t1),
            Value::Date(t2.max(t1 + 1))
        ]);
    }
    Relation::new(schema, rows)
}

/// Generate the EMPLOYEE relation (unique `EmpID` 1..=n).
pub fn generate_employee(cfg: &UisConfig) -> Relation {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xE3B);
    let schema = Arc::new(employee_schema());
    let mut rows = Vec::with_capacity(cfg.employee_rows);
    for emp_id in 1..=cfg.employee_rows as i64 {
        let name = format!("{} {}", syllable_name(&mut rng, 2), syllable_name(&mut rng, 3));
        let mut vals = vec![
            Value::Int(emp_id),
            Value::Str(name),
            Value::Str(format!("{} {} St.", rng.gen_range(1..9999), syllable_name(&mut rng, 3))),
            Value::Str(syllable_name(&mut rng, 3)),
            Value::Str(["AZ", "CA", "NY", "TX", "WA"][rng.gen_range(0..5usize)].to_string()),
            Value::Str(format!("{:05}", rng.gen_range(10000..99999))),
            Value::Str(format!(
                "({:03}) 555-{:04}",
                rng.gen_range(200..999),
                rng.gen_range(0..9999)
            )),
            Value::Str(format!("u{emp_id}@example.edu")),
            Value::Date(rng.gen_range(day(1940, 1, 1)..day(1980, 1, 1))),
            Value::Date(rng.gen_range(day(1980, 1, 1)..day(2000, 1, 1))),
            Value::Int(rng.gen_range(1..=40)),
            Value::Str(
                ["Clerk", "Professor", "Lecturer", "Technician", "Manager"]
                    [rng.gen_range(0..5usize)]
                .to_string(),
            ),
            Value::Double(18_000.0 + rng.gen::<f64>() * 90_000.0),
        ];
        for _ in 0..16 {
            vals.push(Value::Int(rng.gen_range(0..100_000)));
        }
        vals.push(Value::Str(format!(
            "{} {} {}",
            syllable_name(&mut rng, 4),
            syllable_name(&mut rng, 4),
            syllable_name(&mut rng, 4)
        )));
        vals.push(Value::Str(["active", "inactive"][rng.gen_range(0..2usize)].to_string()));
        rows.push(Tuple::new(vals));
    }
    Relation::new(schema, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let cfg = UisConfig::small(42);
        let a = generate_position(&cfg);
        let b = generate_position(&cfg);
        assert!(a.list_eq(&b));
        let c = generate_position(&UisConfig { seed: 43, ..cfg });
        assert!(!a.list_eq(&c));
    }

    #[test]
    fn position_properties() {
        let cfg = UisConfig::small(7);
        let r = generate_position(&cfg);
        assert_eq!(r.len(), cfg.position_rows);
        assert_eq!(r.schema().len(), 8);
        assert!(r.schema().is_temporal());
        // ~65% start 1995 or later
        let after95 =
            r.tuples().iter().filter(|t| t[6].as_day().unwrap() >= day(1995, 1, 1)).count() as f64
                / r.len() as f64;
        assert!((0.55..0.75).contains(&after95), "got {after95}");
        // all periods valid and within bounds
        for t in r.tuples() {
            let (t1, t2) = (t[6].as_day().unwrap(), t[7].as_day().unwrap());
            assert!(t1 < t2);
            assert!(t2 <= dataset_now());
        }
        // PayRate > 10 keeps well under all rows (Query 2's filter bites)
        let above10 = r.tuples().iter().filter(|t| t[4].as_f64().unwrap() > 10.0).count() as f64
            / r.len() as f64;
        assert!((0.6..0.95).contains(&above10), "got {above10}");
    }

    #[test]
    fn posid_skewed() {
        let cfg = UisConfig::small(7);
        let r = generate_position(&cfg);
        let mut counts = std::collections::HashMap::new();
        for t in r.tuples() {
            *counts.entry(t[0].as_int().unwrap()).or_insert(0usize) += 1;
        }
        let max = *counts.values().max().unwrap() as f64;
        let avg = r.len() as f64 / counts.len() as f64;
        assert!(max > 3.0 * avg, "PosID distribution should be skewed: max={max} avg={avg}");
    }

    #[test]
    fn employee_properties() {
        let cfg = UisConfig::small(7);
        let r = generate_employee(&cfg);
        assert_eq!(r.len(), cfg.employee_rows);
        assert_eq!(r.schema().len(), 31);
        // unique EmpIDs
        let mut ids: Vec<i64> = r.tuples().iter().map(|t| t[0].as_int().unwrap()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), r.len());
        // row width in the right ballpark (paper: ~276 bytes)
        let w = r.avg_tuple_bytes();
        assert!((180.0..380.0).contains(&w), "avg width {w}");
    }
}
