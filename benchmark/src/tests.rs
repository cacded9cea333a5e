//! Whole-run tests at `--scale small`: seeds and determinism, the traced
//! budget, and the agreement of `BENCHMARK.json` with the metric tables.

use super::*;
use crate::workload::WORKLOADS;

fn small(w: &Workload, seed: u64, trace: bool) -> Outcome {
    let args = Args {
        workload: Some(w.name.to_string()),
        seed,
        seconds: None,
        trace,
        scale: Scale::Small,
        repeat: None,
        calibrate: None,
    };
    run_workload(w, &args, Instant::now())
}

#[test]
fn one_seed_repeats_ops_round_trips_and_cache_counters() {
    for w in &WORKLOADS {
        let (a, b) = (small(w, 11, false), small(w, 11, false));
        for out in [&a, &b] {
            assert!(out.correct, "{}:\n{}", w.name, out.text);
            assert_eq!(out.failed, 0, "{}", w.name);
            assert_eq!(out.metrics.len(), END_TO_END.len());
            assert!(out.metrics.iter().all(|(_, v, _)| v.is_finite() && *v > 0.0), "{}", out.text);
        }
        assert_eq!(a.pooled.op_fingerprints, b.pooled.op_fingerprints, "{}", w.name);
        assert_eq!(a.pooled.reads.len(), b.pooled.reads.len(), "{}", w.name);
        assert_eq!(a.pooled.placements, b.pooled.placements, "{}", w.name);
        if w.clients == 1 {
            // nothing races: wire time, round trips and every cache
            // counter repeat exactly
            assert_eq!(a.pooled.roundtrips_per_op(), b.pooled.roundtrips_per_op(), "{}", w.name);
            assert_eq!(a.pooled.wire_ms_per_op(), b.pooled.wire_ms_per_op(), "{}", w.name);
            assert_eq!(
                format!("{:?}", a.pooled.cache),
                format!("{:?}", b.pooled.cache),
                "{}",
                w.name
            );
        }
        if w.name != "q1-warm" {
            let c = small(w, 12, false);
            assert!(c.correct, "{} at a second seed:\n{}", w.name, c.text);
            assert_ne!(
                a.pooled.op_fingerprints, c.pooled.op_fingerprints,
                "{}: a second seed must change the generated SQL",
                w.name
            );
        }
    }
}

#[test]
fn traced_run_reports_every_layer_and_its_budget_adds_up() {
    for name in ["q2-cold", "serve-churn"] {
        let w = workload::find(name).unwrap();
        let out = small(w, 5, true);
        // `correct` includes: no op failed, and no op's children differ
        // in sum from the op's own duration
        assert!(out.correct, "{}", out.text);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, declared);
        for (name, value, _) in &out.metrics {
            assert!(value.is_finite(), "{name} = {value}");
            if *name != "trace.overhead_frac" {
                assert!(*value >= 0.0, "{name} = {value}");
            }
        }
        assert!(out.text.contains("trace.overhead_frac"));
    }
}

#[test]
fn benchmark_json_lists_exactly_the_declared_names() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let section = |key: &str| {
        let from = json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key}"));
        let open = from + json[from..].find('[').unwrap();
        let close = open + json[open..].find(']').unwrap();
        &json[open..close]
    };
    let names = |text: &str| -> Vec<String> {
        text.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').unwrap()].to_string()).collect()
    };
    let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(names(section("workloads")), workloads);
    for w in &WORKLOADS {
        assert!(section("workloads").contains(w.why), "why of {} differs", w.name);
        assert!(w.why.len() <= 200);
    }
    let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    assert_eq!(names(section("end_to_end")), e2e);
    for (name, unit, better, bound) in END_TO_END {
        let entry = format!(
            "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
        );
        assert!(section("end_to_end").contains(&entry), "missing {entry}");
    }
    let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(names(section("per_layer")), layers);
    for (name, unit, better) in PER_LAYER {
        let entry =
            format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
        assert!(section("per_layer").contains(&entry), "missing {entry}");
    }
}
