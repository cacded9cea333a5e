//! The figure sweep (`tango_bench::sweep`): the facts of a swept cell that
//! repeat on the virtual wire, and the committed figure tables as the
//! rendering of the committed `docs/figures.json`.

use tango::core::cost::CostFactors;
use tango_bench::sweep::{self, Config};
use tango_trace::json::{parse, Json};

fn get<'a>(doc: &'a Json, key: &str) -> &'a Json {
    match doc {
        Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
    .unwrap_or_else(|| panic!("no `{key}` in {doc:?}"))
}

fn keys(doc: &Json) -> Vec<&str> {
    match doc {
        Json::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

/// What every cell holds, and every run of it; Query 2's cells add
/// `chosen_without_histograms`, and the LAN cells at batch 1,024 of a
/// calibrated sweep the `SOURCE_KEYS`.
const CELL_KEYS: [&str; 10] = [
    "figure",
    "query",
    "x",
    "link",
    "batch",
    "host",
    "chosen",
    "regret",
    "optimizer",
    "placements",
];
const SOURCE_KEYS: [&str; 3] = ["flips", "recalibrations", "factor_sources"];
const RUN_KEYS: [&str; 9] = [
    "plan",
    "total_us",
    "est_us",
    "rows",
    "fingerprint",
    "wire_trips",
    "wire_bytes",
    "cache_hits",
    "report",
];

fn assert_cell_keys(cell: &Json, sourced: bool) {
    let mut want = CELL_KEYS.to_vec();
    want.extend((*get(cell, "query") == Json::Num(2.0)).then_some("chosen_without_histograms"));
    want.extend(SOURCE_KEYS.iter().filter(|_| sourced));
    let mut have = keys(cell);
    have.sort_unstable();
    want.sort_unstable();
    assert_eq!(have, want);
    for run in sweep::runs(cell) {
        assert_eq!(keys(run), RUN_KEYS);
    }
}

#[test]
fn swept_cells_agree_and_pay_their_own_transfers() {
    // the paper's LAN at the default batch, under pinned factors: no
    // calibration, so every choice repeats
    let cfg = Config {
        small: true,
        links: vec!["lan"],
        batches: vec![1024],
        factors: Some(CostFactors::default()),
        recalibrations: 0,
    };
    let text = sweep::sweep(&cfg);
    let doc = parse(&text).expect("the sweep's JSON parses");
    let cells = sweep::items(&doc, "cells");
    assert_eq!(cells.len(), 12, "four queries × three x values");
    let num = |j: &Json, key: &str| match get(j, key) {
        Json::Num(v) => *v,
        other => panic!("`{key}` is not a number: {other:?}"),
    };
    for cell in cells {
        assert_cell_keys(cell, false);
        let what = format!("Query {} at {}", num(cell, "query"), num(cell, "x"));
        let placements = sweep::items(cell, "placements");
        // Query 2's plan 5 aggregates the whole relation before the window
        // applies: the approximate window push, equal to the others only
        // snapshot by snapshot inside the window (tests/equivalence.rs)
        let approximate =
            |run: &Json| *get(run, "plan") == Json::Str("plan5 (no arg filter)".into());
        for p in placements.iter().filter(|p| !approximate(p)) {
            assert_eq!(get(p, "fingerprint"), get(&placements[0], "fingerprint"), "{what}: {p:?}");
        }
        // the optimizer projects its own columns, over the same rows, but
        // Query 2's SQL windows the joined result's period where the fixed
        // plans window POSITION's: it answers with fewer rows
        let rows = num(&placements[0], "rows");
        let optimizer = num(get(cell, "optimizer"), "rows");
        assert!(optimizer == rows || num(cell, "query") == 2.0 && optimizer < rows, "{what}");
        let regret = num(cell, "regret");
        assert!(regret.is_finite() && regret >= 1.0, "{what}: regret {regret}");
        for run in sweep::runs(cell) {
            assert_eq!(num(run, "cache_hits"), 0.0, "{what}: a run read the cache");
            // the run's `ExecReport::to_json`, embedded as it is; hinted
            // SQL has none
            let report = get(run, "report");
            if *report == Json::Null {
                assert!(get(run, "plan") != &Json::Str("optimizer".into()));
                continue;
            }
            assert_eq!(keys(report), ["rows", "wall_us", "wire_us", "total_us", "steps"]);
            assert_eq!(num(report, "rows"), num(run, "rows"), "{what}");
            let span = num(report, "total_us") - num(report, "wall_us") - num(report, "wire_us");
            assert!(span.abs() <= 0.011, "{what}: total = wall + wire");
            // a fixed plan's time is its report's total, to the digit
            if *get(run, "plan") != Json::Str("optimizer".into()) {
                assert_eq!(num(run, "total_us"), num(report, "total_us"), "{what}");
            }
        }
        if num(cell, "query") == 2.0 {
            let bytes = |n: usize| num(&placements[n], "wire_bytes");
            assert!(bytes(3) > bytes(1) && bytes(4) > bytes(1), "{what}: plans 4-5 vs plan 2");
        }
    }
}

#[test]
fn committed_figure_tables_are_the_rendering_of_docs_figures_json() {
    let root = env!("CARGO_MANIFEST_DIR");
    let read = |file: &str| {
        std::fs::read_to_string(format!("{root}/{file}")).unwrap_or_else(|e| panic!("{file}: {e}"))
    };
    let doc = sweep::parse(&read("docs/figures.json"));
    assert_eq!(get(&doc, "scale"), &Json::Str("paper".into()));
    let cells = sweep::items(&doc, "cells");
    assert_eq!(cells.len(), 4 * 9 * 3 * 2, "queries × x values × links × batches");
    for cell in cells {
        let lan = *get(cell, "link") == Json::Str("lan".into());
        assert_cell_keys(cell, lan && *get(cell, "batch") == Json::Num(1024.0));
    }
    for (file, name, block) in sweep::blocks(&doc) {
        let committed = read(file);
        let rendered = sweep::splice(&committed, name, &block)
            .unwrap_or_else(|| panic!("{file} has no `figures:{name}` block"));
        assert!(
            rendered == committed,
            "{file}'s `figures:{name}` block is not the rendering of docs/figures.json; \
             rerun `cargo run --release -p tango-bench --bin figures`:\n{block}"
        );
    }
}
