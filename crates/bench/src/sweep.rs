//! The figure sweep: Figures 8, 10, 11a and 11b of the paper's §5 as one
//! grid of cells, query × the figure's x-axis × link × batch size.
//!
//! In each cell every enumerated placement runs ([`crate::plans`], plus
//! Query 4's two hinted DBMS plans), then the optimizer's own choice, all
//! with the relation cache off: the paper's system had none, and no
//! placement may read what an earlier one left resident. A cell records
//! per run the measured time (compute wall + virtual wire, plus
//! optimization for the optimizer's run), the estimated cost, the rows,
//! the wire trips and bytes, and the `ExecReport`; and the optimizer's
//! regret, `t(chosen) / min(t(every placement, chosen included))`.
//!
//! Everything downstream reads the sweep's JSON document: the `--check`
//! gate on what the paper says about the fixed plans ([`check`]), and the
//! figure tables of EXPERIMENTS.md and README.md ([`blocks`], [`splice`]).

use crate::plans::{self, placement_summary, PlanBuilder};
use crate::setup::{load_position_variant, load_uis, uis_link_profile, Setup};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};
use tango_algebra::date::day;
use tango_algebra::{Day, Relation};
use tango_core::cost::CostFactors;
use tango_core::engine::ExecReport;
use tango_core::Tango;
use tango_minidb::LinkProfile;
use tango_trace::json::{self, Json, Object};
use tango_uis::queries::{q1_sql, q2_sql, q3_sql, q4_sql};
use tango_uis::{UisConfig, POSITION_VARIANTS};

/// The figure of each query, Query 1 first.
const FIGURES: [&str; 4] = ["8", "10", "11a", "11b"];
/// The paper's LAN, a WAN ten times slower in latency and in bandwidth,
/// and a free wire.
pub const LINKS: [&str; 3] = ["lan", "wan", "instant"];
/// Rows per executor batch: row-at-a-time and the default.
const BATCHES: [usize; 2] = [1, 1024];

/// What to sweep.
pub struct Config {
    /// `UisConfig::small` and short axes instead of the paper's scale.
    pub small: bool,
    /// Names from [`LINKS`].
    pub links: Vec<&'static str>,
    pub batches: Vec<usize>,
    /// Pinned cost factors; `None` calibrates once per link and batch.
    pub factors: Option<CostFactors>,
    /// Re-calibrations to count the optimizer's plan flips over, on the
    /// LAN at batch 1,024, where the optimizer also runs under default
    /// factors and under feedback. 0 skips all three.
    pub recalibrations: usize,
}

impl Config {
    /// Every link and batch, calibrated.
    pub fn new(small: bool) -> Config {
        let (links, batches) = (LINKS.to_vec(), BATCHES.to_vec());
        Config { small, links, batches, factors: None, recalibrations: if small { 2 } else { 5 } }
    }
}

fn link_profile(link: &str) -> LinkProfile {
    let lan = uis_link_profile();
    match link {
        "wan" => LinkProfile {
            roundtrip_latency_us: lan.roundtrip_latency_us * 10.0,
            bytes_per_sec: lan.bytes_per_sec / 10.0,
            ..lan
        },
        "instant" => LinkProfile::instant(),
        _ => lan,
    }
}

/// A POSITION size for Queries 1 and 4, a year for Queries 2 and 3.
fn axis(query: usize, small: bool, rows: usize) -> Vec<i64> {
    match (query, small) {
        (1 | 4, true) => vec![500, 1000, 2000],
        (1 | 4, false) => POSITION_VARIANTS.iter().chain([&rows]).map(|&n| n as i64).collect(),
        (_, true) => vec![1986, 1994, 2000],
        (_, false) => (0..9).map(|i| 1984 + 2 * i).collect(),
    }
}

fn year(x: i64) -> Day {
    day(x as i32, 1, 1)
}

fn query_sql(query: usize, x: i64) -> String {
    let pos = format!("POS_{x}");
    match query {
        1 => q1_sql(&pos),
        2 => q2_sql(day(1983, 1, 1), year(x)),
        3 => q3_sql(year(x)),
        _ => q4_sql(&pos),
    }
}

/// Run `go` on a reset link; its total time in µs and its JSON.
fn measure(
    t: &mut Tango,
    plan: &str,
    est_us: f64,
    go: impl FnOnce(&mut Tango) -> (Relation, Option<ExecReport>, Duration),
) -> (f64, String) {
    let link = t.conn().link().clone();
    link.reset();
    let trips = link.roundtrips();
    let (rel, report, total) = go(t);
    let trips = link.roundtrips() - trips;
    let p = link.profile();
    // bytes from the link's charge; unknown (null) on a free wire
    let bytes_us = link.total().as_secs_f64() * 1e6 - trips as f64 * p.roundtrip_latency_us;
    let fingerprint = rel.tuples().iter().fold(0u64, |acc, row| {
        let mut h = DefaultHasher::new();
        row.hash(&mut h);
        acc.wrapping_add(h.finish())
    });
    let hits = report
        .as_ref()
        .map_or(0, |r| r.steps.iter().filter(|s| s.annotation("cache") == Some("hit")).count());
    let total_us = total.as_secs_f64() * 1e6;
    let mut o = Object::new();
    o.string("plan", plan).number("total_us", total_us).number("est_us", est_us);
    o.number("rows", rel.len() as f64).string("fingerprint", &format!("{fingerprint:016x}"));
    o.number("wire_trips", trips as f64);
    o.number("wire_bytes", (bytes_us * p.bytes_per_sec / 1e6).round());
    o.number("cache_hits", hits as f64);
    o.raw("report", &report.map_or("null".into(), |r| r.to_json()));
    (total_us, o.build())
}

/// The optimizer's run of `sql` under the session's factors, and its
/// chosen placement.
fn optimizer_run(t: &mut Tango, sql: &str) -> ((f64, String), String) {
    let chosen = t.optimize(sql).expect("optimize failed");
    let run = measure(t, "optimizer", chosen.est_cost_us, |t| {
        let (rel, report) = t.query(sql).unwrap_or_else(|e| panic!("{e}\nsql: {sql}"));
        let total = report.total();
        (rel, Some(report.exec), total)
    });
    (run, placement_summary(&chosen.plan))
}

/// One cell, as JSON. `recalibrated` are the factor sets the plan flips
/// count over; none skips them and the other factor sources.
fn cell(s: &mut Setup, query: usize, x: i64, recalibrated: &[CostFactors], o: &mut Object) {
    let b = PlanBuilder::new(&s.conn);
    let pos = format!("POS_{x}");
    let mut placements: Vec<_> = match query {
        1 => plans::q1_plans(&b, &pos),
        2 => plans::q2_plans(&b, day(1983, 1, 1), year(x)),
        3 => plans::q3_plans(&b, year(x)),
        _ => vec![("plan1 (join in mid)", plans::q4_plan1(&b, &pos))],
    }
    .into_iter()
    .map(|(name, plan)| (name, plan, None))
    .collect();
    if query == 4 {
        for (name, hint) in [("plan2 (DBMS NL)", "USE_NL"), ("plan3 (DBMS merge)", "USE_MERGE")] {
            let sql = plans::q4_dbms_sql(&pos, &format!("/*+ {hint} */"));
            placements.push((name, plans::q4_dbms_plan(&b, &pos), Some(sql)));
        }
    }
    let runs: Vec<(f64, String)> = placements
        .into_iter()
        .map(|(name, plan, sql)| {
            let est = s.tango.estimate_physical(&plan).expect("estimate failed");
            measure(&mut s.tango, name, est, |t| match &sql {
                None => {
                    let (rel, report) = t.execute_physical(&plan).expect("plan failed");
                    let total = report.total();
                    (rel, Some(report), total)
                }
                Some(sql) => {
                    let t0 = Instant::now();
                    let rel = t.conn().query_all(sql).expect("hinted query failed");
                    (rel, None, t0.elapsed() + t.conn().link().total())
                }
            })
        })
        .collect();
    let sql = query_sql(query, x);
    let ((t_opt, optimizer), chosen) = optimizer_run(&mut s.tango, &sql);
    let best = runs.iter().map(|r| r.0).fold(t_opt, f64::min);
    o.string("chosen", &chosen).number("regret", t_opt / best);
    if query == 2 {
        s.tango.options_mut().use_histograms = false;
        let c = s.tango.optimize(&sql).expect("optimize failed");
        s.tango.options_mut().use_histograms = true;
        o.string("chosen_without_histograms", &placement_summary(&c.plan));
    }
    o.raw("optimizer", &optimizer);
    let runs: Vec<String> = runs.into_iter().map(|r| r.1).collect();
    o.raw("placements", &format!("[{}]", runs.join(",")));
    if recalibrated.is_empty() {
        return;
    }
    let calibrated = *s.tango.factors();
    let flips = recalibrated
        .iter()
        .filter(|f| {
            s.tango.set_factors(**f);
            placement_summary(&s.tango.optimize(&sql).expect("optimize failed").plan) != chosen
        })
        .count();
    o.number("flips", flips as f64).number("recalibrations", recalibrated.len() as f64);
    let mut sources = Vec::new();
    for (name, factors, feedback) in
        [("default", CostFactors::default(), false), ("calibrated + feedback", calibrated, true)]
    {
        s.tango.set_factors(factors);
        s.tango.options_mut().feedback = feedback;
        if feedback {
            s.tango.query(&sql).expect("query failed"); // one run to adapt from
        }
        let ((t, _), chosen) = optimizer_run(&mut s.tango, &sql);
        let mut src = Object::new();
        src.string("factors", name).string("chosen", &chosen).number("total_us", t);
        sources.push(src.number("regret", t / best.min(t)).build());
    }
    s.tango.options_mut().feedback = false;
    s.tango.set_factors(calibrated);
    o.raw("factor_sources", &format!("[{}]", sources.join(",")));
}

/// Run the sweep; its JSON document, one cell per line.
pub fn sweep(cfg: &Config) -> String {
    let uis = if cfg.small { UisConfig::small(0xEC1) } else { UisConfig::default() };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let host = format!("{}-{}, {cpus} cpus", std::env::consts::ARCH, std::env::consts::OS);
    let (mut cells, mut links) = (Vec::new(), Vec::new());
    for &link in &cfg.links {
        eprintln!("loading UIS ({} POSITION rows) behind the {link} link ...", uis.position_rows);
        let p = link_profile(link);
        let mut s = load_uis(&uis, p, false);
        s.tango.options_mut().cache_budget = None;
        for n in axis(1, cfg.small, uis.position_rows) {
            load_position_variant(&mut s, &format!("POS_{n}"), n as usize);
        }
        for &batch in &cfg.batches {
            s.tango.options_mut().batch_rows = Some(batch);
            let mut calibrate = || s.tango.calibrate().expect("calibration failed").factors;
            let n = if link == "lan" && batch == 1024 { cfg.recalibrations } else { 0 };
            let recalibrated: Vec<CostFactors> = (0..n).map(|_| calibrate()).collect();
            let factors = cfg.factors.unwrap_or_else(calibrate);
            s.tango.set_factors(factors);
            for query in 1..=4 {
                for x in axis(query, cfg.small, uis.position_rows) {
                    let mut o = Object::new();
                    o.string("figure", FIGURES[query - 1]).number("query", query as f64);
                    o.number("x", x as f64).string("link", link).number("batch", batch as f64);
                    cell(&mut s, query, x, &recalibrated, o.string("host", &host));
                    cells.push(o.build());
                }
            }
            eprintln!("  {link} link, batch {batch}: done");
        }
        let mut o = Object::new();
        o.string("name", link).number("roundtrip_latency_us", p.roundtrip_latency_us);
        o.number("bytes_per_sec", p.bytes_per_sec).number("row_prefetch", p.row_prefetch as f64);
        links.push(o.build());
    }
    let mut o = Object::new();
    o.string("bench", "figures").string("scale", if cfg.small { "small" } else { "paper" });
    o.string("host", &host).raw("links", &format!("[{}]", links.join(",")));
    let head = o.build();
    format!("{},\"cells\":[\n{}\n]}}\n", &head[..head.len() - 1], cells.join(",\n"))
}

// ---- reading the document back ----

fn get<'a>(j: &'a Json, key: &str) -> Option<&'a Json> {
    let Json::Obj(kv) = j else { return None };
    kv.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn num(j: &Json, key: &str) -> f64 {
    let Some(Json::Num(v)) = get(j, key) else { return f64::NAN };
    *v
}

fn text<'a>(j: &'a Json, key: &str) -> &'a str {
    let Some(Json::Str(s)) = get(j, key) else { return "" };
    s
}

/// The elements of an array-valued field.
pub fn items<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    let Some(Json::Arr(v)) = get(j, key) else { return &[] };
    v
}

/// A cell's placements, then its optimizer's run.
pub fn runs(cell: &Json) -> impl Iterator<Item = &Json> {
    items(cell, "placements").iter().chain(get(cell, "optimizer"))
}

/// One figure at one link and batch: its cells, x values, the runs' names
/// and per run the times in seconds.
struct Series<'a> {
    cells: Vec<&'a Json>,
    xs: Vec<i64>,
    names: Vec<&'a str>,
    t: Vec<Vec<f64>>,
}

fn series<'a>(doc: &'a Json, query: usize, link: &str, batch: usize) -> Series<'a> {
    let cells: Vec<&Json> = items(doc, "cells")
        .iter()
        .filter(|c| num(c, "query") == query as f64 && text(c, "link") == link)
        .filter(|c| num(c, "batch") == batch as f64)
        .collect();
    let names = cells.first().map_or(vec![], |c| runs(c).map(|r| text(r, "plan")).collect());
    let time = |c: &Json, p| runs(c).nth(p).map_or(f64::NAN, |r| num(r, "total_us") / 1e6);
    let t = (0..names.len()).map(|p| cells.iter().map(|c| time(c, p)).collect()).collect();
    let xs = cells.iter().map(|c| num(c, "x") as i64).collect();
    Series { cells, xs, names, t }
}

fn lan(doc: &Json, query: usize) -> Series<'_> {
    series(doc, query, "lan", 1024)
}

/// `b` is slower than `a` up to some x and faster from the next one on:
/// the two x values it overtakes `a` between.
fn crossover(xs: &[i64], a: &[f64], b: &[f64]) -> Option<(i64, i64)> {
    let k = (0..xs.len()).find(|&i| b[i] < a[i])?;
    let single = (0..xs.len()).all(|i| (b[i] < a[i]) == (i >= k));
    (k > 0 && single).then(|| (xs[k - 1], xs[k]))
}

/// An x value of `query`'s axis (a year for Queries 2 and 3), or a count
/// with thousands separators.
fn fmt_x(query: usize, x: i64) -> String {
    let s = x.to_string();
    if matches!(query, 2 | 3) {
        return s;
    }
    let comma = |i: usize| if i > 0 && (s.len() - i).is_multiple_of(3) { "," } else { "" };
    s.char_indices().map(|(i, ch)| format!("{}{ch}", comma(i))).collect()
}

fn between(query: usize, c: Option<(i64, i64)>) -> String {
    let fmt = |(a, b)| format!("between {} and {}", fmt_x(query, a), fmt_x(query, b));
    c.map_or("no single crossover".into(), fmt)
}

/// One statement about the fixed plans, as `--check` gates it.
pub struct Verdict {
    pub statement: &'static str,
    pub measured: String,
    pub holds: bool,
}

/// The paper's statements about the fixed plans (§5), on the LAN cells at
/// batch 1,024. Plan numbers are the figures'; the optimizer is not gated.
pub fn check(doc: &Json) -> Vec<Verdict> {
    let (f8, f10, f11a, f11b) = (lan(doc, 1), lan(doc, 2), lan(doc, 3), lan(doc, 4));
    let (t8, t10, n) = (&f8.t, &f10.t, f10.xs.len() - 1);
    let sizes = 0..f8.xs.len();
    let gap = sizes.clone().map(|i| (t8[0][i] / t8[1][i] - 1.0).abs()).fold(0.0, f64::max);
    let lead = sizes.map(|i| t8[2][i] / t8[0][i].max(t8[1][i])).fold(f64::MAX, f64::min);
    let best = |i: usize| (0..6).map(|p| t10[p][i]).fold(f64::MAX, f64::min);
    let worst = (0..=n).map(|i| t10[1][i] / best(i)).fold(0.0, f64::max);
    let (first, last) = (t10[5][0] / t10[1][0], t10[5][n] / t10[1][n]);
    let others = [0, 1, 2, 5].map(|p| t10[p][0]).into_iter().fold(0.0, f64::max);
    let whole = t10[3][0].min(t10[4][0]) / others;
    let behind = t10[0][n] / t10[1][n];
    let c11a = crossover(&f11a.xs, &f11a.t[0], &f11a.t[1]);
    let dbms: Vec<f64> = f11b.t[1].iter().zip(&f11b.t[2]).map(|(a, b)| a.min(*b)).collect();
    let c11b = crossover(&f11b.xs, &dbms, &f11b.t[0]);
    let verdicts = [
        (
            "Figure 8: plans 1 and 2 are within 15 % of each other at every size",
            format!("largest gap {:.0} %", gap * 100.0),
            gap <= 0.15,
        ),
        (
            "Figure 8: plan 3 (temporal aggregation in the DBMS) is the slowest at every size",
            format!("plan 3 ÷ the slower of plans 1-2 ≥ {lead:.2}"),
            lead > 1.0,
        ),
        (
            "Figure 10: plan 2 is within 10 % of the best fixed plan at every window end",
            format!("plan 2 ÷ best ≤ {worst:.2}"),
            worst <= 1.10,
        ),
        (
            "Figure 10: plan 6 (all DBMS) falls behind plan 2 as the window widens",
            format!("plan 6 ÷ plan 2 = {first:.2} at {}, {last:.2} at {}", f10.xs[0], f10.xs[n]),
            last >= 1.5 && last > first,
        ),
        (
            "Figure 10: plans 4 and 5 (whole-relation transfers) are the slowest at the tightest \
             window",
            format!("faster of plans 4-5 ÷ slowest other = {whole:.2}"),
            whole > 1.0,
        ),
        (
            "Figure 10: plan 1 falls behind plan 2 as its TRANSFER^D grows",
            format!("plan 1 ÷ plan 2 = {behind:.2} at {}", f10.xs[n]),
            behind >= 1.5,
        ),
        (
            "Figure 11a: plan 2 (temporal join in the middleware) overtakes plan 1 between 1992 \
             and 1996",
            between(3, c11a),
            c11a.is_some_and(|(a, b)| a >= 1992 && b <= 1996),
        ),
        (
            "Figure 11b: the middleware join overtakes the DBMS NL and merge plans between 36,000 \
             and 55,000 rows",
            between(4, c11b),
            c11b.is_some_and(|(a, b)| a >= 36_000 && b <= 55_000),
        ),
    ];
    verdicts.map(|(statement, measured, holds)| Verdict { statement, measured, holds }).into()
}

// ---- the generated tables ----

fn table(head: &[&str], rows: Vec<Vec<String>>) -> String {
    let line = |cells: Vec<&str>| format!("| {} |\n", cells.join(" | "));
    let mut s = line(head.to_vec()) + &line(vec!["---"; head.len()]);
    rows.iter().for_each(|r| s += &line(r.iter().map(String::as_str).collect()));
    s
}

/// The figure's LAN table at batch 1,024, in seconds.
fn figure_table(doc: &Json, query: usize) -> String {
    let s = lan(doc, query);
    let mut head = vec![["rows", "window end", "T1 <", "rows"][query - 1]];
    head.extend(s.names.iter().chain(&["chosen", "regret", "result rows"]));
    head.extend((query == 2).then_some("chosen without histograms"));
    let rows = s.cells.iter().zip(&s.xs).enumerate().map(|(i, (c, x))| {
        let mut r = vec![fmt_x(query, *x)];
        r.extend(s.t.iter().map(|t| format!("{:.2}", t[i])));
        let rows = items(c, "placements").first().map_or(0.0, |p| num(p, "rows"));
        let regret = format!("{:.2}", num(c, "regret"));
        r.extend([text(c, "chosen").into(), regret, fmt_x(1, rows as i64)]);
        r.extend((query == 2).then(|| text(c, "chosen_without_histograms").into()));
        r
    });
    table(&head, rows.collect())
}

/// A cell's regret under a factor source; "calibrated" is the sweep's own.
fn regret_under(c: &Json, factors: &str) -> f64 {
    let mut sources = items(c, "factor_sources").iter();
    match sources.find(|s| text(s, "factors") == factors) {
        Some(s) => num(s, "regret"),
        None if factors == "calibrated" => num(c, "regret"),
        None => f64::NAN,
    }
}

/// Per figure, the largest regret of `cells(query)` and the x it falls at.
fn max_regrets<'a>(cells: impl Fn(usize) -> Vec<&'a Json>, factors: &str) -> Vec<String> {
    let worst = |q| {
        let regrets = cells(q).into_iter().map(|c| (regret_under(c, factors), num(c, "x")));
        let (r, x) = regrets.fold((0.0, 0.0), |a, b| if b.0 > a.0 { b } else { a });
        format!("{r:.2} ({})", fmt_x(q, x as i64))
    };
    (1..=4).map(worst).collect()
}

fn figures_head(first: &str) -> Vec<&str> {
    vec![first, "Fig. 8", "Fig. 10", "Fig. 11a", "Fig. 11b"]
}

fn regret_table(doc: &Json) -> String {
    let mut rows = Vec::new();
    for (link, batch) in LINKS.iter().flat_map(|l| BATCHES.map(|b| (*l, b))) {
        let cells = |q| series(doc, q, link, batch).cells;
        if !cells(1).is_empty() {
            rows.push(
                [format!("{link}, {batch}")]
                    .into_iter()
                    .chain(max_regrets(cells, "calibrated"))
                    .collect(),
            );
        }
    }
    table(&figures_head("link, batch"), rows)
}

fn sources_table(doc: &Json) -> String {
    let cells = |q| lan(doc, q).cells;
    let mut rows: Vec<Vec<String>> = ["default", "calibrated", "calibrated + feedback"]
        .map(|f| {
            [format!("max regret, {f} factors")].into_iter().chain(max_regrets(cells, f)).collect()
        })
        .into();
    let flips = (1..=4).map(|q| {
        let sum = |k| cells(q).iter().map(|c| num(c, k)).sum::<f64>();
        format!("{} of {}", sum("flips"), sum("recalibrations"))
    });
    rows.push(["plan flips over the re-calibrations".into()].into_iter().chain(flips).collect());
    table(&figures_head("LAN, batch 1,024"), rows)
}

fn check_table(doc: &Json) -> String {
    let rows = check(doc).into_iter().map(|v| {
        let verdict = if v.holds { "holds" } else { "**fails**" };
        vec![v.statement.to_string(), v.measured, verdict.to_string()]
    });
    table(&["statement (paper, §5)", "measured", "verdict"], rows.collect())
}

/// The README's figure rows, from the same numbers as the checks.
fn glance(doc: &Json) -> String {
    let v = check(doc);
    let f8 = lan(doc, 1);
    let ratio = |i: usize| f8.t[2][i] / f8.t[0][i].max(f8.t[1][i]);
    let (first, last) = (0, f8.xs.len() - 1);
    let f10 = lan(doc, 2).cells;
    let differ = f10.iter().filter(|c| get(c, "chosen") != get(c, "chosen_without_histograms"));
    let regrets = max_regrets(|q| lan(doc, q).cells, "calibrated");
    let regrets = regrets.iter().zip(FIGURES).map(|(r, f)| format!("Fig. {f} {r}"));
    let rows = [
        (
            "Temporal aggregation in the middleware up to ~10× faster than in the DBMS (Fig. 8)",
            format!(
                "plan 3 ÷ plans 1-2: {:.1}× at {} rows, {:.1}× at {}",
                ratio(first),
                fmt_x(1, f8.xs[first]),
                ratio(last),
                fmt_x(1, f8.xs[last])
            ),
        ),
        (
            "Query 2: whole-relation-transfer plans and the all-DBMS plan blow up as the window \
             relaxes; middleware taggr+tjoin wins (Fig. 10)",
            format!("{}; {}", v[2].measured, v[3].measured),
        ),
        (
            "Histograms on time attributes fix Query 2's plan choice (§5.2)",
            match differ.count() {
                0 => format!("no: the same choice with and without them at all {} ends", f10.len()),
                n => {
                    format!("the choice differs with and without them at {n} of {} ends", f10.len())
                }
            },
        ),
        (
            "Query 3: the middleware temporal join wins once the result outgrows the arguments \
             (Fig. 11a)",
            format!("plan 2 overtakes plan 1 {}", v[6].measured),
        ),
        (
            "Query 4: regular joins belong in the DBMS; the middleware plan stays competitive \
             (Fig. 11b)",
            format!(
                "the DBMS plans win at small sizes; the middleware join overtakes them {} rows",
                v[7].measured
            ),
        ),
        (
            "The optimizer puts each operation on the right side (§5)",
            format!("largest regret per figure: {}", regrets.collect::<Vec<_>>().join(", ")),
        ),
    ];
    let rows = rows.into_iter().map(|(claim, here)| vec![claim.to_string(), here]).collect();
    table(&["Paper claim", "Here (LAN, batch 1,024)"], rows)
}

/// The generated blocks: (file, block name, markdown).
pub fn blocks(doc: &Json) -> Vec<(&'static str, &'static str, String)> {
    let mut v: Vec<_> = ["fig8", "fig10", "fig11a", "fig11b"]
        .into_iter()
        .zip(1..)
        .map(|(name, q)| ("EXPERIMENTS.md", name, figure_table(doc, q)))
        .collect();
    v.push(("EXPERIMENTS.md", "checks", check_table(doc)));
    v.push(("EXPERIMENTS.md", "regret", regret_table(doc)));
    v.push(("EXPERIMENTS.md", "sources", sources_table(doc)));
    v.push(("README.md", "glance", glance(doc)));
    v
}

/// `text` with the lines between `<!-- figures:NAME -->` and
/// `<!-- /figures:NAME -->` replaced by `block`; `None` without them.
pub fn splice(text: &str, name: &str, block: &str) -> Option<String> {
    let open = format!("<!-- figures:{name} -->\n");
    let start = text.find(&open)? + open.len();
    let end = start + text[start..].find(&format!("<!-- /figures:{name} -->"))?;
    Some(format!("{}{block}{}", &text[..start], &text[end..]))
}

/// Parse a sweep document.
pub fn parse(text: &str) -> Json {
    json::parse(text).unwrap_or_else(|e| panic!("the figures document does not parse: {e}"))
}
