//! The TANGO benchmark: one command per workload. See `README.md` in this
//! directory for the metric contract and `BENCHMARK.json` at the root of
//! the repository for the command the driver runs.

mod calibrations;
mod env;
mod factors;
mod host;
mod metrics;
mod oracle;
mod probe;
mod repeat;
mod run;
mod stats;
mod trace;
mod workload;

use env::Scale;
use metrics::{Pooled, END_TO_END, PER_LAYER};
use run::Limit;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tango_core::Tango;
use tango_minidb::Connection;
use trace::Tracer;
use workload::Workload;

const DEFAULT_SEED: u64 = 1;
/// Fresh set-ups per untraced run; `setup_s` is the median of them.
const ROUNDS: usize = 3;
/// Slices a round's timed ops are cut into. Every end-to-end timing is
/// computed per slice and reported as the interquartile mean of the run's
/// `ROUNDS × SLICES` values (`stats::midmean`): the host changes speed by
/// 15–25 % for seconds at a time, and a statistic over a whole round
/// follows it.
const SLICES: usize = 4;

pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    scale: Scale,
    repeat: Option<usize>,
    calibrate: Option<usize>,
}

const USAGE: &str = "usage: tango-benchmark --workload <name> [--seed <u64>] [--seconds <s>] \
                     [--trace [0|1]] [--scale small|paper] [--repeat <n>]\n       \
                     tango-benchmark --calibrate <n>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        scale: Scale::Paper,
        repeat: None,
        calibrate: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value =
            |what: &str| it.next().cloned().ok_or_else(|| format!("{flag} needs a value: {what}"));
        let bad = |v: &str| format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a whole number").and_then(|v| v.parse().map_err(|_| bad(&v)))?
            }
            "--seconds" => {
                let s: f64 = value("seconds").and_then(|v| v.parse().map_err(|_| bad(&v)))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds out of range: {s}"));
                }
                a.seconds = Some(s);
            }
            "--scale" => {
                a.scale = match value("small or paper")?.as_str() {
                    "small" => Scale::Small,
                    "paper" => Scale::Paper,
                    v => return Err(bad(v)),
                }
            }
            "--repeat" => {
                a.repeat = Some(value("a count").and_then(|v| v.parse().map_err(|_| bad(&v)))?)
            }
            "--calibrate" => {
                a.calibrate = Some(value("a count").and_then(|v| v.parse().map_err(|_| bad(&v)))?)
            }
            "--trace" => {
                // the driver passes `--trace 0|1`; by hand, a bare flag
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Some(n) = args.calibrate {
        return calibrate(n);
    }
    let Some(w) = args.workload.as_deref().and_then(workload::find) else {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("--workload must be one of: {}\n{USAGE}", names.join(", "));
        std::process::exit(2);
    };
    if let Some(n) = args.repeat {
        std::process::exit(repeat::repeat(n, &argv));
    }
    let out = run_workload(w, &args, started);
    print!("{}", out.text);
    println!("{}", out.json_line());
    // a wrong answer still exits 0: `correct` and `failed` carry it
}

/// `--calibrate n`: print the source of `calibrations.rs` from `n` fresh
/// calibrations (each on a fresh database, as a session would do it).
fn calibrate(n: usize) {
    let sets: Vec<[f64; factors::N_FACTORS]> = (0..n)
        .map(|_| {
            let env = env::setup(&workload::WORKLOADS[0], DEFAULT_SEED, Scale::Paper);
            let mut t = Tango::connect(env.db.clone());
            factors::to_array(&t.calibrate().expect("calibration").factors)
        })
        .collect();
    print!("{}", factors::render_calibrations(&sets));
}

/// The result of one run of one workload.
pub struct Outcome {
    /// Human-readable report.
    pub text: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in contract order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// What the determinism test compares.
    pub pooled: Pooled,
}

impl Outcome {
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// What the traced round adds to the untraced one.
struct Traced {
    tracer: Tracer,
    layers: BTreeMap<&'static str, Vec<f64>>,
    cpu_ms_p50: f64,
    times: env::SetupTimes,
    fit_s: f64,
    max_factor_drift: f64,
    ref_kernel_ms: f64,
    ref_kernel_drift: f64,
    insert_us: f64,
    delete_us: f64,
}

pub fn run_workload(w: &Workload, args: &Args, started: Instant) -> Outcome {
    // an untraced run is ROUNDS fresh set-ups; a traced run is one
    // untraced round, then the same op sequence again with tracing on
    let rounds: Vec<bool> = if args.trace { vec![false, true] } else { vec![false; ROUNDS] };
    let limit = match args.seconds {
        Some(s) => Limit::Time(Duration::from_secs_f64(s / rounds.len() as f64)),
        None => {
            let total = match args.scale {
                Scale::Paper => w.ops,
                Scale::Small => (w.ops / 20).max(1),
            };
            Limit::Ops(total.div_ceil(ROUNDS))
        }
    };

    let mut pooled = Pooled::default();
    let mut slices: Vec<Pooled> = Vec::new();
    let mut setup_s = Vec::new();
    let mut warmup = (0u64, 0u64);
    let mut traced: Option<Traced> = None;
    for (round, &trace_on) in rounds.iter().enumerate() {
        let t0 = if round == 0 { started } else { Instant::now() };
        let mut env = env::setup(w, args.seed, args.scale);
        setup_s.push(t0.elapsed().as_secs_f64());
        warmup.0 += env.warmup_failed;
        warmup.1 += env.warmup_attempted;

        if !trace_on {
            let version = env.sessions[0].conn().table_version("POSITION").unwrap_or(0);
            let pass = run::pass(&mut env, w, args.seed, limit, false, Instant::now());
            pooled.add(&pass);
            slices.extend(
                (0..SLICES)
                    .map(|i| Pooled::slice(&pass, i, SLICES))
                    .filter(|s| !s.reads.is_empty()),
            );
            pooled.delta_bytes_logged +=
                env.sessions[0].conn().delta_bytes_since("POSITION", version).unwrap_or(0);
            continue;
        }

        // set-up-only probe, result discarded: how far one fresh
        // calibration lands from the pinned factors
        let t = Instant::now();
        let fresh = Tango::connect(env.db.clone()).calibrate().expect("calibration");
        let fit_s = t.elapsed().as_secs_f64();
        let kernel_before = host::ref_kernel().as_secs_f64() * 1e3;
        let epoch = Instant::now();
        let mut pass = run::pass(&mut env, w, args.seed, limit, true, epoch);
        let kernel_after = host::ref_kernel().as_secs_f64() * 1e3;

        let mut t_pooled = Pooled::default();
        t_pooled.add(&pass);
        let mut tracer = Tracer::new(epoch);
        let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for c in &mut pass.clients {
            tracer.merge(c.tracer.take().expect("traced pass"));
            for (k, xs) in std::mem::take(&mut c.layers) {
                layers.entry(k).or_default().extend(xs);
            }
        }
        let (insert_us, delete_us) = dml_probe(&mut tracer, &Connection::new(env.db.clone()));
        // the traced pass is checked like any other
        pooled.failed += t_pooled.failed;
        pooled.attempted += t_pooled.attempted;
        pooled.placement_changes += t_pooled.placement_changes;
        traced = Some(Traced {
            tracer,
            layers,
            cpu_ms_p50: t_pooled.cpu_ms_p50(),
            times: env.times,
            fit_s,
            max_factor_drift: factors::max_drift(&fresh.factors),
            ref_kernel_ms: kernel_before,
            ref_kernel_drift: (kernel_after - kernel_before).abs() / kernel_before,
            insert_us,
            delete_us,
        });
    }

    report(w, args, rounds.len(), limit, pooled, &slices, &setup_s, warmup, traced)
}

/// `minidb.dml.*`: time real single-row `INSERT`s and the `DELETE`s that
/// take them out again, after the pass, so no timed op sees them.
fn dml_probe(tr: &mut Tracer, conn: &Connection) -> (f64, f64) {
    let (mut ins, mut del) = (Vec::new(), Vec::new());
    for i in 0..20 {
        let marker = 8_000_000 + i;
        let (r, us) = tr.probe("probe.minidb.dml.insert", u64::MAX, || {
            conn.execute(&format!(
                "INSERT INTO POSITION VALUES (1, {marker}, 2, 'Probe', 19.5, 40, \
                 DATE '1995-01-01', DATE '1996-01-01')"
            ))
        });
        if r.is_ok() {
            ins.push(us);
        }
        let (r, us) = tr.probe("probe.minidb.dml.delete", u64::MAX, || {
            conn.execute(&format!("DELETE FROM POSITION WHERE EmpID = {marker}"))
        });
        if r.is_ok() {
            del.push(us);
        }
    }
    (stats::median(&ins), stats::median(&del))
}

#[allow(clippy::too_many_arguments)]
fn report(
    w: &Workload,
    args: &Args,
    rounds: usize,
    limit: Limit,
    pooled: Pooled,
    slices: &[Pooled],
    setup_s: &[f64],
    warmup: (u64, u64),
    traced: Option<Traced>,
) -> Outcome {
    use std::fmt::Write as _;
    let mut text = String::new();
    let scale = match args.scale {
        Scale::Paper => "paper",
        Scale::Small => "small (smoke only: no number below means anything)",
    };
    let _ = writeln!(
        text,
        "TANGO benchmark · workload {} · seed {} · scale {scale} · {}",
        w.name,
        args.seed,
        host::stamp()
    );
    let _ = writeln!(text, "why: {}", w.why);
    let _ = writeln!(
        text,
        "{} closed-loop client(s) · {rounds} round(s), each a fresh set-up · per round {}",
        w.clients,
        match limit {
            Limit::Time(d) => format!("{:.2} s", d.as_secs_f64()),
            Limit::Ops(n) => format!("{n} ops per client"),
        }
    );
    let mut by_placement: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for (i, p) in &pooled.placements {
        by_placement.entry(p).or_default().push(i.to_string());
    }
    for (p, queries) in by_placement {
        let _ = writeln!(text, "plan placement {p} · pool statement(s) {}", queries.join(","));
    }
    if pooled.placement_changes > 0 {
        let _ = writeln!(
            text,
            "plan placement changed on {} read(s){}",
            pooled.placement_changes,
            if w.fixed_placement { " — the run is rejected" } else { " (residency moved)" }
        );
    }

    let link = env::uis_link_profile();
    let failed = pooled.failed + warmup.0;
    let attempted = (pooled.attempted + warmup.1).max(1);
    let over_slices =
        |f: &dyn Fn(&Pooled) -> f64| stats::midmean(&slices.iter().map(f).collect::<Vec<f64>>());
    let e2e: Vec<(&'static str, f64, &'static str)> = END_TO_END
        .iter()
        .map(|(name, unit, _, _)| {
            let value = match *name {
                "setup_s" => stats::median(setup_s),
                "query_ms_p50" => over_slices(&|s| s.query_ms(0.5)),
                "cpu_ms_p50" => over_slices(&Pooled::cpu_ms_p50),
                "throughput_qps" => over_slices(&Pooled::throughput_qps),
                "peak_rss_mb" => host::peak_rss_mb(),
                other => unreachable!("end-to-end metric {other} has no definition"),
            };
            (*name, value, *unit)
        })
        .collect();

    let _ = writeln!(
        text,
        "\nend-to-end · timings are interquartile means over {} slices · {} timed reads, {} timed \
         writes in all",
        slices.len(),
        pooled.reads.len(),
        pooled.writes.len()
    );
    let mut line = |name: &str, value: Option<f64>, unit: &str| {
        let _ = match value {
            Some(v) => writeln!(text, "  {name:<40} {v:>14.4} {unit}"),
            None => writeln!(text, "  {name:<40} {:>14} {unit}", "n/a"),
        };
    };
    for (name, value, unit) in &e2e {
        line(name, Some(*value), unit);
    }
    line("wire_ms_per_op", Some(pooled.wire_ms_per_op()), "ms");
    line("roundtrips_per_op", Some(pooled.roundtrips_per_op()), "count");
    line("write_ms_p50", pooled.write_ms_p50(), "ms");
    line("failed_frac", Some(failed as f64 / attempted as f64), "ratio");
    line("query_ms_p90 (all reads)", Some(pooled.query_ms(0.9)), "ms");
    line("query_ms_p99 (all reads)", Some(pooled.query_ms(0.99)), "ms");
    // the host's phases, for a reader who doubts a number above
    for (name, f) in [
        ("cpu_ms_p50", &Pooled::cpu_ms_p50 as &dyn Fn(&Pooled) -> f64),
        ("throughput_qps", &Pooled::throughput_qps),
    ] {
        let cells: Vec<String> = slices.iter().map(|s| format!("{:.4}", f(s))).collect();
        let _ = writeln!(text, "  {name} per slice, in run order: {}", cells.join(" "));
    }

    if pooled.placements.len() > 1 {
        let cells: Vec<String> = pooled
            .by_statement()
            .iter()
            .enumerate()
            .map(|(i, (n, ms))| format!("[{i}] {n} × {ms:.3}"))
            .collect();
        let _ = writeln!(text, "reads × median query_ms per pool statement: {}", cells.join("  "));
    }

    let mut correct = failed == 0 && !(w.fixed_placement && pooled.placement_changes > 0);
    let mut metrics = e2e;
    if let Some(t) = traced {
        let c = &pooled.cache;
        let lookups = (c.hits + c.misses).max(1);
        let layer = |k: &str| t.layers.get(k).map(Vec::as_slice).unwrap_or(&[]);
        metrics = PER_LAYER
            .iter()
            .map(|(name, unit, _)| {
                let value = match *name {
                    "wire_ms_per_op" => pooled.wire_ms_per_op(),
                    "write_ms_p50" => pooled.write_ms_p50().unwrap_or(0.0),
                    "failed_frac" => failed as f64 / attempted as f64,
                    "query_ms_p90" => pooled.query_ms(0.9),
                    "query_ms_p99" => pooled.query_ms(0.99),
                    "uis.generate_s" => t.times.generate_s,
                    "minidb.load_s" => t.times.load_s,
                    "core.collector.refresh_us" => t.times.collector_refresh_us,
                    "minidb.wire.roundtrips_per_op" => pooled.roundtrips_per_op(),
                    "minidb.wire.bytes_per_op" => pooled.wire_bytes_per_op(&link),
                    "minidb.dml.insert_us" => t.insert_us,
                    "minidb.dml.delete_us" => t.delete_us,
                    "minidb.delta.bytes_logged" => pooled.per_kop(pooled.delta_bytes_logged),
                    "core.cache.hit_ratio" => c.hits as f64 / lookups as f64,
                    "core.cache.misses_per_kop" => pooled.per_kop(c.misses),
                    "core.cache.bypasses" => pooled.per_kop(c.bypasses),
                    "core.cache.evictions" => pooled.per_kop(c.evictions),
                    "core.cache.rejections" => pooled.per_kop(c.rejections),
                    "core.cache.admission_rejects" => pooled.per_kop(c.admission_rejects),
                    "core.cache.duplicate_populates" => pooled.per_kop(c.duplicate_populates),
                    "core.cache.invalidations" => pooled.per_kop(c.invalidations),
                    "core.cache.refreshes" => pooled.per_kop(c.refreshes),
                    "core.cache.refresh_bails" => pooled.per_kop(c.refresh_bails),
                    "core.cache.refresh_bytes" => pooled.per_kop(c.refresh_bytes),
                    "core.cache.resident_bytes" => pooled.resident_bytes as f64,
                    "core.calibrate.fit_s" => t.fit_s,
                    "core.calibrate.max_factor_drift" => t.max_factor_drift,
                    "trace.overhead_frac" => {
                        (t.cpu_ms_p50 - pooled.cpu_ms_p50()) / pooled.cpu_ms_p50()
                    }
                    "host.ref_kernel_ms" => t.ref_kernel_ms,
                    "host.ref_kernel_drift" => t.ref_kernel_drift,
                    // counts per op are means, everything else a median
                    // over the traced (or probed) ops
                    k if k.ends_with("_per_op") => stats::mean(layer(k)),
                    k => stats::median(layer(k)),
                };
                (*name, value, *unit)
            })
            .collect();

        let _ = writeln!(
            text,
            "\nper-layer · traced round, medians per read op unless the unit says otherwise"
        );
        for (name, value, unit) in &metrics {
            let _ = writeln!(text, "  {name:<40} {value:>14.4} {unit}");
        }
        if t.ref_kernel_drift > 0.10 {
            let _ = writeln!(
                text,
                "noisy: the reference kernel drifted by more than a tenth during the run"
            );
        }

        let ops = t.tracer.spans.iter().filter(|s| s.name == "op").count().max(1) as f64;
        let op_ns: u64 =
            t.tracer.spans.iter().filter(|s| s.name == "op").map(|s| s.end_ns - s.start_ns).sum();
        let _ = writeln!(
            text,
            "\nself time by layer · span duration minus covered children, {} spans",
            t.tracer.spans.len()
        );
        let _ = writeln!(
            text,
            "  {:<36} {:>9} {:>12} {:>14} {:>8}",
            "span", "spans", "total ms", "us per read", "of op"
        );
        for (name, count, ns) in t.tracer.self_times() {
            let share = if name.starts_with("probe.") || name == "op.write" {
                "-".to_string()
            } else {
                format!("{:.1}%", ns as f64 * 100.0 / op_ns.max(1) as f64)
            };
            let _ = writeln!(
                text,
                "  {name:<36} {count:>9} {:>12.3} {:>14.2} {share:>8}",
                ns as f64 / 1e6,
                ns as f64 / 1e3 / ops,
            );
        }
        let gap = t.tracer.max_op_gap_ns();
        let _ = writeln!(text, "largest gap between an op and the sum of its children: {gap} ns");
        correct &= gap == 0;

        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}.trace.json", w.name));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, t.tracer.to_json(w.name, args.seed)))
        {
            Ok(()) => {
                let _ = writeln!(text, "spans written to {}", path.display());
            }
            // the file is a by-product: the metrics above stand without it
            Err(e) => {
                let _ = writeln!(text, "could not write {}: {e}", path.display());
            }
        }
    }
    // a value that is not a number cannot be reported: reject the run
    for (name, value, _) in &mut metrics {
        if !value.is_finite() {
            let _ = writeln!(text, "{name} is not a finite number ({value})");
            *value = 0.0;
            correct = false;
        }
    }
    text.push('\n');
    Outcome { text, correct, attempted, failed, metrics, pooled }
}

#[cfg(test)]
mod tests;
