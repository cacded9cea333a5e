//! The traced run's span store.
//!
//! No tracing is added inside the program under test. A span is recorded
//! here, around a call into a layer: the `op` itself and the probes carry
//! real clock readings; an op's children are *harvested* from the public
//! `QueryReport` of that very op, which gives durations but not start
//! times, so they are laid out back to back inside the op. Spans stay in
//! memory and are written once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use tango_core::phys::Algo;
use tango_core::session::QueryReport;
use tango_minidb::LinkProfile;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Shared by every span of one operation (client in the high bits).
    pub op_id: u64,
    /// Counts measured at the same boundary.
    pub counts: Vec<(&'static str, f64)>,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

/// Named per-op values the per-layer metrics are aggregated from.
pub type Values = Vec<(&'static str, f64)>;

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer { epoch, spans: Vec::new() }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        parent: Option<u32>,
        op_id: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent,
            op_id,
            counts: Vec::new(),
        });
        (self.spans.len() - 1) as u32
    }

    /// Time `f` as a probe span of operation `op_id`; returns its result
    /// and duration in µs.
    pub fn probe<R>(&mut self, name: &'static str, op_id: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let start = self.now_ns();
        let r = f();
        let dur = self.now_ns() - start;
        self.push(name, start, dur, None, op_id);
        (r, dur as f64 / 1e3)
    }

    pub fn count(&mut self, key: &'static str, value: f64) {
        if let Some(s) = self.spans.last_mut() {
            s.counts.push((key, value));
        }
    }

    /// Record a write op (a leaf: `Connection::execute` reports nothing
    /// beneath it).
    pub fn write_op(&mut self, op_id: u64, start_ns: u64, cpu_ns: u64, wire_ns: u64) {
        self.push("op.write", start_ns, cpu_ns, None, op_id);
        self.count("wire_us", wire_ns as f64 / 1e3);
    }

    /// Record one read op and its harvested children; returns the per-op
    /// layer values. Children of `op` — `core.opt.optimize`,
    /// `core.engine.execute` and the explicit residual
    /// `core.session.other` — sum to the op's duration exactly.
    pub fn read_op(
        &mut self,
        op_id: u64,
        start_ns: u64,
        cpu_ns: u64,
        wire_ns: u64,
        report: &QueryReport,
        link: &LinkProfile,
    ) -> Values {
        let opt = &report.optimized;
        let exec = &report.exec;
        let optimize_ns = (opt.optimize_time.as_nanos() as u64).min(cpu_ns);
        let execute_ns = (exec.wall.as_nanos() as u64).min(cpu_ns - optimize_ns);
        let other_ns = cpu_ns - optimize_ns - execute_ns;

        let op = self.push("op", start_ns, cpu_ns, None, op_id);
        self.count("wire_us", wire_ns as f64 / 1e3);
        self.count("rows", exec.rows as f64);
        self.push("core.opt.optimize", start_ns, optimize_ns, Some(op), op_id);
        self.count("classes", opt.classes as f64);
        self.count("elements", opt.elements as f64);
        let execute =
            self.push("core.engine.execute", start_ns + optimize_ns, execute_ns, Some(op), op_id);
        self.push(
            "core.session.other",
            start_ns + optimize_ns + execute_ns,
            other_ns,
            Some(op),
            op_id,
        );

        // A step's exclusive time is wall + wire, and only transfers
        // charge the wire: a statement's submission plus one trip per
        // prefetch batch, and the payload at the link's bandwidth. Split
        // the execution's wire over the transfers by that model, scaled
        // so the parts sum to `exec.wire`.
        let modelled: Vec<f64> = exec
            .steps
            .iter()
            .map(|s| {
                let statements = counter(&s.counters, "sql_round_trips") as f64;
                let (trips, bytes) = match s.algo {
                    Algo::TransferM if statements > 0.0 => {
                        let fetches = s.out_rows.div_ceil(link.row_prefetch.max(1) as u64);
                        (statements + fetches as f64, s.out_bytes as f64)
                    }
                    Algo::TransferD => (statements, child_bytes(exec, s)),
                    _ => return 0.0,
                };
                trips * link.roundtrip_latency_us + bytes / link.bytes_per_sec * 1e6
            })
            .collect();
        let modelled_sum: f64 = modelled.iter().sum();
        let wire_us = exec.wire.as_secs_f64() * 1e6;

        let mut v: BTreeMap<&'static str, f64> = PER_OP_KEYS.iter().map(|k| (*k, 0.0)).collect();
        let mut add = |k: &'static str, x: f64| *v.get_mut(k).expect("declared per-op key") += x;
        let mut at = start_ns + optimize_ns;
        let mut steps_compute_us = 0.0;
        for (s, m) in exec.steps.iter().zip(&modelled) {
            let step_wire = if modelled_sum > 0.0 { wire_us * m / modelled_sum } else { 0.0 };
            let compute = (s.exclusive_us - step_wire).max(0.0);
            let own = (compute - s.server_us).max(0.0);
            steps_compute_us += compute;
            let cache = s.annotation("cache").unwrap_or("");
            let (name, key) = match &s.algo {
                Algo::TransferM if cache == "hit" || cache == "refresh" => {
                    ("xxl.cached_scan", "xxl.cached_scan.self_us")
                }
                Algo::TransferM => ("core.engine.transfer_m", "core.engine.transfer_m.self_us"),
                Algo::TransferD => ("core.engine.transfer_d", "core.engine.transfer_d.self_us"),
                // a materialization scan and the extension operators have
                // a span but no metric of their own
                Algo::MatScanM(_) => ("core.engine.matscan", ""),
                Algo::TAggrM { .. } => ("xxl.taggr", "xxl.taggr.self_us"),
                Algo::SortM(_) | Algo::SortXM(..) => ("xxl.sort", "xxl.sort.self_us"),
                Algo::TMergeJoinM(_) => ("xxl.temporal_join", "xxl.temporal_join.self_us"),
                Algo::MergeJoinM(_) => ("xxl.merge_join", "xxl.merge_join.self_us"),
                Algo::FilterM(_) => ("xxl.filter", "xxl.filter.self_us"),
                Algo::ProjectM(_) => ("xxl.project", "xxl.project.self_us"),
                _ => ("xxl.other", ""),
            };
            let dur = (compute * 1e3) as u64;
            self.push(name, at, dur, Some(execute), op_id);
            at += dur;
            self.count("exclusive_us", s.exclusive_us);
            self.count("server_us", s.server_us);
            self.count("wire_us", step_wire);
            self.count("rows", s.out_rows as f64);
            self.count("bytes", s.out_bytes as f64);

            if !key.is_empty() {
                add(key, own);
            }
            add("minidb.exec.server_us", s.server_us);
            add("xxl.batches_per_op", counter(&s.counters, "batches") as f64);
            add("core.engine.replans_per_op", counter(&s.counters, "replans") as f64);
            match s.algo {
                Algo::TransferM if name == "core.engine.transfer_m" => {
                    add("core.engine.transfer_m.bytes_per_op", s.out_bytes as f64)
                }
                Algo::TransferD => add("core.engine.transfer_d.bytes_per_op", child_bytes(exec, s)),
                _ => {}
            }
        }

        let us = |ns: u64| ns as f64 / 1e3;
        add("core.opt.optimize_us", us(optimize_ns));
        add("core.engine.execute_us", us(execute_ns));
        add("core.session.other_us", us(other_ns));
        add("core.engine.driver_self_us", (us(execute_ns) - steps_compute_us).max(0.0));
        add("volcano.memo.classes", opt.classes as f64);
        add("volcano.memo.elements", opt.elements as f64);
        add("volcano.search.impls_considered", opt.search.implementations_considered as f64);
        add("volcano.search.enforcers_considered", opt.search.enforcers_considered as f64);
        let lookups = (opt.search.cache_hits + opt.search.optimize_calls).max(1);
        add("volcano.search.memo_hit_ratio", opt.search.cache_hits as f64 / lookups as f64);
        add("core.rules.fires_per_op", opt.rule_fires.iter().map(|(_, n)| *n as f64).sum());
        add("core.rewrite.fires_per_op", opt.rewrites.total_fires() as f64);
        v.into_iter().collect()
    }

    /// Self time (duration minus the part child spans cover) summed by
    /// span name: `(name, spans, total self ns)`, largest first.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        let mut rows: Vec<_> = by_name.into_iter().map(|(n, (k, ns))| (n, k, ns)).collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.2));
        rows
    }

    /// The largest gap, over all `op` spans, between the op's duration
    /// and the sum of its children (0 when the budget adds up).
    pub fn max_op_gap_ns(&self) -> u64 {
        let mut child_sum = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_sum[p as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_sum)
            .filter(|(s, _)| s.name == "op")
            .map(|(s, c)| (s.end_ns - s.start_ns).abs_diff(c))
            .max()
            .unwrap_or(0)
    }

    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op_id,
            );
            if !s.counts.is_empty() {
                out.push_str(",\"counts\":{");
                for (j, (k, x)) in s.counts.iter().enumerate() {
                    let _ = write!(out, "{}\"{k}\":{x}", if j > 0 { "," } else { "" });
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }
}

fn counter(counters: &[(&'static str, u64)], key: &str) -> u64 {
    counters.iter().find(|(k, _)| *k == key).map_or(0, |(_, v)| *v)
}

/// Bytes a `TRANSFER^D` shipped: what its argument produced.
fn child_bytes(exec: &tango_core::engine::ExecReport, s: &tango_core::engine::StepReport) -> f64 {
    s.children.iter().map(|&c| exec.steps[c].out_bytes as f64).sum()
}

/// Every value `read_op` reports, present (possibly 0) for every op so
/// that medians run over all ops.
pub const PER_OP_KEYS: [&str; 25] = [
    "core.opt.optimize_us",
    "volcano.memo.classes",
    "volcano.memo.elements",
    "volcano.search.impls_considered",
    "volcano.search.enforcers_considered",
    "volcano.search.memo_hit_ratio",
    "core.rules.fires_per_op",
    "core.rewrite.fires_per_op",
    "core.session.other_us",
    "core.engine.execute_us",
    "core.engine.driver_self_us",
    "core.engine.transfer_m.self_us",
    "core.engine.transfer_m.bytes_per_op",
    "core.engine.transfer_d.self_us",
    "core.engine.transfer_d.bytes_per_op",
    "core.engine.replans_per_op",
    "xxl.taggr.self_us",
    "xxl.sort.self_us",
    "xxl.temporal_join.self_us",
    "xxl.merge_join.self_us",
    "xxl.filter.self_us",
    "xxl.project.self_us",
    "xxl.cached_scan.self_us",
    "xxl.batches_per_op",
    "minidb.exec.server_us",
];
