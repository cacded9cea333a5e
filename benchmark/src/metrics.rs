//! The metric contract: every name the benchmark reports, its unit, and
//! how it is computed from the measured passes. `BENCHMARK.json` lists
//! the same names (a test holds the two together).

use crate::run::{combine_stats, PassResult, Sample};
use crate::stats::{mean, median, percentile, sorted};
use std::collections::BTreeMap;
use tango_core::cache::CacheStats;
use tango_minidb::LinkProfile;

/// `(name, unit, better, bound)`: what `--trace 0` reports. `bound` is
/// the share of the parent's median by which the metric may get worse
/// before a change counts as a regression. The bounds are three times the
/// widest spread ten runs on the bench host showed on any workload (see
/// `out/repeatability.md`), capped at the contract's 0.25. The timings
/// are interquartile means over a run's slices (`main::SLICES`).
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("setup_s", "s", "lower", 0.25),
    ("query_ms_p50", "ms", "lower", 0.25),
    ("cpu_ms_p50", "ms", "lower", 0.25),
    ("throughput_qps", "op/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
];

/// `(name, unit, better)`: what `--trace 1` reports, in report order.
pub const PER_LAYER: [(&str, &str, &str); 69] = [
    // end-to-end quantities that cannot carry a bound: 0 or absent on
    // some workload, or (the two tail percentiles) mostly the host's own
    // noise on the workloads that repeat one statement
    ("wire_ms_per_op", "ms", "lower"),
    ("write_ms_p50", "ms", "lower"),
    ("failed_frac", "ratio", "lower"),
    ("query_ms_p90", "ms", "lower"),
    ("query_ms_p99", "ms", "lower"),
    // set-up
    ("uis.generate_s", "s", "lower"),
    ("minidb.load_s", "s", "lower"),
    ("core.collector.refresh_us", "us", "lower"),
    // front end
    ("core.tsql.parse_us", "us", "lower"),
    ("core.rewrite.apply_us", "us", "lower"),
    ("core.rewrite.fires_per_op", "count", "lower"),
    // optimizer
    ("core.opt.optimize_us", "us", "lower"),
    ("core.opt.optimize_logical_us", "us", "lower"),
    ("volcano.memo.classes", "count", "lower"),
    ("volcano.memo.elements", "count", "lower"),
    ("volcano.search.impls_considered", "count", "lower"),
    ("volcano.search.enforcers_considered", "count", "lower"),
    ("volcano.search.memo_hit_ratio", "ratio", "higher"),
    ("core.rules.fires_per_op", "count", "lower"),
    ("core.session.other_us", "us", "lower"),
    // translator
    ("core.to_sql.render_us", "us", "lower"),
    ("core.to_sql.sql_bytes", "B", "lower"),
    // execution engine
    ("core.engine.execute_us", "us", "lower"),
    ("core.engine.driver_self_us", "us", "lower"),
    ("core.engine.transfer_m.self_us", "us", "lower"),
    ("core.engine.transfer_m.bytes_per_op", "B", "lower"),
    ("core.engine.transfer_d.self_us", "us", "lower"),
    ("core.engine.transfer_d.bytes_per_op", "B", "lower"),
    ("core.engine.replans_per_op", "count", "lower"),
    // middleware operators
    ("xxl.taggr.self_us", "us", "lower"),
    ("xxl.sort.self_us", "us", "lower"),
    ("xxl.temporal_join.self_us", "us", "lower"),
    ("xxl.merge_join.self_us", "us", "lower"),
    ("xxl.filter.self_us", "us", "lower"),
    ("xxl.project.self_us", "us", "lower"),
    ("xxl.cached_scan.self_us", "us", "lower"),
    ("xxl.batches_per_op", "count", "lower"),
    ("xxl.taggr.probe_us_per_krow", "us/krow", "lower"),
    ("xxl.sort.probe_us_per_krow", "us/krow", "lower"),
    ("xxl.temporal_join.probe_us_per_krow", "us/krow", "lower"),
    // algebra kernels
    ("algebra.codec.encode_ns_per_byte", "ns/B", "lower"),
    ("algebra.codec.decode_ns_per_byte", "ns/B", "lower"),
    ("algebra.batch.columnarize_us_per_krow", "us/krow", "lower"),
    ("algebra.order.sort_us_per_krow", "us/krow", "lower"),
    // DBMS and wire
    ("minidb.exec.server_us", "us", "lower"),
    ("minidb.fetch_us", "us", "lower"),
    ("minidb.wire.roundtrips_per_op", "count", "lower"),
    ("minidb.wire.bytes_per_op", "B", "lower"),
    ("minidb.dml.insert_us", "us", "lower"),
    ("minidb.dml.delete_us", "us", "lower"),
    ("minidb.delta.bytes_logged", "B/kop", "lower"),
    // relation cache and its maintenance (events per 1000 reads)
    ("core.cache.hit_ratio", "ratio", "higher"),
    ("core.cache.misses_per_kop", "1/kop", "lower"),
    ("core.cache.bypasses", "1/kop", "lower"),
    ("core.cache.evictions", "1/kop", "lower"),
    ("core.cache.rejections", "1/kop", "lower"),
    ("core.cache.admission_rejects", "1/kop", "lower"),
    ("core.cache.duplicate_populates", "1/kop", "lower"),
    ("core.cache.invalidations", "1/kop", "lower"),
    ("core.cache.refreshes", "1/kop", "higher"),
    ("core.cache.refresh_bails", "1/kop", "lower"),
    ("core.cache.refresh_bytes", "B/kop", "lower"),
    ("core.cache.resident_bytes", "B", "lower"),
    ("core.cache.residency_us", "us", "lower"),
    // calibration: why the factors are pinned
    ("core.calibrate.fit_s", "s", "lower"),
    ("core.calibrate.max_factor_drift", "ratio", "lower"),
    // harness: whether to trust the run
    ("trace.overhead_frac", "ratio", "lower"),
    ("host.ref_kernel_ms", "ms", "lower"),
    ("host.ref_kernel_drift", "ratio", "lower"),
];

/// Everything the untraced passes of a run measured, pooled over rounds.
#[derive(Default)]
pub struct Pooled {
    pub reads: Vec<Sample>,
    pub writes: Vec<Sample>,
    /// Σ over rounds of the busiest client's Σ(`query_ms` or `write_ms`).
    pub busy_ms: f64,
    pub failed: u64,
    pub attempted: u64,
    /// Link round trips of the reads: per-op deltas with one client
    /// (control checks run between ops), the link's whole-pass delta
    /// with two (whose workloads have no writes).
    pub read_roundtrips: u64,
    pub cache: CacheStats,
    pub resident_bytes: u64,
    pub delta_bytes_logged: u64,
    pub placements: BTreeMap<usize, String>,
    pub placement_changes: u64,
    /// Per client, the fingerprint of its op sequence in every round.
    pub op_fingerprints: Vec<u64>,
}

impl Pooled {
    /// The timed ops of one stretch of a pass, one sample list per client.
    fn add_samples<'a>(&mut self, clients: impl Iterator<Item = &'a [Sample]>) {
        let mut busiest = 0.0f64;
        for samples in clients {
            busiest = busiest.max(samples.iter().map(Sample::total_ms).sum());
            for s in samples {
                if s.is_read() { &mut self.reads } else { &mut self.writes }.push(*s);
            }
        }
        self.busy_ms += busiest;
    }

    /// Slice `i` of `n` of a pass: of every client's ops in issue order,
    /// the `i`-th `n`-th. Only the timings are filled in.
    pub fn slice(pass: &PassResult, i: usize, n: usize) -> Pooled {
        let mut slice = Pooled::default();
        slice.add_samples(pass.clients.iter().map(|c| {
            let len = c.samples.len();
            &c.samples[i * len / n..(i + 1) * len / n]
        }));
        slice
    }

    pub fn add(&mut self, pass: &PassResult) {
        self.add_samples(pass.clients.iter().map(|c| c.samples.as_slice()));
        for c in &pass.clients {
            self.failed += c.failed;
            self.attempted += c.samples.len() as u64 + c.extra_checks;
            self.placement_changes += c.placement_changes;
            for (i, p) in &c.placements {
                if self.placements.entry(*i).or_insert_with(|| p.clone()) != p {
                    self.placement_changes += 1;
                }
            }
            self.op_fingerprints.push(c.op_fingerprint);
        }
        self.read_roundtrips += match pass.clients.as_slice() {
            [only] => only.samples.iter().filter(|s| s.is_read()).map(|s| s.roundtrips).sum(),
            _ => pass.link_roundtrips,
        };
        self.cache = combine_stats(&self.cache, &pass.cache, |a, b| a + b);
        self.resident_bytes = pass.resident_bytes;
    }

    fn read_ms(&self, f: impl Fn(&Sample) -> f64) -> Vec<f64> {
        sorted(self.reads.iter().map(f).collect())
    }

    pub fn query_ms(&self, q: f64) -> f64 {
        percentile(&self.read_ms(Sample::total_ms), q)
    }

    pub fn cpu_ms_p50(&self) -> f64 {
        percentile(&self.read_ms(|s| s.cpu_ns as f64 / 1e6), 0.5)
    }

    pub fn throughput_qps(&self) -> f64 {
        (self.reads.len() + self.writes.len()) as f64 / (self.busy_ms / 1e3).max(1e-9)
    }

    pub fn wire_ms_per_op(&self) -> f64 {
        mean(&self.reads.iter().map(|s| s.wire_ns as f64 / 1e6).collect::<Vec<_>>())
    }

    pub fn roundtrips_per_op(&self) -> f64 {
        self.read_roundtrips as f64 / self.reads.len().max(1) as f64
    }

    /// Payload bytes per read, recovered from the link's own cost model
    /// (`wire = trips × latency + bytes ÷ bandwidth`).
    pub fn wire_bytes_per_op(&self, link: &LinkProfile) -> f64 {
        let payload_s = self.wire_ms_per_op() / 1e3
            - self.roundtrips_per_op() * link.roundtrip_latency_us / 1e6;
        (payload_s * link.bytes_per_sec).max(0.0)
    }

    pub fn write_ms_p50(&self) -> Option<f64> {
        (!self.writes.is_empty())
            .then(|| median(&self.writes.iter().map(Sample::total_ms).collect::<Vec<_>>()))
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Per pool statement: `(reads, median query_ms)`.
    pub fn by_statement(&self) -> Vec<(usize, f64)> {
        let mut per: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for s in &self.reads {
            per.entry(s.statement.expect("a read")).or_default().push(s.total_ms());
        }
        per.into_values().map(|v| (v.len(), median(&v))).collect()
    }

    /// Cache events per 1000 reads.
    pub fn per_kop(&self, events: u64) -> f64 {
        events as f64 * 1e3 / self.reads.len().max(1) as f64
    }
}
