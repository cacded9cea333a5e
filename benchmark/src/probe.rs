//! Probes: after a traced op, the benchmark itself times a call into each
//! layer's public function on that op's own inputs — the SQL text, the
//! chosen plan's DBMS fragments, and the relation such a fragment
//! returns. Every probe is a span; none runs inside a timed op.

use crate::trace::{Tracer, Values};
use tango_algebra::codec::{encode_tuple, Decoder};
use tango_algebra::{sort_tuples, AggFunc, AggSpec, Batch, Relation, SortSpec, Tuple};
use tango_core::phys::{Algo, PhysNode};
use tango_core::session::QueryReport;
use tango_core::{to_sql, Tango};
use tango_minidb::Connection;
use tango_xxl::{collect, Sort, TemporalAggregate, TemporalMergeJoin, VecScan};

/// Every value `probe_op` reports (0 where the op's plan gives the probe
/// nothing to run on).
pub const PROBE_KEYS: [&str; 14] = [
    "core.tsql.parse_us",
    "core.rewrite.apply_us",
    "core.opt.optimize_logical_us",
    "core.to_sql.render_us",
    "core.to_sql.sql_bytes",
    "minidb.fetch_us",
    "core.cache.residency_us",
    "xxl.taggr.probe_us_per_krow",
    "xxl.sort.probe_us_per_krow",
    "xxl.temporal_join.probe_us_per_krow",
    "algebra.codec.encode_ns_per_byte",
    "algebra.codec.decode_ns_per_byte",
    "algebra.batch.columnarize_us_per_krow",
    "algebra.order.sort_us_per_krow",
];

/// The temporal-join probe is quadratic within a key group; a prefix of
/// the fragment keeps it bounded.
const JOIN_PROBE_ROWS: usize = 8192;

/// The DBMS fragments of a plan: the subtree under every `TRANSFER^M`,
/// with `TRANSFER^D` boundaries replaced by a scan of a stand-in temp
/// table (as the engine does before rendering). The flag says whether
/// the fragment can be run on its own, i.e. had no such boundary.
fn fragments(plan: &PhysNode, out: &mut Vec<(PhysNode, bool)>) {
    fn clean(n: &PhysNode, runnable: &mut bool) -> PhysNode {
        if n.algo == Algo::TransferD {
            *runnable = false;
            return PhysNode {
                algo: Algo::ScanD("TANGO_PROBE_TMP".into()),
                schema: n.schema.clone(),
                children: vec![],
            };
        }
        PhysNode {
            algo: n.algo.clone(),
            schema: n.schema.clone(),
            children: n.children.iter().map(|c| clean(c, runnable)).collect(),
        }
    }
    if plan.algo == Algo::TransferM {
        if let Some(root) = plan.children.first() {
            let mut runnable = true;
            let fragment = clean(root, &mut runnable);
            out.push((fragment, runnable));
        }
    }
    for c in &plan.children {
        fragments(c, out);
    }
}

pub fn probe_op(
    tr: &mut Tracer,
    op_id: u64,
    session: &mut Tango,
    probe_conn: &Connection,
    sql: &str,
    report: &QueryReport,
) -> Values {
    let mut v: Vec<(&'static str, f64)> = PROBE_KEYS.iter().map(|k| (*k, 0.0)).collect();
    let mut set = |k: &str, x: f64| {
        v.iter_mut().find(|(key, _)| *key == k).expect("declared probe key").1 = x
    };

    // front end, on the op's SQL text
    let (logical, us) = tr.probe("probe.core.tsql.parse", op_id, || session.parse(sql));
    set("core.tsql.parse_us", us);
    let Ok(logical) = logical else { return v };
    let (rewritten, us) =
        tr.probe("probe.core.rewrite.apply", op_id, || session.apply_rewrites(logical));
    set("core.rewrite.apply_us", us);
    let Ok((rewritten, _)) = rewritten else { return v };
    let (_, us) =
        tr.probe("probe.core.opt.optimize_logical", op_id, || session.optimize_logical(rewritten));
    set("core.opt.optimize_logical_us", us);

    let conn = session.conn().clone();
    let (_, us) = tr.probe("probe.core.cache.residency", op_id, || {
        session
            .cache()
            .residency(&|t| conn.table_version(t), &|t, since| conn.delta_bytes_since(t, since))
    });
    set("core.cache.residency_us", us);

    // translator and DBMS, on the chosen plan's fragments
    let mut frags = Vec::new();
    fragments(&report.optimized.plan, &mut frags);
    let (mut render_us, mut sql_bytes, mut fetch_us) = (0.0, 0.0, 0.0);
    let mut largest: Option<Relation> = None;
    for (fragment, runnable) in &frags {
        let (text, us) =
            tr.probe("probe.core.to_sql.render", op_id, || to_sql::render_select(fragment));
        render_us += us;
        let Ok(text) = text else { continue };
        sql_bytes += text.len() as f64;
        tr.count("sql_bytes", text.len() as f64);
        if !runnable {
            continue;
        }
        let (fetched, us) = tr.probe("probe.minidb.query", op_id, || -> Option<(Relation, f64)> {
            let mut cur = probe_conn.query(&text).ok()?;
            let schema = cur.schema().clone();
            let mut rows = Vec::new();
            while let Some(batch) = cur.fetch_batch().ok()? {
                rows.extend(batch);
            }
            Some((Relation::new(schema, rows), cur.server_time().as_secs_f64() * 1e6))
        });
        if let Some((rel, server_us)) = fetched {
            tr.count("server_us", server_us);
            tr.count("rows", rel.len() as f64);
            fetch_us += (us - server_us).max(0.0);
            if largest.as_ref().is_none_or(|l| rel.len() > l.len()) {
                largest = Some(rel);
            }
        }
    }
    set("core.to_sql.render_us", render_us);
    set("core.to_sql.sql_bytes", sql_bytes);
    set("minidb.fetch_us", fetch_us);

    // middleware operators and the algebra kernels, on the relation the
    // largest fragment returns
    let Some(rel) = largest.filter(|r| !r.is_empty()) else { return v };
    let schema = rel.schema().clone();
    let rows = rel.tuples().to_vec();
    let krows = rows.len() as f64 / 1e3;
    let last = schema.attr(schema.len() - 1).name.clone();
    let by_last = SortSpec::by([last]);

    let mut buf = Vec::new();
    let (_, us) = tr.probe("probe.algebra.codec.encode", op_id, || {
        for t in &rows {
            encode_tuple(t, &mut buf);
        }
    });
    tr.count("bytes", buf.len() as f64);
    set("algebra.codec.encode_ns_per_byte", us * 1e3 / buf.len().max(1) as f64);
    let (decoded, us) = tr.probe("probe.algebra.codec.decode", op_id, || {
        let mut d = Decoder::new(&buf);
        let mut n = 0usize;
        while !d.is_done() {
            if d.decode_tuple().is_err() {
                break;
            }
            n += 1;
        }
        n
    });
    debug_assert_eq!(decoded, rows.len());
    set("algebra.codec.decode_ns_per_byte", us * 1e3 / buf.len().max(1) as f64);

    let batch = Batch::new(schema.clone(), rows.clone());
    let (columnar, us) =
        tr.probe("probe.algebra.batch.columnarize", op_id, move || batch.columnarize());
    std::hint::black_box(columnar);
    set("algebra.batch.columnarize_us_per_krow", us / krows);

    let mut to_sort = rows.clone();
    let (_, us) = tr
        .probe("probe.algebra.order.sort", op_id, || sort_tuples(&mut to_sort, &by_last, &schema));
    set("algebra.order.sort_us_per_krow", us / krows);

    let scan = |rows: Vec<Tuple>| Box::new(VecScan::from_parts(schema.clone(), rows));
    let input = scan(rows.clone());
    let (sorted, us) = tr.probe("probe.xxl.sort", op_id, move || {
        collect(Box::new(Sort::new(input, by_last.clone())))
    });
    if sorted.is_ok() {
        set("xxl.sort.probe_us_per_krow", us / krows);
    }

    // the sweep operators need a period and their input ordered on
    // (key, T1); ordering it is preparation, not part of the probe
    let Some((t1, _)) = schema.period() else { return v };
    if t1 == 0 {
        return v;
    }
    let key = schema.attr(0).name.clone();
    let mut ordered = rows;
    sort_tuples(&mut ordered, &SortSpec::by([key.clone(), schema.attr(t1).name.clone()]), &schema);

    let input = scan(ordered.clone());
    let aggs = vec![AggSpec::new(AggFunc::Count, Some(key.as_str()), "Cnt")];
    let group_by = vec![key.clone()];
    let (out, us) = tr.probe("probe.xxl.taggr", op_id, move || {
        TemporalAggregate::new(input, group_by, aggs).and_then(|c| collect(Box::new(c)))
    });
    if out.is_ok() {
        set("xxl.taggr.probe_us_per_krow", us / krows);
    }

    ordered.truncate(JOIN_PROBE_ROWS);
    let join_krows = ordered.len() as f64 / 1e3;
    let (left, right) = (scan(ordered.clone()), scan(ordered));
    let eq = vec![(key.clone(), key)];
    let (out, us) = tr.probe("probe.xxl.temporal_join", op_id, move || {
        TemporalMergeJoin::new(left, right, &eq).and_then(|c| collect(Box::new(c)))
    });
    if let Ok(out) = out {
        tr.count("rows", out.len() as f64);
        set("xxl.temporal_join.probe_us_per_krow", us / join_krows);
    }
    v
}
