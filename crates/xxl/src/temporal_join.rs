//! `TMERGEJOIN^M` — temporal sort-merge join (⋈ᵀ).
//!
//! Matches tuples with equal join-attribute values whose valid-time
//! periods overlap, producing the intersected period
//! `[GREATEST(T1, T1'), LEAST(T2, T2'))` — the algebraic counterpart of
//! the SQL emitted for DBMS-side temporal joins (Figure 5).
//!
//! Inputs must be sorted on the join attributes; the output is ordered by
//! them, so a query that sorts its result on the join key needs no extra
//! sort after this algorithm (exploited by Queries 2 and 3 in the paper).

use crate::cursor::{fill_batch, BatchBuffered, BoxCursor, Cursor, ExecError, ExecOpts, Result};
use crate::par::{partition_pairs, run_ordered, ParStats};
use crate::scan::VecScan;
use std::cmp::Ordering;
use std::sync::Arc;
use tango_algebra::logical::tjoin_schema;
use tango_algebra::{Batch, Period, Schema, Tuple, Value};

/// The `TMERGEJOIN^M` cursor: sort-merge temporal equi join — matches on
/// the join attributes *and* overlapping periods, emitting the
/// intersected period. Inputs sorted on the join attributes.
///
/// With `workers > 1` the join materializes both inputs, splits the left
/// side into ~morsel-sized partitions at key-group boundaries, aligns the
/// matching right ranges (both sides are key-sorted, so partitions cover
/// disjoint key ranges), and runs an independent sequential sub-join per
/// partition; outputs are concatenated in partition order, which equals
/// the sequential output exactly.
pub struct TemporalMergeJoin {
    left: BatchBuffered,
    right: BatchBuffered,
    opts: ExecOpts,
    eq: Vec<(String, String)>,
    lkeys: Vec<usize>,
    rkeys: Vec<usize>,
    /// Left attribute indices copied to the output (non-period).
    lkeep: Vec<usize>,
    /// Right attribute indices copied to the output (non-period, non-key).
    rkeep: Vec<usize>,
    lperiod: (usize, usize),
    rperiod: (usize, usize),
    date_typed: bool,
    schema: Arc<Schema>,
    state: Option<State>,
    /// Parallel path: the concatenated partition outputs, served as a scan.
    staged: Option<VecScan>,
    groups: u64,
    par: Option<ParStats>,
}

struct State {
    lgroup: Vec<Tuple>,
    rgroup: Vec<Tuple>,
    /// Periods of the buffered groups, parsed once per group instead of
    /// once per (left, right) pair in the emission loop.
    lper: Vec<Period>,
    rper: Vec<Period>,
    lnext: Option<Tuple>,
    rnext: Option<Tuple>,
    i: usize,
    j: usize,
}

impl TemporalMergeJoin {
    /// Temporal join of `left` and `right` on the `eq` attribute pairs.
    pub fn new(left: BoxCursor, right: BoxCursor, eq: &[(String, String)]) -> Result<Self> {
        Self::with_opts(left, right, eq, ExecOpts::default())
    }

    /// Like [`TemporalMergeJoin::new`] with explicit execution knobs.
    pub fn with_opts(
        left: BoxCursor,
        right: BoxCursor,
        eq: &[(String, String)],
        opts: ExecOpts,
    ) -> Result<Self> {
        let ls = left.schema();
        let rs = right.schema();
        let lperiod = ls
            .period()
            .ok_or_else(|| ExecError::State("temporal join: left input not temporal".into()))?;
        let rperiod = rs
            .period()
            .ok_or_else(|| ExecError::State("temporal join: right input not temporal".into()))?;
        let mut lkeys = Vec::new();
        let mut rkeys = Vec::new();
        for (l, r) in eq {
            lkeys.push(ls.index_of(l)?);
            rkeys.push(rs.index_of(r)?);
        }
        if lkeys.is_empty() {
            return Err(ExecError::State("temporal join requires at least one key".into()));
        }
        let lkeep: Vec<usize> =
            (0..ls.len()).filter(|&i| i != lperiod.0 && i != lperiod.1).collect();
        let rkeep: Vec<usize> = (0..rs.len())
            .filter(|&i| i != rperiod.0 && i != rperiod.1 && !rkeys.contains(&i))
            .collect();
        let eq_owned: Vec<(String, String)> = eq.to_vec();
        let schema = Arc::new(tjoin_schema(&eq_owned, ls, rs)?);
        let date_typed =
            matches!(schema.attr(schema.period().unwrap().0).ty, tango_algebra::Type::Date);
        let (left, right) = (
            BatchBuffered::with_rows(left, opts.batch_rows),
            BatchBuffered::with_rows(right, opts.batch_rows),
        );
        Ok(TemporalMergeJoin {
            left,
            right,
            opts,
            eq: eq_owned,
            lkeys,
            rkeys,
            lkeep,
            rkeep,
            lperiod,
            rperiod,
            date_typed,
            schema,
            state: None,
            staged: None,
            groups: 0,
            par: None,
        })
    }

    /// Parallel path: materialize, partition at key boundaries, run a
    /// sequential sub-join per partition, concatenate in order.
    fn open_parallel(&mut self) -> Result<()> {
        let lrows = self.left.drain()?;
        let rrows = self.right.drain()?;
        let (ls, rs) = (self.left.schema().clone(), self.right.schema().clone());
        let (lkeys, rkeys) = (self.lkeys.clone(), self.rkeys.clone());
        let same =
            |a: &Tuple, b: &Tuple| lkeys.iter().all(|&k| a[k].total_cmp(&b[k]) == Ordering::Equal);
        let cmp = |l: &Tuple, r: &Tuple| key_cmp(&lkeys, &rkeys, l, r);
        let parts = partition_pairs(&lrows, &rrows, self.opts.workers, same, cmp);
        let mut lit = lrows.into_iter();
        let mut rit = rrows.into_iter();
        let mut rpos = 0usize;
        let jobs: Vec<_> = parts
            .into_iter()
            .map(|(llo, lhi, rlo, rhi)| {
                let lpart: Vec<Tuple> = lit.by_ref().take(lhi - llo).collect();
                for _ in rpos..rlo {
                    rit.next();
                }
                let rpart: Vec<Tuple> = rit.by_ref().take(rhi - rlo).collect();
                rpos = rhi;
                let (ls, rs, eq) = (ls.clone(), rs.clone(), self.eq.clone());
                move || -> Result<(Vec<Tuple>, u64)> {
                    let mut j = TemporalMergeJoin::new(
                        Box::new(VecScan::from_parts(ls, lpart)),
                        Box::new(VecScan::from_parts(rs, rpart)),
                        &eq,
                    )?;
                    j.open()?;
                    let mut out = Vec::new();
                    while let Some(t) = j.step()? {
                        out.push(t);
                    }
                    let groups = j.groups;
                    j.close()?;
                    Ok((out, groups))
                }
            })
            .collect();
        let (results, stats) = run_ordered(self.opts.workers, jobs);
        let mut rows = Vec::new();
        for res in results {
            let (out, g) = res?;
            self.groups += g;
            rows.extend(out);
        }
        self.par = Some(stats);
        let mut scan = VecScan::from_parts(self.schema.clone(), rows);
        scan.open()?;
        self.staged = Some(scan);
        Ok(())
    }

    /// Read all consecutive tuples sharing the key of `first` from `input`.
    fn read_group(
        input: &mut BatchBuffered,
        first: Tuple,
        keys: &[usize],
    ) -> Result<(Vec<Tuple>, Option<Tuple>)> {
        let mut group = vec![first];
        loop {
            match input.next()? {
                Some(t) => {
                    let same =
                        keys.iter().all(|&k| t[k].total_cmp(&group[0][k]) == Ordering::Equal);
                    if same {
                        group.push(t);
                    } else {
                        return Ok((group, Some(t)));
                    }
                }
                None => return Ok((group, None)),
            }
        }
    }

    /// The merge itself, one output row per call.
    fn step(&mut self) -> Result<Option<Tuple>> {
        // Split borrows up front (same pattern as `MergeJoin::step`): the
        // state, the two inputs and the resolved indices are disjoint
        // fields, so the loop can advance the inputs while reading the
        // buffered groups out of the state.
        let TemporalMergeJoin {
            left,
            right,
            lkeys,
            rkeys,
            lkeep,
            rkeep,
            lperiod,
            rperiod,
            date_typed,
            state,
            groups,
            ..
        } = self;
        let st =
            state.as_mut().ok_or_else(|| ExecError::State("temporal join not opened".into()))?;
        loop {
            // Emit remaining overlapping pairs of the buffered groups,
            // intersecting the periods parsed once per group.
            while st.i < st.lgroup.len() {
                while st.j < st.rgroup.len() {
                    let (i, j) = (st.i, st.j);
                    st.j += 1;
                    if let Some(p) = st.lper[i].intersect(&st.rper[j]) {
                        let out = emit(lkeep, rkeep, *date_typed, &st.lgroup[i], &st.rgroup[j], p);
                        return Ok(Some(out));
                    }
                }
                st.j = 0;
                st.i += 1;
            }
            st.lgroup.clear();
            st.rgroup.clear();
            st.lper.clear();
            st.rper.clear();
            st.i = 0;
            st.j = 0;
            // Align the two inputs on the next common key.
            loop {
                let (Some(l), Some(r)) = (&st.lnext, &st.rnext) else {
                    return Ok(None);
                };
                match key_cmp(lkeys, rkeys, l, r) {
                    Ordering::Less => st.lnext = left.next()?,
                    Ordering::Greater => st.rnext = right.next()?,
                    Ordering::Equal => break,
                }
            }
            // Buffer both groups, parse their periods once, and restart
            // emission.
            let lfirst = st.lnext.take().unwrap();
            let rfirst = st.rnext.take().unwrap();
            let (lg, ln) = Self::read_group(left, lfirst, lkeys)?;
            let (rg, rn) = Self::read_group(right, rfirst, rkeys)?;
            *groups += 1;
            let parse = |g: &[Tuple], (p0, p1): (usize, usize)| -> Vec<Period> {
                g.iter()
                    .map(|t| Period::new(t[p0].as_day().unwrap_or(0), t[p1].as_day().unwrap_or(0)))
                    .collect()
            };
            st.lper = parse(&lg, *lperiod);
            st.rper = parse(&rg, *rperiod);
            st.lgroup = lg;
            st.rgroup = rg;
            st.lnext = ln;
            st.rnext = rn;
        }
    }
}

fn key_cmp(lkeys: &[usize], rkeys: &[usize], l: &Tuple, r: &Tuple) -> Ordering {
    for (&li, &ri) in lkeys.iter().zip(rkeys) {
        let o = l[li].total_cmp(&r[ri]);
        if o != Ordering::Equal {
            return o;
        }
    }
    Ordering::Equal
}

fn emit(
    lkeep: &[usize],
    rkeep: &[usize],
    date_typed: bool,
    l: &Tuple,
    r: &Tuple,
    p: Period,
) -> Tuple {
    let mut out = Vec::with_capacity(lkeep.len() + rkeep.len() + 2);
    for &i in lkeep {
        out.push(l[i].clone());
    }
    for &i in rkeep {
        out.push(r[i].clone());
    }
    if date_typed {
        out.push(Value::Date(p.start));
        out.push(Value::Date(p.end));
    } else {
        out.push(Value::Int(p.start as i64));
        out.push(Value::Int(p.end as i64));
    }
    Tuple::new(out)
}

impl Cursor for TemporalMergeJoin {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.left.open()?;
        self.right.open()?;
        if self.opts.workers > 1 {
            return self.open_parallel();
        }
        let lnext = self.left.next()?;
        let rnext = self.right.next()?;
        self.state = Some(State {
            lgroup: Vec::new(),
            rgroup: Vec::new(),
            lper: Vec::new(),
            rper: Vec::new(),
            lnext,
            rnext,
            i: 0,
            j: 0,
        });
        Ok(())
    }

    fn next_batch(&mut self, max_rows: usize) -> Result<Option<Batch>> {
        if let Some(s) = &mut self.staged {
            return s.next_batch(max_rows);
        }
        fill_batch(self.schema.clone(), max_rows, || self.step())
    }

    fn close(&mut self) -> Result<()> {
        self.state = None;
        self.staged = None;
        self.left.close()?;
        self.right.close()
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        let mut out = vec![("key_groups", self.groups)];
        if let Some(par) = &self.par {
            out.extend(par.counters());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::collect;
    use crate::taggr::TemporalAggregate;
    use crate::testutil::figure3_position;
    use proptest::prelude::*;
    use tango_algebra::{tup, AggFunc, AggSpec, Attr, Relation, SortSpec, Type};

    /// The Section 2.2 example: temporally join the aggregation result of
    /// Figure 3(c) with POSITION on PosID, producing Figure 3(b).
    #[test]
    fn figure3_query_result() {
        let pos = figure3_position();
        let mut sorted = pos.clone();
        sorted.sort_by(&SortSpec::by(["PosID", "T1"]));
        let agg = TemporalAggregate::new(
            Box::new(VecScan::new(sorted.clone())),
            vec!["PosID".into()],
            vec![AggSpec::new(AggFunc::Count, Some("PosID"), "COUNTofPosID")],
        )
        .unwrap();
        let tj = TemporalMergeJoin::new(
            Box::new(VecScan::new(sorted)),
            Box::new(agg),
            &[("PosID".to_string(), "PosID".to_string())],
        )
        .unwrap();
        let got = collect(Box::new(tj)).unwrap();
        // Figure 3(b), modulo column order: our layout is
        // (PosID, EmpName, COUNTofPosID, T1, T2).
        let expected = vec![
            tup![1, "Tom", 1, 2, 5],
            tup![1, "Tom", 2, 5, 20],
            tup![1, "Jane", 2, 5, 20],
            tup![1, "Jane", 1, 20, 25],
            tup![2, "Tom", 1, 5, 10],
        ];
        assert_eq!(got.tuples(), expected.as_slice());
        assert_eq!(
            got.schema().names().collect::<Vec<_>>(),
            vec!["PosID", "EmpName", "COUNTofPosID", "T1", "T2"]
        );
    }

    fn temporal_rel(vals: &[(i64, i64, i32, i32)]) -> Relation {
        let s = Arc::new(Schema::with_inferred_period(vec![
            Attr::new("K", Type::Int),
            Attr::new("V", Type::Int),
            Attr::new("T1", Type::Int),
            Attr::new("T2", Type::Int),
        ]));
        Relation::new(s, vals.iter().map(|&(k, v, t1, t2)| tup![k, v, t1, t2]).collect())
    }

    proptest! {
        #[test]
        fn agrees_with_nested_loop_reference(
            l in proptest::collection::vec((0i64..5, 0i64..100, 0i32..20, 1i32..10), 0..30),
            r in proptest::collection::vec((0i64..5, 0i64..100, 0i32..20, 1i32..10), 0..30),
        ) {
            let fix = |v: Vec<(i64, i64, i32, i32)>| -> Vec<(i64, i64, i32, i32)> {
                v.into_iter().map(|(k, x, t1, d)| (k, x, t1, t1 + d)).collect()
            };
            let (l, r) = (fix(l), fix(r));
            let mut lr = temporal_rel(&l);
            let mut rr = temporal_rel(&r);
            lr.sort_by(&SortSpec::by(["K"]));
            rr.sort_by(&SortSpec::by(["K"]));
            let tj = TemporalMergeJoin::new(
                Box::new(VecScan::new(lr)),
                Box::new(VecScan::new(rr)),
                &[("K".to_string(), "K".to_string())],
            ).unwrap();
            let got = collect(Box::new(tj)).unwrap();

            let mut expect = Vec::new();
            let mut ls = l; ls.sort();
            let mut rs = r; rs.sort();
            for &(lk, lv, lt1, lt2) in &ls {
                for &(rk, rv, rt1, rt2) in &rs {
                    if lk == rk {
                        if let Some(p) = Period::new(lt1, lt2).intersect(&Period::new(rt1, rt2)) {
                            expect.push(tup![lk, lv, rv, p.start, p.end]);
                        }
                    }
                }
            }
            let schema = got.schema().clone();
            let expected_rel = Relation::new(schema, expect);
            prop_assert!(got.multiset_eq(&expected_rel));
        }

        /// Parallel partitioned join equals the sequential merge exactly
        /// (same rows, same order).
        #[test]
        fn parallel_matches_sequential(
            l in proptest::collection::vec((0i64..5, 0i64..100, 0i32..20, 1i32..10), 0..40),
            r in proptest::collection::vec((0i64..5, 0i64..100, 0i32..20, 1i32..10), 0..40),
        ) {
            let fix = |v: Vec<(i64, i64, i32, i32)>| -> Vec<(i64, i64, i32, i32)> {
                v.into_iter().map(|(k, x, t1, d)| (k, x, t1, t1 + d)).collect()
            };
            let (l, r) = (fix(l), fix(r));
            let mut lr = temporal_rel(&l);
            let mut rr = temporal_rel(&r);
            lr.sort_by(&SortSpec::by(["K"]));
            rr.sort_by(&SortSpec::by(["K"]));
            let mk = |workers: usize| TemporalMergeJoin::with_opts(
                Box::new(VecScan::new(lr.clone())),
                Box::new(VecScan::new(rr.clone())),
                &[("K".to_string(), "K".to_string())],
                crate::cursor::ExecOpts { workers, ..Default::default() },
            ).unwrap();
            let seq = collect(Box::new(mk(1))).unwrap();
            let par = collect(Box::new(mk(8))).unwrap();
            prop_assert!(seq.list_eq(&par));
        }

        #[test]
        fn output_ordered_by_join_key(
            l in proptest::collection::vec((0i64..5, 0i64..10, 0i32..20, 1i32..10), 0..30),
        ) {
            let fixed: Vec<_> = l.into_iter().map(|(k, x, t1, d)| (k, x, t1, t1 + d)).collect();
            let mut rel1 = temporal_rel(&fixed);
            let mut rel2 = temporal_rel(&fixed);
            rel1.sort_by(&SortSpec::by(["K"]));
            rel2.sort_by(&SortSpec::by(["K"]));
            let tj = TemporalMergeJoin::new(
                Box::new(VecScan::new(rel1)),
                Box::new(VecScan::new(rel2)),
                &[("K".to_string(), "K".to_string())],
            ).unwrap();
            let got = collect(Box::new(tj)).unwrap();
            prop_assert!(got.is_sorted_by(&SortSpec::by(["K"])));
        }
    }
}
