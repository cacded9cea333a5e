//! `MERGEJOIN^M` — sort-merge equi join.
//!
//! The paper implements both regular and temporal joins in the middleware
//! as sort-merge joins (Section 4.1, rules T2/T3); inputs must be sorted
//! on their join attributes. The output is ordered by the left input's
//! join attributes, which is why the optimizer can sometimes skip a final
//! sort.

use crate::cursor::{fill_batch, BatchBuffered, BoxCursor, Cursor, ExecError, ExecOpts, Result};
use crate::par::{partition_pairs, run_ordered, ParStats};
use crate::scan::VecScan;
use std::cmp::Ordering;
use std::sync::Arc;
use tango_algebra::logical::concat_schemas;
use tango_algebra::{Schema, Tuple};

/// The `MERGEJOIN^M` cursor: sort-merge equi join over inputs sorted on
/// the join attributes; output ordered by the left input.
///
/// With `workers > 1` both inputs are materialized, the left side is
/// split at key-group boundaries, each partition joins against its
/// aligned right range on the worker pool, and the partition outputs are
/// concatenated in key order — identical to the sequential output.
pub struct MergeJoin {
    left: BatchBuffered,
    right: BatchBuffered,
    opts: ExecOpts,
    eq: Vec<(String, String)>,
    /// Resolved join-attribute indices (left, right).
    keys: Vec<(usize, usize)>,
    schema: Arc<Schema>,
    state: Option<State>,
    /// Parallel path: the concatenated partition outputs, served as a scan.
    staged: Option<VecScan>,
    groups: u64,
    par: Option<ParStats>,
}

struct State {
    /// Current left tuple under consideration.
    left_cur: Option<Tuple>,
    /// Buffered right group (all right tuples with the current key).
    right_group: Vec<Tuple>,
    /// Lookahead on the right input.
    right_next: Option<Tuple>,
    /// Output position within the current (left tuple × right group).
    emit_idx: usize,
    /// Does the current left tuple match the buffered right group?
    matching: bool,
}

impl MergeJoin {
    /// Join `left` and `right` on the `eq` attribute pairs; both inputs
    /// must be sorted on those attributes.
    pub fn new(left: BoxCursor, right: BoxCursor, eq: &[(String, String)]) -> Result<Self> {
        Self::with_opts(left, right, eq, ExecOpts::default())
    }

    /// Like [`MergeJoin::new`] with explicit execution knobs.
    pub fn with_opts(
        left: BoxCursor,
        right: BoxCursor,
        eq: &[(String, String)],
        opts: ExecOpts,
    ) -> Result<Self> {
        let mut keys = Vec::with_capacity(eq.len());
        for (l, r) in eq {
            keys.push((left.schema().index_of(l)?, right.schema().index_of(r)?));
        }
        if keys.is_empty() {
            return Err(ExecError::State("merge join requires at least one key".into()));
        }
        let schema = Arc::new(concat_schemas(left.schema(), right.schema()));
        let (left, right) = (
            BatchBuffered::with_rows(left, opts.batch_rows),
            BatchBuffered::with_rows(right, opts.batch_rows),
        );
        Ok(MergeJoin {
            left,
            right,
            opts,
            eq: eq.to_vec(),
            keys,
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
        let keys = self.keys.clone();
        let same = |a: &Tuple, b: &Tuple| {
            keys.iter().all(|&(li, _)| a[li].total_cmp(&b[li]) == Ordering::Equal)
        };
        let cmp = |l: &Tuple, r: &Tuple| key_cmp(&keys, l, r);
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
                    let mut j = MergeJoin::new(
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

    /// The merge itself, one output row per call.
    fn step(&mut self) -> Result<Option<Tuple>> {
        // Split borrows up front: the merge state, the two inputs and the
        // key indices are disjoint fields, so the loop below can advance
        // the inputs while holding borrowed tuples out of the state — no
        // per-iteration `Tuple` clones.
        let MergeJoin { left, right, keys, state, groups, .. } = self;
        let st = state.as_mut().ok_or_else(|| ExecError::State("merge join not opened".into()))?;
        loop {
            // Emit pending pairs for the current left tuple.
            if st.matching {
                if let Some(l) = &st.left_cur {
                    if st.emit_idx < st.right_group.len() {
                        let out = l.concat(&st.right_group[st.emit_idx]);
                        st.emit_idx += 1;
                        return Ok(Some(out));
                    }
                }
                // Exhausted the group for this left tuple: advance left; if
                // the next left tuple has the same key, replay the group.
                let prev = st.left_cur.take();
                st.left_cur = left.next()?;
                st.emit_idx = 0;
                st.matching = match (&prev, &st.left_cur) {
                    (Some(p), Some(c)) => {
                        keys.iter().all(|&(li, _)| p[li].total_cmp(&c[li]) == Ordering::Equal)
                    }
                    _ => false,
                };
                if st.matching {
                    continue;
                }
            }
            let Some(cur) = st.left_cur.as_ref() else {
                return Ok(None);
            };
            // Advance the right side until its key >= left key, buffering
            // the group when equal.
            if st.right_next.is_none() {
                // No more right tuples can match this or any later left
                // tuple unless a buffered group matches — check group.
                if !st.right_group.is_empty() && key_cmp(keys, cur, &st.right_group[0]).is_eq() {
                    st.matching = true;
                    st.emit_idx = 0;
                    continue;
                }
                return Ok(None);
            }
            // If the buffered group already matches the left key, use it.
            if !st.right_group.is_empty() && key_cmp(keys, cur, &st.right_group[0]).is_eq() {
                st.matching = true;
                st.emit_idx = 0;
                continue;
            }
            let r = st.right_next.as_ref().unwrap();
            match key_cmp(keys, cur, r) {
                Ordering::Less => {
                    // left key too small: advance left
                    st.left_cur = left.next()?;
                    if st.left_cur.is_none() {
                        return Ok(None);
                    }
                }
                Ordering::Greater => {
                    // right key too small: discard and advance right
                    st.right_group.clear();
                    st.right_next = right.next()?;
                }
                Ordering::Equal => {
                    // Buffer the whole right group with this key, moving
                    // the lookahead tuple in rather than cloning it.
                    let first = st.right_next.take().unwrap();
                    let mut group = vec![first];
                    loop {
                        match right.next()? {
                            Some(t)
                                if keys.iter().all(|&(_, ri)| {
                                    group[0][ri].total_cmp(&t[ri]) == Ordering::Equal
                                }) =>
                            {
                                group.push(t)
                            }
                            other => {
                                st.right_next = other;
                                break;
                            }
                        }
                    }
                    *groups += 1;
                    st.right_group = group;
                    st.matching = true;
                    st.emit_idx = 0;
                }
            }
        }
    }
}

fn key_cmp(keys: &[(usize, usize)], l: &Tuple, r: &Tuple) -> Ordering {
    for &(li, ri) in keys {
        let o = l[li].total_cmp(&r[ri]);
        if o != Ordering::Equal {
            return o;
        }
    }
    Ordering::Equal
}

impl Cursor for MergeJoin {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.left.open()?;
        self.right.open()?;
        if self.opts.workers > 1 {
            return self.open_parallel();
        }
        let left_cur = self.left.next()?;
        let right_next = self.right.next()?;
        self.state = Some(State {
            left_cur,
            right_group: Vec::new(),
            right_next,
            emit_idx: 0,
            matching: false,
        });
        Ok(())
    }

    fn next_batch(&mut self, max_rows: usize) -> Result<Option<tango_algebra::Batch>> {
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
        let mut out = vec![("right_groups", self.groups)];
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
    use crate::scan::VecScan;
    use proptest::prelude::*;
    use tango_algebra::{tup, Attr, Relation, SortSpec, Type};

    fn rel(name_a: &str, name_b: &str, vals: Vec<(i64, i64)>) -> Relation {
        let s =
            Arc::new(Schema::new(vec![Attr::new(name_a, Type::Int), Attr::new(name_b, Type::Int)]));
        Relation::new(s, vals.into_iter().map(|(a, b)| tup![a, b]).collect())
    }

    fn join_pairs(l: Vec<(i64, i64)>, r: Vec<(i64, i64)>) -> Vec<Vec<i64>> {
        let mut lr = rel("K", "X", l);
        let mut rr = rel("K2", "Y", r);
        lr.sort_by(&SortSpec::by(["K"]));
        rr.sort_by(&SortSpec::by(["K2"]));
        let mj = MergeJoin::new(
            Box::new(VecScan::new(lr)),
            Box::new(VecScan::new(rr)),
            &[("K".to_string(), "K2".to_string())],
        )
        .unwrap();
        collect(Box::new(mj))
            .unwrap()
            .tuples()
            .iter()
            .map(|t| t.values().iter().map(|v| v.as_int().unwrap()).collect())
            .collect()
    }

    #[test]
    fn basic_join() {
        let got = join_pairs(vec![(1, 10), (2, 20), (4, 40)], vec![(2, 200), (2, 201), (3, 300)]);
        assert_eq!(got, vec![vec![2, 20, 2, 200], vec![2, 20, 2, 201]]);
    }

    #[test]
    fn duplicate_left_keys_replay_group() {
        let got = join_pairs(vec![(1, 10), (1, 11)], vec![(1, 100), (1, 101)]);
        assert_eq!(got.len(), 4);
    }

    proptest! {
        /// Parallel partitioned join equals the sequential merge exactly.
        #[test]
        fn parallel_matches_sequential(
            l in proptest::collection::vec((0i64..8, 0i64..100), 0..50),
            r in proptest::collection::vec((0i64..8, 0i64..100), 0..50),
        ) {
            let mut lr = rel("K", "X", l);
            let mut rr = rel("K2", "Y", r);
            lr.sort_by(&SortSpec::by(["K"]));
            rr.sort_by(&SortSpec::by(["K2"]));
            let mk = |workers: usize| MergeJoin::with_opts(
                Box::new(VecScan::new(lr.clone())),
                Box::new(VecScan::new(rr.clone())),
                &[("K".to_string(), "K2".to_string())],
                crate::cursor::ExecOpts { workers, ..Default::default() },
            ).unwrap();
            let seq = collect(Box::new(mk(1))).unwrap();
            let par = collect(Box::new(mk(8))).unwrap();
            prop_assert!(seq.list_eq(&par));
        }

        #[test]
        fn agrees_with_nested_loop(
            l in proptest::collection::vec((0i64..8, 0i64..100), 0..40),
            r in proptest::collection::vec((0i64..8, 0i64..100), 0..40),
        ) {
            let got = join_pairs(l.clone(), r.clone());
            // reference: nested loop over sorted inputs
            let mut ls = l; ls.sort();
            let mut rs = r; rs.sort();
            let mut expect = Vec::new();
            for (lk, lx) in &ls {
                for (rk, ry) in &rs {
                    if lk == rk { expect.push(vec![*lk, *lx, *rk, *ry]); }
                }
            }
            let mut got_sorted = got.clone();
            got_sorted.sort();
            expect.sort();
            prop_assert_eq!(got_sorted, expect);
        }
    }
}
