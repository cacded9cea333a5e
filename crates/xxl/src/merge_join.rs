//! `MERGEJOIN^M` — sort-merge equi join — and the one sort-merge sweep of
//! this crate.
//!
//! The paper implements both regular and temporal joins in the middleware
//! as sort-merge joins (Section 4.1, rules T2/T3); inputs must be sorted
//! on their join attributes. The output is ordered by the left input's
//! join attributes, which is why the optimizer can sometimes skip a final
//! sort.
//!
//! The sweep is written once: [`KeyGroups`] reads a key-sorted input as
//! runs of consecutive equal-key rows, [`SortMerge`] aligns two of them
//! and emits, left-row major, whatever its [`Pairing`] makes of each row
//! pair — concatenation here, period intersection in
//! [`crate::temporal_join`] — and `TDIFF^M` probes its right side through
//! the same [`KeyGroups::seek`].

use crate::cursor::{fill_batch, BatchBuffered, BoxCursor, Cursor, ExecError, Result};
use std::cmp::Ordering;
use std::sync::Arc;
use tango_algebra::logical::concat_schemas;
use tango_algebra::{Batch, Schema, Tuple, DEFAULT_BATCH_ROWS};

/// Compare `l` on `lkeys` with `r` on `rkeys`, attribute by attribute.
fn key_cmp(lkeys: &[usize], rkeys: &[usize], l: &Tuple, r: &Tuple) -> Ordering {
    for (&li, &ri) in lkeys.iter().zip(rkeys) {
        let o = l[li].total_cmp(&r[ri]);
        if o != Ordering::Equal {
            return o;
        }
    }
    Ordering::Equal
}

/// A key-sorted input read as runs of consecutive equal-key rows: at most
/// one run is buffered, and `next` is the first row behind it (`None`
/// exactly at end of input).
pub(crate) struct KeyGroups {
    input: BatchBuffered,
    keys: Vec<usize>,
    group: Vec<Tuple>,
    next: Option<Tuple>,
}

impl KeyGroups {
    pub(crate) fn new(input: BoxCursor, keys: Vec<usize>, batch_rows: usize) -> Self {
        let input = BatchBuffered::with_rows(input, batch_rows);
        KeyGroups { input, keys, group: Vec::new(), next: None }
    }

    /// Open the input and read its first row.
    pub(crate) fn open(&mut self) -> Result<()> {
        self.group.clear();
        self.input.open()?;
        self.next = self.input.next()?;
        Ok(())
    }

    /// The buffered group; empty before the first match, once spent and
    /// at end of input.
    pub(crate) fn group(&self) -> &[Tuple] {
        &self.group
    }

    /// Buffer the next group, whatever its key; `false` at end of input.
    pub(crate) fn advance(&mut self) -> Result<bool> {
        self.group.clear();
        let Some(first) = self.next.take() else {
            return Ok(false);
        };
        self.group.push(first);
        while let Some(t) = self.input.next()? {
            if key_cmp(&self.keys, &self.keys, &self.group[0], &t).is_ne() {
                self.next = Some(t);
                break;
            }
            self.group.push(t);
        }
        Ok(true)
    }

    /// Position on the group whose key equals `probe`'s (read through
    /// `probe_keys`) and say whether there is one. Probes must arrive in
    /// key order: groups ordering before the probe are dropped unread, an
    /// equal one is buffered once and replayed for equal probes, and one
    /// ordering after it stays unread for later probes.
    pub(crate) fn seek(&mut self, probe: &Tuple, probe_keys: &[usize]) -> Result<bool> {
        if let Some(first) = self.group.first() {
            if key_cmp(probe_keys, &self.keys, probe, first).is_eq() {
                return Ok(true);
            }
            self.group.clear();
        }
        while let Some(r) = &self.next {
            match key_cmp(probe_keys, &self.keys, probe, r) {
                Ordering::Less => break,
                Ordering::Equal => return self.advance(),
                Ordering::Greater => self.next = self.input.next()?,
            }
        }
        Ok(false)
    }

    /// Drop the buffered group: no later probe can equal its key.
    pub(crate) fn spend(&mut self) {
        self.group.clear();
    }

    /// Nothing buffered and nothing left to read.
    pub(crate) fn at_end(&self) -> bool {
        self.group.is_empty() && self.next.is_none()
    }

    pub(crate) fn close(&mut self) -> Result<()> {
        self.group.clear();
        self.next = None;
        self.input.close()
    }
}

/// What a sort-merge join makes of one key-matched (left row, right row)
/// pair.
pub(crate) trait Pairing: Send {
    /// Name of the operator, for error messages.
    const NAME: &'static str;
    /// Name of the matched-key-groups counter.
    const GROUPS: &'static str;

    /// Called once per matched pair of groups, before any of its pairs.
    fn begin(&mut self, _left: &[Tuple], _right: &[Tuple]) {}

    /// The output row of the pair at positions `(i, j)` of the matched
    /// groups, or `None` if the pair contributes nothing.
    fn pair(&self, i: usize, j: usize, l: &Tuple, r: &Tuple) -> Option<Tuple>;
}

/// Resolve the `eq` attribute pairs of a join named `what` to (left,
/// right) key indices.
pub(crate) fn resolve_keys(
    what: &str,
    left: &Schema,
    right: &Schema,
    eq: &[(String, String)],
) -> Result<(Vec<usize>, Vec<usize>)> {
    if eq.is_empty() {
        return Err(ExecError::State(format!("{what} requires at least one key")));
    }
    let mut keys = (Vec::with_capacity(eq.len()), Vec::with_capacity(eq.len()));
    for (l, r) in eq {
        keys.0.push(left.index_of(l)?);
        keys.1.push(right.index_of(r)?);
    }
    Ok(keys)
}

/// The sort-merge join: aligns the key groups of two key-sorted inputs
/// and emits the pairing of every (left row, right row) of each matched
/// pair of groups, left-row major — so the output is ordered like the
/// left input.
pub(crate) struct SortMerge<P> {
    left: KeyGroups,
    right: KeyGroups,
    pairing: P,
    schema: Arc<Schema>,
    /// Next pair to emit within (left group × right group).
    at: (usize, usize),
    opened: bool,
    groups: u64,
}

impl<P: Pairing> SortMerge<P> {
    pub(crate) fn new(
        left: BoxCursor,
        right: BoxCursor,
        (lkeys, rkeys): (Vec<usize>, Vec<usize>),
        pairing: P,
        schema: Arc<Schema>,
        batch_rows: usize,
    ) -> Self {
        SortMerge {
            left: KeyGroups::new(left, lkeys, batch_rows),
            right: KeyGroups::new(right, rkeys, batch_rows),
            pairing,
            schema,
            at: (0, 0),
            opened: false,
            groups: 0,
        }
    }

    /// The merge itself, one output row per call.
    fn step(&mut self) -> Result<Option<Tuple>> {
        if !self.opened {
            return Err(ExecError::State(format!("{} not opened", P::NAME)));
        }
        loop {
            // Emit the remaining pairs of the matched groups.
            let (lg, rg) = (self.left.group(), self.right.group());
            while self.at.0 < lg.len() {
                while self.at.1 < rg.len() {
                    let (i, j) = self.at;
                    self.at.1 += 1;
                    if let Some(out) = self.pairing.pair(i, j, &lg[i], &rg[j]) {
                        return Ok(Some(out));
                    }
                }
                self.at = (self.at.0 + 1, 0);
            }
            // Left keys are distinct from group to group, so a right
            // group matches once.
            self.right.spend();
            self.at = (0, 0);
            // Align on the next common key. The right side's end is
            // checked first: once it is reached no left group is read.
            loop {
                if self.right.at_end() || !self.left.advance()? {
                    return Ok(None);
                }
                if self.right.seek(&self.left.group()[0], &self.left.keys)? {
                    break;
                }
            }
            self.groups += 1;
            self.pairing.begin(self.left.group(), self.right.group());
        }
    }
}

impl<P: Pairing> Cursor for SortMerge<P> {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.left.open()?;
        self.right.open()?;
        self.opened = true;
        Ok(())
    }

    fn next_batch(&mut self, max_rows: usize) -> Result<Option<Batch>> {
        fill_batch(self.schema.clone(), max_rows, || self.step())
    }

    fn close(&mut self) -> Result<()> {
        self.opened = false;
        self.left.close()?;
        self.right.close()
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![(P::GROUPS, self.groups)]
    }
}

/// Forward [`Cursor`] from a public join to the [`SortMerge`] it wraps.
macro_rules! sort_merge_cursor {
    ($join:ty) => {
        impl Cursor for $join {
            fn schema(&self) -> &Arc<Schema> {
                self.0.schema()
            }
            fn open(&mut self) -> Result<()> {
                self.0.open()
            }
            fn next_batch(&mut self, max_rows: usize) -> Result<Option<Batch>> {
                self.0.next_batch(max_rows)
            }
            fn close(&mut self) -> Result<()> {
                self.0.close()
            }
            fn counters(&self) -> Vec<(&'static str, u64)> {
                self.0.counters()
            }
        }
    };
}
pub(crate) use sort_merge_cursor;

/// `MERGEJOIN^M`'s pairing: the two rows side by side.
struct Concat;

impl Pairing for Concat {
    const NAME: &'static str = "merge join";
    const GROUPS: &'static str = "right_groups";

    fn pair(&self, _: usize, _: usize, l: &Tuple, r: &Tuple) -> Option<Tuple> {
        Some(l.concat(r))
    }
}

/// The `MERGEJOIN^M` cursor: sort-merge equi join over inputs sorted on
/// the join attributes; output ordered by the left input.
pub struct MergeJoin(SortMerge<Concat>);

impl MergeJoin {
    /// Join `left` and `right` on the `eq` attribute pairs; both inputs
    /// must be sorted on those attributes.
    pub fn new(left: BoxCursor, right: BoxCursor, eq: &[(String, String)]) -> Result<Self> {
        Self::with_batch_rows(left, right, eq, DEFAULT_BATCH_ROWS)
    }

    /// Like [`MergeJoin::new`], pulling its inputs `batch_rows` at a time.
    pub fn with_batch_rows(
        left: BoxCursor,
        right: BoxCursor,
        eq: &[(String, String)],
        batch_rows: usize,
    ) -> Result<Self> {
        let keys = resolve_keys(Concat::NAME, left.schema(), right.schema(), eq)?;
        let schema = Arc::new(concat_schemas(left.schema(), right.schema()));
        Ok(MergeJoin(SortMerge::new(left, right, keys, Concat, schema, batch_rows)))
    }
}

sort_merge_cursor!(MergeJoin);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::collect;
    use crate::scan::VecScan;
    use crate::testutil::counting_scan;
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

    fn key_groups(keys: &[i64]) -> KeyGroups {
        let r = rel("K", "X", keys.iter().map(|&k| (k, 0)).collect());
        let mut g = KeyGroups::new(Box::new(VecScan::new(r)), vec![0], 2);
        g.open().unwrap();
        g
    }

    #[test]
    fn seek_keeps_a_group_that_orders_after_the_probe() {
        let mut g = key_groups(&[1, 3, 3]);
        assert!(!g.seek(&tup![2], &[0]).unwrap(), "1 is dropped, 3 is not a match");
        assert!(g.group().is_empty() && !g.at_end());
        assert!(g.seek(&tup![3], &[0]).unwrap(), "3 was kept for the later probe");
        assert_eq!(g.group().len(), 2);
    }

    #[test]
    fn seek_replays_one_group_for_equal_consecutive_probes() {
        let mut g = key_groups(&[1, 1, 2]);
        assert!(g.seek(&tup![1], &[0]).unwrap());
        assert!(g.seek(&tup![1], &[0]).unwrap(), "the buffered group serves the equal probe");
        assert_eq!(g.group(), &[tup![1, 0], tup![1, 0]]);
        assert!(g.seek(&tup![2], &[0]).unwrap());
        assert_eq!(g.group(), &[tup![2, 0]]);
    }

    #[test]
    fn seek_is_stable_at_end_of_input() {
        let mut g = key_groups(&[1]);
        for _ in 0..2 {
            assert!(!g.seek(&tup![9], &[0]).unwrap());
            assert!(g.at_end() && g.group().is_empty());
        }
        assert!(!g.advance().unwrap());
        g.spend();
        assert!(g.at_end());
    }

    /// Once the right input has ended no further left group is read:
    /// the first left batch is pulled at `open`, the second closes the
    /// key-1 group, the other two stay unread.
    #[test]
    fn right_input_ending_first_pulls_no_further_left_batch() {
        let (left, pulls) = counting_scan(rel("K", "X", (2..10).map(|i| (i / 2, i)).collect()));
        let right = Box::new(VecScan::new(rel("K2", "Y", vec![(1, 0)])));
        let mj = MergeJoin::with_batch_rows(left, right, &[("K".into(), "K2".into())], 2).unwrap();
        assert_eq!(collect(Box::new(mj)).unwrap().len(), 2);
        assert_eq!(pulls.load(std::sync::atomic::Ordering::Relaxed), 2);
    }

    proptest! {
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
