//! # tango-xxl
//!
//! The middleware's query-processing algorithm library, modelled on the
//! XXL library the paper's Execution Engine builds on (van den Bercken,
//! Dittrich & Seeger, SIGMOD 2000).
//!
//! Every algorithm is a [`Cursor`]: an iterator with an explicit `open` /
//! `next_batch` / `close` lifecycle enabling the pipelined execution of
//! Figure 2 of the paper. Algorithms are deliberately *order-preserving*
//! wherever the paper requires it (Section 4: "the middleware algorithms
//! are designed to be order preserving").
//!
//! [`Cursor::next_batch`] is the only pull method: the caller names a row
//! target, so row-at-a-time execution is the `max_rows = 1` case of the
//! one protocol. The bulk operators (scan, filter, project, sort, dedup,
//! aggregation) and the sort-merge family (the merge joins and the
//! difference) produce batches natively over tango-algebra's columnar
//! `Batch` layout; the row-logic operators (coalescing, nested loop)
//! keep a private row step, fill their output batches through one shared
//! helper, and read their inputs through the crate's `BatchBuffered`
//! adapter, so an upstream (possibly traced, possibly remote) cursor is
//! dispatched once per batch. The size
//! of those internal pulls travels per operator instance (every
//! plan-reachable algorithm with internal pulls has a `with_batch_rows`
//! constructor; there is no process-wide state), and a query runs on the
//! one thread that pulls its root cursor.
//!
//! Inventory:
//!
//! * [`scan::VecScan`] — scan of a materialized relation,
//! * [`scan::BatchScan`] — scan of stored batches, each handed on in the
//!   layout it was stored in (serves a drained pipeline breaker),
//! * [`scan::CachedScan`] — the same over one *shared* columnar batch: a
//!   middleware-cache hit, served as zero-copy slices of the entry,
//! * [`filter::Filter`] — `FILTER^M`,
//! * [`project::Project`] — `PROJECT^M`,
//! * [`sort::Sort`] / [`sort::ExternalSort`] — `SORT^M`,
//! * [`merge_join::MergeJoin`] — `MERGEJOIN^M` (sort-merge equi join);
//!   its module holds the crate's one sort-merge sweep (Section 4.1: the
//!   regular and the temporal join are one algorithm) — a key-group
//!   reader over a sorted input's columnar batches and the join over two
//!   of them that gathers its output columns at the matching (left row,
//!   right row) pairs,
//! * [`temporal_join::TemporalMergeJoin`] — `TMERGEJOIN^M` (⋈ᵀ): the
//!   same sweep, keeping the pairs whose periods overlap and writing
//!   their intersection,
//! * [`nested_loop::NestedLoopJoin`] — fallback theta join,
//! * [`taggr::TemporalAggregate`] — `TAGGR^M`, the two-sorted-copies
//!   sweep of Section 3.4, run once over typed columns: each aggregate
//!   reads its argument column in place, and SUM / AVG over doubles sum
//!   exactly (`tango_algebra::ExactSum`), so the answer is `TAGGR^D`'s to
//!   the bit,
//! * [`dedup::DupElim`], [`coalesce::Coalesce`], [`tdiff::TemporalDiff`] —
//!   the extension operators the paper lists as future additions
//!   (`TDIFF^M` probes its right side through the same key-group reader),
//! * [`delta`] — Z-set deltas for refreshing cached fragments in place.
//!
//! The temporal operators share one rule: a period with a NULL endpoint,
//! or an empty one, holds at no time point — such a row joins,
//! subtracts, merges and aggregates nothing. Coalescing reads a row's
//! period through one helper and writes one through its inverse
//! (`cursor.rs`); the sort-merge family and `TAGGR^M` read periods as
//! endpoint columns flattened to days (`cursor::day_col`) and write them
//! as flat `i64` columns.
//!
//! ```
//! use std::sync::Arc;
//! use tango_algebra::{tup, AggFunc, AggSpec, Attr, Relation, Schema, SortSpec, Type};
//! use tango_xxl::{collect, TemporalAggregate, VecScan};
//!
//! // Figure 3(a) of the paper, sorted on (PosID, T1) as TAGGR^M requires
//! let schema = Arc::new(Schema::with_inferred_period(vec![
//!     Attr::new("PosID", Type::Int),
//!     Attr::new("EmpName", Type::Str),
//!     Attr::new("T1", Type::Int),
//!     Attr::new("T2", Type::Int),
//! ]));
//! let mut position = Relation::new(schema, vec![
//!     tup![1, "Tom", 2, 20], tup![1, "Jane", 5, 25], tup![2, "Tom", 5, 10],
//! ]);
//! position.sort_by(&SortSpec::by(["PosID", "T1"]));
//!
//! let agg = TemporalAggregate::new(
//!     Box::new(VecScan::new(position)),
//!     vec!["PosID".into()],
//!     vec![AggSpec::new(AggFunc::Count, Some("PosID"), "Cnt")],
//! )?;
//! let result = collect(Box::new(agg))?;
//! assert_eq!(result.tuples()[1], tup![1, 5, 20, 2]); // two holders over [5, 20)
//! # Ok::<(), tango_xxl::ExecError>(())
//! ```

#![warn(missing_docs)]

pub mod coalesce;
pub mod cursor;
pub mod dedup;
pub mod delta;
pub mod filter;
pub mod merge_join;
pub mod nested_loop;
pub mod project;
pub mod scan;
pub mod sort;
pub mod taggr;
pub mod tdiff;
pub mod temporal_join;

pub use coalesce::Coalesce;
pub use cursor::{
    collect, drain_batches, drain_of, fill_batch, BoxCursor, Cursor, ExecError, Result,
};
pub use dedup::DupElim;
pub use delta::{delta_filter, delta_join, delta_project, DeltaApply, ZSet};
pub use filter::Filter;
pub use merge_join::MergeJoin;
pub use nested_loop::NestedLoopJoin;
pub use project::Project;
pub use scan::{BatchScan, CachedScan, VecScan};
pub use sort::{ExternalSort, Sort};
pub use taggr::TemporalAggregate;
pub use tdiff::TemporalDiff;
pub use temporal_join::TemporalMergeJoin;

#[cfg(test)]
pub(crate) mod testutil {
    use crate::{BoxCursor, Cursor, Result, VecScan};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use tango_algebra::{Attr, Batch, Relation, Schema, Type};

    /// A scan of `rel` that counts the batches pulled from it (the pull
    /// that finds the end included).
    pub(crate) fn counting_scan(rel: Relation) -> (BoxCursor, Arc<AtomicUsize>) {
        struct Counting(VecScan, Arc<AtomicUsize>);
        impl Cursor for Counting {
            fn schema(&self) -> &Arc<Schema> {
                self.0.schema()
            }
            fn open(&mut self) -> Result<()> {
                self.0.open()
            }
            fn next_batch(&mut self, max_rows: usize) -> Result<Option<Batch>> {
                self.1.fetch_add(1, Ordering::Relaxed);
                self.0.next_batch(max_rows)
            }
        }
        let pulls = Arc::new(AtomicUsize::new(0));
        (Box::new(Counting(VecScan::new(rel), pulls.clone())), pulls)
    }

    /// POSITION relation from Figure 3(a) of the paper.
    pub fn figure3_position() -> Relation {
        let schema = Arc::new(Schema::with_inferred_period(vec![
            Attr::new("PosID", Type::Int),
            Attr::new("EmpName", Type::Str),
            Attr::new("T1", Type::Int),
            Attr::new("T2", Type::Int),
        ]));
        let rows = vec![
            tango_algebra::tup![1, "Tom", 2, 20],
            tango_algebra::tup![1, "Jane", 5, 25],
            tango_algebra::tup![2, "Tom", 5, 10],
        ];
        Relation::new(schema, rows)
    }
}
