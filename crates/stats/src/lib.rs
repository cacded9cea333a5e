//! # tango-stats
//!
//! Statistics and selectivity estimation for the TANGO middleware
//! (Section 3 of the paper).
//!
//! The middleware only uses *standard* statistics maintainable by any
//! conventional DBMS: block counts, tuple counts, average tuple sizes;
//! per-attribute minimum/maximum values, distinct counts, histograms and
//! index availability. On top of these, this crate provides:
//!
//! * [`temporal_sel`] — the `StartBefore`/`EndBefore` estimators for
//!   temporal predicates (overlaps, timeslice) that fix the ~40×
//!   overestimate of the naive independent-predicate approach (the worked
//!   example of Section 3.3 is a unit test here),
//! * [`std_sel`] — conventional selectivity estimation (uniform between
//!   min and max, or histogram buckets) for non-temporal predicates,
//! * [`cardinality`] — result-cardinality derivation for every TANGO
//!   operator, including the temporal-aggregation bounds and 60 % rule of
//!   Section 3.4.

pub mod cardinality;
pub mod histogram;
pub mod stats;
pub mod std_sel;
pub mod temporal_sel;

pub use cardinality::derive_stats;
pub use histogram::Histogram;
pub use stats::{AttrStats, RelationStats};
pub use temporal_sel::{end_before, overlaps_cardinality, start_before, timeslice_cardinality};
