//! # tango-algebra
//!
//! The temporal relational algebra foundation shared by every TANGO
//! component: the middleware optimizer and execution engine
//! (`tango-core`), the query-processing algorithm library (`tango-xxl`),
//! the embedded DBMS substrate (`tango-minidb`), and the statistics
//! machinery (`tango-stats`).
//!
//! The data model follows the paper (Slivinskas, Jensen & Snodgrass,
//! SIGMOD 2001): relations are *lists* of tuples — duplicates and order
//! are significant — over schemas that may carry a valid-time period
//! represented by a pair of day-granularity attributes `T1`/`T2` with
//! closed-open semantics `[T1, T2)`.
//!
//! The crate provides:
//!
//! * [`Value`], [`Type`] — the scalar domain (integers, doubles, strings,
//!   dates; SQL-style three-valued `NULL`s),
//! * [`date`] — a proleptic-Gregorian day codec (`Day` = days since
//!   1970-01-01),
//! * [`Period`] — closed-open time periods and their algebra,
//! * [`Schema`], [`Tuple`], [`Relation`] — list-semantics relations with
//!   the paper's two equivalence notions (list and multiset equality),
//! * [`Batch`] — a run of consecutive tuples sharing one schema, the
//!   unit of the engine's vectorized (batch-at-a-time) execution,
//! * [`ExactSum`] — the exactly rounded `SUM` / `AVG` total that every
//!   placement of an aggregate shares,
//! * [`Expr`] — scalar expressions with SQL rendering (used both for
//!   predicate evaluation and by the Translator-To-SQL),
//! * [`SortSpec`] — sort orders and the `IsPrefixOf` predicate of rules
//!   T10/T12,
//! * [`Logical`] — the logical operator tree produced by the temporal-SQL
//!   parser and transformed by the optimizer.

pub mod batch;
pub mod codec;
pub mod date;
pub mod error;
pub mod exact_sum;
pub mod expr;
pub mod interval;
pub mod logical;
pub mod order;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod value;

pub use batch::{Batch, Bitmap, Column, ColumnBuilder, StrCodes, DEFAULT_BATCH_ROWS};
pub use date::Day;
pub use error::{AlgebraError, Result};
pub use exact_sum::ExactSum;
pub use expr::{ArithOp, CmpOp, Expr};
pub use interval::Period;
pub use logical::{AggFunc, AggSpec, Logical, ProjItem, TOp};
pub use order::{sort_tuples, BatchKeys, SortKey, SortSpec};
pub use relation::Relation;
pub use schema::{Attr, Schema};
pub use tuple::{IntoValue, Tuple};
pub use value::{Type, Value};
