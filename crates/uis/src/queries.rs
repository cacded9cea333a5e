//! The four statements of the performance study (Section 5), as the
//! temporal SQL the middleware parses. Plain text over the UIS schema:
//! the figure binaries, the optimizer's tests and the integration
//! suites all read them from here.

use tango_algebra::date::format_date;
use tango_algebra::Day;

/// Query 1 (Figure 7): temporal aggregation over a POSITION variant,
/// sorted output.
pub fn q1_sql(table: &str) -> String {
    format!(
        "VALIDTIME SELECT PosID, COUNT(PosID) AS Cnt FROM {table} \
         GROUP BY PosID ORDER BY PosID"
    )
}

/// Query 2 (Figure 9): the window `(start, end)` and the `PayRate`
/// selection over POSITION, temporally joined with the temporal
/// aggregation of POSITION.
pub fn q2_sql(start: Day, end: Day) -> String {
    format!(
        "VALIDTIME SELECT P.PosID, Cnt, P.EmpID FROM \
           (VALIDTIME SELECT PosID, COUNT(PosID) AS Cnt FROM POSITION GROUP BY PosID) A, \
           POSITION P \
         WHERE A.PosID = P.PosID AND P.PayRate > 10 \
           AND T1 < DATE '{}' AND T2 > DATE '{}' \
         ORDER BY P.PosID",
        format_date(end),
        format_date(start),
    )
}

/// Query 3 (Figure 11a): the temporal self-join of POSITION over the
/// versions that start before `bound`.
pub fn q3_sql(bound: Day) -> String {
    format!(
        "VALIDTIME SELECT A.PosID, A.EmpID, B.EmpID FROM POSITION A, POSITION B \
         WHERE A.PosID = B.PosID AND A.T1 < DATE '{0}' AND B.T1 < DATE '{0}' \
         ORDER BY A.PosID",
        format_date(bound),
    )
}

/// Query 4 (Figure 11b): the regular join of a POSITION variant with
/// EMPLOYEE.
pub fn q4_sql(pos_table: &str) -> String {
    format!(
        "SELECT P.PosID, E.EmpName, E.Address FROM {pos_table} P, EMPLOYEE E \
         WHERE P.EmpID = E.EmpID ORDER BY P.PosID"
    )
}
