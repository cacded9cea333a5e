//! An interactive temporal-SQL shell on top of the TANGO middleware.
//!
//! ```text
//! cargo run --release --bin tango-repl            # Figure 3 sample data
//! cargo run --release --bin tango-repl -- --uis   # 20k-row UIS dataset
//! ```
//!
//! Statements ending in `;` are executed. `VALIDTIME` queries go through
//! the middleware (optimizer + mixed execution); everything else —
//! including DDL, DML and plain SELECTs typed with a leading `\d` — can
//! talk to the DBMS directly.
//!
//! `EXPLAIN <query>` shows the middleware's chosen plan with site
//! placement and estimated rows; `EXPLAIN ANALYZE <query>` also runs it
//! and annotates each operator with actual rows, exclusive time and
//! operator counters, followed by the optimizer's search trace.
//! (For statements the middleware doesn't optimize, `EXPLAIN` is passed
//! through to the DBMS.) Meta commands:
//!
//! * `\plan <query>`    — optimize only, show the chosen physical plan
//! * `\explain <sql>`   — the DBMS's own EXPLAIN for conventional SQL
//! * `\calibrate`       — run cost-factor calibration
//! * `\factors`         — show the current cost factors
//! * `\batch [n]`       — show/set this session's batch size
//! * `\rewrites [p,..]` — show/set the rewrite rule packs applied
//!   between parse and optimize (`\rewrites none` clears; see
//!   `docs/REWRITES.md`)
//! * `\cache`           — relation-cache report (residency, hit/refresh
//!   counters, pending delta-log bytes)
//! * `\tables`          — list tables
//! * `\quit`

use std::io::{BufRead, Write};
use tango::core::rewrite::Rewriter;
use tango::core::Tango;
use tango::minidb::{Connection, Database, Link, LinkProfile};
use tango::uis::{figure3, generate_employee, generate_position, UisConfig};

fn main() {
    let use_uis = std::env::args().any(|a| a == "--uis");
    let db = Database::new(Link::new(LinkProfile::default()));
    let conn = Connection::new(db.clone());

    if use_uis {
        let cfg = UisConfig { position_rows: 20_000, employee_rows: 8_000, seed: 0xEC1 };
        eprintln!(
            "loading UIS dataset ({} positions, {} employees) ...",
            cfg.position_rows, cfg.employee_rows
        );
        let pos = generate_position(&cfg);
        let emp = generate_employee(&cfg);
        db.create_table("POSITION", pos.schema().as_ref().clone()).unwrap();
        db.insert_rows("POSITION", pos.into_tuples()).unwrap();
        db.create_table("EMPLOYEE", emp.schema().as_ref().clone()).unwrap();
        db.insert_rows("EMPLOYEE", emp.into_tuples()).unwrap();
        conn.execute("CREATE INDEX EMP_PK ON EMPLOYEE (EmpID)").unwrap();
    } else {
        eprintln!("loading the Figure 3 sample (POSITION with 3 rows) ...");
        let pos = figure3::position();
        db.create_table("POSITION", pos.schema().as_ref().clone()).unwrap();
        db.insert_rows("POSITION", pos.into_tuples()).unwrap();
    }
    conn.execute("ANALYZE TABLE POSITION COMPUTE STATISTICS").unwrap();
    if use_uis {
        conn.execute("ANALYZE TABLE EMPLOYEE COMPUTE STATISTICS").unwrap();
    }

    let mut tango = Tango::connect(db.clone());
    eprintln!("TANGO temporal middleware — type \\quit to exit, \\plan <q> to inspect plans.");
    eprintln!("try: VALIDTIME SELECT PosID, COUNT(PosID) AS Cnt FROM POSITION GROUP BY PosID ORDER BY PosID;");

    let stdin = std::io::stdin();
    let mut buf = String::new();
    loop {
        if buf.is_empty() {
            print!("tango> ");
        } else {
            print!("   ... ");
        }
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('\\') && buf.is_empty() {
            if handle_meta(line, &mut tango, &conn) {
                break;
            }
            continue;
        }
        buf.push_str(line);
        buf.push(' ');
        if !line.ends_with(';') {
            continue;
        }
        let stmt = buf.trim().trim_end_matches(';').trim().to_string();
        buf.clear();
        run_statement(&stmt, &mut tango, &conn, &db);
    }
}

fn handle_meta(line: &str, tango: &mut Tango, conn: &Connection) -> bool {
    let (cmd, rest) = line.split_once(' ').unwrap_or((line, ""));
    match cmd {
        "\\quit" | "\\q" => return true,
        "\\calibrate" => match tango.calibrate() {
            Ok(cal) => {
                println!(
                    "calibrated: p_tm={:.3} p_td={:.3} p_taggm1={:.4} p_taggd1={:.3} p_jd={:.4}",
                    cal.factors.p_tm, cal.factors.p_td, cal.factors.p_taggm1,
                    cal.factors.p_taggd1, cal.factors.p_jd
                );
            }
            Err(e) => println!("calibration failed: {e}"),
        },
        "\\factors" => {
            let f = tango.factors();
            println!(
                "p_tm={:.3} p_td={:.3} p_td_fixed={:.0} p_sem={:.4} p_sm={:.4} p_sd={:.4}",
                f.p_tm, f.p_td, f.p_td_fixed, f.p_sem, f.p_sm, f.p_sd
            );
            println!(
                "p_taggm1={:.4} p_taggm2={:.4} p_taggd1={:.3} p_taggd2={:.3} p_mjm={:.4} p_jd={:.4}",
                f.p_taggm1, f.p_taggm2, f.p_taggd1, f.p_taggd2, f.p_mjm, f.p_jd
            );
        }
        "\\batch" => {
            let rest = rest.trim().trim_end_matches(';');
            if rest.is_empty() {
                match tango.options().batch_rows {
                    Some(n) => println!("batch_rows = {n}"),
                    None => println!(
                        "batch_rows = default ({})",
                        tango::algebra::DEFAULT_BATCH_ROWS
                    ),
                }
            } else {
                match rest.parse::<usize>() {
                    Ok(n) => {
                        tango.options_mut().batch_rows = Some(n.max(1));
                        println!("batch_rows = {}", n.max(1));
                    }
                    Err(_) => println!("usage: \\batch <rows>  (1 = row-at-a-time)"),
                }
            }
        }
        "\\rewrites" => {
            let rest = rest.trim().trim_end_matches(';');
            if !rest.is_empty() {
                let packs: Vec<String> = if rest.eq_ignore_ascii_case("none")
                    || rest.eq_ignore_ascii_case("off")
                {
                    Vec::new()
                } else {
                    rest.split(',').map(|p| p.trim().to_string()).filter(|p| !p.is_empty()).collect()
                };
                tango.options_mut().rewrite_packs = packs;
            }
            if tango.options().rewrite_packs.is_empty() {
                println!("rewrites = off (try \\rewrites temporal-normalize,subquery-to-join,compat)");
            } else {
                match Rewriter::load(&tango.options().rewrite_packs) {
                    Ok(rw) => {
                        for p in rw.packs() {
                            println!(
                                "  {} ({} rule{}): {}",
                                p.name,
                                p.rules.len(),
                                if p.rules.len() == 1 { "" } else { "s" },
                                p.description
                            );
                        }
                    }
                    Err(e) => {
                        println!("error: {e}");
                        tango.options_mut().rewrite_packs = Vec::new();
                        println!("rewrites = off");
                    }
                }
            }
        }
        "\\cache" => print!("{}", tango.cache_report()),
        "\\tables" => {
            for t in conn.database().table_names() {
                let rows = conn
                    .table_stats(&t)
                    .map(|s| format!("{} rows (analyzed)", s.rows as u64))
                    .unwrap_or_else(|| "not analyzed".to_string());
                println!("  {t}: {rows}");
            }
        }
        "\\plan" => match tango.optimize(rest.trim_end_matches(';')) {
            Ok(q) => {
                println!(
                    "estimated {:.1}ms over {} classes / {} elements:\n{}",
                    q.est_cost_us / 1e3,
                    q.classes,
                    q.elements,
                    q.explain()
                );
            }
            Err(e) => println!("error: {e}"),
        },
        "\\explain" => match conn.query(&format!("EXPLAIN {}", rest.trim_end_matches(';'))) {
            Ok(mut cur) => {
                while let Ok(Some(row)) = cur.fetch() {
                    println!("{}", row[0]);
                }
            }
            Err(e) => println!("error: {e}"),
        },
        other => println!("unknown meta command {other} (try \\quit, \\plan, \\explain, \\calibrate, \\factors, \\batch, \\rewrites, \\cache, \\tables)"),
    }
    false
}

fn run_statement(stmt: &str, tango: &mut Tango, conn: &Connection, _db: &Database) {
    let head = stmt.split_whitespace().next().unwrap_or("").to_uppercase();
    match head.as_str() {
        "SELECT" | "VALIDTIME" => match tango.query(stmt) {
            Ok((rel, report)) => {
                println!("{rel}");
                println!(
                    "({:.1}ms optimize + {:.1}ms compute + {:.1}ms wire; plan: {})",
                    report.optimized.optimize_time.as_secs_f64() * 1e3,
                    report.exec.wall.as_secs_f64() * 1e3,
                    report.exec.wire.as_secs_f64() * 1e3,
                    report.optimized.explain().lines().next().unwrap_or("").trim(),
                );
            }
            Err(e) => println!("error: {e}"),
        },
        "EXPLAIN" => {
            let (req, inner) = tango::core::tsql::strip_explain(stmt);
            let inner_head = inner.split_whitespace().next().unwrap_or("").to_uppercase();
            match (req, inner_head.as_str()) {
                (Some(tango::core::tsql::Explain::Analyze), "SELECT" | "VALIDTIME") => {
                    match tango.explain_analyze(inner) {
                        Ok((text, report)) => {
                            print!("{text}");
                            print!("{}", report.optimized.optimizer_trace());
                        }
                        Err(e) => println!("error: {e}"),
                    }
                }
                (Some(tango::core::tsql::Explain::Plan), "SELECT" | "VALIDTIME") => {
                    match tango.explain(inner) {
                        Ok(text) => print!("{text}"),
                        Err(e) => println!("error: {e}"),
                    }
                }
                // not middleware-optimizable: the DBMS's own EXPLAIN
                _ => match conn.query(stmt) {
                    Ok(mut cur) => {
                        while let Ok(Some(row)) = cur.fetch() {
                            println!("{}", row[0]);
                        }
                    }
                    Err(e) => println!("error: {e}"),
                },
            }
        }
        _ => match conn.execute(stmt) {
            Ok(o) => println!("ok ({} rows affected)", o.rows_affected),
            Err(e) => println!("error: {e}"),
        },
    }
}
