//! Plain-text result tables: one row per x-axis value, one column per
//! plan or series.

use std::fmt::Write as _;
use std::time::Duration;

/// A result table: one row per x-axis value, one column per plan/series.
pub struct Table {
    pub title: String,
    pub x_label: String,
    pub columns: Vec<String>,
    pub rows: Vec<(String, Vec<Option<Duration>>)>,
    pub notes: Vec<String>,
}

impl Table {
    pub fn new(title: &str, x_label: &str, columns: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            x_label: x_label.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn row(&mut self, x: impl ToString, cells: Vec<Option<Duration>>) {
        assert_eq!(cells.len(), self.columns.len());
        self.rows.push((x.to_string(), cells));
    }

    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Render with seconds to two decimals, like the paper's plots.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} ==", self.title);
        let mut widths: Vec<usize> = Vec::new();
        widths.push(
            self.rows.iter().map(|(x, _)| x.len()).chain([self.x_label.len()]).max().unwrap_or(8),
        );
        for (i, c) in self.columns.iter().enumerate() {
            let w = self
                .rows
                .iter()
                .map(|(_, cells)| fmt_cell(&cells[i]).len())
                .chain([c.len()])
                .max()
                .unwrap_or(8);
            widths.push(w);
        }
        let _ = write!(out, "{:w$}", self.x_label, w = widths[0]);
        for (c, w) in self.columns.iter().zip(&widths[1..]) {
            let _ = write!(out, "  {c:>w$}");
        }
        let _ = writeln!(out);
        for (x, cells) in &self.rows {
            let _ = write!(out, "{x:w$}", w = widths[0]);
            for (cell, w) in cells.iter().zip(&widths[1..]) {
                let _ = write!(out, "  {:>w$}", fmt_cell(cell));
            }
            let _ = writeln!(out);
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }

    /// CSV form (for plotting).
    pub fn csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", self.x_label);
        for c in &self.columns {
            let _ = write!(out, ",{c}");
        }
        let _ = writeln!(out);
        for (x, cells) in &self.rows {
            let _ = write!(out, "{x}");
            for cell in cells {
                match cell {
                    Some(d) => {
                        let _ = write!(out, ",{:.4}", d.as_secs_f64());
                    }
                    None => {
                        let _ = write!(out, ",");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Print to stdout and save a CSV under `target/figures/`.
    pub fn emit(&self, file_stem: &str) {
        println!("{}", self.render());
        let dir = std::path::Path::new("target/figures");
        let _ = std::fs::create_dir_all(dir);
        let _ = std::fs::write(dir.join(format!("{file_stem}.csv")), self.csv());
    }
}

fn fmt_cell(c: &Option<Duration>) -> String {
    match c {
        Some(d) => format!("{:.2}s", d.as_secs_f64()),
        None => "-".to_string(),
    }
}
