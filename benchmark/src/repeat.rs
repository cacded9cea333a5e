//! `--repeat n`: run the workload `n` times in fresh processes, each with
//! another seed (as the driver's acceptance check does), and print for
//! every metric its median, its quartiles, and the distance between the
//! first and third quartile as a share of the median — the spread the
//! metric's bound is held against.

use crate::metrics::END_TO_END;
use crate::stats::{median, quartiles};
use std::process::{Command, Stdio};

/// The `"name": {"value": x` pairs of a result line this program printed.
pub fn parse_metrics(line: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let marker = "\": {\"value\": ";
    let mut rest = line;
    while let Some(at) = rest.find(marker) {
        let name = rest[..at].rsplit('"').next().unwrap_or("").to_string();
        let tail = &rest[at + marker.len()..];
        let end = tail.find([',', '}']).unwrap_or(tail.len());
        if let Ok(v) = tail[..end].trim().parse::<f64>() {
            out.push((name, v));
        }
        rest = &tail[end..];
    }
    out
}

/// Returns the process exit code: 0 when every run was correct.
pub fn repeat(n: usize, argv: &[String]) -> i32 {
    let exe = std::env::current_exe().expect("own executable path");
    let mut base: Vec<String> = Vec::new();
    let mut seed = crate::DEFAULT_SEED;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--repeat" => {
                it.next();
            }
            "--seed" => seed = it.next().and_then(|s| s.parse().ok()).unwrap_or(seed),
            _ => base.push(a.clone()),
        }
    }

    let mut names: Vec<String> = Vec::new();
    let mut values: Vec<Vec<f64>> = Vec::new();
    let mut all_correct = true;
    for i in 0..n {
        let run_seed = seed + i as u64;
        let output = Command::new(&exe)
            .args(&base)
            .args(["--seed", &run_seed.to_string()])
            .stderr(Stdio::inherit())
            .output()
            .expect("spawn one benchmark run");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or("");
        let correct = output.status.success() && line.contains("\"correct\": true");
        all_correct &= correct;
        let metrics = parse_metrics(line);
        eprintln!(
            "run {} of {n} (seed {run_seed}): {}",
            i + 1,
            if correct { "correct" } else { "NOT correct" }
        );
        if names.is_empty() {
            names = metrics.iter().map(|(k, _)| k.clone()).collect();
            values = vec![Vec::new(); names.len()];
        }
        for (k, v) in metrics {
            if let Some(j) = names.iter().position(|n| *n == k) {
                values[j].push(v);
            }
        }
    }

    println!("| metric | median | q1 | q3 | (q3-q1)/median | bound | within bound/3 |");
    println!("|---|---|---|---|---|---|---|");
    for (name, v) in names.iter().zip(&values) {
        if v.len() < 2 {
            continue;
        }
        let [q1, _, q3] = quartiles(v);
        let med = median(v);
        let spread = if med == 0.0 { 0.0 } else { (q3 - q1) / med.abs() };
        let bound = END_TO_END.iter().find(|m| m.0 == name).map(|m| m.3);
        let (bound_s, verdict) = match bound {
            // set-up time is held to its bound between two sets of runs,
            // not to a spread within one
            Some(b) if name == "setup_s" => (format!("{b}"), "-".to_string()),
            Some(b) => (format!("{b}"), if spread < b / 3.0 { "yes" } else { "NO" }.to_string()),
            None => ("-".to_string(), "-".to_string()),
        };
        println!("| {name} | {med:.4} | {q1:.4} | {q3:.4} | {spread:.4} | {bound_s} | {verdict} |");
    }
    println!("\n| metric | every run, in order |");
    println!("|---|---|");
    for (name, v) in names.iter().zip(&values) {
        let all: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
        println!("| {name} | {} |", all.join(" "));
    }
    i32::from(!all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_its_own_result_line() {
        let line = "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
                    {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
                    \"query_ms_p50\": {\"value\": 148.5031, \"unit\": \"ms\"}}}";
        assert_eq!(
            parse_metrics(line),
            vec![("setup_s".to_string(), 1.25), ("query_ms_p50".to_string(), 148.5031)]
        );
    }
}
