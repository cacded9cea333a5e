//! Figures 8, 10, 11a and 11b of the paper (§5) as one sweep: Queries 1-4
//! × each figure's x-axis × link (the paper's LAN, a 10× slower WAN, a
//! free wire) × batch (1 and 1,024 rows), every placement and the
//! optimizer's choice per cell, the relation cache off (see
//! `tango_bench::sweep`).
//!
//! At paper scale it writes `docs/figures.json` and regenerates the
//! figure tables of EXPERIMENTS.md and README.md from it; `--small` runs
//! `UisConfig::small` and writes `target/figures.json` under the current
//! directory instead. Either way the tables are printed.
//!
//! `--check` (paper scale only) exits 1 unless every statement the paper
//! makes about the *fixed* plans holds on the LAN at batch 1,024: who
//! wins each figure and where each crossover falls. The optimizer's
//! regret and its plan flips are reported, not gated.
//!
//! Usage: `cargo run --release -p tango-bench --bin figures [--small] [--check]`

use std::path::Path;
use std::process::exit;
use tango_bench::sweep::{self, Config};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(a) = args.iter().find(|a| *a != "--small" && *a != "--check") {
        eprintln!("unknown argument {a}; usage: figures [--small] [--check]");
        exit(2);
    }
    let small = args.iter().any(|a| a == "--small");
    let check = args.iter().any(|a| a == "--check");
    if small && check {
        eprintln!("--check gates the paper's statements at paper scale; drop --small");
        exit(2);
    }
    let text = sweep::sweep(&Config::new(small));
    let doc = sweep::parse(&text);

    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let out = if small {
        Path::new("target/figures.json").to_path_buf()
    } else {
        root.join("docs/figures.json")
    };
    let blocks = sweep::blocks(&doc);
    let write = |path: &Path, body: &str| {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(path, body)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    };
    write(&out, &text);
    eprintln!("wrote {}", out.display());
    for (file, name, block) in &blocks {
        println!("== {file}: {name} ==\n{block}");
        if !small {
            let path = root.join(file);
            let old = std::fs::read_to_string(&path).unwrap_or_default();
            match sweep::splice(&old, name, block) {
                Some(new) => write(&path, &new),
                None => eprintln!("{file} has no `figures:{name}` block; left as it is"),
            }
        }
    }

    if check {
        let verdicts = sweep::check(&doc);
        for v in &verdicts {
            println!("{} {} ({})", if v.holds { "ok  " } else { "FAIL" }, v.statement, v.measured);
        }
        if verdicts.iter().any(|v| !v.holds) {
            exit(1);
        }
    }
}
