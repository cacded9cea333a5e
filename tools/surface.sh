#!/usr/bin/env bash
# Print the tracked size numbers of the middleware and the stand-in DBMS
# (ROADMAP aim 2):
# source lines, public items, unwrap sites, option-field counts, and the
# integration tests' lines and POSITION fixture sites. Prints only; CI
# runs it so every PR's log carries the numbers, and CHANGES.md quotes
# its output before and after a change instead of hand-run commands.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}" # optional argument: another checkout to measure

lines() { cat "$@" | wc -l; }
# lines of a file above its `#[cfg(test)]` module
non_test_lines() { awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"; }
public_items() {
    grep -hE "^\s*pub (fn|struct|enum|trait|type|const|static|mod|use) " "$@" | wc -l
}
# `.unwrap()` / `.expect(` sites of the given files above their test
# code — the first `#[cfg(test)]` module or impl; a `#[cfg(test)]`
# `thread_local!` in mid-file does not end the count (ROADMAP item 3:
# each site is either gone or carries an `// invariant:` comment)
unwrap_sites() {
    for f in "$@"; do
        awk '/^#\[cfg\(test\)\]/ { armed = 1; next }
             armed && /^(pub\(crate\) )?mod |^impl |^#\[path/ { exit }
             { armed = 0 }
             !/^[ \t]*\/\// && /\.unwrap\(\)|\.expect\(/ { n++ }
             END { print n + 0 }' "$f"
    done | awk '{ s += $1 } END { print s + 0 }'
}
# `pub` fields of struct $1 in file $2
fields() {
    awk -v s="pub struct $1 {" \
        'index($0, s) == 1 { on = 1; next } on && /^}/ { exit } on && /^[ \t]*pub [a-z_]+:/ { n++ } END { print n + 0 }' "$2"
}

echo "lines:        tango-core $(lines crates/core/src/*.rs)  tango-xxl $(lines crates/xxl/src/*.rs)  volcano $(lines crates/volcano/src/*.rs)  tango-algebra $(lines crates/algebra/src/*.rs)  tango-stats $(lines crates/stats/src/*.rs)  tango-minidb $(lines crates/minidb/src/*.rs)"
bench_bins=(crates/bench/src/bin/*.rs)
echo "tango-bench:  lines $(lines crates/bench/src/*.rs "${bench_bins[@]}")  binaries ${#bench_bins[@]}"
echo "non-test:     cache.rs $(non_test_lines crates/core/src/cache.rs)  rewrite.rs $(non_test_lines crates/core/src/rewrite.rs)"
echo "non-test:     opt.rs $(non_test_lines crates/core/src/opt.rs)  phys.rs $(non_test_lines crates/core/src/phys.rs)  explain.rs $(non_test_lines crates/core/src/explain.rs)  cost.rs $(non_test_lines crates/core/src/cost.rs)"
echo "non-test:     merge_join.rs $(non_test_lines crates/xxl/src/merge_join.rs)  temporal_join.rs $(non_test_lines crates/xxl/src/temporal_join.rs)  tdiff.rs $(non_test_lines crates/xxl/src/tdiff.rs)  cursor.rs $(non_test_lines crates/xxl/src/cursor.rs)"
echo "non-test:     batch.rs $(non_test_lines crates/algebra/src/batch.rs)  taggr.rs $(non_test_lines crates/xxl/src/taggr.rs)  scan.rs $(non_test_lines crates/xxl/src/scan.rs)"
echo "non-test:     logical.rs $(non_test_lines crates/algebra/src/logical.rs)  cardinality.rs $(non_test_lines crates/stats/src/cardinality.rs)"
echo "non-test:     refresh.rs $(non_test_lines crates/core/src/refresh.rs)  delta.rs $(non_test_lines crates/xxl/src/delta.rs)"
echo "non-test:     minidb exec.rs $(non_test_lines crates/minidb/src/exec.rs)  minidb planner.rs $(non_test_lines crates/minidb/src/planner.rs)  minidb catalog.rs $(non_test_lines crates/minidb/src/catalog.rs)"
echo "non-test:     algebra expr.rs $(non_test_lines crates/algebra/src/expr.rs)"
echo "public items: tango-core $(public_items crates/core/src/*.rs)  tango-xxl $(public_items crates/xxl/src/*.rs)  volcano $(public_items crates/volcano/src/*.rs)  tango-algebra $(public_items crates/algebra/src/*.rs)  tango-stats $(public_items crates/stats/src/*.rs)  tango-minidb $(public_items crates/minidb/src/*.rs)"
echo "unwrap sites: tango-core $(unwrap_sites crates/core/src/*.rs)  tango-xxl $(unwrap_sites crates/xxl/src/*.rs)  volcano $(unwrap_sites crates/volcano/src/*.rs)  tango-algebra $(unwrap_sites crates/algebra/src/*.rs)  tango-stats $(unwrap_sites crates/stats/src/*.rs)  tango-minidb $(unwrap_sites crates/minidb/src/*.rs)"
echo "fields:       TangoOptions $(fields TangoOptions crates/core/src/session.rs)  OptOptions $(fields OptOptions crates/core/src/opt.rs)"
# non-test `into_rows(` call sites: where a batch is boxed into tuples
row_paths() {
    for f in "$@"; do
        awk '/^#\[cfg\(test\)\]/ { exit } !/^[ \t]*\/\// && /into_rows\(/ { n++ } END { print n + 0 }' "$f"
    done | awk '{ s += $1 } END { print s + 0 }'
}
echo "row paths:    tango-xxl $(row_paths crates/xxl/src/*.rs)  tango-core $(row_paths crates/core/src/*.rs)"
mapfile -t test_files < <(find tests -name '*.rs' | sort)
echo "tests:        lines $(lines "${test_files[@]}")  create_table(\"POSITION\" sites $(cat "${test_files[@]}" | grep -c 'create_table("POSITION"')"
prose() { for f in "$@"; do printf ' %s %s' "$f" "$(lines "$f")"; done; }
echo "prose lines:$(prose README.md DESIGN.md EXPERIMENTS.md docs/*.md)"
