#!/usr/bin/env bash
# Repo CI gate: formatting, lints, release build, full test suite (the
# last three --locked, so a Cargo.lock that no longer matches the
# manifests fails here instead of being silently rewritten), then the
# run-report schema, serving-layer, live-monitor, repo-benchmark smoke +
# residency soak, simulation, adaptive-serving and crash-recovery gates.
# The host clock is measured by the repo benchmark alone (BENCHMARK.json).
# Run from the workspace root. Fails fast on the first broken stage.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --locked --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --locked --release

echo "==> cargo test -q"
cargo test --locked -q

echo "==> run-report schema gate"
# Emit a small run report and validate it: the file must be valid JSON
# with the top-level keys (params, spans, metrics, events) and must
# deserialize back into a RunReport — any schema drift fails CI here.
report=ci_report.json
cargo run --release -q -p trijoin-check --bin trijoin -- \
    run --scale 200 --epochs 1 --report "$report" > /dev/null
for key in params spans metrics events; do
    grep -q "\"$key\"" "$report" || { echo "missing top-level key: $key"; exit 1; }
done
cargo run --release -q -p trijoin-check --bin trijoin -- report-validate "$report"
rm -f "$report"
# Every committed figure and ablation results file holds its schema.
for results in results/*.json; do
    cargo run --release -q -p trijoin-check --bin trijoin -- report-validate "$results" > /dev/null
done

echo "==> serving-layer gate"
# Run the sharded server at one and four shards (every query is checked
# against the single-engine oracle inside the command), then validate the
# emitted ShardedRunReport — including the shards-sum-to-rollup invariant.
for shards in 1 4; do
    cargo run --release -q -p trijoin-check --bin trijoin -- \
        serve --shards "$shards" --clients 3 --batch 16 --queries 3 \
        --scale 400 --report "$report" > /dev/null
    cargo run --release -q -p trijoin-check --bin trijoin -- report-validate "$report"
    rm -f "$report"
done
# Sustained-load smoke: a fixed update+query stream pushed through a
# tiny submission ring (capacity 2) at four shards, so every enqueue
# contends for a slot and the backpressure path actually runs. Every
# answer is checked against the oracle inside the command, and the
# emitted report must carry the serve.ring.* counters and latency
# gauges that report-validate requires of sharded reports — plus, with
# telemetry on by default, at least two closed windows of time series
# per shard.
cargo run --release -q -p trijoin-check --bin trijoin -- \
    serve --shards 4 --clients 4 --batch 8 --ring 2 --queries 8 \
    --scale 300 --report "$report" > /dev/null
cargo run --release -q -p trijoin-check --bin trijoin -- \
    report-validate "$report" --min-series-windows 2
rm -f "$report"

echo "==> live-monitor gate"
# `trijoin top --once --json` must emit a schema-valid sharded report
# with the per-shard telemetry series a live monitor feeds on — the
# scriptable face of the dashboard is held to the same schema as every
# other report in the repo.
cargo run --release -q -p trijoin-check --bin trijoin -- \
    top --shards 4 --clients 4 --batch 8 --ring 2 --queries 8 \
    --scale 300 --once --json > "$report"
cargo run --release -q -p trijoin-check --bin trijoin -- \
    report-validate "$report" --min-series-windows 2
rm -f "$report"

echo "==> repo-benchmark smoke + residency soak"
# The repo benchmark (BENCHMARK.json) must run every workload end to end
# at smoke scale with every answer verified — a change that breaks what
# the benchmark uses of the program fails here, not at the driver — and
# the simulated ledgers and the served answer's checksum must stay
# bit-identical to the goldens pinned under tests/golden/. The
# resource-bound tests ride along in release mode: 20 000 updates under
# hybrid-hash-only traffic must leave each pinned shard's disk pages
# where warm-up left them; four turnovers of R under mixed
# update/insert/delete traffic and view-only queries must leave the trees'
# pages (read off reports, which settle first) within 1.5x of the first
# round's and, held to account apart, the apply log's peak within the
# bound its report carries while it settles when full, not once a round;
# and recovering a 66 MB log that rewrites 8 pages must stay under 2 MB of
# heap. So do the base relations' apply log's laws, where release
# arithmetic and compiled-out debug assertions could hide a difference: a
# fault mid-sweep — of one epoch or of several — resumes to the oracle's
# answer, queued mutations rewind or survive a crash with the commit that
# did or did not acknowledge them, view queries in between or not, and
# the sweep's charge and netting laws and the laws of the deferral hold
# (epochs settled once equal epochs settled one by one for fewer leaf
# writes, an update undone epochs later writes nothing, a relation
# settles for the first query that reads it). And the view and the join
# index under mutations of both relations with every differential run
# file of both pairs faulted in turn, where a short answer would hide
# behind compiled-out debug assertions. And the view file's directory
# counts and I/O laws, whose arithmetic would wrap.
cargo run --release -q -p trijoin-bench --bin benchmark -- --smoke > /dev/null
cargo test -q --release -p trijoin-serve --test golden_ledger
# The benchmark prints no `base.settles` and its directory is frozen, so
# the guard on what its rounds settle drives the same round (an epoch of
# updates, one query through a wrapper forwarding three methods) itself:
# at most one settle in twelve rounds under every strategy, JI and HH
# reading `R`'s log through in the others. A later change that settles in
# front of every query again, or a statistic that forces a sweep, fails
# here rather than at the driver.
cargo test -q --release -p trijoin --test mutations cycle_rounds_settle
# A fetch through the log reads it run by run, seeking each run by its
# surrogate column: fetches in any order equal settle-then-fetch, and each
# call reads exactly the run pages holding a surrogate it asks for, with a
# fault on every one of them returned and the next fetch answering right,
# where column and page arithmetic that wraps would hide behind compiled-out
# debug assertions. The rent laws ride along: a join index over a spilled
# log makes the passes it makes with none and pays no rent, a hybrid-hash
# scan whose held runs cost it spill pays exactly that, the first reader
# once the rent reaches a settle's price settles, and view-only traffic pays
# none while the log fills to three quarters of `R`'s leaves. The same
# through two pinned shards,
# whose join-index queries fetch `R` through spilled multi-page runs round
# after round against the oracle.
cargo test -q --release -p trijoin-exec --test read_through
cargo test -q --release -p trijoin-serve --test serve join_index_fetches
# The metrics registry is bounded by live files: 200 view cycles that each
# seal and delete their differential runs leave the counter slots and the
# telemetry baseline where the second cycle left them, with every I/O still
# in the disk totals.
cargo test -q --release -p trijoin --test observability registry_bound
cargo test -q --release -p trijoin-serve --test serve hh_only_soak
cargo test -q --release -p trijoin-serve --test serve churn_soak
# A mutation its relation refuses (a renamed surrogate, a wrong width)
# reaches no cached structure, at 1, 2 and 4 shards, pinned and adaptive.
cargo test -q --release -p trijoin-serve --test serve malformed_mutations
cargo test -q --release -p trijoin-storage --test recovery_memory
cargo test -q --release -p trijoin --test faults settle_fault
cargo test -q --release -p trijoin-check --test durability queued
cargo test -q --release -p trijoin-check --test durability named_run
cargo test -q --release -p trijoin --test mutations
cargo test -q --release -p trijoin --test bilateral
cargo test -q --release -p trijoin-btree --test prop_btree sweep
cargo test -q --release -p trijoin-linearhash --test prop_linearhash

echo "==> simulation gate"
# Deterministic simulation: replay the committed seed corpus (every
# checkpoint must agree across MV / JI / HH / oracle / sharded serve,
# faults included — crash-bearing scripts recover on the file backend),
# then explore one fresh fixed-seed script end to end.
cargo run --release -q -p trijoin-check --bin trijoin -- check --corpus tests/corpus
cargo run --release -q -p trijoin-check --bin trijoin -- check --seed 2026 --ops 160

echo "==> committed results reproduce"
# Every file under results/ is written by the `figures` bin (a table or
# figure's text and its JSON) or is the text of an example committed as
# results/<name>.txt, on the simulated clock and fixed seeds. Regenerate them
# all into an emptied results/ and fail on any byte that moved, on a committed
# file that nothing writes any more and on an output nobody committed: a change
# meant to move a committed number regenerates and commits it. A failed run
# leaves results/ as far as it got (`git checkout results/` restores it).
examples=()
for txt in $(git ls-files 'results/*.txt'); do
    name=$(basename "$txt" .txt)
    if [ -f "examples/$name.rs" ]; then
        examples+=("$name")
    fi
done
rm -f results/*
cargo run --release -q -p trijoin-bench --bin figures > /dev/null
for name in "${examples[@]}"; do
    cargo run --release -q --example "$name" > "results/$name.txt"
done
if [ -n "$(git status --porcelain results/)" ]; then
    git status --short results/
    git --no-pager diff --stat results/
    echo "results/ does not reproduce"; exit 1
fi

echo "==> adaptive-serving gate"
# Online strategy migration: a fresh adversarial script (hot-key zipf
# traffic shaped to force migrations) must stay oracle-green at every
# checkpoint across its migrations, and an adaptive serve report
# must carry the migrate.* accounting that report-validate requires
# whenever serve.adaptive is set.
cargo run --release -q -p trijoin-check --bin trijoin -- \
    check --adversary zipf --seed 2028 --ops 120
cargo run --release -q -p trijoin-check --bin trijoin -- \
    serve --shards 4 --clients 3 --batch 16 --queries 3 \
    --scale 300 --adaptive --report "$report" > /dev/null
grep -q '"migrate.count"' "$report" || { echo "adaptive serve report lacks migrate.count"; exit 1; }
cargo run --release -q -p trijoin-check --bin trijoin -- report-validate "$report"
rm -f "$report"
# One decision loop: strategy re-selection is priced in the policy module
# (and the launch-time advisor), nowhere else.
if grep -rn "all_costs\|cheapest(" crates/core/src crates/serve/src \
    | grep -v "^crates/core/src/policy.rs:\|^crates/core/src/advisor.rs:"; then
    echo "strategy re-selection outside crates/core/src/policy.rs"; exit 1
fi
# One migration step: the query that decides a migration builds the target
# and swaps it in, so no migration is ever in flight. The phase machine,
# its chunking and its counters stay gone.
if grep -rnIE "MigrationState|MIGRATION_CHUNK|migration_state|migrate\.(steps|pending_logged)" \
        crates tests examples; then
    echo "a paced strategy migration is back"; exit 1
fi

# One write path: a base relation changes through its apply log and the
# sorted sweep, the join index through its passes, nowhere else.
# `exec::relation` and `exec::joinindex` are the only engine, core or serve
# modules that hold a B+-tree, and neither calls a single-key mutator.
if grep -rl "trijoin_btree" crates/exec/src crates/core/src crates/serve/src \
        | grep -v "^crates/exec/src/\(relation\|joinindex\)\.rs$\|^crates/exec/src/relation/" \
    || grep -nE "(clustered|inverted|inv|ji)\.(insert|remove_exact|remove_any)\(" \
        crates/exec/src/relation.rs crates/exec/src/relation/*.rs crates/exec/src/joinindex.rs; then
    echo "a B+-tree is mutated outside StoredRelation::settle and the JI passes"; exit 1
fi
# One error channel: a run read that fails is an `Err` in the stream its
# consumers take with `?`, not an error parked in a cell beside it.
if grep -rnIE "stream_error|stream_failed|stream_err" crates tests examples \
    || grep -rnF "RefCell<Option<Error>>" crates/exec; then
    echo "a parked run-read error is back"; exit 1
fi
# One join-index format: the B+-tree. The third page format is gone.
if grep -rnE "JiFile|JiPageMeta|pack_group_aligned|encode_ji_page_into|decode_ji_page" \
        crates tests examples; then
    echo "the join index's own page format is back"; exit 1
fi
# One read path per page format: one leaf walk prices every scheduled read
# of the B+-tree (lookup, range, scan, batch), so the root-leaf case and the
# leaf-chain loop are written once; heap files are write-once runs read by
# page or by extent, and their random-access API stays gone.
if [ "$(grep -c 'node::leaf_entries(' crates/btree/src/tree.rs)" != 1 ] \
    || [ "$(grep -c 'LeafLoc::Root =>' crates/btree/src/tree.rs)" != 1 ] \
    || grep -rnE "HeapScan|record_in\(|fn update\(" crates/storage/src; then
    echo "a second B+-tree leaf walk or the heap file's random-access API is back"; exit 1
fi
# And the sweep splits and merges in its own stream: it calls none of the
# tree's single-key mutators (no restart from the root).
if grep -nE "insert_past\(|(self|tree)\.(insert|remove_any|remove_exact)\(" \
        crates/btree/src/tree/sweep.rs; then
    echo "the sorted sweep falls back to the single-key path"; exit 1
fi

# One deferred view: differentials are netted by the `DiffPair` behind MV
# and JI, the view file's buckets are merged into (never rewritten whole)
# by the materialized view, nowhere else; planned faults are the one fault
# mechanism; and a mutation of `S` is folded like one of `R`, never by
# throwing a cached structure away and rebuilding it.
if grep -rl "net_differentials(" crates/exec/src \
        | grep -v "^crates/exec/src/\(diff\|mv\|joinindex\)\.rs$" \
    || grep -rl "open_bucket(" crates/exec/src \
        | grep -v "^crates/exec/src/mv\.rs$" \
    || grep -rn "rewrite_bucket(" crates/exec/src \
    || grep -rn "Error::Faulted\|inject_fault" crates tests examples \
    || grep -rnE "release_stale|rebuild_if_stale|rebuild_if_dirty|new_bilateral|s_rebuild" \
        crates tests examples; then
    echo "a second deferred view, the legacy one-shot fault, or a rebuild on S is back"; exit 1
fi

# One query command: a query carries its shard's batch share, and shards
# draw no seed.
if grep -rnE "ApplyThenQuery|shard_seed" crates tests examples; then
    echo "a second query command or the dead shard seed is back"; exit 1
fi

# One update draw, and no statistic without a reader: the paper's update
# (a random R tuple whose join key moves with probability Pr_A) is drawn in
# the workload module alone, and the key-skew sketch that no decision read
# stays gone.
if grep -rnE "TopKSketch|skew\.top_mass|decay_on_window" crates tests examples \
    || grep -rlF "gen_bool(self.pra)" crates/*/src \
        | grep -v "^crates/core/src/workload\.rs$\|^crates/bench/src/bin/benchmark/"; then
    echo "a second update draw or the skew sketch nothing reads is back"; exit 1
fi

# One deferred-maintenance contract, one epoch runner: a relation admits a
# mutation in `Database::mutate` alone, nothing outside the engine (and the
# frozen benchmark) logs and then queues by hand, and no second database
# replays the updates to price base maintenance.
if grep -rn "base_maintenance_ops" crates tests examples \
    || awk 'FNR == 1 { t = 0 } /#\[cfg\(test\)\]/ { t = 1 }
            !t && /\.on_update\(&|r_mut\(\)\.apply_update\(/ { print FILENAME ":" FNR ": " $0; bad = 1 }
            END { exit !bad }' \
        $(git ls-files 'crates/*.rs' 'examples/*.rs' \
            | grep -v '^crates/exec/\|^crates/bench/src/bin/benchmark/') \
    || grep -rnE '(\)|\}|\b[rs])\.admit\(' crates examples \
        | grep -v '^crates/exec/\|^crates/bench/src/bin/benchmark/\|^crates/core/src/db\.rs:'; then
    echo "a mutation is admitted, or logged then queued, outside Database::mutate"; exit 1
fi

# A commit seals the apply logs into runs its catalog names; it does not
# settle them. Neither `Database::commit_with` nor `Database::checkpoint`
# calls a settle.
if awk '/^    pub fn (commit_with|checkpoint)\(/ { f = 1 }
        f && /(^|[^_[:alnum:]])settle\(/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        f && /^    }$/ { f = 0 }
        END { exit !bad }' crates/core/src/db.rs; then
    echo "a commit or checkpoint settles the apply logs instead of sealing them"; exit 1
fi

# The WAL hashes a page once, eight bytes a step: the skip-clean
# fingerprint is the page frame checksum's input, and no byte-at-a-time
# fold comes back.
if grep -nF "for &b in bytes" crates/storage/src/wal.rs; then
    echo "the WAL hashes pages byte by byte again"; exit 1
fi

echo "==> size"
# The trajectory the code and the design notes are meant to shrink along.
echo "tracked .rs lines under crates/: $(git ls-files 'crates/*.rs' | xargs cat | wc -l)"
echo "DESIGN.md: $(wc -c < DESIGN.md) bytes"

echo "==> crash-recovery gate"
# Durability end to end on the real file backend: a fresh crash-heavy
# script (seeded kills mid-batch: cold drops, torn WAL tails, sealed-but-
# unapplied logs) must replay to oracle equivalence through WAL recovery
# — `check` puts what every recovered engine and shard reports through
# report-validate's wal.recovered.pages <= wal.recovered.frames rule —
# and durable run/serve reports must carry the wal.* accounting that
# report-validate requires whenever wal.enabled is set.
crashdir=$(mktemp -d)
cargo run --release -q -p trijoin-check --bin trijoin -- \
    check --seed 2027 --ops 120 --crash-pct 60 --durable "$crashdir/check"
# The corpus seed whose crashes fall while the logs hold committed runs:
# its recoveries must reopen queued mutations, not find them settled.
cargo run --release -q -p trijoin-check --bin trijoin -- \
    repro tests/corpus/crash-seed-44.json | tee "$crashdir/seed-44.txt"
grep -q "([1-9][0-9]* queued mutations reopened)" "$crashdir/seed-44.txt" \
    || { echo "crash-seed-44 reopened no sealed log"; exit 1; }
cargo run --release -q -p trijoin-check --bin trijoin -- \
    run --scale 100 --epochs 2 --durable "$crashdir/run" --report "$report" > /dev/null
grep -q '"wal.commits"' "$report" || { echo "durable run report lacks wal.commits"; exit 1; }
cargo run --release -q -p trijoin-check --bin trijoin -- report-validate "$report"
rm -f "$report"
cargo run --release -q -p trijoin-check --bin trijoin -- \
    serve --shards 4 --clients 3 --batch 16 --queries 3 \
    --scale 300 --durable "$crashdir/serve" --report "$report" > /dev/null
grep -q '"wal.commits"' "$report" || { echo "durable serve report lacks wal.commits"; exit 1; }
grep -q '"wal.fsyncs"' "$report" || { echo "durable serve report lacks wal.fsyncs"; exit 1; }
cargo run --release -q -p trijoin-check --bin trijoin -- report-validate "$report"
rm -f "$report"
# Group commit: the same serve run under --deferred must coalesce commit
# barriers (its report still validates, and carries the fsync/skip-clean
# accounting the validator now requires of any wal.enabled report).
cargo run --release -q -p trijoin-check --bin trijoin -- \
    serve --shards 4 --clients 3 --batch 16 --queries 3 \
    --scale 300 --durable "$crashdir/deferred" --deferred --report "$report" > /dev/null
grep -q '"wal.frames_skipped"' "$report" || { echo "deferred serve report lacks wal.frames_skipped"; exit 1; }
cargo run --release -q -p trijoin-check --bin trijoin -- report-validate "$report"
rm -f "$report"
rm -rf "$crashdir"

echo "CI OK"
