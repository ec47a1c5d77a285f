#!/usr/bin/env bash
# The full CI gate, runnable locally. Mirrors .github/workflows/ci.yml.
#
# QAR_TEST_THREADS=1 runs the miner's counting passes single-threaded
# (the tests that pin parallelism explicitly are unaffected); CI runs the
# suite both ways to exercise the serial and the parallel code paths.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test (default parallelism)"
cargo test --workspace -q

echo "==> cargo test (forced serial counting)"
QAR_TEST_THREADS=1 cargo test --workspace -q

echo "==> trace smoke (events vs. schemas/trace_events.schema.json)"
TRACE_FILE="$(mktemp)"
STORE_DIR="$(mktemp -d)"
trap 'rm -f "$TRACE_FILE"; rm -rf "$STORE_DIR"' EXIT
./target/release/smoke 2000 2.0 3 nointerest 0.3 0.2 --trace json \
    > /dev/null 2> "$TRACE_FILE"
./target/release/qar trace-check < "$TRACE_FILE"

echo "==> store smoke (mine -> store -> store-check -> query -> diff)"
./target/release/qar generate planted --records 2000 --seed 7 \
    --output "$STORE_DIR/planted.csv"
./target/release/qar mine --input "$STORE_DIR/planted.csv" \
    --schema x0:quant,x1:quant,x2:quant,c:cat \
    --minsup 0.1 --minconf 0.5 --maxsup 0.4 --intervals 10 --format json \
    --store "$STORE_DIR/cat.qarcat" > "$STORE_DIR/mine.json"
./target/release/qar store-check "$STORE_DIR/cat.qarcat" > /dev/null
./target/release/qar store-check - < "$STORE_DIR/cat.qarcat" > /dev/null
# An unfiltered JSON query must reproduce the mined rules array
# byte-for-byte (drop mine's leading stats line and trailing brace).
./target/release/qar query "$STORE_DIR/cat.qarcat" --format json \
    > "$STORE_DIR/query.json"
diff <(tail -n +2 "$STORE_DIR/mine.json" | head -n -1) \
     <(tail -n +2 "$STORE_DIR/query.json")
./target/release/qar query "$STORE_DIR/cat.qarcat" --record x0=50,c=A > /dev/null
./target/release/qar query - --range x1=20..40 --top-k 5 --by support \
    < "$STORE_DIR/cat.qarcat" > /dev/null
# A single corrupted byte must be rejected.
cp "$STORE_DIR/cat.qarcat" "$STORE_DIR/bad.qarcat"
off=$(( $(stat -c %s "$STORE_DIR/bad.qarcat") / 2 ))
orig=$(dd if="$STORE_DIR/bad.qarcat" bs=1 skip="$off" count=1 status=none \
    | od -An -tu1 | tr -d ' ')
rep='\xaa'; [ "$orig" = "170" ] && rep='\x55'
printf "$rep" | dd of="$STORE_DIR/bad.qarcat" bs=1 seek="$off" conv=notrunc status=none
if ./target/release/qar store-check "$STORE_DIR/bad.qarcat" > /dev/null 2>&1; then
    echo "store-check accepted a corrupted catalog" >&2
    exit 1
fi
# Query throughput floor (the bin exits non-zero below 10k queries/sec).
QAR_BENCH_QUICK=1 ./target/release/store_query > /dev/null

echo "==> cli typos (every verb rejects a misspelled flag; a closed stdout pipe exits 0; trace-check runs anywhere)"
# Each verb checks its command line against its entry in the flag
# table: a flag the entry does not list must fail the run and be named
# on stderr, never be ignored while the command runs on a default.
while read -r typo cmd; do
    if ./target/release/qar $cmd $typo 1 < /dev/null > /dev/null 2> "$STORE_DIR/typo.err"; then
        echo "qar $cmd accepted the misspelled flag $typo" >&2
        exit 1
    fi
    grep -q -- "$typo" "$STORE_DIR/typo.err"
done <<EOF
--minsupp mine --input $STORE_DIR/planted.csv --schema x0:quant,x1:quant,x2:quant,c:cat
--recods generate planted
--topk query $STORE_DIR/cat.qarcat
--sample analyze $STORE_DIR/cat.qarcat --input $STORE_DIR/planted.csv
--verbose store-check $STORE_DIR/cat.qarcat
--schemas trace-check $STORE_DIR/cat.qarcat
--iter fuzz
--ports serve $STORE_DIR/cat.qarcat
--thread worker --connect 127.0.0.1:9
--client bench-serve
--record bench-analytics
--worker bench-dist
--deltas bench-update
--bogus help
EOF
# A reader that stops early closes qar's stdout; under pipefail the
# pipeline must still exit 0.
./target/release/qar query "$STORE_DIR/cat.qarcat" | head -1 > /dev/null
./target/release/qar generate credit --records 100000 | head -1 > /dev/null
# The default trace schema is compiled in: trace-check needs no checkout
# in its working directory.
QAR="$PWD/target/release/qar"
(cd /tmp && "$QAR" trace-check "$TRACE_FILE" > /dev/null)

echo "==> serve smoke (daemon + concurrent load + trace validation + qps floor)"
# Start the rule-serving daemon on an OS-assigned port over the catalog
# mined above, drive a concurrent mixed workload against it, and stop it
# with a shutdown frame. The load generator exits non-zero below the
# 50k aggregate queries/sec floor; every server trace event must
# validate against the pinned schema.
./target/release/qar serve "$STORE_DIR/cat.qarcat" --port 0 --threads 10 \
    --trace json > "$STORE_DIR/serve.out" 2> "$STORE_DIR/serve.trace" &
SERVE_PID=$!
for _ in $(seq 1 100); do
    grep -q "listening on" "$STORE_DIR/serve.out" 2> /dev/null && break
    sleep 0.1
done
ADDR=$(sed -n 's/^listening on \([0-9.:]*\) .*/\1/p' "$STORE_DIR/serve.out")
QAR_BENCH_QUICK=1 ./target/release/qar bench-serve --addr "$ADDR" \
    --catalog "$STORE_DIR/cat.qarcat" --clients 8 --requests 250 \
    --out "$STORE_DIR/bench_serve.json" --shutdown > /dev/null
wait "$SERVE_PID"
grep -q '"suite":"bench_serve"' "$STORE_DIR/bench_serve.json"
grep -q '"p99_us"' "$STORE_DIR/bench_serve.json"
./target/release/qar trace-check < "$STORE_DIR/serve.trace" > /dev/null

echo "==> scan-kernel bench smoke (bitmask vs direct: throughput, speedup and ratio floors)"
# Quick run of the support-counting scan bench: exits non-zero when the
# pooled bitmask scan misses its throughput floor, fails to beat the
# pooled direct scan by 1.4x on the duplicate-heavy table, falls under
# 0.8x of it on the all-distinct table, or when the serial bitmask scan
# misses its 3x all-distinct speedup floor over the serial direct scan.
# The JSON goes to a temp path so a local run never clobbers the
# committed BENCH_scan.json baseline. On a floor violation, print the
# bench document so the failing record is visible, not just the exit
# code.
if ! QAR_BENCH_QUICK=1 QAR_BENCH_OUT="$STORE_DIR/bench_scan.json" \
    ./target/release/scan_kernel > "$STORE_DIR/bench_scan.log"; then
    echo "scan_kernel floor violation; failing bench records:" >&2
    cat "$STORE_DIR/bench_scan.log" >&2
    [ -f "$STORE_DIR/bench_scan.json" ] && cat "$STORE_DIR/bench_scan.json" >&2
    exit 1
fi
grep -q '"suite":"scan_kernel"' "$STORE_DIR/bench_scan.json"
grep -q '"dup_bitmask_speedup_4t"' "$STORE_DIR/bench_scan.json"
grep -q '"distinct_bitmask_ratio_4t"' "$STORE_DIR/bench_scan.json"
grep -q '"distinct_bitmask_speedup_1t"' "$STORE_DIR/bench_scan.json"

echo "==> analytics smoke (mine --analytics -> query --by chi2 -> store-check -> trace-check)"
# Mine the planted dataset with the rule-quality analytics pass, rank the
# catalog by a statistic that only exists in the ANALYTICS section, and
# confirm store-check reports the section with an intact checksum. The
# analytics trace events from both the mine and the `qar analyze`
# backfill must validate against the pinned schema, and the backfill of
# an analytics-less catalog must enable the same queries.
./target/release/qar mine --input "$STORE_DIR/planted.csv" \
    --schema x0:quant,x1:quant,x2:quant,c:cat \
    --minsup 0.1 --minconf 0.5 --maxsup 0.4 --intervals 10 \
    --analytics --store "$STORE_DIR/ana.qarcat" --trace json \
    > /dev/null 2> "$STORE_DIR/ana.trace"
./target/release/qar trace-check < "$STORE_DIR/ana.trace"
./target/release/qar query "$STORE_DIR/ana.qarcat" --top-k 5 --by chi2 > /dev/null
./target/release/qar query "$STORE_DIR/ana.qarcat" --min-lift 1.0 --max-p 0.05 \
    --by lift > /dev/null
./target/release/qar store-check "$STORE_DIR/ana.qarcat" > "$STORE_DIR/ana.inventory"
grep -q "analytics (tag 4):" "$STORE_DIR/ana.inventory"
# Plain catalogs refuse analytics ranking with a pointer at the backfill
# path, and `qar analyze` backfills them in place.
if ./target/release/qar query "$STORE_DIR/cat.qarcat" --by lift > /dev/null 2>&1; then
    echo "query ranked by lift without an ANALYTICS section" >&2
    exit 1
fi
cp "$STORE_DIR/cat.qarcat" "$STORE_DIR/backfill.qarcat"
./target/release/qar analyze "$STORE_DIR/backfill.qarcat" \
    --input "$STORE_DIR/planted.csv" --trace json \
    > /dev/null 2> "$STORE_DIR/analyze.trace"
./target/release/qar trace-check < "$STORE_DIR/analyze.trace"
./target/release/qar query "$STORE_DIR/backfill.qarcat" --top-k 5 --by jmeasure > /dev/null

echo "==> analytics bench smoke (closed-form rules/sec floor)"
# Quick run of the rule-quality analytics bench: the bin exits non-zero
# when the closed-form measures (lift/conviction/chi-square/J-measure +
# BH correction) fall below 50k rules/sec — ~30x headroom under the
# committed BENCH_analytics.json baseline. The JSON goes to a temp path
# so a local run never clobbers the committed baseline.
QAR_BENCH_QUICK=1 ./target/release/qar bench-analytics --floor 50000 \
    --out "$STORE_DIR/bench_analytics.json" > /dev/null
grep -q '"suite":"bench_analytics"' "$STORE_DIR/bench_analytics.json"
grep -q '"closed_form_rules_per_sec"' "$STORE_DIR/bench_analytics.json"
grep -q '"shapley_samples_per_sec"' "$STORE_DIR/bench_analytics.json"

echo "==> distributed smoke (coordinator + 2 worker processes, byte-identical catalogs)"
# Serial, distributed (2 spawned `qar worker` processes), out-of-core
# (small forced chunk size), and the chunked+distributed combination
# must all write byte-identical .qarcat catalogs for the same input
# under --normalize-stats — count distribution merges raw per-partition
# count vectors, so the agreement is exact, not approximate.
MINE_FLAGS="--schema x0:quant,x1:quant,x2:quant,c:cat \
    --minsup 0.1 --minconf 0.5 --maxsup 0.4 --intervals 10 --normalize-stats"
./target/release/qar mine --input "$STORE_DIR/planted.csv" $MINE_FLAGS \
    --store "$STORE_DIR/serial.qarcat" > /dev/null
./target/release/qar mine --input "$STORE_DIR/planted.csv" $MINE_FLAGS \
    --workers 2 --store "$STORE_DIR/dist.qarcat" > /dev/null
cmp "$STORE_DIR/serial.qarcat" "$STORE_DIR/dist.qarcat"
./target/release/qar mine --input "$STORE_DIR/planted.csv" $MINE_FLAGS \
    --chunk-rows 173 --store "$STORE_DIR/chunked.qarcat" > /dev/null
cmp "$STORE_DIR/serial.qarcat" "$STORE_DIR/chunked.qarcat"
./target/release/qar mine --input "$STORE_DIR/planted.csv" $MINE_FLAGS \
    --chunk-rows 173 --workers 2 --store "$STORE_DIR/chunked_dist.qarcat" > /dev/null
cmp "$STORE_DIR/serial.qarcat" "$STORE_DIR/chunked_dist.qarcat"

echo "==> update smoke (mine -> counts -> --update vs scratch re-mine, byte-identical)"
# Mine the paper's People table into a catalog (support counts are
# persisted automatically with --store), append a delta of rows whose
# values the base encoders already know, refresh the catalog with a
# delta-only incremental scan, and compare against mining base+delta
# from scratch: the two catalogs must match byte for byte under
# --normalize-stats — merged counts included. The update's pinned trace
# events must validate against the schema.
PEOPLE_FLAGS="--schema Age:quant,Married:cat,NumCars:quant \
    --minsup 0.4 --minconf 0.5 --maxsup 1.0 --no-partition --normalize-stats"
./target/release/qar generate people --output "$STORE_DIR/people.csv"
head -n 1 "$STORE_DIR/people.csv" > "$STORE_DIR/delta.csv"
sed -n '2,3p' "$STORE_DIR/people.csv" >> "$STORE_DIR/delta.csv"
cat "$STORE_DIR/people.csv" > "$STORE_DIR/combined.csv"
sed -n '2,3p' "$STORE_DIR/people.csv" >> "$STORE_DIR/combined.csv"
./target/release/qar mine --input "$STORE_DIR/people.csv" $PEOPLE_FLAGS \
    --store "$STORE_DIR/people_updated.qarcat" > /dev/null
cp "$STORE_DIR/people_updated.qarcat" "$STORE_DIR/people_base.qarcat"
./target/release/qar store-check "$STORE_DIR/people_updated.qarcat" \
    > "$STORE_DIR/people.inventory"
grep -q "counts (tag 6):" "$STORE_DIR/people.inventory"
./target/release/qar mine --input "$STORE_DIR/delta.csv" \
    --update "$STORE_DIR/people_updated.qarcat" --normalize-stats --trace json \
    > /dev/null 2> "$STORE_DIR/update.trace"
./target/release/qar trace-check < "$STORE_DIR/update.trace"
grep -q '"event":"counts_loaded"' "$STORE_DIR/update.trace"
grep -q '"event":"incremental_update"' "$STORE_DIR/update.trace"
./target/release/qar mine --input "$STORE_DIR/combined.csv" $PEOPLE_FLAGS \
    --store "$STORE_DIR/people_scratch.qarcat" > /dev/null
cmp "$STORE_DIR/people_updated.qarcat" "$STORE_DIR/people_scratch.qarcat"
./target/release/qar store-check "$STORE_DIR/people_updated.qarcat" > /dev/null
# The same delta through the other topologies — worker processes,
# spilled chunks, and both — must land on the same bytes.
for topology in "--workers 2" "--chunk-rows 2" "--workers 2 --chunk-rows 2"; do
    cp "$STORE_DIR/people_base.qarcat" "$STORE_DIR/people_topology.qarcat"
    ./target/release/qar mine --input "$STORE_DIR/delta.csv" \
        --update "$STORE_DIR/people_topology.qarcat" --normalize-stats $topology > /dev/null
    cmp "$STORE_DIR/people_topology.qarcat" "$STORE_DIR/people_scratch.qarcat"
done

echo "==> counts size smoke (pass 2 persisted as pair cells, COUNTS under 1 MiB)"
# Mine 20,000 synthetic credit rows at partial completeness K = 2 into a
# counts-bearing catalog. Pass 2 is persisted as pair-histogram cells,
# about 0.2 MB here; recording every member of C_2 instead made the
# section about 38 MB.
./target/release/qar generate credit --records 20000 --output "$STORE_DIR/credit.csv"
./target/release/qar mine --input "$STORE_DIR/credit.csv" \
    --schema employee_category:cat,marital_status:cat,monthly_income:quant,credit_limit:quant,current_balance:quant,ytd_balance:quant,ytd_interest:quant \
    --completeness 2 --store "$STORE_DIR/credit.qarcat" --trace json \
    > /dev/null 2> "$STORE_DIR/credit.trace"
./target/release/qar store-check "$STORE_DIR/credit.qarcat" > "$STORE_DIR/credit.inventory"
awk '/counts \(tag 6\):/ { found = 1; if ($4 > 1048576) { print "COUNTS is " $4 " bytes, over 1 MiB"; exit 1 } }
     END { if (!found) { print "no COUNTS section"; exit 1 } }' "$STORE_DIR/credit.inventory"

echo "==> capture trace smoke (mine --store reports every pass's kernel)"
# The --store run above counts through the capturing source; its trace
# must validate and name the kernel of every counting pass >= 2, as an
# uncaptured run does, and pass 3 (quantitative triples) must count as
# cells. The same mine over spilled chunks must name its kernels too.
./target/release/qar mine --input "$STORE_DIR/credit.csv" \
    --schema employee_category:cat,marital_status:cat,monthly_income:quant,credit_limit:quant,current_balance:quant,ytd_balance:quant,ytd_interest:quant \
    --completeness 2 --chunk-rows 5000 --trace json \
    > /dev/null 2> "$STORE_DIR/credit_chunked.trace"
for trace in credit credit_chunked; do
    ./target/release/qar trace-check < "$STORE_DIR/$trace.trace" > /dev/null
    awk -v trace="$trace" '/"event":"pass_finished"/ && !/"pass":1,/ {
             passes++; if (/"kernel":""/) { print trace ": pass_finished with an empty kernel: " $0; exit 1 } }
         /"event":"pass_finished"/ && /"pass":3,/ {
             pass3++; if (!/"kernel":"[a-z+]*cells/) { print trace ": pass 3 not counted as cells: " $0; exit 1 } }
         END { if (!passes) { print trace ": no counting pass >= 2 in the trace"; exit 1 }
               if (!pass3) { print trace ": no pass 3 in the trace"; exit 1 } }' \
        "$STORE_DIR/$trace.trace"
done

echo "==> csv robustness (stray quote fails fast on its line; -0.0 beside 0 mines)"
# The reader is one pass over the bytes: a stray quote on line 2 of a
# 100,000-row file must be rejected well inside the timeout and named by
# its line (re-counting quotes per physical line made this quadratic and
# named the last line). Exit status 124 is the timeout firing.
./target/release/qar generate credit --records 100000 --output "$STORE_DIR/stray.csv"
sed -i '2s/^\([^,]*\)/\1"x/' "$STORE_DIR/stray.csv"
status=0
timeout 10 ./target/release/qar mine --input "$STORE_DIR/stray.csv" \
    --schema employee_category:cat,marital_status:cat,monthly_income:quant,credit_limit:quant,current_balance:quant,ytd_balance:quant,ytd_interest:quant \
    > /dev/null 2> "$STORE_DIR/stray.err" || status=$?
if [ "$status" -eq 0 ] || [ "$status" -eq 124 ]; then
    echo "stray quote: expected a parse error, got exit status $status" >&2
    exit 1
fi
grep -q "on line 2:" "$STORE_DIR/stray.err"
# -0.0 and 0 are one value, so full resolution encodes both.
printf 'x,c\n-0.0,a\n0,b\n1,a\n2,b\n' > "$STORE_DIR/zeros.csv"
./target/release/qar mine --input "$STORE_DIR/zeros.csv" --schema x:quant,c:cat \
    --no-partition > /dev/null

echo "==> update bench smoke (delta-update speedup floor)"
# Quick run of the incremental-update bench: exits non-zero when a 1%
# delta update fails to beat re-mining base+delta from scratch by at
# least 5x (the result is also gated on exactness: the update must stay
# on the incremental path and reproduce the scratch mine's counts and
# rules). The JSON goes to a temp path so a local run never clobbers
# the committed BENCH_update.json baseline, which must itself exist and
# respect the same floor.
QAR_BENCH_QUICK=1 ./target/release/qar bench-update --floor 5.0 \
    --out "$STORE_DIR/bench_update.json" > /dev/null
grep -q '"suite":"bench_update"' "$STORE_DIR/bench_update.json"
grep -q '"speedup"' "$STORE_DIR/bench_update.json"
grep -q '"suite":"bench_update"' BENCH_update.json
awk -F'"speedup":' '{split($2, a, ","); if (a[1] + 0 < 5.0) {
    print "committed BENCH_update.json speedup " a[1] " is below the 5x floor" > "/dev/stderr";
    exit 1 } }' BENCH_update.json

echo "==> dist bench smoke (counting speedup floor)"
# Quick run of the count-distribution bench: exits non-zero when the
# 2-partition counting critical path (max partition scan + merge) fails
# to beat serial counting by at least 1.6x. The JSON goes to a temp path
# so a local run never clobbers the committed BENCH_dist.json baseline,
# which must itself exist and respect the same floor.
QAR_BENCH_QUICK=1 ./target/release/qar bench-dist --floor 1.6 \
    --out "$STORE_DIR/bench_dist.json" > /dev/null
grep -q '"suite":"bench_dist"' "$STORE_DIR/bench_dist.json"
grep -q '"critical_path_s"' "$STORE_DIR/bench_dist.json"
grep -q '"suite":"bench_dist"' BENCH_dist.json
awk -F'"speedup":' '{split($2, a, ","); if (a[1] + 0 < 1.6) {
    print "committed BENCH_dist.json speedup " a[1] " is below the 1.6x floor" > "/dev/stderr";
    exit 1 } }' BENCH_dist.json

echo "==> fuzz smoke (200 differential cases, fixed seed)"
# A short deterministic sweep of the differential oracle: serial miner,
# parallel miner, naive reference, apriori bridge, catalog round trip,
# bitmask scan kernel against the direct reference, the rule-quality
# analytics pass (0-ulps closed-form reference + BH monotonicity +
# catalog round trip), count-distribution distributed mining over
# worker threads (byte-identical normalized catalogs), and incremental
# catalog updates (mine(base) + update(delta) vs mine(base+delta), down
# to byte-identical catalogs with merged counts) must agree on every
# generated case. Divergences minimize into tests/fuzz_repros/
# fixtures; a clean run writes nothing.
./target/release/qar fuzz --iters 200 --seed 42

echo "==> clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustfmt --check"
cargo fmt --check

echo "All checks passed."
