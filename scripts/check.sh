#!/usr/bin/env bash
# The full CI gate, runnable locally. Mirrors .github/workflows/ci.yml.
#
# QAR_TEST_THREADS=1 runs the miner's counting passes single-threaded
# (the tests that pin parallelism explicitly are unaffected); CI runs the
# suite both ways to exercise the serial and the parallel code paths.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> change log size (CHANGES.md at most 1 MiB, no line over 32 KiB)"
# An empty-pattern replace once pasted a paragraph before every character
# of CHANGES.md and grew it to 169 MB; no real entry is near these caps.
if [ "$(wc -c < CHANGES.md)" -gt 1048576 ]; then
    echo "CHANGES.md is over 1 MiB" >&2
    exit 1
fi
LC_ALL=C awk 'length($0) > 32768 { bad = 1
    printf "CHANGES.md line %d is %d bytes, over 32 KiB\n", NR, length($0) > "/dev/stderr" }
    END { exit bad }' CHANGES.md

echo "==> the Section 5.2 counters stay with the oracle (no R*-tree or RectCounter in production code)"
# Only the R*-tree crate itself, the fuzz oracle's reference and the
# benches may name them; the miner and the rule index use neither.
if grep -rnE 'qar_rtree|RectCounter|CounterKind|MultiDimCounter' src crates/*/src |
    grep -vE '^crates/(rtree|oracle|bench)/'; then
    echo "the lines above name a Section 5.2 counter outside crates/rtree, crates/oracle and crates/bench" >&2
    exit 1
fi

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

echo "==> serve workload (qar serve answers correctly at >= 50k requests/sec)"
# perfbench's serve_credit starts a real `qar serve` process over a mined
# credit catalog and drives a point-heavy mix over TCP; it exits 1 when
# any answer differs from the in-process index's. Its closed-loop
# throughput must also hold the 50,000/s floor. The serve trace events
# are validated by tests/trace_events.rs.
SERVE_RESULT=$(bash perfbench/run.sh --workload serve_credit --seed 1 --seconds 1 --trace 0 \
    | tail -n 1)
echo "$SERVE_RESULT"
SERVE_TPS=$(sed -n 's/.*"throughput_per_s":{[^}]*"value":\([0-9.eE+-]*\).*/\1/p' <<< "$SERVE_RESULT")
awk -v tps="$SERVE_TPS" 'BEGIN { if (tps == "" || tps + 0 < 50000) {
    print "serve_credit throughput_per_s " tps " is under the 50000/s floor" > "/dev/stderr"
    exit 1 } }'

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

echo "==> ablation smoke (every counting arm agrees; a pinned backend builds only itself)"
# The Section 5.2 ablation mines one table with the miner and with the
# oracle's reference source (heuristic, array-pinned, R*-tree-pinned)
# and panics when the arms find different itemset counts or a pinned
# arm builds the other backend.
./target/release/ablation 5000 > /dev/null

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
QAR_BENCH_QUICK=1 QAR_BENCH_OUT="$STORE_DIR/bench_analytics.json" \
    ./target/release/analytics > /dev/null
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
# The --workers run above has each worker parse its own byte range of
# the file. One quoted label makes the coordinator cut the file again at
# record ends, and the workers' second parse must still give the serial
# catalog (quoting changes no label).
sed '500s/,\([^,]*\)$/,"\1"/' "$STORE_DIR/planted.csv" > "$STORE_DIR/planted_quoted.csv"
grep -q '"' "$STORE_DIR/planted_quoted.csv"
./target/release/qar mine --input "$STORE_DIR/planted_quoted.csv" $MINE_FLAGS \
    --workers 2 --store "$STORE_DIR/quoted_dist.qarcat" > /dev/null
cmp "$STORE_DIR/serial.qarcat" "$STORE_DIR/quoted_dist.qarcat"
# Stdin is copied to a file the workers cut into ranges: same catalog.
cat "$STORE_DIR/planted.csv" | ./target/release/qar mine --input - $MINE_FLAGS \
    --workers 2 --store "$STORE_DIR/stdin_dist.qarcat" > /dev/null
cmp "$STORE_DIR/serial.qarcat" "$STORE_DIR/stdin_dist.qarcat"
# A traced range load validates, and both workers join.
./target/release/qar mine --input "$STORE_DIR/planted.csv" $MINE_FLAGS \
    --workers 2 --trace json > /dev/null 2> "$STORE_DIR/dist.trace"
./target/release/qar trace-check < "$STORE_DIR/dist.trace" > /dev/null
test "$(grep -c '"event":"worker_joined"' "$STORE_DIR/dist.trace")" -eq 2
# Pass 1 is summed from the ranges' histograms, with no round trip: the
# workers merge pass 2 but no pass 1.
test "$(grep '"event":"pass_merged"' "$STORE_DIR/dist.trace" | grep -c '"pass":2,')" -eq 1
test "$(grep '"event":"pass_merged"' "$STORE_DIR/dist.trace" | grep -c '"pass":1,')" -eq 0

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
# A delta holding a value the catalog cannot encode ends the update over
# two workers exactly as it ends the serial one: the same error text.
head -n 1 "$STORE_DIR/people.csv" > "$STORE_DIR/bad_delta.csv"
sed -n '2,3p' "$STORE_DIR/people.csv" >> "$STORE_DIR/bad_delta.csv"
echo "99,Divorced,7" >> "$STORE_DIR/bad_delta.csv"
for topology in "" "--workers 2"; do
    cp "$STORE_DIR/people_base.qarcat" "$STORE_DIR/people_bad.qarcat"
    status=0
    ./target/release/qar mine --input "$STORE_DIR/bad_delta.csv" \
        --update "$STORE_DIR/people_bad.qarcat" $topology \
        > /dev/null 2> "$STORE_DIR/bad_update${topology// /}.err" || status=$?
    if [ "$status" -eq 0 ]; then
        echo "unencodable delta ($topology): expected an error" >&2
        exit 1
    fi
    cmp "$STORE_DIR/people_bad.qarcat" "$STORE_DIR/people_base.qarcat"
done
grep -q "cannot be encoded" "$STORE_DIR/bad_update.err"
diff "$STORE_DIR/bad_update.err" "$STORE_DIR/bad_update--workers2.err"

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

echo "==> frequent-itemset memory (2.9M frequent pairs mine under a 450 MB address-space cap)"
# At minsup 0.1, 100,000 credit rows hold about 2.9M frequent pairs.
# Step 3 stores each once, in its sorted level (VmPeak about 345 MB);
# keeping a second copy as hash-map keys took VmPeak to about 560 MB and
# aborted this run on a failed allocation (exit 134).
./target/release/qar generate credit --records 100000 --seed 1 --output "$STORE_DIR/pairs.csv"
( ulimit -v 450000
  timeout 30 ./target/release/qar mine --input "$STORE_DIR/pairs.csv" \
    --schema employee_category:cat,marital_status:cat,monthly_income:quant,credit_limit:quant,current_balance:quant,ytd_balance:quant,ytd_interest:quant \
    --minsup 0.1 --max-size 2 --minconf 0.99 --threads 2 > /dev/null )

echo "==> csv robustness (stray quotes fail fast on their lines; the deadline stops the parse; -0.0 beside 0 mines; a hostile file mines alike on every topology)"
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
# Over two workers the file is cut again at record ends, and the line is
# the same.
status=0
timeout 10 ./target/release/qar mine --input "$STORE_DIR/stray.csv" --workers 2 \
    --schema employee_category:cat,marital_status:cat,monthly_income:quant,credit_limit:quant,current_balance:quant,ytd_balance:quant,ytd_interest:quant \
    > /dev/null 2> "$STORE_DIR/stray_w2.err" || status=$?
if [ "$status" -eq 0 ] || [ "$status" -eq 124 ]; then
    echo "stray quote over workers: expected a parse error, got exit status $status" >&2
    exit 1
fi
grep -q "on line 2:" "$STORE_DIR/stray_w2.err"
# A stray quote far past the reader's first block: the blocks before it
# are parsed on threads, its own on one, and it is named by its line.
./target/release/qar generate credit --records 100000 --output "$STORE_DIR/stray_late.csv"
sed -i '80000s/^\([^,]*\)/\1"x/' "$STORE_DIR/stray_late.csv"
status=0
timeout 10 ./target/release/qar mine --input "$STORE_DIR/stray_late.csv" \
    --schema employee_category:cat,marital_status:cat,monthly_income:quant,credit_limit:quant,current_balance:quant,ytd_balance:quant,ytd_interest:quant \
    > /dev/null 2> "$STORE_DIR/stray_late.err" || status=$?
if [ "$status" -eq 0 ] || [ "$status" -eq 124 ]; then
    echo "late stray quote: expected a parse error, got exit status $status" >&2
    exit 1
fi
grep -q "on line 80000:" "$STORE_DIR/stray_late.err"
status=0
timeout 10 ./target/release/qar mine --input "$STORE_DIR/stray_late.csv" --workers 2 \
    --schema employee_category:cat,marital_status:cat,monthly_income:quant,credit_limit:quant,current_balance:quant,ytd_balance:quant,ytd_interest:quant \
    > /dev/null 2> "$STORE_DIR/stray_late_w2.err" || status=$?
if [ "$status" -eq 0 ] || [ "$status" -eq 124 ]; then
    echo "late stray quote over workers: expected a parse error, got exit status $status" >&2
    exit 1
fi
grep -q "on line 80000:" "$STORE_DIR/stray_late_w2.err"
# --deadline covers the load: a 10 ms deadline on 300k rows stops the
# CSV parse with the cancelled error instead of running past it.
./target/release/qar generate credit --records 300000 --output "$STORE_DIR/deadline.csv"
status=0
timeout 10 ./target/release/qar mine --input "$STORE_DIR/deadline.csv" --deadline 0.01 \
    --schema employee_category:cat,marital_status:cat,monthly_income:quant,credit_limit:quant,current_balance:quant,ytd_balance:quant,ytd_interest:quant \
    > /dev/null 2> "$STORE_DIR/deadline.err" || status=$?
if [ "$status" -eq 0 ] || [ "$status" -eq 124 ]; then
    echo "parse deadline: expected a cancelled run, got exit status $status" >&2
    exit 1
fi
grep -q "mining cancelled during" "$STORE_DIR/deadline.err"
# The same two failures when the workers parse their own ranges: a bad
# number on line 80,000 is named by its line in the file, and the
# deadline stops the workers' parse.
head -100001 "$STORE_DIR/deadline.csv" | sed '80000s/^\([^,]*,[^,]*,\)/\1x/' \
    > "$STORE_DIR/bad_late.csv"
status=0
timeout 10 ./target/release/qar mine --input "$STORE_DIR/bad_late.csv" --workers 2 \
    --schema employee_category:cat,marital_status:cat,monthly_income:quant,credit_limit:quant,current_balance:quant,ytd_balance:quant,ytd_interest:quant \
    > /dev/null 2> "$STORE_DIR/bad_late.err" || status=$?
if [ "$status" -eq 0 ] || [ "$status" -eq 124 ]; then
    echo "late bad number over workers: expected a parse error, got exit status $status" >&2
    exit 1
fi
grep -q "line 80000:" "$STORE_DIR/bad_late.err"
status=0
timeout 10 ./target/release/qar mine --input "$STORE_DIR/deadline.csv" --deadline 0.01 \
    --workers 2 \
    --schema employee_category:cat,marital_status:cat,monthly_income:quant,credit_limit:quant,current_balance:quant,ytd_balance:quant,ytd_interest:quant \
    > /dev/null 2> "$STORE_DIR/deadline_dist.err" || status=$?
if [ "$status" -eq 0 ] || [ "$status" -eq 124 ]; then
    echo "range-parse deadline: expected a cancelled run, got exit status $status" >&2
    exit 1
fi
grep -q "mining cancelled during" "$STORE_DIR/deadline_dist.err"
# -0.0 and 0 are one value, so full resolution encodes both.
printf 'x,c\n-0.0,a\n0,b\n1,a\n2,b\n' > "$STORE_DIR/zeros.csv"
./target/release/qar mine --input "$STORE_DIR/zeros.csv" --schema x:quant,c:cat \
    --no-partition > /dev/null
# A valid but hostile quote-free file: padded, signed, zero-padded,
# decimal and 19-digit numbers (some past i64::MAX), CRLF and LF lines,
# blank and \r-only lines, 20,000 rows over several read blocks. One
# thread, two threads and two workers parsing their own byte ranges must
# write the same catalog.
awk '
    BEGIN {
        printf "c,x,y,z\r\n"
        for (i = 0; i < 20000; i++) {
            if (i % 97 == 0) printf "\n"
            if (i % 89 == 0) printf "\r\r\n"
            sign = substr("-+ ", 1 + i % 3, 1); if (sign == " ") sign = ""
            if (i % 4 == 0) x = sprintf(" %d", i % 50)
            else if (i % 4 == 1) x = sprintf("%s%d ", sign, i % 50)
            else if (i % 4 == 2) x = sprintf("%s%03d", sign, i % 50)
            else x = sprintf("%s%d", sign, i % 50)
            y = sprintf("%d.%02d", i % 40, (i * 7) % 100)
            z = (i % 1000 == 0) ? "9999999999999999999" : sprintf("%d%018d", 1 + i % 9, i % 7)
            printf "%s,%s,%s,%s%s", substr("abc", 1 + i % 3, 1), x, y, z, (i % 5 == 0) ? "\n" : "\r\n"
        }
    }
' > "$STORE_DIR/hostile.csv"
HOSTILE_FLAGS="--schema c:cat,x:quant,y:quant,z:quant \
    --minsup 0.1 --minconf 0.5 --maxsup 0.4 --intervals 10 --normalize-stats"
./target/release/qar mine --input "$STORE_DIR/hostile.csv" $HOSTILE_FLAGS --threads 1 \
    --store "$STORE_DIR/hostile_t1.qarcat" > /dev/null
./target/release/qar mine --input "$STORE_DIR/hostile.csv" $HOSTILE_FLAGS --threads 2 \
    --store "$STORE_DIR/hostile_t2.qarcat" > /dev/null
./target/release/qar mine --input "$STORE_DIR/hostile.csv" $HOSTILE_FLAGS --workers 2 \
    --store "$STORE_DIR/hostile_w2.qarcat" > /dev/null
cmp "$STORE_DIR/hostile_t1.qarcat" "$STORE_DIR/hostile_t2.qarcat"
cmp "$STORE_DIR/hostile_t1.qarcat" "$STORE_DIR/hostile_w2.qarcat"

echo "==> update workload (20 deltas through qar mine --update, fallbacks as planned)"
# perfbench's update_stream appends 20 deltas to a 300k-row base
# catalog through real `qar mine --update` runs. It exits 1 unless the
# incremental fallback fires on exactly the planned deltas and the final
# catalog equals a scratch mine of the same rows byte for byte.
bash perfbench/run.sh --workload update_stream --seed 1 --seconds 1 --trace 0 | tail -n 1

echo "==> distributed workload (qar mine --workers 2 writes the serial catalog)"
# perfbench's mine_credit_workers2 mines 500k credit rows over two
# `qar worker` processes and exits 1 when its catalog differs from the
# serial mine's.
bash perfbench/run.sh --workload mine_credit_workers2 --seed 1 --seconds 1 --trace 0 | tail -n 1

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
