#!/usr/bin/env bash
# The mutation gate: apply each semantic mutant of scripts/mutants.txt to
# a copy of the working tree, build it, run the checks the list names,
# and compare each verdict with the listed one.
#
#   bash scripts/mutants.sh              # every mutant
#   bash scripts/mutants.sh NAME...      # the named mutants only
#
# The unmutated copy must pass every check first. The run fails when a
# check misses a mutant listed `caught`, when a mutant does not build or
# its anchor text is not found exactly once, or when the unmutated tree
# fails a check. A mutant listed `missed` that a check now catches is
# reported, so the list can be updated. Each mutant costs a release
# build plus its checks (`qar fuzz --iters 1000 --seed 42` is about a
# minute in release), so this runs nightly and not in scripts/check.sh.
# The copy and its build go to a temporary directory under $TMPDIR,
# removed on exit.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
list="$root/scripts/mutants.txt"
work="$(mktemp -d "${TMPDIR:-/tmp}/qar-mutants.XXXXXX")"
trap 'rm -rf "$work"' EXIT
src="$work/src"
export CARGO_TARGET_DIR="$work/target"
mkdir -p "$src"
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
    tar --null -T - -cf -) | tar -xf - -C "$src"

# Parse the list into parallel arrays: one entry per mutant; its checks
# are joined by newlines.
names=() files=() finds=() replaces=() expects=()
while IFS= read -r line || [ -n "$line" ]; do
    case "$line" in
    '#'* | '') ;;
    '['*']')
        names+=("${line:1:${#line}-2}")
        files+=("") finds+=("") replaces+=("") expects+=("")
        ;;
    file:\ *) files[${#names[@]}-1]="${line#file: }" ;;
    find:\ *) finds[${#names[@]}-1]="${line#find: }" ;;
    replace:\ *) replaces[${#names[@]}-1]="${line#replace: }" ;;
    expect:\ *) expects[${#names[@]}-1]+="${line#expect: }"$'\n' ;;
    *)
        echo "mutants.txt: cannot read line: $line" >&2
        exit 2
        ;;
    esac
done < "$list"

# Run one check (`fuzz` or `test ARGS...`) in the copy, after building
# what it runs. Prints `caught`, `missed` or `broken` (does not build).
run_check() {
    local check="$1" log="$2"
    case "$check" in
    fuzz)
        (cd "$src" && cargo build --release --quiet --bin qar) >> "$log" 2>&1 || {
            echo broken
            return
        }
        if timeout 1800 "$CARGO_TARGET_DIR/release/qar" fuzz --iters 1000 --seed 42 \
            --out "$work/repros" >> "$log" 2>&1; then
            echo missed
        else
            echo caught
        fi
        ;;
    test\ *)
        local args
        read -r -a args <<< "${check#test }"
        (cd "$src" && cargo test --release --quiet --no-run "${args[@]}") >> "$log" 2>&1 || {
            echo broken
            return
        }
        if (cd "$src" && timeout 1800 cargo test --release --quiet "${args[@]}") >> "$log" 2>&1; then
            echo missed
        else
            echo caught
        fi
        ;;
    *)
        echo "unknown check: $check" >&2
        exit 2
        ;;
    esac
}

wanted=("$@")
selected() {
    [ ${#wanted[@]} -eq 0 ] && return 0
    local w
    for w in "${wanted[@]}"; do [ "$w" = "$1" ] && return 0; done
    return 1
}

failed=0
report() { printf '%-30s %-8s %-8s %s\n' "$@"; }

# Every check the selected mutants name must pass on the unmutated tree.
declare -A baseline=()
for i in "${!names[@]}"; do
    selected "${names[$i]}" || continue
    while IFS= read -r expect; do
        [ -n "$expect" ] && baseline["${expect#* }"]=1
    done <<< "${expects[$i]}"
done
echo "==> unmutated tree"
for check in "${!baseline[@]}"; do
    verdict="$(run_check "$check" "$work/baseline.log")"
    if [ "$verdict" != missed ]; then
        echo "the unmutated tree fails \`$check\` ($verdict); see below" >&2
        tail -n 40 "$work/baseline.log" >&2
        exit 1
    fi
    echo "passes: $check"
done

report mutant expected got check
for i in "${!names[@]}"; do
    name="${names[$i]}" file="$src/${files[$i]}"
    selected "$name" || continue
    find="${finds[$i]}" replace="${replaces[$i]}"
    original="$(cat "$file"; printf x)"
    original="${original%x}"
    without="${original//"$find"/}"
    if [ $(((${#original} - ${#without}) / ${#find})) -ne 1 ]; then
        report "$name" - - "anchor not found exactly once in ${files[$i]}"
        failed=1
        continue
    fi
    printf '%s' "${original/"$find"/"$replace"}" > "$file"
    log="$work/$name.log"
    while IFS= read -r expect; do
        [ -n "$expect" ] || continue
        expected="${expect%% *}" check="${expect#* }"
        got="$(run_check "$check" "$log")"
        report "$name" "$expected" "$got" "$check"
        if [ "$got" = broken ]; then
            tail -n 20 "$log" >&2
            failed=1
        elif [ "$expected" = caught ] && [ "$got" = missed ]; then
            failed=1
        elif [ "$expected" = missed ] && [ "$got" = caught ]; then
            echo "note: \`$check\` now catches $name; update scripts/mutants.txt"
        fi
    done <<< "${expects[$i]}"
    printf '%s' "$original" > "$file"
done
exit "$failed"
