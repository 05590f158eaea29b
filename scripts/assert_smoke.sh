#!/bin/sh
# Smoke test for assertion observability (DESIGN.md §17): run a deliberately
# violating LOC preset through nepsim with -assertions and -timeline,
# validate the report JSON schema, assert the report is byte-identical when
# the same trace is re-checked with locheck and when the checker is
# locgen-generated code (for the preset and for every formula of the shipped
# profiles), confirm the violations appear on the timeline's assert track,
# and repeat the run to pin determinism. Exercises the same
# surface as `make assert-smoke` in CI.
set -eu

GO=${GO:-go}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

echo "assert-smoke: building tools"
$GO build -o "$WORK/bin/" ./cmd/nepsim ./cmd/locheck ./cmd/locgen

NEPSIM="$WORK/bin/nepsim"
LOCHECK="$WORK/bin/locheck"
LOCGEN="$WORK/bin/locgen"

# The violating preset: spacing fails on every adjacent forward pair
# (cycles strictly increase), order passes, power is a distribution.
cat >"$WORK/viol.loc" <<'EOF'
spacing: cycle(forward[i+1]) - cycle(forward[i]) <= 0;
order: total_pkt(forward[i]) == i + 1;
power: (energy(forward[i+50]) - energy(forward[i])) /
       (time(forward[i+50]) - time(forward[i])) cdf [0.5, 2.25, 0.25];
EOF

RUN="-bench ipfwdr -level high -cycles 1200000 -seed 1 -manifest off"

echo "assert-smoke: simulating with -assertions and -timeline"
# shellcheck disable=SC2086
"$NEPSIM" $RUN -binary -trace "$WORK/run.npt" -formulas "$WORK/viol.loc" \
    -assertions "$WORK/live.json" -timeline "$WORK/tl.json" >"$WORK/stats.txt"

echo "assert-smoke: validating the report schema"
for field in '"schema": 2' '"formulas"' '"name": "spacing"' '"verdict": "fail"' \
    '"verdict": "pass"' '"verdict": "dist"' '"witness"' '"worst"' '"density"' \
    '"retained"' '"window_peak"' '"analysis"' '"retention"'; do
    grep -q "$field" "$WORK/live.json" || {
        echo "assert-smoke: FAIL: report missing $field" >&2
        exit 1
    }
done

echo "assert-smoke: violation instants on the timeline"
grep -q '"assert"' "$WORK/tl.json" || {
    echo "assert-smoke: FAIL: timeline has no assert track" >&2
    exit 1
}

echo "assert-smoke: locheck over the stored trace (VM byte-identity)"
# The binary trace preserves float64 bits exactly, so re-checking the stored
# trace must reproduce the live report byte for byte. locheck exits 1 on the
# (intended) violation.
status=0
"$LOCHECK" -f "$WORK/viol.loc" -report "$WORK/replay.json" "$WORK/run.npt" \
    >/dev/null || status=$?
if [ "$status" -ne 1 ]; then
    echo "assert-smoke: FAIL: locheck exited $status on a violating trace, want 1" >&2
    exit 1
fi
if ! cmp -s "$WORK/live.json" "$WORK/replay.json"; then
    echo "assert-smoke: FAIL: live and replayed assertion reports differ" >&2
    exit 1
fi

echo "assert-smoke: locgen-generated checker (codegen byte-identity)"
# A single-formula preset: the generated checker and the VM read the same
# text trace, so their float64 inputs — and their reports — are identical.
echo 'spacing: cycle(forward[i+1]) - cycle(forward[i]) <= 0;' >"$WORK/gen.loc"
# shellcheck disable=SC2086
"$NEPSIM" $RUN -trace "$WORK/run.txt" >/dev/null
status=0
"$LOCHECK" -f "$WORK/gen.loc" -report "$WORK/vm.json" "$WORK/run.txt" \
    >/dev/null || status=$?
if [ "$status" -ne 1 ]; then
    echo "assert-smoke: FAIL: locheck exited $status, want 1" >&2
    exit 1
fi
"$LOCGEN" -f "$WORK/gen.loc" -o "$WORK/checker.go"
$GO build -o "$WORK/bin/checker" "$WORK/checker.go"
status=0
"$WORK/bin/checker" -report "$WORK/gen.json" "$WORK/run.txt" \
    >/dev/null || status=$?
if [ "$status" -ne 1 ]; then
    echo "assert-smoke: FAIL: generated checker exited $status, want 1" >&2
    exit 1
fi
if ! cmp -s "$WORK/vm.json" "$WORK/gen.json"; then
    echo "assert-smoke: FAIL: generated checker report differs from the VM report" >&2
    exit 1
fi

echo "assert-smoke: every shipped formula, generated vs in-process"
# Each named formula of the shipped profiles goes into its own one-formula
# file. The locgen-generated checker and locheck (the VM) read the same
# text trace, so they must exit alike and write byte-identical reports.
for profile in profiles/standard.loc profiles/robustness.loc; do
    grep -v '^#' "$profile" | tr '\n' ' ' | tr ';' '\n' | while read -r stmt; do
        [ -n "$stmt" ] || continue
        name=${stmt%%:*}
        echo "$stmt;" >"$WORK/one.loc"
        vm=0
        "$LOCHECK" -f "$WORK/one.loc" -report "$WORK/one-vm.json" "$WORK/run.txt" \
            >/dev/null || vm=$?
        "$LOCGEN" -f "$WORK/one.loc" -o "$WORK/one.go"
        $GO build -o "$WORK/bin/one" "$WORK/one.go"
        gen=0
        "$WORK/bin/one" -report "$WORK/one-gen.json" "$WORK/run.txt" >/dev/null || gen=$?
        if [ "$vm" -gt 1 ] || [ "$gen" -ne "$vm" ]; then
            echo "assert-smoke: FAIL: $profile $name: locheck exited $vm, generated checker $gen" >&2
            exit 1
        fi
        if ! cmp -s "$WORK/one-vm.json" "$WORK/one-gen.json"; then
            echo "assert-smoke: FAIL: $profile $name: generated checker report differs from the VM report" >&2
            exit 1
        fi
        echo "assert-smoke:   $name: identical reports (exit $vm)"
    done
done

echo "assert-smoke: repeating the run (determinism)"
# shellcheck disable=SC2086
"$NEPSIM" $RUN -formulas "$WORK/viol.loc" -assertions "$WORK/live2.json" >/dev/null
if ! cmp -s "$WORK/live.json" "$WORK/live2.json"; then
    echo "assert-smoke: FAIL: identical runs wrote different assertion reports" >&2
    exit 1
fi

echo "assert-smoke: OK"
