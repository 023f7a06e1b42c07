#!/usr/bin/env bash
# One-stop verification gate for the cycle-skip engine (DESIGN.md §12):
#   1. the tier-1 suite (plain build, ctest), which now runs with the
#      skip engine enabled by default;
#   2. the cycle-skip differential oracle (ctest label "oracle"):
#      skip-on vs skip-off byte-identity across the Rodinia set, every
#      registered provider, multi-SM thread counts, traces, and fault
#      plans; the same label carries the report pin (report_pin: the
#      cold `regless_report --no-cache` text against
#      perfbench/golden/report_cold.txt), which catches a bug in a
#      path both oracle sides share, such as the cached issue scan,
#      and the stall-row pin (stall_row_pin: per-warp stall rows
#      against tests/golden/stall_rows.txt);
#   3. the provider-registry contract suite (ctest label "providers"):
#      every registered provider end-to-end under the closed stall
#      account and memory-image invariants (DESIGN.md §13);
#   4. the fleet-safe cache suite (ctest label "cache"): chaos
#      injection under every CacheFaultPlan, forked multi-process
#      stress over one shared directory, and the --shard partition
#      parity oracle (DESIGN.md §15);
#   5. the multi-tenant suite (ctest label "tenants"): single-tenant
#      byte parity, per-tenant closed accounts, the preemption chaos
#      test, starved-tenant reporting, and QoS (DESIGN.md §16);
#   6. ASan and TSan passes over the skip-enabled determinism subset
#      (the SoA warp state and bulk stall-charging touch hot arrays;
#      the multi-SM epoch loop skips under worker threads), with the
#      incremental-eligibility and sleeping-warp edge tests
#      (IncrementalEligibility*, SleepingWarps*, GatedSleepers*:
#      multi-word sleep masks, lazy stall rows, the provider wake
#      list), the capacity manager's count recount, the two-level
#      scheduler's ring-vs-deque randomized test (masked notifies
#      included), the count-based slot charge against a walk of every
#      warp, and the stall-row pin (its 64-line OSU cases exercise the
#      cached blocked activation) under ASan;
#   7. a UBSan pass over stats JSON and cache-entry parsing (hostile
#      numbers must be parse failures, never out-of-range casts) and
#      over the canonical config text's number rendering.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}

# Registry guard (DESIGN.md §13): the provider seam is cast-free.
# Consumers reach a provider through RegisterProvider virtuals or the
# registry's typed hooks, never through dynamic_cast probes — a probe
# is a provider the registry doesn't fully describe.
if grep -rn "dynamic_cast<[^>]*Provider" src tests bench examples tools; then
    echo "check: dynamic_cast on the provider seam; use a" \
         "RegisterProvider virtual or a registry hook instead" >&2
    exit 1
fi

# Finding-code guard: every compiler::Finding code declared in
# finding.hh must be exercised by at least one test, so a code can't
# silently decay into dead diagnostics nothing would catch regressing.
missing=0
for code in $(grep -o 'inline constexpr const char \*[A-Za-z]*' \
                   src/compiler/finding.hh |
                  sed 's/.*\*//' | sort -u); do
    if ! grep -rq "codes::$code" tests; then
        echo "check: finding code codes::$code has no test" >&2
        missing=1
    fi
done
if [ "$missing" -ne 0 ]; then
    exit 1
fi

# Static-analysis companion (scripts/tidy.sh): without clang-tidy it
# prints a SKIPPED warning on stderr and exits 0. REGLESS_TIDY=0 opts
# out, e.g. when iterating on a slow machine.
if [ "${REGLESS_TIDY:-1}" != "0" ]; then
    scripts/tidy.sh
fi

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j

(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)")
(cd "$BUILD_DIR" && ctest --output-on-failure -L oracle -j "$(nproc)")
(cd "$BUILD_DIR" && ctest --output-on-failure -L providers -j "$(nproc)")
(cd "$BUILD_DIR" && ctest --output-on-failure -L cache -j "$(nproc)")
(cd "$BUILD_DIR" && ctest --output-on-failure -L tenants -j "$(nproc)")

# Skip-enabled determinism subset under AddressSanitizer: the oracle
# sweep, the property fuzzer (random kernels + fault plans), the edge
# tests of the SM's cached scoreboard verdicts and sleeping warps (also
# those the RegLess CM gates), the CM's maintained counts against a
# recount, and the two-level scheduler's pools against their deque
# reference.
ASAN_DIR=${ASAN_BUILD_DIR:-build-asan}
cmake -B "$ASAN_DIR" -S . -DREGLESS_SANITIZE=address
cmake --build "$ASAN_DIR" -j --target regless_tests \
    --target regless_oracle_tests --target regless_stall_rows
"$ASAN_DIR"/tests/regless_oracle_tests \
    --gtest_filter='*CycleSkipOracle*:CycleSkip*'
"$ASAN_DIR"/tests/regless_tests \
    --gtest_filter='*CycleSkipFuzz*:IncrementalEligibility*:SleepingWarps*'\
':GatedSleepers*:CmInvariantTest.MaintainedCountsMatchARecountEveryCycle'\
':SchedulerTest.TwoLevelRingsMatchDequeReference'\
':SlotCharge.CountsMatchAWalkEveryCycle'
"$ASAN_DIR"/tests/regless_stall_rows | cmp - tests/golden/stall_rows.txt

# Same subset's parallel face under ThreadSanitizer: epoch-clamped
# skipping on worker threads must stay race-free.
TSAN_DIR=${TSAN_BUILD_DIR:-build-tsan}
cmake -B "$TSAN_DIR" -S . -DREGLESS_SANITIZE=thread
cmake --build "$TSAN_DIR" -j --target regless_oracle_tests
"$TSAN_DIR"/tests/regless_oracle_tests \
    --gtest_filter='*MultiSmCycleSkipOracle*'

# Stats JSON and cache-entry parsing under UndefinedBehaviorSanitizer.
# GCC's "undefined" group leaves out float-cast-overflow, the check a
# hostile count like 1e300 would trip, so it is named explicitly.
UBSAN_DIR=${UBSAN_BUILD_DIR:-build-ubsan}
cmake -B "$UBSAN_DIR" -S . \
    -DREGLESS_SANITIZE=undefined,float-cast-overflow
cmake --build "$UBSAN_DIR" -j --target regless_tests \
    --target regless_cache_tests
for suite in regless_tests regless_cache_tests; do
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
        "$UBSAN_DIR"/tests/$suite \
        --gtest_filter='StatsIo*:JobRecord*:JobCacheLoad*:ConfigText*'
done

echo "check: tier-1, oracle, asan, tsan, and ubsan subsets all passed"
