#!/usr/bin/env bash
# Run clang-tidy over the first-party sources with the repo's
# .clang-tidy check set (see README "Linting"). Uses the compile
# database from the plain build, so run scripts/check.sh (or at least
# the cmake configure) first. Without clang-tidy the script says so
# loudly on stderr and exits 0, so scripts/check.sh still runs: the
# check set is a companion lint, not a build requirement, but a run
# that did no static analysis must not read like a clean one.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}

if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "tidy: SKIPPED — clang-tidy not installed, no static analysis ran" >&2
    exit 0
fi

if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
    cmake -B "$BUILD_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
fi

# First-party translation units only; gtest/benchmark sources pulled
# in by FetchContent live under the build tree and are excluded by
# construction.
mapfile -t sources < <(find src tools bench tests -name '*.cc' | sort)

clang-tidy -p "$BUILD_DIR" --quiet "${sources[@]}"
echo "tidy: ${#sources[@]} files clean under .clang-tidy"
