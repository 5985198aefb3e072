#!/usr/bin/env bash
# Builds and runs the test suite under a sanitizer.
#
#   tools/run_sanitized.sh [thread|address|address-undefined] [extra ctest args...]
#
# Default is thread (TSan) — the configuration that validates the
# background I/O pipeline (DoubleBufferedWriter / PrefetchingBlockReader)
# and the parallel run-generation workers (FanOutRunGenerator).
set -euo pipefail

SANITIZER="${1:-thread}"
shift || true
case "$SANITIZER" in
  thread|address|address-undefined) ;;
  *) echo "usage: $0 [thread|address|address-undefined] [ctest args...]" >&2
     exit 2 ;;
esac

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="$ROOT/build-$SANITIZER"

cmake -B "$BUILD_DIR" -S "$ROOT" -DTOPK_SANITIZE="$SANITIZER" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure "$@"
