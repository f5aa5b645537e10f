#!/bin/sh
# Lint entry point: clang-tidy over src/ (configuration in .clang-tidy)
# plus the project source rules.
#
# Usage: scripts/lint.sh [build-dir]
#
# Source-rule layer: the in-tree static analyzer built with the tree
# (tools/analyze → <build>/tools/analyze/rqsim-analyze) — source rules
# RQS001–RQS007, lock-order and protocol passes, inline
# `rqsim-analyze: allow(...)` suppressions. Build the tree first.
#
# The build dir must contain compile_commands.json (exported by the tier-1
# configure; CMAKE_EXPORT_COMPILE_COMMANDS is ON in CMakeLists.txt).
#
# Exit codes: 0 = everything clean; 1 = violations; 2 = no built analyzer;
# 77 = the source rules passed but clang-tidy is unavailable, reported as a
# ctest SKIP (SKIP_RETURN_CODE in tests/CMakeLists.txt) so minimal
# containers neither fail nor claim a tidy pass that never ran.
set -u

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="${1:-$repo_root/build}"

analyzer="$build_dir/tools/analyze/rqsim-analyze"
if [ ! -x "$analyzer" ]; then
  echo "lint: $analyzer not built; build the tree first" >&2
  exit 2
fi
"$analyzer" --root "$repo_root" || exit 1

if ! command -v clang-tidy >/dev/null 2>&1; then
  echo "lint: clang-tidy not found; source rules passed, tidy skipped" >&2
  exit 77
fi
if [ ! -f "$build_dir/compile_commands.json" ]; then
  echo "lint: $build_dir/compile_commands.json missing; configure first" >&2
  echo "lint: source rules passed, tidy skipped" >&2
  exit 77
fi

files=$(find "$repo_root/src" -name '*.cpp' | sort)
status=0
for f in $files; do
  if ! clang-tidy -p "$build_dir" --quiet --warnings-as-errors='*' "$f"; then
    status=1
  fi
done
if [ "$status" -eq 0 ]; then
  echo "lint: clang-tidy clean on src/"
fi
exit "$status"
