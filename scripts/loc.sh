#!/usr/bin/env bash
# Prints the Go code lines of every package directory, non-test and test
# apart: a line counts unless it is blank or holds only a // comment. The
# last line sums the listed packages. Run from anywhere:
#   scripts/loc.sh                  every package
#   scripts/loc.sh internal/core    the packages under the given directories
set -euo pipefail
cd "$(dirname "$0")/.."

mapfile -t files < <(find "${@:-.}" -name '.?*' -prune -o -name '*.go' -type f -print | sort)
awk '
  FNR == 1 {
    dir = FILENAME
    sub(/\/[^\/]*$/, "", dir)
    sub(/^\.\//, "", dir)
    kind = FILENAME ~ /_test\.go$/ ? "test" : "code"
    if (!(dir in seen)) {
      seen[dir] = 1
      order[++dirs] = dir
    }
  }
  /^[ \t]*(\/\/.*)?$/ { next }
  { n[dir, kind]++; total[kind]++ }
  END {
    printf "%-28s %8s %8s\n", "package", "non-test", "test"
    for (i = 1; i <= dirs; i++) {
      d = order[i]
      printf "%-28s %8d %8d\n", d, n[d, "code"], n[d, "test"]
    }
    printf "%-28s %8d %8d\n", "total", total["code"], total["test"]
  }
' "${files[@]}"
