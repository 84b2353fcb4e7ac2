#!/usr/bin/env bash
# Fails unless the compiler still inlines the message plane's one-word
# appends, mpc.(*Outbox).Int and mpc.(*Outbox).Float, into internal/core,
# where the algorithms call them once per routed word. A change that makes
# either too costly to inline adds a call to every such word. Run from
# anywhere:
#   scripts/inline_check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

out="$(go build -gcflags=-m ./internal/core 2>&1)"
status=0
for fn in Int Float; do
  if ! grep -qE "inlining call to mpc\.\(\*Outbox\)\.$fn\$" <<<"$out"; then
    echo "mpc.(*Outbox).$fn is no longer inlined into internal/core" >&2
    status=1
  fi
done
exit "$status"
