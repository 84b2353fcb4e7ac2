#!/usr/bin/env bash
# End-to-end smoke test for the mrserve daemon, run by CI and runnable
# locally from the repo root. Builds mrserve, starts it, submits the job in
# scripts/smoke_job.json over HTTP, polls it to completion, and diffs the
# deterministic result payload against the committed expectation
# scripts/smoke_expect.json — the serving determinism contract, checked
# through the real binary and real HTTP. Also exercises the observability
# surface: the per-job round trace route, the pprof debug listener, and
# mrrun's Perfetto trace export. The server runs with a durable job ledger
# so its metric lines are asserted on the happy path here (the crash path
# is scripts/ledger_smoke.sh).
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=127.0.0.1:18080
DEBUG_ADDR=127.0.0.1:18081
WORK=$(mktemp -d)
BIN=$WORK/mrserve

go build -o "$BIN" ./cmd/mrserve
"$BIN" -addr "$ADDR" -debug-addr "$DEBUG_ADDR" -pool 2 -ledger "$WORK/ledger" &
SRV=$!
trap 'kill "$SRV" 2>/dev/null || true' EXIT

for _ in $(seq 100); do
  curl -sf "$ADDR/v1/algorithms" >/dev/null 2>&1 && break
  sleep 0.1
done

JOB=$(curl -sf -X POST "$ADDR/v1/jobs" --data-binary @scripts/smoke_job.json |
  python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
echo "submitted $JOB"

for _ in $(seq 300); do
  STATUS=$(curl -sf "$ADDR/v1/jobs/$JOB" |
    python3 -c 'import json,sys; print(json.load(sys.stdin)["status"])')
  [ "$STATUS" = done ] || [ "$STATUS" = failed ] && break
  sleep 0.1
done
echo "status $STATUS"

curl -sf "$ADDR/v1/jobs/$JOB" >/tmp/smoke_job_done.json
python3 - /tmp/smoke_job_done.json <<'EOF'
import json, sys
job = json.load(open(sys.argv[1]))
assert job["status"] == "done", f"job did not complete: {job}"
got = job["result"]
want = json.load(open("scripts/smoke_expect.json"))
assert got == want, (
    "served result drifted from scripts/smoke_expect.json\n"
    f"got:  {json.dumps(got, sort_keys=True)}\n"
    f"want: {json.dumps(want, sort_keys=True)}")
print("result identical to committed expectation")
print(got["summary"])
EOF

# The same request again must be answered from the result cache with the
# identical payload.
curl -sf -X POST "$ADDR/v1/jobs" --data-binary @scripts/smoke_job.json >/tmp/smoke_job_cached.json
python3 - /tmp/smoke_job_cached.json <<'EOF'
import json, sys
job = json.load(open(sys.argv[1]))
# Without "wait" the submit returns 202 immediately — but a cache hit
# completes synchronously.
assert job["status"] == "done" and job["source"] == "cache", job
want = json.load(open("scripts/smoke_expect.json"))
assert job["result"] == want, "cached result differs from cold result"
print("cache hit identical")
EOF

# The per-job trace route must report one wall-clock span per executed
# round, numbered consecutively — timing observability riding beside (never
# inside) the deterministic result document.
curl -sf "$ADDR/v1/jobs/$JOB/trace" >/tmp/smoke_trace.json
python3 - /tmp/smoke_trace.json /tmp/smoke_job_done.json <<'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
job = json.load(open(sys.argv[2]))
rounds = trace["rounds"]
want = job["result"]["metrics"]["Rounds"]
assert len(rounds) == want, f"trace has {len(rounds)} spans, metrics say {want} rounds"
assert [r["round"] for r in rounds] == list(range(1, want + 1)), "rounds not consecutive"
assert all(r["wall_clock_us"] >= 0 for r in rounds), "negative wall clock"
print(f"trace route ok ({len(rounds)} round spans)")
EOF

# The debug listener serves pprof on its own address, never on the API one.
curl -sf "$DEBUG_ADDR/debug/pprof/" >/dev/null ||
  { echo "pprof index not served on -debug-addr"; exit 1; }
curl -s -o /dev/null -w '%{http_code}' "$ADDR/debug/pprof/" | grep -q 404 ||
  { echo "pprof leaked onto the API address"; exit 1; }
echo "pprof ok (debug listener only)"

curl -sf "$ADDR/metrics" >/tmp/smoke_metrics.txt
grep -q "mrserve_jobs_completed_total 2" /tmp/smoke_metrics.txt ||
  { echo "metrics missing completed=2"; cat /tmp/smoke_metrics.txt; exit 1; }
# The abandonment counter must be exported (and zero on this clean run).
for line in \
  "mrserve_jobs_abandoned_total 0"; do
  grep -q "^$line$" /tmp/smoke_metrics.txt ||
    { echo "metrics missing \"$line\""; cat /tmp/smoke_metrics.txt; exit 1; }
done
# The durable ledger chained the one executed flight (the cache hit is
# served from the LRU, not appended again), cleanly: no torn tail, no
# degradation, no ledger-served jobs on this cold run.
for line in \
  "mrserve_ledger_records 1" \
  "mrserve_ledger_appends_total 1" \
  "mrserve_ledger_hits_total 0" \
  "mrserve_ledger_torn_tail_total 0" \
  "mrserve_ledger_degraded 0"; do
  grep -q "^$line$" /tmp/smoke_metrics.txt ||
    { echo "metrics missing \"$line\""; cat /tmp/smoke_metrics.txt; exit 1; }
done
echo "metrics ok (abandonment and ledger counters exported)"

kill -INT "$SRV"
wait "$SRV" || true
echo "graceful shutdown ok"

# mrrun's -trace-out must leave a strict-JSON Chrome trace file that
# Perfetto can load, containing per-round events.
TRACE=$(mktemp -d)/trace.json
go run ./cmd/mrrun -alg mis -n 500 -seed 7 -trace-out "$TRACE" >/dev/null
python3 -m json.tool "$TRACE" >/dev/null ||
  { echo "mrrun -trace-out wrote invalid JSON"; exit 1; }
python3 - "$TRACE" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
rounds = [e for e in events if e.get("cat") == "round"]
assert rounds, "trace has no round events"
print(f"mrrun trace ok ({len(rounds)} round events)")
EOF
