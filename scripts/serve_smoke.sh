#!/bin/sh
# serve_smoke.sh — end-to-end smoke of the vcserve admission controller.
#
# Builds graphgen, vcrun and vcserve; dumps a checksummed Web-St binary;
# sizes the memory budget for exactly one job by probing the trained model;
# then submits two identical jobs: the first must be admitted, the second
# must queue on the budget, both must complete, and each report must be
# byte-identical to the equivalent one-shot `vcrun -report` (itself loading
# the graph through -graph-file). Also verifies corrupt dumps are rejected
# by both loaders and that the queue shows up in /metrics.json (the
# registry snapshot) and the JSONL event log. Run from the repository root (CI and `make serve-smoke` do).
set -eu

DIR=$(mktemp -d)
SRV_PID=""
cleanup() {
    [ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
    rm -rf "$DIR"
}
trap cleanup EXIT INT TERM

say() { echo "serve-smoke: $*"; }
die() { echo "serve-smoke: FAIL: $*" >&2; exit 1; }

# The smoke job: heavy enough (~1s wall) that the second submission lands
# while the first is still running.
TASK=BPPR DATASET=Web-St WORKLOAD=512 BATCHES=8 SEED=7

say "building binaries"
go build -o "$DIR/graphgen" ./cmd/graphgen
go build -o "$DIR/vcrun" ./cmd/vcrun
go build -o "$DIR/vcserve" ./cmd/vcserve

say "dumping $DATASET replica"
mkdir -p "$DIR/graphs"
"$DIR/graphgen" -dataset "$DATASET" -out "$DIR/graphs/$DATASET.bin"

# Corruption check: a flipped byte must be rejected with the typed corrupt
# error by vcrun -graph-file and by vcserve -graph-dir — never a panic or a
# silent load.
say "checking corrupt dumps are rejected"
mkdir -p "$DIR/bad"
cp "$DIR/graphs/$DATASET.bin" "$DIR/bad/$DATASET.bin"
SIZE=$(wc -c < "$DIR/bad/$DATASET.bin")
printf 'X' | dd of="$DIR/bad/$DATASET.bin" bs=1 seek=$((SIZE / 2)) conv=notrunc 2>/dev/null
if "$DIR/vcrun" -task "$TASK" -dataset "$DATASET" -graph-file "$DIR/bad/$DATASET.bin" -workload 4 2>"$DIR/corrupt-run.err"; then
    die "vcrun accepted a corrupt graph file"
fi
grep -q "corrupt" "$DIR/corrupt-run.err" || die "vcrun corrupt-file error lacks 'corrupt': $(cat "$DIR/corrupt-run.err")"
if "$DIR/vcserve" -addr 127.0.0.1:0 -graph-dir "$DIR/bad" 2>"$DIR/corrupt-serve.err"; then
    die "vcserve accepted a corrupt graph dir"
fi
grep -q "corrupt" "$DIR/corrupt-serve.err" || die "vcserve corrupt-dir error lacks 'corrupt': $(cat "$DIR/corrupt-serve.err")"

start_server() {
    # $1: extra flags. Prints nothing; sets SRV_PID and BASE.
    "$DIR/vcserve" -addr 127.0.0.1:0 -graph-dir "$DIR/graphs" $1 >"$DIR/server.log" 2>&1 &
    SRV_PID=$!
    BASE=""
    for _ in $(seq 1 100); do
        BASE=$(sed -n 's/.*serving on http:\/\/\([0-9.:]*\).*/\1/p' "$DIR/server.log")
        [ -n "$BASE" ] && break
        kill -0 "$SRV_PID" 2>/dev/null || die "server died: $(cat "$DIR/server.log")"
        sleep 0.1
    done
    [ -n "$BASE" ] || die "server never announced its address: $(cat "$DIR/server.log")"
}

stop_server() {
    kill "$SRV_PID" 2>/dev/null || true
    wait "$SRV_PID" 2>/dev/null || true
    SRV_PID=""
}

SPEC="{\"task\":\"$TASK\",\"dataset\":\"$DATASET\",\"workload\":$WORKLOAD,\"batches\":$BATCHES,\"seed\":$SEED}"

# Probe run: read the model's predicted peak for this job so the real
# budget can be sized to fit exactly one. The probe POST also trains the
# admission model, so it takes a few seconds.
say "probing predicted peak"
start_server ""
curl -sf -X POST -d "$SPEC" "http://$BASE/v1/jobs" >"$DIR/probe.json"
stop_server
PREDICTED=$(sed -n 's/.*"predicted_peak_bytes": \([0-9][0-9]*\).*/\1/p' "$DIR/probe.json")
[ -n "$PREDICTED" ] && [ "$PREDICTED" -gt 0 ] || die "no predicted peak in probe response: $(cat "$DIR/probe.json")"
BUDGET_GB=$(awk "BEGIN{printf \"%.9f\", $PREDICTED * 1.5 / 1073741824}")
say "predicted peak $PREDICTED bytes; budget $BUDGET_GB GB (fits one job)"

# The real run: budget for one job, plenty of worker slots, so the second
# submission must queue on memory, not on a slot.
start_server "-max-running 4 -budget-gb $BUDGET_GB -events $DIR/events.jsonl"
say "server on $BASE"
curl -sf -X POST -d "$SPEC" "http://$BASE/v1/jobs" >"$DIR/job1.json"
curl -sf -X POST -d "$SPEC" "http://$BASE/v1/jobs" >"$DIR/job2.json"
grep -q '"state": "\(admitted\|running\)"' "$DIR/job1.json" || die "job 1 not admitted: $(cat "$DIR/job1.json")"
grep -q '"state": "queued"' "$DIR/job2.json" || die "job 2 not queued: $(cat "$DIR/job2.json")"
say "job-0001 admitted, job-0002 queued"

for ID in job-0001 job-0002; do
    DONE=""
    for _ in $(seq 1 300); do
        STATE=$(curl -sf "http://$BASE/v1/jobs/$ID" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p' | head -1)
        case "$STATE" in
        completed) DONE=1; break ;;
        failed | rejected) die "$ID reached state $STATE" ;;
        esac
        sleep 0.2
    done
    [ -n "$DONE" ] || die "$ID did not complete in time"
done
say "both jobs completed"

# Byte-identity: each service report equals the one-shot vcrun report for
# the same spec against the same pregenerated graph file.
"$DIR/vcrun" -task "$TASK" -dataset "$DATASET" -graph-file "$DIR/graphs/$DATASET.bin" \
    -workload "$WORKLOAD" -batches "$BATCHES" -seed "$SEED" -report "$DIR/ref.json" >/dev/null
curl -sf "http://$BASE/v1/jobs/job-0001/report" >"$DIR/report1.json"
curl -sf "http://$BASE/v1/jobs/job-0002/report" >"$DIR/report2.json"
cmp "$DIR/ref.json" "$DIR/report1.json" || die "job-0001 report differs from vcrun -report"
cmp "$DIR/ref.json" "$DIR/report2.json" || die "job-0002 report differs from vcrun -report"
say "reports byte-identical to vcrun -report"

# The queue must be visible in the metrics snapshot and the event log.
# metric NAME prints the sum of NAME's series in /metrics.json.
curl -sf "http://$BASE/metrics.json" >"$DIR/metrics.json"
metric() {
    python3 -c 'import json, sys
print(int(sum(m.get("value", 0) for m in json.load(open(sys.argv[1])) if m["name"] == sys.argv[2])))' "$DIR/metrics.json" "$1"
}
[ "$(metric serve_jobs_queued_total)" = 1 ] || die "serve_jobs_queued_total != 1 in /metrics.json"
[ "$(metric serve_jobs_completed_total)" = 2 ] || die "serve_jobs_completed_total != 2 in /metrics.json"
grep -q '"type":"job_queued"' "$DIR/events.jsonl" || die "job_queued missing from events log"
grep -c '"type":"job_completed"' "$DIR/events.jsonl" | grep -qx 2 || die "expected 2 job_completed events"
say "queue visible in /metrics.json and events.jsonl"

stop_server
say "PASS"
