#!/bin/sh
# End-to-end gates over the built command-line programs, one function
# per gate, each registered as a ctest case in examples/CMakeLists.txt:
#
#   e2e_gates.sh GATE BIN_DIR BASELINE_DIR
#
# BIN_DIR holds fsmoe_sweep and the other example programs; BASELINE_DIR
# holds the blessed demo_grid.json and demo_tune.json, which every gate
# compares byte for byte. A gate runs in the current directory, which
# must be named e2e_GATE, and empties it first: --journal refuses to
# overwrite an old journal.
set -eu

if [ $# -ne 3 ]; then
    echo "usage: $0 GATE BIN_DIR BASELINE_DIR" >&2
    exit 2
fi
gate=$1 bin=$2 base=$3
grid=$base/demo_grid.json

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

# expect_status CODE CMD...: CMD must exit with CODE.
expect_status() {
    want=$1
    shift
    status=0
    "$@" || status=$?
    [ "$status" -eq "$want" ] || fail "$1 exited $status, expected $want"
}

# --------------------------------------------- single process (e2e)

gate_profile() {
    # The per-stage breakdown perf work quotes, plus the registry-backed
    # cache-ratio and simulate-latency lines.
    "$bin/fsmoe_sweep" --profile --batches 1 > profile.txt
    grep -q "per-stage profile" profile.txt
    grep -q "cache hit ratios" profile.txt
    grep -q "per-scenario simulate" profile.txt
}

gate_telemetry() {
    # Every observability surface on, and still the blessed bytes; the
    # metrics snapshot and the self-trace hold real work: one scenario
    # span per swept scenario, the calling thread's included.
    "$bin/fsmoe_sweep" --out-json sweep.json --metrics-json metrics.json \
        --self-trace self_trace.json --explain best > /dev/null
    cmp sweep.json "$grid"
    python3 - <<'EOF'
import json
m = json.load(open("metrics.json"))
assert m["schema"] == "fsmoe-stats", m.get("schema")
assert m["counters"]["sweep.scenarios.completed"] > 0, "no scenarios"
t = json.load(open("self_trace.json"))
assert any(e.get("ph") == "X" for e in t["traceEvents"]), "no spans"
spans = sum(e.get("ph") == "X" and e.get("cat") == "scenario"
            for e in t["traceEvents"])
swept = len(json.load(open("sweep.json"))["results"])
assert spans == swept, f"{spans} scenario spans for {swept} scenarios"
EOF
}

gate_examples() {
    # The schedule-plugin and gate/hook extension APIs must not rot.
    "$bin/schedule_explorer"
    "$bin/custom_gate"
    "$bin/fsmoe_sweep" --list-schedules
}

gate_persist() {
    "$bin/fsmoe_sweep" --out-json sweep.json --out-csv sweep.csv
    cmp sweep.json "$grid"
    # Either format diffed against the other, a fresh sweep against the
    # stored one, and the baseline against it: zero deltas.
    "$bin/fsmoe_diff" sweep.json sweep.json
    "$bin/fsmoe_diff" sweep.json sweep.csv
    "$bin/fsmoe_sweep" --diff sweep.json
    "$bin/fsmoe_diff" "$grid" sweep.json
}

gate_specs() {
    specs='fsmoe,tutel?degree=2,tutel?degree=4,lina?chunkMB=60'
    "$bin/fsmoe_sweep" --schedules "$specs" --batches 1 --out-json specs.json
    "$bin/fsmoe_sweep" --schedules "$specs" --batches 1 --diff specs.json
}

gate_shard() {
    "$bin/fsmoe_sweep" --shard 1/2 --out-json shard1.json
    "$bin/fsmoe_sweep" --shard 2/2 --out-json shard2.json
    "$bin/fsmoe_diff" --merge merged.json shard1.json shard2.json
    cmp merged.json "$grid"
    # Shards that all carry --link-util columns merge with them kept.
    "$bin/fsmoe_sweep" --link-util --out-json links.json --out-csv links.csv
    for k in 1 2; do
        "$bin/fsmoe_sweep" --shard $k/2 --link-util \
            --out-json links$k.json --out-csv links$k.csv
    done
    for ext in json csv; do
        "$bin/fsmoe_diff" --merge merged-links.$ext links1.$ext links2.$ext
        cmp merged-links.$ext links.$ext
    done
}

gate_tune() {
    # Cold, then warm from the persisted advisor cache in a second
    # process: both are the blessed answer (docs/TUNING.md).
    "$bin/fsmoe_tune" --advisor-cache cache.json --out-json tune.json
    cmp tune.json "$base/demo_tune.json"
    "$bin/fsmoe_tune" --quiet --advisor-cache cache.json --out-json warm.json
    cmp warm.json "$base/demo_tune.json"
}

gate_threads() {
    # 8 sweep threads give the bytes of 1; under TSan, race-free too.
    "$bin/fsmoe_sweep" --threads 8 --out-json t8.json 2> t8.err
    "$bin/fsmoe_sweep" --threads 1 --out-json t1.json 2> t1.err
    cmp t8.json t1.json
    cmp t8.json "$grid"
    if grep -q "WARNING: ThreadSanitizer" t8.err t1.err; then
        fail "data race reported"
    fi
}

# ------------------------------------- journal, kill, inject (robustness)

gate_journal() {
    # Journaling is pure bookkeeping: the bytes of a plain run. Both
    # paths re-simulate the scenario --trace/--explain show, so the
    # trace files and explain sections match too.
    "$bin/fsmoe_sweep" --out-csv plain.csv --trace a.json \
        --explain best > plain.log
    "$bin/fsmoe_sweep" --isolate --journal j.txt --out-json j.json \
        --out-csv j.csv --trace b.json --explain best > journal.log
    cmp j.json "$grid"
    cmp j.csv plain.csv
    cmp a.json b.json
    for log in plain journal; do
        sed -n '/^explain /,$p' $log.log | grep -v '^wrote' > $log.explain
    done
    [ -s plain.explain ] || fail "no explain section"
    cmp plain.explain journal.explain
}

gate_kill() {
    # kill-after exits 137, like SIGKILL, after the 9th journal append;
    # the resume simulates only what is missing.
    expect_status 137 "$bin/fsmoe_sweep" --journal j.txt \
        --inject kill-after=9 --out-json never.json
    [ ! -e never.json ] || fail "a killed sweep wrote its output"
    "$bin/fsmoe_sweep" --journal j.txt --resume --out-json resumed.json
    cmp resumed.json "$grid"
}

gate_sigkill() {
    # A real SIGKILL at an arbitrary instant: whatever journal the race
    # leaves (none, partial or complete), the resume converges.
    "$bin/fsmoe_sweep" --threads 1 --journal j.txt --out-json killed.json &
    pid=$!
    sleep 0.2
    kill -9 "$pid" 2> /dev/null || true
    wait "$pid" || true
    "$bin/fsmoe_sweep" --journal j.txt --resume --out-json resumed.json
    cmp resumed.json "$grid"
}

gate_inject() {
    # Eval faults, worker crashes and hangs on isolated workers: each
    # scenario is retried on its own, so some are quarantined with both
    # attempts spent, every survivor is byte-identical to the baseline,
    # and a clean resume heals the rest.
    "$bin/fsmoe_sweep" --isolate \
        --inject 'seed=7,eval=0.3,crash=0.2,timeout=0.1' \
        --timeout-ms 5000 --max-attempts 2 --journal j.txt \
        --profile --explain best --out-json injected.json > inject.log
    grep -q "service.scenarios.quarantined" inject.log
    python3 - "$grid" <<'EOF'
import json, re, sys
def key(r):
    return tuple(r[k] for k in ("model", "cluster", "schedule", "batch",
                                "seq_len", "num_layers", "num_experts",
                                "r_max"))
clean = {key(r): r for r in json.load(open(sys.argv[1]))["results"]}
injected = json.load(open("injected.json"))["results"]
assert len(injected) == len(clean), (len(injected), len(clean))
quarantined = [r for r in injected if r.get("status")]
ok = [r for r in injected if not r.get("status")]
assert quarantined, "injection produced no quarantined records"
assert ok, "injection left no survivors"
for r in quarantined:
    assert r["status"] == "quarantined", r
    assert r["attempts"] == 2, r
    assert r["error"], r
    assert r["makespan_ms"] == 0.0, r
for r in ok:
    assert r == clean[key(r)], f"survivor drifted: {key(r)}"
# --explain best shows the fastest survivor, never a quarantined record.
def label(r):
    s = "{model}/{cluster}/{schedule}/b{batch}/L{seq_len}".format(**r)
    if r["num_layers"] > 0:
        s += "/l%d" % r["num_layers"]
    if r["num_experts"] > 0:
        s += "/e%d" % r["num_experts"]
    if r["r_max"] != 16:
        s += "/r%d" % r["r_max"]
    return s
shown = re.search(r"^explain (.*):$", open("inject.log").read(), re.M)
assert shown, "no explain section"
best = min(ok, key=lambda r: r["makespan_ms"])
assert shown.group(1) == label(best), (shown.group(1), label(best))
EOF
    "$bin/fsmoe_sweep" --journal j.txt --resume --out-json healed.json
    cmp healed.json "$grid"
}

gate_stop() {
    # stop-after is the deterministic SIGINT/SIGTERM stand-in: exit
    # 143, a resume hint, no partial output, and a converging resume.
    expect_status 143 "$bin/fsmoe_sweep" --inject stop-after=10 \
        --journal j.txt --out-json never.json > stop.log
    [ ! -e never.json ] || fail "a stopped sweep wrote its output"
    grep -q "interrupted" stop.log
    grep -q -- "--resume" stop.log
    "$bin/fsmoe_sweep" --journal j.txt --resume --out-json resumed.json
    cmp resumed.json "$grid"
}

# ----------------------------------------- fsmoe_sweepd jobs (service)

# submit QUEUE: queue the demo job; its merged output is $PWD/QUEUE.json.
submit() {
    "$bin/fsmoe_submit" --queue "$1" --name demo --batches 1,2 \
        --out "$PWD/$1.json"
}

gate_service_clean() {
    submit q
    "$bin/fsmoe_sweepd" --queue q --once --workers 3 --profile > svc.log
    cmp q.json "$grid"
    grep -q "service.results.streamed" svc.log
    "$bin/fsmoe_submit" --queue q --list | grep -q "done"
}

gate_service_kill() {
    # Injected worker crashes heal on every run; the real kill -9 of a
    # live worker is a best-effort extra that can charge the scenario
    # in flight one more attempt, so the budget is raised.
    submit q
    "$bin/fsmoe_sweepd" --queue q --once --workers 3 --max-attempts 8 \
        --inject 'seed=7,crash=0.2' --profile > svc.log &
    dpid=$!
    sleep 0.15
    wpid=$(pgrep -P "$dpid" | head -n 1 || true)
    if [ -n "$wpid" ]; then kill -9 "$wpid" 2> /dev/null || true; fi
    wait "$dpid"
    cmp q.json "$grid"
    grep -q "service.scenarios.retried" svc.log
}

gate_service_daemon() {
    # kill-after=20 exits the daemon with 137 after the 20th journal
    # append; the job stays active and a restarted daemon resumes it.
    submit q
    expect_status 137 "$bin/fsmoe_sweepd" --queue q --once --workers 3 \
        --inject kill-after=20
    [ ! -e q.json ] || fail "a killed daemon wrote the merged output"
    "$bin/fsmoe_submit" --queue q --list | grep -q "active"
    "$bin/fsmoe_sweepd" --queue q --once --workers 3 --profile > svc.log
    cmp q.json "$grid"
    grep -q "service.results.resumed" svc.log
    "$bin/fsmoe_submit" --queue q --list | grep -q "done"
}

gate_service_term() {
    # SIGTERM drains the daemon (exit 143) and leaves the job
    # resumable. If the sweep finishes first, the daemon still exits
    # 143 from its queue poll; the cmp holds either way.
    submit q
    "$bin/fsmoe_sweepd" --queue q --workers 3 &
    dpid=$!
    sleep 0.1
    kill -TERM "$dpid"
    expect_status 143 wait "$dpid"
    "$bin/fsmoe_sweepd" --queue q --once --workers 3
    cmp q.json "$grid"
}

case $PWD in
*/e2e_"$gate") ;;
*) fail "run from a directory named e2e_$gate, which the gate empties" ;;
esac
rm -rf ./*
set -x
"gate_$gate"
