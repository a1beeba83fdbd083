#!/bin/sh
# Binary-level serving smoke: the one place the serving binaries run as
# processes, so their flag wiring is exercised. The serving contracts
# themselves (failover, persistence, tracing, drain order, concurrency)
# are in-process Go tests under internal/server, internal/cluster and
# internal/cliutil.
#
# Starts ccrpd with -trace and -store and ccrp-router -fleet in front of
# it, polls /healthz until both answer, trains a coder and checks that
# /v1/artifacts lists exactly that coder from the store, runs a
# compress -> decompress round trip and compares the served ROM
# byte-for-byte against cmd/ccpack's on-disk output for the same
# workload, sends one compress through the router (byte-identical to the
# direct one, carrying X-Ccrp-Backend), scrapes /metrics, SIGTERMs both
# processes and asserts clean drains (exit 0), then runs ccrp-spans
# -json over the daemon's span file.
#
# Usage: scripts/serve_smoke.sh [port]    (the router takes port+1)
#
# Needs only a POSIX shell, go, curl and python3 (JSON field extraction
# and base64 decoding). With CCRP_SMOKE_DIR set, the working directory
# (logs, span file, store) lives under it and is kept for CI
# failure-artifact upload.
set -eu
# pipefail surfaces failures on the left side of pipes; it is not in
# POSIX sh everywhere, so probe for it instead of assuming bash.
(set -o pipefail 2>/dev/null) && set -o pipefail


cd "$(dirname "$0")/.."

port=${1:-8642}
rport=$((port + 1))
base="http://127.0.0.1:${port}"
router="http://127.0.0.1:${rport}"
if [ -n "${CCRP_SMOKE_DIR:-}" ]; then
	work="$CCRP_SMOKE_DIR/serve_smoke"
	mkdir -p "$work"
	keep=1
else
	work=$(mktemp -d)
	keep=
fi
wl=eightq

fail() {
	echo "serve_smoke: FAILED: $1" >&2
	for log in "$work"/*.log; do
		[ -f "$log" ] && sed "s|^|$(basename "$log" .log): |" "$log" >&2
	done
	exit 1
}

cleanup() {
	for p in "${rpid:-}" "${pid:-}"; do
		[ -n "$p" ] && kill "$p" 2>/dev/null || true
	done
	if [ -z "$keep" ]; then
		rm -rf "$work"
	fi
}
trap cleanup EXIT

# jsonget FILE EXPR: print a field of a JSON document.
jsonget() {
	python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))'"$2"')' "$1"
}

# wait_healthy URL PID WHAT: poll URL/healthz into WHAT.healthz.json.
wait_healthy() {
	i=0
	until curl -fsS "$1/healthz" >"$work/$3.healthz.json" 2>/dev/null; do
		i=$((i + 1))
		[ "$i" -ge 50 ] && fail "$3 did not become healthy"
		kill -0 "$2" 2>/dev/null || fail "$3 exited during startup"
		sleep 0.2
	done
	[ "$(jsonget "$work/$3.healthz.json" '["status"]')" = "ok" ] || fail "$3 healthz status not ok"
}

# drain PID WHAT: SIGTERM and require a clean exit.
drain() {
	kill -TERM "$1"
	i=0
	while kill -0 "$1" 2>/dev/null; do
		i=$((i + 1))
		[ "$i" -ge 100 ] && fail "$2 did not exit after SIGTERM"
		sleep 0.1
	done
	wait "$1" || fail "$2 exited nonzero after SIGTERM"
}

echo "== building"
for cmd in ccrpd ccrp-router ccrp-spans ccpack; do
	go build -o "$work/$cmd" "./cmd/$cmd"
done

echo "== starting ccrpd on $base"
"$work/ccrpd" -addr "127.0.0.1:${port}" -trace "$work/spans.jsonl" \
	-store "$work/store" >"$work/ccrpd.log" 2>&1 &
pid=$!
wait_healthy "$base" "$pid" ccrpd

echo "== starting ccrp-router on $router"
"$work/ccrp-router" -addr "127.0.0.1:${rport}" -fleet "127.0.0.1:${port}" \
	>"$work/ccrp-router.log" 2>&1 &
rpid=$!
wait_healthy "$router" "$rpid" ccrp-router
[ "$(jsonget "$work/ccrp-router.healthz.json" '["nodes_up"]')" = "1" ] \
	|| fail "router does not see the daemon up"

echo "== training the preselected coder"
curl -fsS -X POST "$base/v1/coders" -d '{"kind":"preselected"}' \
	>"$work/coder.json" || fail "train request"
coder=$(jsonget "$work/coder.json" '["id"]')
[ -n "$coder" ] || fail "no coder id returned"

echo "== the store lists the trained coder"
curl -fsS "$base/v1/artifacts" >"$work/artifacts.json" || fail "artifacts request"
python3 -c '
import json, sys
a = json.load(open(sys.argv[1]))
assert a["store"] is True, a
assert [x["id"] for x in a["artifacts"]] == [sys.argv[2]], a
' "$work/artifacts.json" "$coder" || fail "/v1/artifacts does not list exactly the trained coder"

echo "== compressing workload $wl"
curl -fsS -X POST "$base/v1/compress" \
	-d "{\"coder_id\":\"$coder\",\"workload\":\"$wl\"}" \
	>"$work/compress.json" || fail "compress request"

echo "== comparing the served ROM against ccpack's output"
"$work/ccpack" -workload "$wl" -o "$work/ref.rom" >/dev/null
python3 -c '
import base64, json, sys
served = base64.b64decode(json.load(open(sys.argv[1]))["rom_b64"])
open(sys.argv[2], "wb").write(served)
' "$work/compress.json" "$work/served.rom"
cmp "$work/served.rom" "$work/ref.rom" || fail "served ROM differs from ccpack output"

echo "== decompress round trip"
python3 -c '
import json, sys
comp = json.load(open(sys.argv[1]))
json.dump({"rom_b64": comp["rom_b64"]}, open(sys.argv[2], "w"))
' "$work/compress.json" "$work/decreq.json"
curl -fsS -X POST "$base/v1/decompress" --data-binary "@$work/decreq.json" \
	>"$work/decompress.json" || fail "decompress request"
orig=$(jsonget "$work/compress.json" '["original_bytes"]')
back=$(jsonget "$work/decompress.json" '["original_bytes"]')
[ "$orig" = "$back" ] || fail "round trip size mismatch: $orig vs $back"

echo "== one simulate point"
curl -fsS -X POST "$base/v1/simulate" \
	-d "{\"workload\":\"$wl\",\"cache_bytes\":1024}" \
	>"$work/simulate.json" || fail "simulate request"
python3 -c '
import json, sys
rp = json.load(open(sys.argv[1]))["relative_performance"]
assert rp > 0, rp
' "$work/simulate.json" || fail "simulate returned no relative performance"

echo "== one compress through the router"
curl -fsS -D "$work/router.headers" -X POST "$router/v1/compress" \
	-d "{\"coder_id\":\"$coder\",\"workload\":\"$wl\"}" \
	>"$work/routed.json" || fail "compress through the router"
grep -qi "^x-ccrp-backend: 127.0.0.1:${port}" "$work/router.headers" \
	|| fail "routed response does not name the daemon in X-Ccrp-Backend"
python3 -c '
import json, sys
a, b = (json.load(open(p)) for p in sys.argv[1:3])
assert a["rom_b64"] == b["rom_b64"] and a["blocks_b64"] == b["blocks_b64"]
' "$work/compress.json" "$work/routed.json" \
	|| fail "routed compress differs from the direct one"

echo "== scraping /metrics"
curl -fsS "$base/metrics" >"$work/metrics.prom" || fail "metrics scrape"
grep -q 'ccrpd_requests_total{route="/v1/compress"}' "$work/metrics.prom" \
	|| fail "metrics missing compress counter"
grep -q 'ccrpd_coder_builds_total 1' "$work/metrics.prom" \
	|| fail "metrics missing single coder build"
curl -fsS "$router/metrics" >"$work/router.prom" || fail "router metrics scrape"
grep -q "ccrp_router_requests_total{node=\"127.0.0.1:${port}\"} 1" "$work/router.prom" \
	|| fail "router metrics missing the routed request"

echo "== SIGTERM drains: router, then daemon"
drain "$rpid" ccrp-router
rpid=
drain "$pid" ccrpd
pid=

echo "== ccrp-spans over the daemon's span file"
"$work/ccrp-spans" -json "$work/spans.jsonl" >"$work/analysis.json" \
	|| fail "ccrp-spans rejected the span file"
python3 -c '
import json, sys
a = json.load(open(sys.argv[1]))
stages = {s["stage"] for s in a["stages"]}
assert {"request", "compress", "decompress", "sim_run"} <= stages, sorted(stages)
assert a["roots"] > 0 and a["coverage"]["roots"] > 0, a
' "$work/analysis.json" || fail "span analysis incomplete"

echo "serve_smoke: OK"
