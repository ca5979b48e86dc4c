#!/usr/bin/env bash
# Same-host A/B of two commits in interleaved pairs (ROADMAP item 1).
#
#   scripts/ab.sh <parent-ref> <change-ref> [--workload W] [--pairs N]
#                 [--seconds S] [--out DIR]
#
# Exports each ref into a temporary directory (git archive, so nothing is
# added to this repository's .git even if the script is interrupted),
# builds that ref's benchmark there once, and runs N pairs (default 10) of
# `--workload W --seed i --trace 0` — every workload of BENCHMARK.json when
# --workload is omitted — flipping which side runs first each pair. Around
# every run it samples /proc/stat and /proc/loadavg; a pair in which either
# run lost more than 5% of the machine's CPU time to steal is dropped and
# re-run on the same seed, at most N times per workload. Each side's runs
# are merged into one result file in DIR (default ab-out/) and handed to
# the benchmark's own -compare; then, per metric, it prints each
# side's quartiles, the median of the pairwise change/parent ratios, the
# change's wins out of N, a two-sided sign-test p-value and the minimum
# detectable effect at N kept pairs,
#
#   MDE = 2.8 · (IQR of ln(change/parent) / 1.349) / √N, as a percentage:
#
# the normal approximation at α = 0.05 (two-sided) and power 0.8
# (2.8 ≈ 1.96 + 0.84), with IQR/1.349 a robust estimate of the pairwise
# log ratios' standard deviation. A change smaller than the MDE can go
# unseen at N pairs. It exits 1 when a run was not correct or had failed
# operations. benchmark/ is only read.
set -euo pipefail

usage() {
	sed -n '4,5p' "$0" >&2
	exit 2
}
[ $# -ge 2 ] || usage
parent_ref=$1 change_ref=$2
shift 2
workload="" pairs=10 seconds="" out=ab-out steal_max=0.05
while [ $# -gt 0 ]; do
	[ $# -ge 2 ] || usage
	case $1 in
	--workload) workload=$2 ;;
	--pairs) pairs=$2 ;;
	--seconds) seconds=$2 ;;
	--out) out=$2 ;;
	*) usage ;;
	esac
	shift 2
done

root=$(git rev-parse --show-toplevel)
declare -A sha
sha[parent]=$(git -C "$root" rev-parse --verify "$parent_ref^{commit}")
sha[change]=$(git -C "$root" rev-parse --verify "$change_ref^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$out"
out=$(cd "$out" && pwd)
export GOTOOLCHAIN=local GOFLAGS=-mod=mod

for side in parent change; do
	echo "building $side ${sha[$side]:0:12}" >&2
	mkdir -p "$tmp/$side"
	git -C "$root" archive --format=tar "${sha[$side]}" | tar -x -C "$tmp/$side"
	(cd "$tmp/$side/benchmark" && go build -o "$tmp/$side/bench" .)
done
workloads=${workload:-$(python3 -c 'import json,sys; print(*(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$tmp/change/BENCHMARK.json")}

# cpu_ticks prints "<total> <steal>" from the aggregate line of /proc/stat.
cpu_ticks() { awk '/^cpu /{t=0; for (i=2; i<=NF; i++) t+=$i; print t, $9; exit}' /proc/stat; }

# run_one SIDE WORKLOAD SEED: one untraced run, recorded as a JSON line
# (side, workload, seed, steal share, loadavg before/after, the host line,
# the benchmark's result line) in $tmp/pair.jsonl; prints the steal share,
# or "failed" when the run printed no result.
run_one() {
	local side=$1 log=$tmp/run.log load0 load1 t0 s0 t1 s1
	local args=(--workload "$2" --seed "$3" --trace 0 -out "$tmp/$side/out")
	[ -n "$seconds" ] && args+=(--seconds "$seconds")
	load0=$(cut -d' ' -f1 /proc/loadavg)
	read -r t0 s0 < <(cpu_ticks)
	(cd "$tmp/$side" && ./bench "${args[@]}") >"$log" 2>&1 || true
	read -r t1 s1 < <(cpu_ticks)
	load1=$(cut -d' ' -f1 /proc/loadavg)
	python3 - "$@" "$t0" "$s0" "$t1" "$s1" "$load0" "$load1" "$log" "$tmp/pair.jsonl" <<'PY'
import json, sys
side, w, seed, t0, s0, t1, s1, l0, l1, log, rec = sys.argv[1:]
lines = open(log).read().splitlines()
result = next((json.loads(l) for l in reversed(lines) if l.startswith("{")), None)
dt = int(t1) - int(t0)
r = {"side": side, "workload": w, "seed": int(seed),
     "steal": (int(s1) - int(s0)) / dt if dt > 0 else 0.0,
     "load_before": float(l0), "load_after": float(l1),
     "host": next((l for l in lines if l.startswith("host: ")), ""), "result": result}
open(rec, "a").write(json.dumps(r) + "\n")
print(r["steal"] if result else "failed")
PY
}

: >"$out/runs.jsonl"
for w in $workloads; do
	seed=1 kept=0 dropped=0
	while [ "$kept" -lt "$pairs" ]; do
		order="parent change"
		[ $((kept % 2)) -eq 1 ] && order="change parent"
		: >"$tmp/pair.jsonl"
		noisy=0
		for side in $order; do
			s=$(run_one "$side" "$w" "$seed")
			if [ "$s" = failed ]; then
				echo "$w seed $seed: the $side run printed no result:" >&2
				cat "$tmp/run.log" >&2
				exit 1
			fi
			awk -v s="$s" -v m="$steal_max" 'BEGIN { exit !(s > m) }' && noisy=1
		done
		if [ "$noisy" -eq 1 ] && [ "$dropped" -lt "$pairs" ]; then
			dropped=$((dropped + 1))
			echo "$w seed $seed: steal above $steal_max, re-running the pair" >&2
			continue
		fi
		cat "$tmp/pair.jsonl" >>"$out/runs.jsonl"
		kept=$((kept + 1)) seed=$((seed + 1))
		echo "$w: pair $kept/$pairs done ($order)" >&2
	done
	echo "$w: $dropped pair(s) dropped for steal" >&2
done

# Merge each side into a result file for -compare; write the pair table.
python3 - "$tmp/change/BENCHMARK.json" "$out" >"$out/table.txt" <<'PY'
import json, math, re, sys
decls = json.load(open(sys.argv[1]))["end_to_end"]
out = sys.argv[2]
runs = [json.loads(l) for l in open(out + "/runs.jsonl")]
workloads = list(dict.fromkeys(r["workload"] for r in runs))

def quartiles(v):  # benchmark/stats.go's definition
    s, m = sorted(v), len(v)
    if m < 2:
        return (s[0],) * 3 if s else (0, 0, 0)
    def q(i):
        j = min(max(i * (m + 1) // 4, 1), m - 1)
        d = i * (m + 1) - j * 4
        return (s[j - 1] * (4 - d) + s[j] * d) / 4
    return q(1), q(2), q(3)

def sign_p(wins, losses):  # two-sided; ties dropped
    n, k = wins + losses, min(wins, losses)
    return min(1.0, 2 * sum(math.comb(n, i) for i in range(k + 1)) / 2 ** n) if n else 1.0

host = re.compile(r"^host: (.*) @ ([0-9.]+) GHz, nproc (\d+), GOMAXPROCS (\d+), (\S+), kernel_path (\S+), commit \S*, seed (-?\d+)$")
for side in ("parent", "change"):
    mine = [r for r in runs if r["side"] == side]
    m = host.match(mine[0]["host"])
    fp = {"cpu": m[1], "ghz": float(m[2]), "nproc": int(m[3]), "gomaxprocs": int(m[4]),
          "go_version": m[5], "kernel_path": m[6], "git_commit": side, "seed": int(m[7])}
    wls = []
    for w in workloads:
        rs = [r["result"] for r in mine if r["workload"] == w]
        att, fail = sum(r["attempted"] for r in rs), sum(r["failed"] for r in rs)
        e2e = []
        for d in decls:
            vals = [r["metrics"][d["name"]]["value"] for r in rs]
            q1, q2, q3 = quartiles(vals)
            e2e.append(dict(d, values=vals, median=q2, q1=q1, q3=q3))
        wls.append({"name": w, "attempted": att, "failed": fail, "fail_frac": fail / att if att else 0,
                    "end_to_end": e2e,
                    "untraced_runs": [{"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
                                       "values": {k: v["value"] for k, v in r["metrics"].items()}} for r in rs]})
    json.dump({"fingerprint": fp, "workloads": wls}, open(f"{out}/ab_{side}.json", "w"), indent=1)

def mde(logs):  # percent; see the header comment
    if len(logs) < 2:
        return math.nan
    q1, _, q3 = quartiles(logs)
    return 100 * 2.8 * ((q3 - q1) / 1.349) / math.sqrt(len(logs))

print(f"{'workload':<17} {'metric':<13} {'parent q1/median/q3':>30} {'change q1/median/q3':>30} {'ratio':>6} {'wins':>6} {'sign p':>7} {'MDE %':>6}")
for w in workloads:
    by_seed = {}
    for r in runs:
        if r["workload"] == w:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
    pairs = [p for p in by_seed.values() if len(p) == 2]
    for d in decls:
        a = [p["parent"][d["name"]]["value"] for p in pairs]
        b = [p["change"][d["name"]]["value"] for p in pairs]
        lower = d["better"] == "lower"
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        losses = sum((y > x) if lower else (y < x) for x, y in zip(a, b))
        ratio = quartiles([y / x for x, y in zip(a, b) if x])[1]
        fa, fb = ("/".join(f"{x:.4g}" for x in quartiles(v)) for v in (a, b))
        logs = [math.log(y / x) for x, y in zip(a, b) if x > 0 and y > 0]
        print(f"{w:<17} {d['name']:<13} {fa:>30} {fb:>30} {ratio:6.3f} {wins:>3}/{len(pairs):<2} {sign_p(wins, losses):7.2g} {mde(logs):6.1f}")
steal = sorted(r["steal"] for r in runs)
bad = sum(not r["result"]["correct"] or r["result"]["failed"] > 0 for r in runs)
print(f"runs kept {len(runs)}; steal share median {steal[len(steal) // 2]:.3f}, max {steal[-1]:.3f}; "
      f"runs not correct or with failed operations: {bad}")
PY
"$tmp/change/bench" -compare "$out/ab_parent.json" "$out/ab_change.json" || true
echo
cat "$out/table.txt"
! grep -q 'failed operations: [1-9]' "$out/table.txt"
