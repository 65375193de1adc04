#!/bin/sh
# The command line end to end, each step its own process: gen writes a
# case-2 and a case-1 instance file, ref --instance solves their references to
# strict-JSON files whose methods are "primal-dual" and "apg", each converged
# true with a certified gap of at most 1e-9 and the iterations and seconds of
# its solve, solve runs dfal and
# writes a strict-JSON summary that says it converged, solve --alg sadmm
# --iters 5 and solve --alg admm --iters 2 ones that say they stopped at
# their caps, solve --alg apg runs the case-1 reference (through ms_apg) to a
# strict-JSON summary that says it converged, and solve --alg afal-arbcd and
# --alg afal-rbcd, under the matrix's names, ones that name them and say
# they converged.  bench runs a one-row matrix to a strict-JSON
# report whose row carries the run summary's names (stop_reason,
# outer_iterations, comm_per_node_max, no budget_exhausted) and says it
# converged.  gen reads a 4-node ring from an edge file without --nodes.  Bad
# input must end in exit status 2 with exactly one
# "dfalopt: error:" line and no traceback: a malformed instance file (null
# nodes, true in an A, A widths that differ), a bench config with an
# algorithm the matrix does not know or sizes whose 2N does not divide
# n_g * K, solve with zero ADMM iterations, and gen --case 3.
# Run from the repository root: sh .github/cli_smoke.sh
set -eu
export PYTHONPATH=src
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cli="python -m dfalopt.cli"

$cli gen --case 2 --seed 1 --out "$dir/inst.json"
$cli ref --instance "$dir/inst.json" --out "$dir/ref.json"
$cli gen --case 1 --seed 1 --out "$dir/inst1.json"
$cli ref --instance "$dir/inst1.json" --out "$dir/ref1.json"
$cli solve --alg dfal --case 2 --seed 1 --out "$dir/run.csv"
$cli solve --alg sadmm --iters 5 --out "$dir/sadmm.csv"
$cli solve --alg apg --case 1 --seed 1 --out "$dir/apg.csv"
$cli solve --alg afal-arbcd --seed 1 --out "$dir/arbcd.csv"
$cli solve --alg admm --iters 2 --out "$dir/admm.csv"
$cli solve --alg afal-rbcd --out "$dir/rbcd.csv"
python -c '
import json, sys
def load(path):
    def reject(token):
        sys.exit(f"{path}: {token} is not JSON")
    return json.load(open(path), parse_constant=reject)
run, sadmm, apg, arbcd, admm, rbcd = (f"{sys.argv[1]}/{name}.csv.summary.json" for name in
                                      ("run", "sadmm", "apg", "arbcd", "admm", "rbcd"))
for name, method in (("ref", "primal-dual"), ("ref1", "apg")):
    ref = load(f"{sys.argv[1]}/{name}.json")
    if (ref["method"], ref["converged"]) != (method, True) or not ref["gap"] <= 1e-9:
        sys.exit(f"{sys.argv[1]}/{name}.json: not a certified {method} reference")
    if not (isinstance(ref["iterations"], int) and ref["iterations"] > 0 < ref["seconds"]):
        sys.exit(f"{sys.argv[1]}/{name}.json: no iterations and seconds of its solve")
for path, reason in ((run, "converged"), (sadmm, "cap"), (admm, "cap")):
    if load(path)["stop_reason"] != reason:
        sys.exit(f"{path}: the summary does not say {reason}")
if load(apg)["converged"] is not True:
    sys.exit(f"{apg}: the case-1 reference did not converge")
for path, name in ((arbcd, "afal-arbcd"), (rbcd, "afal-rbcd")):
    summary = load(path)
    if (summary["algorithm"], summary["stop_reason"]) != (name, "converged"):
        sys.exit(f"{path}: not a converged {name} run")
' "$dir"
echo '{"seeds": [1], "topologies": ["star"], "cases": [1]}' > "$dir/cfg.json"
$cli bench --config "$dir/cfg.json" --out "$dir/report.json"
python -c '
import json, sys
def reject(token):
    sys.exit(f"{sys.argv[1]}: {token} is not JSON")
(row,) = json.load(open(sys.argv[1]), parse_constant=reject)["rows"]
missing = {"stop_reason", "outer_iterations", "comm_per_node_max"} - set(row)
if missing or "budget_exhausted" in row:
    sys.exit(f"{sys.argv[1]}: the row does not carry the summary names: {sorted(row)}")
if row["converged"] is not True:
    sys.exit(f"{sys.argv[1]}: the matrix row did not converge")
' "$dir/report.json"
printf '4\n1 2\n2 3\n3 4\n1 4\n' > "$dir/ring.txt"
$cli gen --topology edge-file --edge-file "$dir/ring.txt" --ng 4 --out "$dir/ring.json"
python -c '
import json, sys
if len(json.load(open(sys.argv[1]))["nodes"]) != 4:
    sys.exit(f"{sys.argv[1]}: not the 4 nodes of the edge file")
' "$dir/ring.json"

# reject WHAT ARGS...: dfalopt ARGS exits with status 2, one error line and
# no traceback
reject() {
    what=$1
    shift
    status=0
    $cli "$@" 2> "$dir/err.txt" || status=$?
    cat "$dir/err.txt"
    if [ "$status" -ne 2 ]; then
        echo "$what: exit status $status, not 2" >&2
        exit 1
    fi
    if [ "$(grep -c '^dfalopt: error: ' "$dir/err.txt")" -ne 1 ] ||
        grep -q Traceback "$dir/err.txt"; then
        echo "$what: not exactly one error line" >&2
        exit 1
    fi
}

# malformed WHAT EDIT: ref --instance rejects inst.json changed by the Python
# lines EDIT on its JSON object raw
malformed() {
    python -c "
import json, sys
raw = json.load(open(sys.argv[1]))
$2
json.dump(raw, open(sys.argv[2], 'w'))
" "$dir/inst.json" "$dir/bad.json"
    reject "$1" ref --instance "$dir/bad.json" --out "$dir/bad_ref.json"
}
malformed "nodes that are null" 'raw["nodes"] = None'
malformed "true in A" 'raw["nodes"][0]["A"][0][0] = True'
malformed "A widths that differ" '
node = raw["nodes"][1]
node["A"] = [row + [0.5, -0.5] for row in node["A"]]
node["groups"].append([len(node["A"][0]) - 1, len(node["A"][0])])'
echo '{"algorithms": ["afal"]}' > "$dir/cfg.json"
reject "an unknown algorithm" bench --config "$dir/cfg.json" --out "$dir/report.json"
echo '{"N": 3}' > "$dir/cfg.json"
reject "sizes that do not fit" bench --config "$dir/cfg.json" --out "$dir/report.json"
reject "zero ADMM iterations" solve --alg sadmm --iters 0 --out "$dir/bad.csv"
reject "case 3" gen --case 3 --out "$dir/bad.json"
echo "command line end to end: ok"
