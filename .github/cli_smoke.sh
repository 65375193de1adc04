#!/bin/sh
# The command line end to end, each step its own process: gen writes an
# instance file, ref --instance solves its reference, solve runs dfal and
# writes a strict-JSON summary, and solve --alg apg runs the case-1 reference
# (through ms_apg) to a strict-JSON summary that says it converged.  A
# malformed instance file (null nodes, true in an A, A widths that differ)
# must end in exit status 2 with exactly one "dfalopt: error:" line and no
# traceback.
# Run from the repository root: sh .github/cli_smoke.sh
set -eu
export PYTHONPATH=src
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cli="python -m dfalopt.cli"

$cli gen --case 2 --seed 1 --out "$dir/inst.json"
$cli ref --instance "$dir/inst.json" --out "$dir/ref.json"
$cli solve --alg dfal --case 2 --seed 1 --out "$dir/run.csv"
$cli solve --alg apg --case 1 --seed 1 --out "$dir/apg.csv"
python -c '
import json, sys
def load(path):
    def reject(token):
        sys.exit(f"{path}: {token} is not JSON")
    return json.load(open(path), parse_constant=reject)
load(sys.argv[1])
if load(sys.argv[2])["converged"] is not True:
    sys.exit(f"{sys.argv[2]}: the case-1 reference did not converge")
' "$dir/run.csv.summary.json" "$dir/apg.csv.summary.json"

# each malformed instance file: exit status 2, one error line, no traceback
reject() {
    python -c "
import json, sys
raw = json.load(open(sys.argv[1]))
$2
json.dump(raw, open(sys.argv[2], 'w'))
" "$dir/inst.json" "$dir/bad.json"
    status=0
    $cli ref --instance "$dir/bad.json" --out "$dir/bad_ref.json" 2> "$dir/err.txt" || status=$?
    cat "$dir/err.txt"
    if [ "$status" -ne 2 ]; then
        echo "$1: exit status $status, not 2" >&2
        exit 1
    fi
    if [ "$(grep -c '^dfalopt: error: ' "$dir/err.txt")" -ne 1 ] ||
        grep -q Traceback "$dir/err.txt"; then
        echo "$1: not exactly one error line" >&2
        exit 1
    fi
}
reject "nodes that are null" 'raw["nodes"] = None'
reject "true in A" 'raw["nodes"][0]["A"][0][0] = True'
reject "A widths that differ" '
node = raw["nodes"][1]
node["A"] = [row + [0.5, -0.5] for row in node["A"]]
node["groups"].append([len(node["A"][0]) - 1, len(node["A"][0])])'
echo "command line end to end: ok"
