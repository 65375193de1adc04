#!/bin/sh
# The command line end to end, each step its own process: gen writes an
# instance file, ref --instance solves its reference, solve runs dfal and
# writes a strict-JSON summary.  A malformed instance file must end in exit
# status 2 with exactly one "dfalopt: error:" line and no traceback.
# Run from the repository root: sh .github/cli_smoke.sh
set -eu
export PYTHONPATH=src
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cli="python -m dfalopt.cli"

$cli gen --case 2 --seed 1 --out "$dir/inst.json"
$cli ref --instance "$dir/inst.json" --out "$dir/ref.json"
$cli solve --alg dfal --case 2 --seed 1 --out "$dir/run.csv"
python -c '
import json, sys
def reject(token):
    sys.exit(f"{sys.argv[1]}: {token} is not JSON")
json.load(open(sys.argv[1]), parse_constant=reject)
' "$dir/run.csv.summary.json"

python -c '
import json, sys
raw = json.load(open(sys.argv[1]))
raw["nodes"] = None
json.dump(raw, open(sys.argv[2], "w"))
' "$dir/inst.json" "$dir/bad.json"
status=0
$cli ref --instance "$dir/bad.json" --out "$dir/bad_ref.json" 2> "$dir/err.txt" || status=$?
cat "$dir/err.txt"
if [ "$status" -ne 2 ]; then
    echo "malformed instance file: exit status $status, not 2" >&2
    exit 1
fi
if [ "$(grep -c '^dfalopt: error: ' "$dir/err.txt")" -ne 1 ] ||
    grep -q Traceback "$dir/err.txt"; then
    echo "malformed instance file: not exactly one error line" >&2
    exit 1
fi
echo "command line end to end: ok"
