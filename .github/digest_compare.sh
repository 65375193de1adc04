#!/usr/bin/env bash
# Compare the output digest of the checked-out tree with the one of a base
# commit, each printed by its own tools/digest.py, and write a Markdown report
# to stdout: whether the full digest is equal, how many entries are equal and
# how many differ, the equal ones by name, and each entry whose hash differs
# or that only one side has.  The base is checked out in a temporary
# git worktree, which is removed at exit.  A base without tools/digest.py is
# reported as such, with status 0.  Float bits may differ between numpy
# builds, so both sides run on this machine and this numpy.
# Run from the repository root: bash -e .github/digest_compare.sh <base-commit>
set -euo pipefail
base=$1
dir=$(mktemp -d)
trap 'git worktree remove --force "$dir/base" 2>/dev/null || true; rm -rf "$dir"' EXIT

echo "### Digest against the base (\`$(git rev-parse --short "$base")\`)"
if ! git cat-file -e "$base:tools/digest.py" 2>/dev/null; then
  echo "The base has no \`tools/digest.py\`, so there is nothing to compare."
  exit 0
fi
git worktree add --quiet --detach "$dir/base" "$base"
python3 tools/digest.py > "$dir/change.json"
python3 "$dir/base/tools/digest.py" > "$dir/base.json"
python3 - "$dir/base.json" "$dir/change.json" <<'EOF'
import json
import sys

base, change = (json.load(open(path)) for path in sys.argv[1:])
same = base["digest"] == change["digest"]
print(f"Full digest {'equal' if same else 'differs'}: base `{base['digest'][:16]}…`, "
      f"change `{change['digest'][:16]}…`.")
old, new = base["entries"], change["entries"]
both = old.keys() & new.keys()
equal = sorted(name for name in both if old[name] == new[name])
one_side = len(old.keys() ^ new.keys())
print(f"{len(equal)} entries equal, {len(both) - len(equal)} differ"
      + (f", {one_side} on one side only." if one_side else "."))
if equal:
    print("Equal: " + ", ".join(f"`{name}`" for name in equal) + ".")
for name in sorted(old.keys() | new.keys()):
    if name not in new:
        print(f"- `{name}`: only in the base")
    elif name not in old:
        print(f"- `{name}`: only in the change")
    elif old[name] != new[name]:
        print(f"- `{name}` differs: `{old[name][:16]}…` -> `{new[name][:16]}…`")
EOF
