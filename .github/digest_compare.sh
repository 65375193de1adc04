#!/usr/bin/env bash
# Compare the output digest of the checked-out tree with the one of a base
# commit, each printed by its own tools/digest.py, and write a Markdown report
# to stdout (`tools/digest.py --compare`): whether the full digest is equal,
# how many entries are equal and how many differ, how many of the differing
# ones keep their run hash (only their budgets changed), the equal ones by
# name, and each entry whose hash differs or that only one side has.  The
# base is checked out in a temporary git worktree, which is removed at exit.  A base without tools/digest.py is
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
python3 tools/digest.py --compare "$dir/base.json" "$dir/change.json"
