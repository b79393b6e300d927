#!/bin/sh
# List every value a library interface (lib/**/*.mli) exports that no
# other file in lib/, bin/, bench/, test/ or examples/ mentions: a name
# found only in its own .ml and .mli is dead weight in the interface.
# Exits 1 when any such name is missing from the allow-list below.
# The scan matches bare words, so an export whose name other code uses
# for something else passes it.
# Run from the repository root: sh scripts/unused_exports.sh
set -e

# Public API kept on purpose although nothing in the tree calls it:
# one "Module.value" per line, a "#" comment after it saying why.
allow='
'

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Every (file, word) pair of the tree, once.
grep -roE --include='*.ml' --include='*.mli' --exclude-dir=_build \
  "[A-Za-z_][A-Za-z0-9_']*" lib bin bench test examples | sort -u >"$tmp/words"

# Every exported value as "interface value".
for mli in $(find lib -name '*.mli' | sort); do
  sed -n "s/^[[:space:]]*val[[:space:]][[:space:]]*\([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" |
    sort -u | sed "s|^|$mli |"
done >"$tmp/vals"

awk -v allow="$allow" '
  BEGIN {
    n = split(allow, lines, "\n")
    for (k = 1; k <= n; k++) {
      sub(/#.*/, "", lines[k]); gsub(/[[:space:]]/, "", lines[k])
      if (lines[k] != "") ok[lines[k]] = 1
    }
  }
  FILENAME == ARGV[1] {
    i = index($0, ":"); file = substr($0, 1, i - 1); word = substr($0, i + 1)
    files[word] = files[word] " " file
    next
  }
  {
    mli = $1; v = $2; ml = substr(mli, 1, length(mli) - 1)
    n = split(files[v], fs, " "); used = 0
    for (k = 1; k <= n; k++) if (fs[k] != mli && fs[k] != ml) { used = 1; break }
    if (used) next
    m = mli; sub(/.*\//, "", m); sub(/\.mli$/, "", m)
    name = toupper(substr(m, 1, 1)) substr(m, 2) "." v
    if (name in ok) { print mli ": " name " (allowed)"; next }
    print mli ": " name
    bad = 1
  }
  END { exit bad }
' "$tmp/words" "$tmp/vals"
