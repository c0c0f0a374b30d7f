#!/usr/bin/env bash
# Non-test source lines: per file, the lines before its first `#[cfg(test)]`
# (the whole file when it has no test module), summed per crate and in total.
# A file that a test-gated `mod name;` declaration pulls in (`#[cfg(test)]`
# on the line before it) is test code as a whole and counts zero.
#
#   ci/src_lines.sh            # every .rs file under a src/ directory of crates/
#                              # (the compat stand-ins included)
#   ci/src_lines.sh FILE...    # only the files given
#
# Simplicity PRs quote these numbers; run it at the parent and at the change.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
    files=("$@")
else
    mapfile -t files < <(find crates -name '*.rs' -path '*/src/*' | sort)
fi

# The files behind test-gated `mod` declarations: `name.rs` or `name/mod.rs`
# beside a `lib.rs`/`main.rs`/`mod.rs`, under `stem/` for any other `stem.rs`.
mapfile -t test_only < <(find crates -name '*.rs' -path '*/src/*' -exec awk '
    FNR == 1 { gated = 0 }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { gated = FNR; next }
    gated == FNR - 1 && /^[[:space:]]*(pub )?mod [A-Za-z0-9_]+;/ {
        name = $0
        sub(/^[[:space:]]*(pub )?mod /, "", name)
        sub(/;.*/, "", name)
        dir = FILENAME
        sub(/\/[^\/]*$/, "", dir)
        base = FILENAME
        sub(/^.*\//, "", base)
        if (base != "lib.rs" && base != "main.rs" && base != "mod.rs") {
            sub(/\.rs$/, "", base)
            dir = dir "/" base
        }
        print dir "/" name ".rs"
        print dir "/" name "/mod.rs"
    }
' {} +)
kept=()
for f in "${files[@]}"; do
    skip=0
    for t in "${test_only[@]}"; do
        [ "${f#./}" = "$t" ] && skip=1
    done
    [ "$skip" = 0 ] && kept+=("$f")
done
files=("${kept[@]}")

awk '
    FNR == 1 { counting = 1 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
    counting {
        lines[FILENAME]++
        split(FILENAME, part, "/")
        per_crate[part[1] "/" part[2]]++
        total++
    }
    END {
        for (f in lines) printf "%7d  %s\n", lines[f], f | "sort -k2"
        close("sort -k2")
        print "-------"
        for (c in per_crate) printf "%7d  %s\n", per_crate[c], c | "sort -k2"
        close("sort -k2")
        print "-------"
        printf "%7d  total\n", total
    }
' "${files[@]}"
