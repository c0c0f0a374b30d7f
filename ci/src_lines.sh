#!/usr/bin/env bash
# Non-test source lines: per file, the lines before its first `#[cfg(test)]`
# (the whole file when it has no test module), summed per crate and in total.
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
