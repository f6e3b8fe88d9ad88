#!/bin/sh
# Print each workspace crate's non-test source lines, then their total:
# every `.rs` file under the crate's `src` (its binaries included), up
# to the `#[cfg(test)]` that opens the file's test module. Only a
# column-0 attribute on a `mod` item ends a file's count, so an inline
# `#[cfg(test)]` inside a function body does not.
#
#   scripts/nontest_lines.sh        # `code.nontest_lines.<crate> N` lines
set -eu
cd "$(dirname "$0")/.."

total=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    name=$(sed -n 's/^name = "\(.*\)"$/\1/p' "$manifest" | head -n 1)
    lines=$(find "$dir/src" -name '*.rs' | sort | xargs awk '
        FNR == 1 { in_tests = 0 }
        pending && /^(pub(\(crate\))? )?mod / { in_tests = 1 }
        { pending = 0 }
        /^#\[cfg\(test\)\]/ { pending = 1 }
        !in_tests && !pending { n++ }
        END { print n + 0 }')
    echo "code.nontest_lines.$name $lines"
    total=$((total + lines))
done
echo "code.nontest_lines.total $total"
