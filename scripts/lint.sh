#!/bin/sh
# Lint gate for every workspace crate: warnings are errors.
set -eu
cd "$(dirname "$0")/.."
cargo clippy -q -p charm-pup -p charm-machine -p charm-core -p charm-lb \
    -p charm-tram -p charm-sort -p charm-ampi \
    -p charm-apps -p charm-replay -p charm-bench \
    --all-targets -- -D warnings
echo "clippy clean: all workspace crates"
