#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it; arguments go to the
# program unchanged — see `run.sh --help`. A full run appends its records to
# benchmark/history.jsonl unless --out names another file.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
exec cargo run --quiet --offline --release --manifest-path "$here/Cargo.toml" -- \
    --out "$here/history.jsonl" "$@"
