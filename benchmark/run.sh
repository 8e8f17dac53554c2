#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
# Usage, from the repository root:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Cargo writes only to stderr, so the benchmark's JSON result stays the
# last line of stdout. The build honours CARGO_TARGET_DIR (default:
# benchmark/target). Without the repository's crates next to this
# directory the build fails and the script exits non-zero.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --locked --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/faasnap-benchmark" "$@"
