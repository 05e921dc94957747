#!/usr/bin/env bash
# Offline release build of psmbench, then `psmbench run` with the given
# flags (see README.md; no flags measures all six workloads both ways).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- run "$@"
