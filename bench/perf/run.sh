#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it. Every
# argument goes to perf.exe; see bench/perf/README.md.
set -euo pipefail
cd "$(dirname "$0")/../.."
exec dune exec --root . --display quiet bench/perf/perf.exe -- "$@"
