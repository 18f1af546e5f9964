#!/usr/bin/env bash
# One-command CPU profile of perfbench or of any bench binary invocation:
#
#   scripts/profile.sh perfbench -- --workload campus_walk --seconds 60 --trace 0
#   scripts/profile.sh mobility                 # profile the full sweep
#   scripts/profile.sh -n 40 scale -- --jobs 1  # top 40, scaling sweep
#   scripts/profile.sh tables -- --quick --table 5
#
# Builds the binary in release with frame pointers (so the collector can
# unwind) and line tables, into target/profile-build so that these flags
# never invalidate the plain release build in target/release. Records one
# run under gprofng (falling back to perf when gprofng is absent) and
# prints the top-N functions by *inclusive* CPU time — the view that
# answers "which subsystem is the run spending its wall clock under?".
# The raw experiment directory is left in target/profile/ for deeper
# digging (gprofng display text / perf report).
#
# gprofng on a shared VM records only a fraction of the clock ticks
# (about 2 CPU-s from a 25 s run), so profile runs of 60 s or more:
# perfbench's `--seconds 60`, or a bench binary's full sweep.
set -euo pipefail
cd "$(dirname "$0")/.."

top=25
while [ $# -gt 0 ]; do
  case "$1" in
    -n) top="${2:?-n needs a count}"; shift 2 ;;
    -h|--help) grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *) break ;;
  esac
done
bin="${1:?usage: profile.sh [-n TOP] <perfbench|bench-bin> [-- args...]}"
shift
[ "${1:-}" = "--" ] && shift

echo "== build $bin (release, frame pointers, line tables) =="
export CARGO_TARGET_DIR=target/profile-build
export CARGO_PROFILE_RELEASE_DEBUG=line-tables-only
export RUSTFLAGS="${RUSTFLAGS:-} -C force-frame-pointers=yes"
if [ "$bin" = perfbench ]; then
  cargo build --release --offline --manifest-path perfbench/Cargo.toml --bin perfbench
else
  cargo build --release --offline -p macaw-bench --bin "$bin"
fi
exe="$CARGO_TARGET_DIR/release/$bin"

mkdir -p target/profile
stamp="$(date +%Y%m%d-%H%M%S)"
if command -v gprofng >/dev/null 2>&1; then
  expdir="target/profile/$bin-$stamp.er"
  echo "== gprofng collect: $exe $* =="
  gprofng collect app -o "$expdir" "$exe" "$@"
  echo
  echo "== top $top functions by inclusive CPU time ($expdir) =="
  gprofng display text -metrics i.totalcpu:e.totalcpu \
    -sort i.totalcpu -limit "$top" -functions "$expdir"
elif command -v perf >/dev/null 2>&1; then
  data="target/profile/$bin-$stamp.perf.data"
  echo "== perf record: $exe $* =="
  perf record -g --call-graph fp -o "$data" -- "$exe" "$@"
  echo
  echo "== top $top functions by inclusive (children) CPU time ($data) =="
  perf report -i "$data" --stdio --children --sort symbol 2>/dev/null |
    grep -v '^#' | head -n "$top"
else
  echo "profile.sh: neither gprofng nor perf is installed" >&2
  exit 1
fi
