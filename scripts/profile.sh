#!/usr/bin/env bash
# One-command CPU profile of any bench binary invocation:
#
#   scripts/profile.sh mobility                 # profile the full sweep
#   scripts/profile.sh -n 40 scale -- --jobs 1  # top 40, scaling sweep
#   scripts/profile.sh tables -- --quick --table 5
#
# Builds the binary in release (with frame pointers kept so the collector
# can unwind), records one run under gprofng (falling back to perf when
# gprofng is absent), and prints the top-N functions by *inclusive* CPU
# time — the view that answers "which subsystem is the run spending its
# wall clock under?". The raw experiment directory is left in
# target/profile/ for deeper digging (gprofng display text / perf report).
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
bin="${1:?usage: profile.sh [-n TOP] <bench-bin> [-- args...]}"
shift
[ "${1:-}" = "--" ] && shift

echo "== build $bin (release, frame pointers) =="
RUSTFLAGS="${RUSTFLAGS:-} -C force-frame-pointers=yes" \
  cargo build --release -p macaw-bench --bin "$bin"
exe="target/release/$bin"

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
