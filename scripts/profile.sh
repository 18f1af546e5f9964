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
# answers "which subsystem is the run spending its wall clock under?" —
# then the callers of every glibc function in that table that gprofng
# names only by address (malloc's internals are the usual ones).
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
  table="$(gprofng display text -metrics i.totalcpu:e.totalcpu \
    -sort i.totalcpu -limit "$top" -functions "$expdir")"
  echo "$table"
  # gprofng names glibc's internal functions (malloc's among them) only by
  # address, so an allocator-bound run shows up above as anonymous
  # `<static>@0x… (<libc.so.6>)` rows. Name them by their callers.
  # -callers-callees takes no function argument: it prints one block per
  # function, callers above the starred function and callees below it,
  # and awk keeps the caller lines of each wanted block.
  statics="$(grep -o '<static>@0x[0-9a-f]* (<libc\.so\.[0-9]*>)' <<<"$table" | sort -u || true)"
  if [ -n "$statics" ]; then
    cc="$(gprofng display text -metrics i.totalcpu -callers-callees "$expdir")"
    while IFS= read -r fn; do
      echo
      echo "== callers of $fn (attributed CPU s) =="
      awk -v f="$fn" 'BEGIN { RS = ""; FS = "\n" }
        {
          # Lines 1-3 of a block are the column header. A name may carry
          # a note ("-- no functions found"), so match it as a prefix.
          for (i = 4; i <= NF; i++) {
            name = $i
            sub(/^[0-9.]+ +/, "", name)
            if (substr(name, 1, length(f) + 1) == "*" f) {
              found = 1
              for (j = 4; j < i; j++) print $j
              if (i == 4) print "(no callers recorded)"
            }
          }
        }
        END { if (!found) print "(no block for it in -callers-callees)" }' <<<"$cc"
    done <<<"$statics"
  fi
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
