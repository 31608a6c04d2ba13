#!/bin/sh
# Cross-attribution schedule-replay regression (PR 7).
#
# Replays the committed schedule tests/corpus/is_unpacked_w8_cross_attribution.sched
# against `depprof run is --slots 337311 --parallel --workers 8`
# and requires the dependence map to match the serial run byte for byte.
#
# Before the ChunkPool was sealed, the first recording of this schedule
# failed every run: it starved the workers so the producer's grow-on-demand
# pool ran `new Chunk()` mid-profile, which shifted the target's own heap
# layout until IS's mid-run `cursor` allocation aliased `sorted` in the
# modulo signature.  The committed schedule is re-recorded against the
# current hand-off points (see the header of the .sched file for the
# measured deltas).  With the sealed pool the layout is
# schedule-independent and the replay is clean; the script prints the
# controller's summary line before `ok`.
#
# The failure is a heap-layout property, so the demonstration pins every
# input the layout depends on:
#   - ASLR off via setarch -R when available (plain fallback; the sealed-pool
#     profiler passes either way),
#   - a scrubbed environment (env -i + a fixed variable set) because the size
#     of the environment block shifts the target heap by tens of thousands of
#     words — enough to move the cursor allocation out of (or into) sorted's
#     aliasing window,
#   - fixed-length argv: the binary and the schedule are copied to constant
#     paths under /tmp/dp7regress before running, since argv strings sit in
#     the same stack region as the environment.
# The slot count 337311 was solved against deltas measured under exactly this
# shape: pre-fix scheduled delta 2708488 = 8*337311 + 10000 lands mid-window,
# while the post-fix (33168), serial (33348), and keys-pair (53200/53380)
# deltas all stay clear.
#
# That solution assumes glibc's heap.  Another allocator (ASan's size-class
# regions, for one) can put the *serial* run's `cursor` within sorted's
# 20000-word span of a multiple of the slot count, the window the slot count
# was solved to keep clear; the replay then compares two layouts it was not
# built for and proves nothing about the pool.  The script checks the serial
# delta first and, only in that case, prints it and exits 77, which ctest
# reports as Skipped (SKIP_RETURN_CODE in tests/CMakeLists.txt).
set -e

SLOTS=337311
SORTED_SPAN=20000

DEPPROF="$1"
SCHED="$2"
[ -x "$DEPPROF" ] || { echo "usage: $0 <depprof> <schedule-file>" >&2; exit 2; }
[ -f "$SCHED" ] || { echo "missing schedule file: $SCHED" >&2; exit 2; }

WRAP=""
if command -v setarch >/dev/null 2>&1; then
  if setarch "$(uname -m)" -R true 2>/dev/null; then
    WRAP="$(command -v setarch) $(uname -m) -R"
  fi
fi

# Fixed path, not mktemp: the path length is part of the pinned layout.
TMP=/tmp/dp7regress
rm -rf "$TMP"
mkdir -p "$TMP"
trap 'rm -rf "$TMP"' EXIT
cp "$DEPPROF" "$TMP/depprof"
cp "$SCHED" "$TMP/s.sched"

env -i DEPPROF_LAYOUT_DIAG=1 \
  $WRAP "$TMP/depprof" run is --slots $SLOTS --format csv \
  > "$TMP/serial.csv" 2> "$TMP/serial.err"

DELTA=$(sed -n 's/^layout-diag: is cursor-sorted delta_words=//p' "$TMP/serial.err")
case "$DELTA" in
  ''|*[!0-9-]*) echo "FAIL: no layout-diag delta from the serial run" >&2; exit 1 ;;
esac
REM=$(( (DELTA % SLOTS + SLOTS) % SLOTS ))
if [ "$REM" -lt "$SORTED_SPAN" ] || [ $((SLOTS - REM)) -lt "$SORTED_SPAN" ]; then
  echo "skip: serial cursor-sorted delta_words=$DELTA is $REM mod $SLOTS," \
    "within $SORTED_SPAN words of a multiple: the serial layout breaks the" \
    "replay's precondition"
  exit 77
fi

env -i DEPPROF_LAYOUT_DIAG=1 DEPPROF_SCHED=1 DEPPROF_SCHED_SEED=10 \
  DEPPROF_SCHED_ALGO=pct DEPPROF_SCHED_REPLAY="$TMP/s.sched" \
  $WRAP "$TMP/depprof" run is --slots $SLOTS --parallel --workers 8 \
  --format csv > "$TMP/parallel.csv" 2> "$TMP/parallel.err"

if ! cmp -s "$TMP/serial.csv" "$TMP/parallel.csv"; then
  echo "FAIL: scheduled parallel run diverged from the serial map" >&2
  echo "--- layout diagnostics:" >&2
  grep -h layout-diag "$TMP/serial.err" "$TMP/parallel.err" >&2 || true
  echo "--- serial vs parallel diff (cross-attribution regression):" >&2
  diff "$TMP/serial.csv" "$TMP/parallel.csv" >&2 || true
  exit 1
fi
grep '^sched:' "$TMP/parallel.err" || true
echo "ok: schedule replay matches the serial map"
