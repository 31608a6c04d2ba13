#!/bin/sh
# Trace-replay regression: a recorded trace must replay to the live run's map.
#
# Records mg with examples/profile_trace, then requires
# `depprof replay FILE --storage packed --format csv` to print the CSV of
# `depprof run mg --storage packed --format csv` byte for byte.  Trace
# files carry process-local ids, so the file embeds the tables a fresh
# process needs to re-intern them: the nest table (with each entry's parent
# iteration, which the detector reads enclosing counters from) and the
# variable table (without it every replayed variable prints as `?`).
set -e

DEPPROF="$1"
RECORDER="$2"
[ -x "$DEPPROF" ] && [ -x "$RECORDER" ] || {
  echo "usage: $0 <depprof> <profile_trace>" >&2
  exit 2
}

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

"$RECORDER" mg "$TMP/mg.trace" > /dev/null
"$DEPPROF" run mg --storage packed --format csv > "$TMP/live.csv"
"$DEPPROF" replay "$TMP/mg.trace" --storage packed --format csv \
  > "$TMP/replay.csv"

if ! cmp -s "$TMP/live.csv" "$TMP/replay.csv"; then
  echo "replayed map differs from the live run:" >&2
  diff "$TMP/live.csv" "$TMP/replay.csv" | head -20 >&2
  exit 1
fi
echo "ok: $(wc -l < "$TMP/live.csv") CSV lines match"
