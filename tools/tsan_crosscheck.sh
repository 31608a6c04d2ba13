#!/bin/sh
# Cross-validates the profiler's race report (Sec. V-B) against
# ThreadSanitizer as an external oracle, in both directions, on the
# task-graph family:
#
#   depprof -> TSan   every var depprof confirms maps to a probe mode a
#                     native (profiler-free) TSan run also flags;
#   TSan -> depprof   the race-free DAG is silent under both tools.
#
# Wants a ThreadSanitizer build tree (-fsanitize=thread).  The depprof runs
# set TSAN_OPTIONS=exitcode=0 because the racy workload's *intentional*
# races would otherwise fail the profiling process itself; the probe runs
# use the default error exitcode as the corroboration signal.
#
# usage: tsan_crosscheck.sh <depprof-binary> <tsan_probe-binary>
set -eu

DEPPROF=${1:?usage: tsan_crosscheck.sh <depprof> <tsan_probe>}
PROBE=${2:?usage: tsan_crosscheck.sh <depprof> <tsan_probe>}

fail() { echo "tsan_crosscheck: FAIL: $*" >&2; exit 1; }

# Direction 1: depprof's report on the racy variant must confirm every
# injected site by name, and must confirm nothing on the race-free DAG.
# (stderr dropped: TSan rightly reports the workload's intentional races
# during the profiling run itself, which is noise here.)
json=$(TSAN_OPTIONS="exitcode=0" "$DEPPROF" run taskgraph-racy --races \
       --mt-threads 2 --storage packed --format json 2>/dev/null) \
  || fail "depprof run on taskgraph-racy did not exit cleanly"
for var in race0 race1 race2; do
  echo "$json" | grep -q "\"var\": \"$var\".*\"confirmed\": true" \
    || fail "depprof did not confirm injected race '$var'"
done
clean=$(TSAN_OPTIONS="exitcode=0" "$DEPPROF" run taskgraph --races \
        --mt-threads 2 --storage packed 2>/dev/null) \
  || fail "depprof run on taskgraph did not exit cleanly"
echo "$clean" | grep -q "0 confirmed" \
  || fail "depprof confirmed a race on the race-free DAG"

# Direction 2: TSan must corroborate each armed site on a native run (the
# probe exits with TSan's error exitcode when a race is reported) and must
# stay silent on the race-free mode.
for site in 0 1 2; do
  if TSAN_OPTIONS="exitcode=66" "$PROBE" "$site" >/dev/null 2>&1; then
    fail "TSan did not corroborate injected race site $site"
  fi
done
TSAN_OPTIONS="exitcode=66" "$PROBE" none >/dev/null 2>&1 \
  || fail "TSan flagged the race-free task graph"

echo "tsan_crosscheck: OK (3 sites corroborated, race-free DAG silent)"
