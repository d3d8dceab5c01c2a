#!/usr/bin/env bash
# Proves the parallel substrate's determinism contract end to end: runs the
# kernel smoke workload (bench_kernels --smoke) single-threaded and at a
# deliberately oversubscribed width, then diffs the per-kernel bit-level
# checksums. Any float that differs by even one ULP fails the diff.
#
# When given a bench_serving_throughput binary it additionally proves the
# serving contracts: its --smoke checksums must match between the two
# widths, AND within each run every logits_session* digest must equal its
# logits_per_request* counterpart — the session (the one serving engine
# behind ServeOn*) is bit-identical to the from-scratch ComposeDeployment
# reference, not just self-consistent (docs/performance.md). The smoke
# prints these pairs for SGC, GraphSAGE and Cheby, one architecture per
# operator kind a session composes, on both deployments.
#
# When given a bench_condense_scale binary it also proves the out-of-core
# contract: its --smoke digests must match between the two widths AND
# between prefetch off (MCOND_PREFETCH_SEGMENTS=0) and on (=3) — the
# background segment prefetcher changes timing only, never bits. Within
# each run every streamed_<tag> digest must equal its resident_<tag>
# counterpart — the segment-store kernels (SpMM, row sums, normalization,
# propagation, block composition, edge sampling) and a full condense round
# are bit-identical to the resident path at every thread count, segment
# partition and prefetch depth (docs/performance.md). The condense smoke
# runs on the scalar tier, and again on the AVX2 tier when the CPU has
# avx2+fma (skipped with a message otherwise).
#
# When given a bench_net_throughput binary it also proves the network
# loopback contract: its --smoke digests must match between the two widths,
# AND within each run every net_<tag> digest must equal its inproc_<tag>
# counterpart — logits served over the wire protocol (loopback TCP, two
# tenants concurrently from one registry, server replicas K=1 and K=8) are
# bit-identical to in-process ConcurrentServer calls on the same tenants
# (docs/serving.md).
#
# Usage: check_determinism.sh <path-to-bench_kernels> [wide_thread_count]
#                             [path-to-bench_serving_throughput]
#                             [path-to-bench_condense_scale]
#                             [path-to-bench_net_throughput]
# Registered as a ctest (see bench/CMakeLists.txt), so `ctest` runs it on
# every build — including the single-core CI case, where the wide run still
# exercises the pool's worker threads via preemption.
set -euo pipefail

BENCH="${1:?usage: check_determinism.sh <bench_kernels binary> [threads] [bench_serving_throughput binary] [bench_condense_scale binary]}"
WIDE="${2:-8}"
SERVING="${3:-}"
CONDENSE="${4:-}"
NET="${5:-}"

narrow=$(MCOND_NUM_THREADS=1 "$BENCH" --smoke | grep -v '^threads ')
wide=$(MCOND_NUM_THREADS="$WIDE" "$BENCH" --smoke | grep -v '^threads ')

if [[ "$narrow" != "$wide" ]]; then
  echo "DETERMINISM FAILURE: kernel checksums differ between 1 and $WIDE threads" >&2
  diff <(echo "$narrow") <(echo "$wide") >&2 || true
  exit 1
fi

echo "OK: kernel checksums identical at 1 and $WIDE threads"
echo "$narrow"

if [[ -n "$SERVING" ]]; then
  s_narrow=$(MCOND_NUM_THREADS=1 "$SERVING" --smoke | grep -v '^threads ')
  s_wide=$(MCOND_NUM_THREADS="$WIDE" "$SERVING" --smoke | grep -v '^threads ')

  if [[ "$s_narrow" != "$s_wide" ]]; then
    echo "DETERMINISM FAILURE: serving checksums differ between 1 and $WIDE threads" >&2
    diff <(echo "$s_narrow") <(echo "$s_wide") >&2 || true
    exit 1
  fi

  # Pair check: logits_session_<tag> must equal logits_per_request_<tag>.
  while read -r name digest; do
    case "$name" in
      logits_per_request*)
        tag="${name#logits_per_request}"
        session=$(echo "$s_narrow" | awk -v n="logits_session$tag" \
                  '$1 == n {print $2}')
        if [[ -z "$session" ]]; then
          echo "DETERMINISM FAILURE: no logits_session$tag line to pair with $name" >&2
          exit 1
        fi
        if [[ "$session" != "$digest" ]]; then
          echo "DETERMINISM FAILURE: session logits differ from per-request for '$tag'" >&2
          echo "  per_request $digest" >&2
          echo "  session     $session" >&2
          exit 1
        fi
        ;;
    esac
  done <<< "$s_narrow"

  # Concurrent check: the order-invariant digest sums from the replica-pool
  # server must equal the expected (clients x solo) sum at K=1 AND at the
  # oversubscribed, micro-batched K=8 — concurrency and coalescing change
  # no bits.
  while read -r name digest; do
    case "$name" in
      logits_concurrent_expected*)
        tag="${name#logits_concurrent_expected}"
        for k in k1 k8; do
          got=$(echo "$s_narrow" | awk -v n="logits_concurrent_${k}$tag" \
                '$1 == n {print $2}')
          if [[ -z "$got" ]]; then
            echo "DETERMINISM FAILURE: no logits_concurrent_${k}$tag line to pair with $name" >&2
            exit 1
          fi
          if [[ "$got" != "$digest" ]]; then
            echo "DETERMINISM FAILURE: concurrent ($k) logits differ from solo for '$tag'" >&2
            echo "  expected   $digest" >&2
            echo "  concurrent $got" >&2
            exit 1
          fi
        done
        ;;
    esac
  done <<< "$s_narrow"

  echo "OK: serving checksums identical at 1 and $WIDE threads, session == per-request, concurrent == solo at K=1 and K=8"
  echo "$s_narrow"
fi

# check_condense <tier label> [VAR=value ...]: the out-of-core contract on
# one SIMD tier (the extra assignments are passed to every smoke run).
check_condense() {
  local tier="$1"
  shift
  # Four combos: {1, WIDE} threads x prefetch {off, on}. The `threads` and
  # `prefetch` echo lines differ by construction; every digest line must not.
  local c_narrow c_wide c_narrow_pf c_wide_pf
  c_narrow=$(env "$@" MCOND_NUM_THREADS=1 MCOND_PREFETCH_SEGMENTS=0 \
             "$CONDENSE" --smoke | grep -Ev '^(threads|prefetch) ')
  c_wide=$(env "$@" MCOND_NUM_THREADS="$WIDE" MCOND_PREFETCH_SEGMENTS=0 \
           "$CONDENSE" --smoke | grep -Ev '^(threads|prefetch) ')
  c_narrow_pf=$(env "$@" MCOND_NUM_THREADS=1 MCOND_PREFETCH_SEGMENTS=3 \
                "$CONDENSE" --smoke | grep -Ev '^(threads|prefetch) ')
  c_wide_pf=$(env "$@" MCOND_NUM_THREADS="$WIDE" MCOND_PREFETCH_SEGMENTS=3 \
              "$CONDENSE" --smoke | grep -Ev '^(threads|prefetch) ')

  if [[ "$c_narrow" != "$c_wide" ]]; then
    echo "DETERMINISM FAILURE ($tier): out-of-core checksums differ between 1 and $WIDE threads" >&2
    diff <(echo "$c_narrow") <(echo "$c_wide") >&2 || true
    exit 1
  fi
  if [[ "$c_narrow" != "$c_narrow_pf" ]]; then
    echo "DETERMINISM FAILURE ($tier): out-of-core checksums differ between prefetch off and on (1 thread)" >&2
    diff <(echo "$c_narrow") <(echo "$c_narrow_pf") >&2 || true
    exit 1
  fi
  if [[ "$c_narrow" != "$c_wide_pf" ]]; then
    echo "DETERMINISM FAILURE ($tier): out-of-core checksums differ between prefetch off and on ($WIDE threads)" >&2
    diff <(echo "$c_narrow") <(echo "$c_wide_pf") >&2 || true
    exit 1
  fi

  # Pair check: every streamed_<tag> must equal resident_<tag> — the
  # segment-store path changes no bits relative to the resident path.
  local paired=0 name digest tag streamed
  while read -r name digest; do
    case "$name" in
      resident_*)
        tag="${name#resident_}"
        streamed=$(echo "$c_narrow" | awk -v n="streamed_$tag" \
                   '$1 == n {print $2}')
        if [[ -z "$streamed" ]]; then
          echo "DETERMINISM FAILURE ($tier): no streamed_$tag line to pair with $name" >&2
          exit 1
        fi
        if [[ "$streamed" != "$digest" ]]; then
          echo "DETERMINISM FAILURE ($tier): streamed '$tag' differs from resident" >&2
          echo "  resident $digest" >&2
          echo "  streamed $streamed" >&2
          exit 1
        fi
        paired=$((paired + 1))
        ;;
    esac
  done <<< "$c_narrow"
  if [[ "$paired" -eq 0 ]]; then
    echo "DETERMINISM FAILURE ($tier): no resident_* digests in bench_condense_scale --smoke output" >&2
    exit 1
  fi

  echo "OK ($tier): out-of-core checksums identical at 1 and $WIDE threads, prefetch off and on, streamed == resident for $paired kernels"
  echo "$c_narrow"
}

if [[ -n "$CONDENSE" ]]; then
  # Without MCOND_SIMD the smoke pins the scalar tier (the exact oracle).
  check_condense scalar
  # The AVX2 tier is the one production condensation runs on; its row
  # kernels carry the same exactness contract.
  if grep -qw avx2 /proc/cpuinfo 2>/dev/null &&
     grep -qw fma /proc/cpuinfo 2>/dev/null; then
    check_condense avx2 MCOND_SIMD=avx2
  else
    echo "SKIP (avx2): this CPU lacks avx2+fma; out-of-core contract checked on the scalar tier only"
  fi
fi

if [[ -n "$NET" ]]; then
  n_narrow=$(MCOND_NUM_THREADS=1 "$NET" --smoke | grep -v '^threads ')
  n_wide=$(MCOND_NUM_THREADS="$WIDE" "$NET" --smoke | grep -v '^threads ')

  if [[ "$n_narrow" != "$n_wide" ]]; then
    echo "DETERMINISM FAILURE: network serving checksums differ between 1 and $WIDE threads" >&2
    diff <(echo "$n_narrow") <(echo "$n_wide") >&2 || true
    exit 1
  fi

  # Pair check: every net_<tag> must equal inproc_<tag> — the wire protocol
  # transfers logit bits verbatim; loopback == in-process for every tenant,
  # replica count and batch mode.
  paired=0
  while read -r name digest; do
    case "$name" in
      inproc_*)
        tag="${name#inproc_}"
        got=$(echo "$n_narrow" | awk -v n="net_$tag" '$1 == n {print $2}')
        if [[ -z "$got" ]]; then
          echo "DETERMINISM FAILURE: no net_$tag line to pair with inproc_$tag" >&2
          exit 1
        fi
        if [[ "$got" != "$digest" ]]; then
          echo "DETERMINISM FAILURE: loopback logits differ from in-process for '$tag'" >&2
          echo "  inproc $digest" >&2
          echo "  net    $got" >&2
          exit 1
        fi
        paired=$((paired + 1))
        ;;
    esac
  done <<< "$n_narrow"
  if [[ "$paired" -eq 0 ]]; then
    echo "DETERMINISM FAILURE: no inproc_* digests in bench_net_throughput --smoke output" >&2
    exit 1
  fi

  echo "OK: network loopback logits bit-identical to in-process for $paired tenant/replica/mode combos at 1 and $WIDE threads"
  echo "$n_narrow"
fi
