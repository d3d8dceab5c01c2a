#!/usr/bin/env bash
# Regression check for mcond_cli's flag parser: every subcommand accepts
# both `--key value` and `--key=value` spellings, and they mean the same
# thing. Runs a small condense round twice — once per spelling — through a
# real subprocess (the full argv path, not a unit-tested parser) and
# requires the two artifacts to be byte-identical; then round-trips each
# through `inspect` and compares the reports. A boolean flag given in both
# spellings must also behave identically, and an unknown flag must be
# rejected with exit code 2.
#
# Usage: check_cli_flags.sh <path-to-mcond_cli>
# Registered as a ctest (tools/CMakeLists.txt).
set -euo pipefail

CLI="${1:?usage: check_cli_flags.sh <mcond_cli binary>}"

workdir=$(mktemp -d "${TMPDIR:-/tmp}/mcond_cli_flags.XXXXXX")
trap 'rm -rf "$workdir"' EXIT

# Same condense round, two spellings. The run is deterministic in --seed,
# so any parse divergence (a flag dropped, misread, or mis-valued) shows up
# as a byte difference in the artifact.
"$CLI" condense --dataset tiny-sim --ratio 0.05 --epochs 2 --seed 7 \
    --out "$workdir/space.bin" > "$workdir/space.out"
"$CLI" condense --dataset=tiny-sim --ratio=0.05 --epochs=2 --seed=7 \
    --out="$workdir/equals.bin" > "$workdir/equals.out"

if ! cmp -s "$workdir/space.bin" "$workdir/equals.bin"; then
  echo "FLAG PARSE FAILURE: --key value and --key=value condense artifacts differ" >&2
  exit 1
fi

# Mixed spellings in one invocation must also work.
"$CLI" condense --dataset tiny-sim --ratio=0.05 --epochs 2 --seed=7 \
    --out "$workdir/mixed.bin" > /dev/null
if ! cmp -s "$workdir/space.bin" "$workdir/mixed.bin"; then
  echo "FLAG PARSE FAILURE: mixed flag spellings produce a different artifact" >&2
  exit 1
fi

# Round-trip through a second subcommand: inspect reads the artifact path
# as a positional arg; its report must match for both artifacts.
"$CLI" inspect "$workdir/space.bin" > "$workdir/space.inspect"
"$CLI" inspect "$workdir/equals.bin" > "$workdir/equals.inspect"
if ! diff -q "$workdir/space.inspect" "$workdir/equals.inspect" > /dev/null; then
  echo "FLAG PARSE FAILURE: inspect reports differ between the two artifacts" >&2
  diff "$workdir/space.inspect" "$workdir/equals.inspect" >&2 || true
  exit 1
fi

# Boolean flags: bare `--verbose` and `--verbose=1` both enable it (the
# condense log gains per-round lines either way; just require success and
# identical artifacts — verbosity must not leak into the output file).
"$CLI" condense --dataset tiny-sim --ratio 0.05 --epochs 2 --seed 7 \
    --verbose --out "$workdir/verbose_bare.bin" > /dev/null
"$CLI" condense --dataset=tiny-sim --ratio=0.05 --epochs=2 --seed=7 \
    --verbose=1 --out="$workdir/verbose_eq.bin" > /dev/null
if ! cmp -s "$workdir/verbose_bare.bin" "$workdir/verbose_eq.bin"; then
  echo "FLAG PARSE FAILURE: --verbose vs --verbose=1 artifacts differ" >&2
  exit 1
fi
if ! cmp -s "$workdir/space.bin" "$workdir/verbose_bare.bin"; then
  echo "FLAG PARSE FAILURE: --verbose changed the condensed artifact" >&2
  exit 1
fi

# Unknown flags (here a removed option and a misspelled boolean) are
# rejected before any work: exit code 2, with the flag named on stderr.
for bad in "--serve_mode session" "--node_batch"; do
  read -r -a bad_args <<< "$bad"
  rc=0
  "$CLI" serve "${bad_args[@]}" > /dev/null 2> "$workdir/bad.err" || rc=$?
  if [[ "$rc" -ne 2 ]] || ! grep -q -- "${bad_args[0]}" "$workdir/bad.err"; then
    echo "FLAG PARSE FAILURE: 'serve $bad' exited $rc instead of 2 naming the flag" >&2
    cat "$workdir/bad.err" >&2
    exit 1
  fi
done

echo "OK: --key value, --key=value and mixed spellings parse identically across subcommands; unknown flags exit 2"
exit 0
