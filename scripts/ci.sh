#!/usr/bin/env bash
# Tier-1 gate: full build, full test suite (Alcotest and cram) in one
# lane, source guards, the bench counter gate and CLI smokes.
set -euo pipefail
cd "$(dirname "$0")/.."

# the dev profile (dune's default) carries -warn-error +a via the root
# env stanza, so any compiler warning fails this build
dune build @all

# The Alcotest suites (test/main.exe) and the CLI cram suite
# (test/cli/*.t: exit codes, diagnostics, usage errors).  Among them:
# - budget: the fault-injection suite;
# - structure: the instance oracle (random add, remove, copy, restrict
#   and birth-reset sequences against a plain (fact, birth) list, at 4
#   and at 200 elements), a removal inside a wrapped probe run of the
#   fact table, the sparse-wide-signature memory bound, the
#   reset-births regression and predicate interning across 2 domains;
# - ptp: lightness forms and Canonical.key against the test-only
#   permutation oracle, Refine.compute against the string-keyed
#   reference, and the hostile coloring shapes;
# - differential: naive vs semi-naive, interpreter vs compiled, and
#   sliced vs unsliced, from single chases up to construct and judge;
# - serve: the isolation barrier, fault-injection sweep, eviction,
#   overload and metrics reconciliation;
# - hc: containment fuzzing (the int-coded matcher against the
#   test-only structural oracle, which evaluates a plan over a frozen
#   instance), signature-index soundness and accounting, no plan
#   compiled by containment, and the serve eviction no-drift check;
# - rewrite: the library rewriting loop against the test-only reference
#   loop, whose every containment test is the structural oracle;
# - maintain: incremental maintenance against a from-scratch chase;
# - provenance: the recorded chase against a plain run;
# - absence: the ground-once solver against the test-only 2^k
#   enumerator, and RUP log checking.
# One suite runs alone with `dune exec test/main.exe -- test <suite>`.
dune runtest

# source hygiene: no tabs, no trailing whitespace in tracked sources
fmt_bad=$(grep -rln -e '	' -e ' $' \
  --include='*.ml' --include='*.mli' --include='dune' \
  lib bin bench test 2>/dev/null || true)
if [ -n "$fmt_bad" ]; then
  echo "ci: tabs or trailing whitespace in:" >&2
  echo "$fmt_bad" >&2
  exit 1
fi

# one supply for invented names: outside the logic layer (and the
# workload generators, which build parser-legal input) a predicate is
# made by Pred.invented, never by Pred.make
make_bad=$(grep -rl 'Pred\.make' lib --include='*.ml' \
  | grep -v -e '^lib/logic/' -e '^lib/workload/' || true)
if [ -n "$make_bad" ]; then
  echo "ci: Pred.make outside lib/logic and lib/workload (use Pred.invented):" >&2
  echo "$make_bad" >&2
  exit 1
fi

# the library reads no environment variable: every setting is an
# argument, so one test lane covers every configuration it can run in
env_bad=$(grep -rln 'Sys\.getenv' lib --include='*.ml' || true)
if [ -n "$env_bad" ]; then
  echo "ci: Sys.getenv under lib/ (pass the setting as an argument):" >&2
  echo "$env_bad" >&2
  exit 1
fi

# the bench counter gate: one process runs EX-17, EX-18 and EX-20 to
# EX-23 and compares their deterministic counters with the committed
# BENCH_gate.json (the blob is validated before anything is measured).
# Per experiment:
#   EX-17 join engines: compiled probes / index ops at most +10%
#   EX-18 serve load harness (forked server children): request and
#         error counts exact; both children exit 0, clean phases have
#         zero errors, the overload burst sheds, warm p50 >= 5x cold
#   EX-20 rule slicing: probes at most +10%, verdicts exact, sliced and
#         unsliced verdicts identical, >= 1.5x probe reduction on the
#         padded workloads, every zoo dataflow report builds and its
#         JSON re-parses
#   EX-21 prepared containment: index rejects and searches within
#         10%, verdicts exact, and every row tests some containment
#         pair.  Containment has one path, the int-coded matcher (no
#         Instance, no plan); minimization searches only atoms another
#         atom could host.  The kappa rows (remark3, sec55 normalized,
#         judge on ex1) also hold rewrite.rule_visits within 10%: only
#         a rule whose head predicate the disjunct carries reaches the
#         piece closure
#   EX-22 maintenance churn: counters within 10%, every batch
#         bit-identical to a re-chase, stats reconcile with instance
#         size; >= 5x speedup gated only on machines with >= 4 cores
#   EX-23 store memory: facts and Obj.reachable_words of the Example 9
#         depth-22 chase prefix, skeleton and colored skeleton at most
#         +10%, so a store layout that costs more words shows up here
# Wall times are reported, never compared with the blob.  The strategy
# and join-engine agreement on the bench workloads is checked by the
# differential suite in `dune runtest` above.
dune exec bench/main.exe -- --check BENCH_gate.json

# the observability smoke: tracing must be semantically inert (same
# results, same counter deltas) and the disabled path within noise;
# the registry snapshot is archived as a BENCH_*-style blob
mkdir -p _ci_artifacts
dune exec bench/main.exe -- --obs-smoke --metrics-out _ci_artifacts/BENCH_obs_smoke.json
python3 -m json.tool _ci_artifacts/BENCH_obs_smoke.json > /dev/null

# smoke-test the CLI exit-code contract
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# the analyzer gate: every shipped example and every zoo entry must lint
# clean (class-membership infos are fine; warnings are not)
for f in examples/programs/*.dlg; do
  dune exec bin/bddfc_cli.exe -- lint --deny-warnings "$f" > /dev/null
done
dune exec bin/bddfc_cli.exe -- zoo | awk '{print $1}' | while read -r n; do
  dune exec bin/bddfc_cli.exe -- zoo "$n" --dump > "$tmp/zoo_$n.dlg"
  dune exec bin/bddfc_cli.exe -- lint --deny-warnings "$tmp/zoo_$n.dlg" > /dev/null
done

# the analyze gate: the dataflow report must build over the whole zoo
# in every format, and the JSON must be parse-stable
for f in "$tmp"/zoo_*.dlg; do
  dune exec bin/bddfc_cli.exe -- analyze "$f" > /dev/null
  dune exec bin/bddfc_cli.exe -- analyze --format dot "$f" > /dev/null
  dune exec bin/bddfc_cli.exe -- analyze --format json "$f" \
    | python3 -m json.tool > /dev/null
done

# the Section 5.5 non-FC theory: the chase never settles the query and
# no finite countermodel exists, so only a budget can end the run
cat > "$tmp/diverge.dlg" <<'EOF'
e(X,Y) -> exists Z. e(Y,Z).
r(X,Y), e(X,X2), e(Y,Z), e(Z,Y2) -> r(X2,Y2).
e(a0,a1). r(a0,a0).
? e(X,Y), r(Y,Y).
EOF

# a non-terminating instance under --timeout must come back Unknown (4)
set +e
dune exec bin/bddfc_cli.exe -- model --timeout 2 "$tmp/diverge.dlg" >/dev/null 2>&1
code=$?
set -e
if [ "$code" -ne 4 ]; then
  echo "ci: expected exit 4 (unknown) from budgeted model run, got $code" >&2
  exit 1
fi

# a malformed program must be a one-line input error (2), not a backtrace
echo 'e(X,Y -> broken' > "$tmp/bad.dlg"
set +e
dune exec bin/bddfc_cli.exe -- chase "$tmp/bad.dlg" >/dev/null 2>"$tmp/err"
code=$?
set -e
if [ "$code" -ne 2 ]; then
  echo "ci: expected exit 2 (input error) on malformed input, got $code" >&2
  exit 1
fi
if grep -q "Raised at" "$tmp/err"; then
  echo "ci: backtrace leaked to the user on malformed input" >&2
  exit 1
fi

# the serve contract: a protocol round-trip exits 0, a SIGTERM'd server
# drains, dumps its metrics and still exits 0 (never 143)
printf '{"id":1,"op":"ping"}\n{"id":2,"op":"shutdown"}\n' \
  | dune exec bin/bddfc_cli.exe -- serve > "$tmp/serve.out"
grep -q '"id":1,"ok":true,"op":"ping"' "$tmp/serve.out"
dune exec bin/bddfc_cli.exe -- serve \
  --socket "$tmp/bddfc.sock" --metrics-out "$tmp/serve_metrics.json" &
serve_pid=$!
for _ in $(seq 100); do [ -S "$tmp/bddfc.sock" ] && break; sleep 0.05; done
kill -TERM "$serve_pid"
set +e
wait "$serve_pid"
code=$?
set -e
if [ "$code" -ne 0 ]; then
  echo "ci: expected exit 0 from SIGTERM'd serve, got $code" >&2
  exit 1
fi
python3 -m json.tool "$tmp/serve_metrics.json" > /dev/null

echo "ci: all green"
