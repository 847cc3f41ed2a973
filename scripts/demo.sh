#!/usr/bin/env sh
# End-to-end tour of the combisig CLI on the bundled instances.
# Run from anywhere after `pip install -e .`; set COMBISIG to override the
# executable (e.g. COMBISIG="python3 -m combisig.cli").
set -eu
cd "$(dirname "$0")/.."
: "${COMBISIG:=combisig}"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

echo "== exact persuasion solve (maximization) =="
$COMBISIG solve instances/two_state_toy.json --mode full --out "$out/toy_scheme.json"

echo "== Monte Carlo validation of the scheme just produced =="
$COMBISIG validate instances/two_state_toy.json "$out/toy_scheme.json" --samples 20000 --seed 1

echo "== best-response catalog of the bundled three-state instance =="
$COMBISIG enumerate instances/weather_pair.json

echo "== relaxed-obedience solves: exact oracle (column generation) and half-greedy oracle (ellipsoid) =="
$COMBISIG solve instances/weather_pair.json --mode cce
$COMBISIG solve instances/weather_pair.json --mode cce --oracle half-greedy

echo "== shortest-path minimization instance, solved then validated =="
$COMBISIG solve instances/route_min.json --mode full --out "$out/route_scheme.json"
$COMBISIG validate instances/route_min.json "$out/route_scheme.json" --seed 1

echo "== compile a linear system into three constraint families =="
for target in uniform graphic path; do
  $COMBISIG gen instances/lineq_demo.json --from lineq --target "$target" \
    --out "$out/lineq_$target.json"
done

echo "== compile a public-persuasion spec into a partition instance =="
$COMBISIG gen instances/public_demo.json --from public --target partition \
  --out "$out/public_partition.json"

echo "== degeneracy audit =="
$COMBISIG check-nondegeneracy instances/route_min.json

echo "demo complete"
