#!/usr/bin/env bash
# Replays through the `regfrac` console script, run outside the checkout
# so that it imports the installed package rather than src/; the
# echoed config must replay the run byte for byte, the Hardy suite
# too, whose checks share the pseudo-distances marched on one form,
# the matrix dump, which writes the matrix from its own memory (at
# 48^2, N 1089, the form spans several row blocks of the mirrored
# half-table and takes the padded far FFT), and
# a convex-mode optimize run, whose mode policy lives in shapeopt,
# and a rearrange run, whose full-space energies are the only CLI
# output that reads the complement potential;
# the eigen runs are replayed on each solver path: the 33-cell one
# takes the dense eigh, the centred 24^2 ball (245 interior nodes in 39
# orbits of its symmetries) the dense eigh of its folded form, the
# centred 56^2 ball (1481 nodes in 204 orbits) factor + Lanczos on its
# folded form, and a 16^2 square less a 3 x 2 corner, which has no
# symmetry (219 nodes), factor + Lanczos on the form itself;
# a volume that is not a whole number of cells, a one-cell volume
# with no interior node, a mask too small for the Hardy corpus, a NaN
# radius, an infinite extent, a negative seed (on the rearrange
# search and on the Lanczos path, which read it) and a 3-cell start
# mask with no interior node (on eigen and on convex optimize) must
# exit 2 before their out dir is made; a penalized run from the full
# 8^2 grid, whose top volume rungs exceed the grid, must finish; a
# penalized run at an unattainable tolerance
# must exit 3 and keep its results as .partial files; report must list
# a hardy.json of the wrong shape and an eigen.json without its lambda
# as unreadable and still report the finished run beside them.
#
# Usage, after `python -m pip install .`: bash .github/entry_point.sh
set -euo pipefail
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"
regfrac eigen --n 1 --sigma 0.25 --grid 33 --out-dir "$work/eigen"
regfrac eigen --config "$work/eigen/config.echo" --out-dir "$work/replay"
cmp "$work/eigen/eigen.json" "$work/replay/eigen.json"
regfrac eigen --n 2 --sigma 0.75 --grid 24 --out-dir "$work/fold"
regfrac eigen --config "$work/fold/config.echo" --out-dir "$work/fold-replay"
cmp "$work/fold/eigen.json" "$work/fold-replay/eigen.json"
regfrac eigen --n 2 --sigma 0.75 --grid 56 --out-dir "$work/fold-lanczos"
regfrac eigen --config "$work/fold-lanczos/config.echo" --out-dir "$work/fold-lanczos-replay"
cmp "$work/fold-lanczos/eigen.json" "$work/fold-lanczos-replay/eigen.json"
printf 'P1\n16 16\n' > "$work/notched.pbm"
printf '1111111111111111\n%.0s' $(seq 13) >> "$work/notched.pbm"
printf '1111111111111100\n%.0s' 1 2 3 >> "$work/notched.pbm"
regfrac eigen --n 2 --sigma 0.75 --grid 16 --shape file --shape-file "$work/notched.pbm" --out-dir "$work/lanczos"
regfrac eigen --config "$work/lanczos/config.echo" --out-dir "$work/lanczos-replay"
cmp "$work/lanczos/eigen.json" "$work/lanczos-replay/eigen.json"
grep -q '"iterations": [1-9]' "$work/lanczos/eigen.json"
regfrac hardy --n 2 --grid 24 --out-dir "$work/hardy"
regfrac hardy --config "$work/hardy/config.echo" --out-dir "$work/hardy-replay"
cmp "$work/hardy/hardy.json" "$work/hardy-replay/hardy.json"
regfrac eigen --n 1 --sigma 0.75 --grid 33 --matrix --out-dir "$work/matrix"
regfrac eigen --config "$work/matrix/config.echo" --out-dir "$work/matrix-replay"
cmp "$work/matrix/matrix.rfrm" "$work/matrix-replay/matrix.rfrm"
regfrac eigen --n 2 --sigma 0.75 --grid 48 --matrix --out-dir "$work/matrix48"
regfrac eigen --config "$work/matrix48/config.echo" --out-dir "$work/matrix48-replay"
cmp "$work/matrix48/matrix.rfrm" "$work/matrix48-replay/matrix.rfrm"
regfrac optimize --mode convex --n 1 --sigma 0.75 --grid 24 --max-iter 2 --out-dir "$work/convex"
regfrac optimize --config "$work/convex/config.echo" --out-dir "$work/convex-replay"
cmp "$work/convex/state.json" "$work/convex-replay/state.json"
cmp "$work/convex/iterations.csv" "$work/convex-replay/iterations.csv"
regfrac rearrange --n 2 --grid 24 --trials 20 --pgm --out-dir "$work/rearrange"
regfrac rearrange --config "$work/rearrange/config.echo" --out-dir "$work/rearrange-replay"
cmp "$work/rearrange/rearrange.json" "$work/rearrange-replay/rearrange.json"
code=0
regfrac optimize --mode convex --n 1 --sigma 0.75 --grid 24 --volume 0.55 --out-dir "$work/badvol" || code=$?
test "$code" -eq 2
test ! -e "$work/badvol"
code=0
regfrac optimize --n 2 --sigma 0.75 --grid 8 --volume 0.0625 --out-dir "$work/onecell" || code=$?
test "$code" -eq 2
test ! -e "$work/onecell"
code=0
regfrac hardy --n 1 --grid 8 --radius 0.2 --dirs 8 --out-dir "$work/smallmask" || code=$?
test "$code" -eq 2
test ! -e "$work/smallmask"
code=0
regfrac eigen --n 1 --grid 16 --radius nan --out-dir "$work/nanradius" || code=$?
test "$code" -eq 2
test ! -e "$work/nanradius"
code=0
regfrac rearrange --n 2 --grid 8 --extent inf --out-dir "$work/infextent" || code=$?
test "$code" -eq 2
test ! -e "$work/infextent"
code=0
regfrac rearrange --n 2 --grid 8 --seed -1 --out-dir "$work/negseed" || code=$?
test "$code" -eq 2
test ! -e "$work/negseed"
code=0
regfrac eigen --n 2 --grid 24 --seed -1 --out-dir "$work/negseed-lanczos" || code=$?
test "$code" -eq 2
test ! -e "$work/negseed-lanczos"
printf 'P1\n8 8\n' > "$work/full.pbm"
printf '11111111\n%.0s' 1 2 3 4 5 6 7 8 >> "$work/full.pbm"
regfrac optimize --mode penalized --n 2 --grid 8 --shape file --shape-file "$work/full.pbm" --out-dir "$work/fullgrid"
test -e "$work/fullgrid/state.json"
printf 'P1\n8 8\n' > "$work/ell.pbm"
printf '00000000\n%.0s' 1 2 3 >> "$work/ell.pbm"
printf '00011000\n00010000\n' >> "$work/ell.pbm"
printf '00000000\n%.0s' 1 2 3 >> "$work/ell.pbm"
for sub in "eigen" "optimize --mode convex"; do
  code=0
  regfrac $sub --n 2 --grid 8 --shape file --shape-file "$work/ell.pbm" --out-dir "$work/ell" || code=$?
  test "$code" -eq 2
  test ! -e "$work/ell"
done
code=0
regfrac optimize --mode penalized --n 2 --grid 16 --tol 1e-30 --out-dir "$work/unconverged" || code=$?
test "$code" -eq 3
test -e "$work/unconverged/state.json.partial"
test -e "$work/unconverged/iterations.csv.partial"
test ! -e "$work/unconverged/state.json"
mkdir -p "$work/runs/shapeless" "$work/runs/headless"
regfrac eigen --n 1 --sigma 0.25 --grid 16 --out-dir "$work/runs/finished"
echo '[]' > "$work/runs/shapeless/hardy.json"
echo '{}' > "$work/runs/headless/eigen.json"
regfrac report "$work/runs"
grep -q "shapeless/hardy.json: unreadable" "$work/runs/report.md"
grep -q "headless/eigen.json: unreadable" "$work/runs/report.md"
grep -q "^finished,eigen," "$work/runs/report.csv"
