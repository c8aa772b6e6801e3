#!/bin/sh
# Write the CLI outputs that must not change between runs, or between two
# versions of the code that keep the numerics, into OUTDIR; compare two such
# directories with `diff -r`.  The outputs include the error line and exit
# code of each documented failure.  Runs `python -m dcpm.cli` with the
# caller's PYTHONPATH.
#
#   PYTHONPATH=src sh tools/pinned_outputs.sh OUTDIR
set -eu
d=${1:?usage: pinned_outputs.sh OUTDIR}
mkdir -p "$d"
dcpm() { python -m dcpm.cli "$@"; }
dcpm gen octagon --refine 3 --out "$d/octagon3.mesh"
dcpm check --mesh "$d/octagon3.mesh" --kappa const:-1 --report "$d/check.txt"
dcpm solve --mesh "$d/octagon3.mesh" --kappa const:-1 --report "$d/solve.txt" --out "$d/u.out"
dcpm gen octagon --refine 2 --out "$d/octagon2.mesh"
dcpm flow --mesh "$d/octagon2.mesh" --kappa const:-1 --steps 50 --report "$d/flow.txt" --out "$d/u.flow" --trace "$d/trace.csv"
dcpm flow --mesh "$d/octagon2.mesh" --kappa const:-1 --steps 50 --no-polish --report "$d/flow-np.txt" --out "$d/u.flow-np" --trace "$d/trace-np.csv"
dcpm gen octagon --refine 1 --out "$d/octagon1.mesh"
dcpm check --mesh "$d/octagon1.mesh" --isoperimetric --report "$d/iso.txt"
# level 0 has loop edges and parallel spokes, which level 1 has not
dcpm gen octagon --refine 0 --out "$d/octagon0.mesh"
dcpm check --mesh "$d/octagon0.mesh" --isoperimetric --report "$d/iso0.txt"
# the one path that reports infeasible faces instead of exiting 3
dcpm check --mesh "$d/octagon1.mesh" --kappa const:-1e300 --report "$d/check-infeasible.txt"
dcpm converge --levels 3 --out "$d/converge.csv"
dcpm converge --levels 3 --kappa const:-2 --out "$d/converge-2.csv"
# a level-5 mesh at a curvature other than -1, and a flow at the default step
# count
dcpm gen octagon --refine 5 --out "$d/octagon5.mesh"
dcpm check --mesh "$d/octagon5.mesh" --kappa const:-1.3 --report "$d/check5.txt"
dcpm solve --mesh "$d/octagon5.mesh" --kappa const:-1.3 --report "$d/solve5.txt" --out "$d/u5.out"
dcpm flow --mesh "$d/octagon2.mesh" --kappa const:-1 --report "$d/flow-default.txt" --out "$d/u.flow-default" --trace "$d/trace-default.csv"
# documented failures (exit 3 infeasible, exit 2 invalid): NAME.err holds the
# command's stderr and then an "exit N" line
fails() {
  name=$1; shift
  code=0
  dcpm "$@" 2>"$d/$name.err" || code=$?
  echo "exit $code" >>"$d/$name.err"
}
fails solve-infeasible solve --mesh "$d/octagon1.mesh" --kappa const:-1e300 --out "$d/u.infeasible"
fails flow-infeasible flow --mesh "$d/octagon1.mesh" --kappa const:-1e300 --out "$d/u.flow-infeasible"
fails converge-infeasible converge --levels 1 --kappa const:-1e300 --out "$d/converge-infeasible.csv"
fails solve-no-kappa solve --mesh "$d/octagon1.mesh"
printf 'DCPM 1\nv 0\n' >"$d/v0.mesh"
fails check-v0 check --mesh "$d/v0.mesh"
