"""Curvature experiments on the two flat 3-space metric families.

Each family splits a 3D metric into a distinguished direction and a
2D leaf.  The presets are exotic charts of flat space, so the Riemann
tensor must vanish; for the warped family the leaves are round spheres
whose scalar curvature follows the scale function exactly.  Pass
--profile to try a leaf profile of your own and watch the flatness
equations localize the failure.
"""

import argparse

import numpy as np

from blocksep import catalog, geometry


def max_riemann(metric, points):
    # one stack of all the points: R has a leading point axis
    norms = np.max(np.abs(geometry.riemann(metric, points)), axis=(1, 2, 3, 4))
    worst = int(np.argmax(norms))
    return float(norms[worst]), points[worst]


def run_family(family, points, seed):
    pts = family.sample(points, seed)
    params = "  ".join(f"{k}={v:g}" for k, v in family.parameters)
    print(f"\n{family.name}  [{params}]  profile f = {family.profile}")

    worst, where = max_riemann(family.metric, pts)
    print(f"  max |Riemann| over {points} points: {worst:.3e}"
          + ("" if worst <= 1e-6 else
             "   NOT FLAT, worst at ({} {} {})".format(*where)))

    for name, value in family.residuals(pts).items():
        print(f"  equation {name}: {value:.3e}")

    if family.leaf_scalar_expected is not None:
        u = float(np.mean([p[0] for p in pts]))
        leaf = family.leaf_metric(u)
        want = family.leaf_scalar_expected(u)
        got = geometry.ricci_scalar(leaf, (0.3, -0.2))
        print(f"  leaf scalar at u={u:.4g}: {got:.9g} "
              f"(scale law gives {want:.9g})")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--case", choices=("i", "ii", "both"), default="both")
    ap.add_argument("--points", type=int, default=60)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--profile", default=None,
                    help="override the leaf profile f(v,w)")
    args = ap.parse_args(argv)

    if args.case in ("i", "both"):
        kw = {"f": args.profile} if args.profile else {}
        run_family(catalog.load("e3-case-i", **kw), args.points, args.seed)
    if args.case in ("ii", "both"):
        kw = {"f": args.profile} if args.profile else {}
        run_family(catalog.load("e3-case-ii", **kw), args.points, args.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
