"""Compare bounding modes of the branch-and-bound kurtosis minimiser.

Simulates a homogeneous equicorrelated universe once, then solves the same
instance under each bounding mode (plain tangent-cut LP, the LP with extra
cut points for several n_c, and the piecewise-linear envelope MILP) and
prints a table of iteration counts, frontier rounds, LP pivots, wall time,
and the certified kurtosis.
The MILP gives the tightest root bound, but it is the best of m! subcell LPs
(6 at N=3), so each cell costs several LPs; they join the same lockstep LP
stack as the other cells of a frontier round.  With the defaults (N=3,
T=10^6, rho_tol=1e-3) on a 2-core x86-64 VM every mode took 0.01-0.03 s:
lp1 259 iterations, milp 261, lp2 146-190.
"""

import argparse
import dataclasses
import time

from portdim import bbsolve as bb
from portdim.comoments import build_comoments
from portdim.harness import ExperimentConfig, build_universe, load_or_simulate

MODES = [
    ("lp1", 1),
    ("lp2", 1),
    ("lp2", 2),
    ("lp2", 3),
    ("lp2", 4),
    ("milp", 1),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-assets", type=int, default=3)
    parser.add_argument("--rho", type=float, default=-0.2)
    parser.add_argument("--kurtosis", type=float, default=6.0)
    parser.add_argument("--t-obs", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rho-tol", type=float, default=1e-3)
    parser.add_argument("--returns", default=None, help="CSV of returns to use instead of simulating")
    parser.add_argument("--skip-milp", action="store_true", help="only run the LP modes")
    args = parser.parse_args()

    cfg = ExperimentConfig(
        experiment="bb_modes",
        n_assets=args.n_assets,
        rho=args.rho,
        kurtosis=args.kurtosis,
        t_obs=args.t_obs,
        seed=args.seed,
        returns_file=args.returns,
    )
    sample = load_or_simulate(cfg)
    c = build_comoments(sample)
    spec = "loaded returns" if args.returns else f"simulated {build_universe(cfg).margins[0]}"
    print(f"instance: N={c.n_assets}, T={c.n_obs}, rho={args.rho} ({spec})")

    print(f"{'mode':>10} {'iters':>8} {'rounds':>7} {'pivots':>8} {'seconds':>9} {'kurtosis':>12} {'status':>16}")
    for mode, n_c in MODES:
        if mode == "milp" and (args.skip_milp or c.n_assets > 6):
            continue
        run_cfg = dataclasses.replace(cfg.bb, rho_tol=args.rho_tol, bound_mode=mode, n_c=n_c)
        t0 = time.perf_counter()
        result = bb.solve(c, run_cfg)
        elapsed = time.perf_counter() - t0
        label = mode if mode != "lp2" else f"lp2(n_c={n_c})"
        print(
            f"{label:>10} {result.iterations:>8d} {result.rounds:>7d} {result.lp_pivots:>8d} {elapsed:>9.2f} "
            f"{result.kurtosis:>12.6f} {result.status:>16}"
        )


if __name__ == "__main__":
    main()
