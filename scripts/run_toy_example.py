"""Sweep the two-correlated-plus-one-independent universe over a correlation grid.

For each correlation the script simulates returns, solves for the
minimum-kurtosis portfolio, and tabulates the weight of the independent
asset next to the closed-form risk-parity and maximum-diversification-ratio
weights.  The interesting regimes:

* rho -> 1: the first two assets merge into one, and the minimum-kurtosis
  weight of the third asset approaches 1/2 (it treats the pair as a single
  asset), while risk parity drifts to sqrt(2) - 1.
* rho < 0: the correlated pair hedges itself, so kurtosis minimisation and
  risk parity both overweight the pair relative to the diversification ratio.

Run it as ``python scripts/run_toy_example.py --rho-grid=-0.5,0.0,0.99``;
the ``=`` is needed because argparse reads a bare value that starts with
``-`` as a flag.
"""

import argparse

from portdim.harness import ExperimentConfig, cmd_toy_example
from portdim.bbsolve import BbConfig

DEFAULT_GRID = "-0.7,-0.5,-0.3,0.0,0.3,0.5,0.7,0.9,0.95,0.99"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t-obs", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--rho-grid", default=DEFAULT_GRID,
                        help="comma-separated correlation grid; write --rho-grid=-0.5,0.99 "
                             "when the first value is negative")
    parser.add_argument("--rho-tol", type=float, default=1e-3)
    parser.add_argument("--output-dir", default="runs")
    args = parser.parse_args()

    cfg = ExperimentConfig(
        experiment="toy_example",
        n_assets=3,
        t_obs=args.t_obs,
        seed=args.seed,
        output_dir=args.output_dir,
        bb=BbConfig(rho_tol=args.rho_tol, bound_mode="lp2", n_c=1),
    )
    grid = [float(tok) for tok in args.rho_grid.split(",")]
    path = cmd_toy_example(cfg, grid)
    print(f"wrote {path}")
    print(path.read_text())


if __name__ == "__main__":
    main()
