"""Truncation study for the classical (zero-lag) scenarios.

Locates the field peak at a fixed time for a ladder of series truncations
and reports how far the peak trails the instantaneous source position,
once for the stock diffusivity and once for a 10x larger one.  Writes one
CSV per case plus a combined summary table.
"""

import argparse
from dataclasses import replace
from pathlib import Path

import dpl_heatlab as dh
from dpl_heatlab.analysis import source_peak_distance_sweep, write_sweep_csv

CASES = (("lst_default", 367.5), ("ct_default", 360.0))
ALPHAS = (1.29e-5, 1.29e-4)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/classical_study",
                    help="output directory (default out/classical_study)")
    ap.add_argument("--truncations", default="10,20,40,80",
                    help="comma list of M (=N) values")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    truncs = [(int(m), int(m)) for m in args.truncations.split(",")]

    print(f"{'case':>12s} {'alpha':>10s} " +
          " ".join(f"{f'd(M={m})':>12s}" for m, _ in truncs))
    for name, t in CASES:
        base, _ = dh.load_bundled(name)
        for alpha in ALPHAS:
            s = dh.validate_scenario(replace(base, alpha=alpha))
            reports = source_peak_distance_sweep(s, t, truncs)
            write_sweep_csv(reports, out / f"{name}_alpha{alpha:g}.csv")
            print(f"{name:>12s} {alpha:10.3g} " +
                  " ".join(f"{r.distance:12.5f}" for r in reports))
    print(f"CSV tables in {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
