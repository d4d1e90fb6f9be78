"""Effect of the two phase lags on the temperature along a circular path.

Evaluates the trajectory profile for every bundled lag combination at a
common time, writes the profiles as CSV, and prints the peak ladder: the
peak drops as the gradient lag tau_T grows and rises as the flux lag
tau_q grows.
"""

import argparse
from pathlib import Path

import numpy as np

import dpl_heatlab as dh
from dpl_heatlab.analysis import trajectory_profile, write_profile_csv

GRADIENT_LAG_LADDER = ("ct_alpha2_q1_T1", "ct_alpha2_q1_T2",
                       "ct_alpha2_q1_T5", "ct_alpha2_q1_T10")
FLUX_LAG_LADDER = ("ct_alpha2_q1_T1", "ct_alpha2_q2_T1",
                   "ct_alpha2_q5_T1", "ct_alpha2_q10_T1")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t", type=float, default=25.0,
                    help="evaluation time (default 25)")
    ap.add_argument("--out", default="out/phase_lag_study")
    ap.add_argument("--modes", type=int, default=40, help="truncation M = N")
    ap.add_argument("--samples", type=int, default=360)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    peaks = {}
    for name in sorted(set(GRADIENT_LAG_LADDER + FLUX_LAG_LADDER)):
        s, _ = dh.load_bundled(name)
        prof = trajectory_profile(s, args.t, args.modes, args.modes,
                                  args.samples)
        write_profile_csv(prof, out / f"{name}_t{args.t:g}.csv")
        peaks[name] = float(np.max(prof.values))

    print(f"peak temperature along the path at t = {args.t:g}")
    for label, ladder in (("tau_T ladder (tau_q = 1)", GRADIENT_LAG_LADDER),
                          ("tau_q ladder (tau_T = 1)", FLUX_LAG_LADDER)):
        print(f"  {label}")
        for name in ladder:
            print(f"    {name:>18s}  {peaks[name]:9.2f}")
    print(f"profiles in {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
