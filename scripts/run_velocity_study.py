"""Peak temperature along the path as a function of angular velocity.

A slower source dwells longer near every point of its path, so the
profile peak grows as w shrinks.  Runs both bundled lag pairs over
w in {0.1 pi, 0.2 pi, 0.4 pi} and prints the peaks side by side.
"""

import argparse
from pathlib import Path

import numpy as np

import dpl_heatlab as dh
from dpl_heatlab.analysis import trajectory_profile, write_profile_csv

FAMILIES = {
    "tau_q=1, tau_T=5": ("ct_alpha2_q1_T5_w01pi", "ct_alpha2_q1_T5",
                         "ct_alpha2_q1_T5_w04pi"),
    "tau_q=5, tau_T=1": ("ct_alpha2_q5_T1_w01pi", "ct_alpha2_q5_T1",
                         "ct_alpha2_q5_T1_w04pi"),
}
W_LABELS = ("0.1pi", "0.2pi", "0.4pi")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t", type=float, default=70.0,
                    help="evaluation time (default 70)")
    ap.add_argument("--out", default="out/velocity_study")
    ap.add_argument("--modes", type=int, default=40, help="truncation M = N")
    ap.add_argument("--samples", type=int, default=360)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    print(f"peak temperature along the path at t = {args.t:g}")
    print(f"{'lag pair':>18s} " +
          " ".join(f"{f'w={w}':>10s}" for w in W_LABELS))
    for label, names in FAMILIES.items():
        peaks = []
        for name in names:
            s, _ = dh.load_bundled(name)
            prof = trajectory_profile(s, args.t, args.modes, args.modes,
                                      args.samples)
            write_profile_csv(prof, out / f"{name}_t{args.t:g}.csv")
            peaks.append(float(np.max(prof.values)))
        print(f"{label:>18s} " + " ".join(f"{p:10.2f}" for p in peaks))
    print(f"profiles in {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
