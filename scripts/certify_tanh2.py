"""Certified validity region for the coupled-tanh pair at its symmetric pitchfork.

Runs the kernel-split certification twice, once with the closed-form
deviation bounds (rigorous) and once with sampled bounds (best effort), and
prints both frontiers side by side. The sampled frontier can only be wider
or equal, since sampled deviation estimates are lower bounds.

Usage: python scripts/certify_tanh2.py [--samples-per-dim K] [--out report.json]
"""

import argparse
import json

import numpy as np

import lscert


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples-per-dim", type=int, default=9)
    ap.add_argument("--out", default=None, help="write the analytic-run report JSON here")
    args = ap.parse_args()

    system = lscert.builtin_model("tanh2")
    point = lscert.evaluation_point(system, [0.0, 0.0], [1.0])
    ss = lscert.build_split_system(system, point)
    print(f"base point x0={point.x0.tolist()} lambda0={point.lambda0.tolist()} "
          f"residual={point.residual:.2e}, kernel dimension q={ss.q}")

    r_par_grid = list(np.round(np.arange(0.25, 2.51, 0.25), 10))
    r_perp_grid = [0.5, 1.0, 2.0]

    analytic = lscert.SupremumEstimator(
        mode="analytic",
        override_L_x=lambda r_par: 0.0,
        override_L_y=lambda r_par, r_perp: 1.0 - min(0.0, 1.0 - r_par),
    )
    sampled = lscert.SupremumEstimator(mode="sampled", samples_per_dim=args.samples_per_dim)

    region_a, q_a = lscert.certify_ls_region(ss, r_par_grid, r_perp_grid, analytic)
    region_s, q_s = lscert.certify_ls_region(ss, r_par_grid, r_perp_grid, sampled)
    print(f"M_par={q_a.M_par!r}  M_perp={q_a.M_perp!r}")
    print(f"{'r_perp':>8} {'analytic r_par_max':>20} {'sampled r_par_max':>20}")
    for fa, fs in zip(region_a.frontier, region_s.frontier):
        print(f"{fa.r_perp:8.3g} {str(fa.r_par_max):>20} {str(fs.r_par_max):>20}")
    print(f"analytic rigorous: {region_a.rigorous}; sampled rigorous: {region_s.rigorous}")

    if args.out:
        from lscert import report
        doc = report.certificate_report("certify_tanh2.py", {}, "analytic", q_a, region_a,
                                        r_par_grid, r_perp_grid, decomposition=ss.decomp)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
