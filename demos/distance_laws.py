"""Pair-distance laws across the state family.

Builds the five canonical two-particle configurations, computes the
distance density of the detected pair from the exact kernel, and compares
each against its closed form.  The punchline: all five share E[d^2] = 4 and
the ring diameter d = 2 sits between the two shared crossing radii of
the fermionic, bosonic, and coherent curves.

Run:  python demos/distance_laws.py  (writes demo_output/distance_laws.svg)
"""

import math
import os

import numpy as np

from vortexcorr import (
    bose_fock,
    build_state,
    closed_form_distance,
    coherent,
    distance_distribution,
    fermi_fock,
    noon,
    summarize,
    thermal,
)
from vortexcorr.svgplot import svg_chart

FAMILIES = (
    ("fermi-fock", fermi_fock()),
    ("bose-fock", bose_fock(1, 1)),
    ("coherent", coherent()),
    ("thermal", thermal(1.0, 1.0)),
    ("noon", noon()),
)
CLOSED = ("fermi-fock", "bose-fock", "coherent")


def main():
    os.makedirs("demo_output", exist_ok=True)
    print("pair-distance densities (kernel, 801 points)")
    print(f"{'state':<12} {'mean':>10} {'E[d^2]':>10} {'maxima':>24}")
    series = []
    for name, spec in FAMILIES:
        dist = distance_distribution(build_state(spec))
        s = summarize(dist)
        peaks = ", ".join(f"{m:.4f}" for m in s.local_maxima)
        print(f"{name:<12} {s.mean:>10.6f} {s.second_moment:>10.6f} "
              f"{peaks:>24}")
        if name in CLOSED:
            sup = float(np.max(np.abs(
                dist.values - closed_form_distance(name, dist.grid))))
            print(f"{'':<12} closed-form sup deviation {sup:.2e}")
            series.append({"label": name, "x": dist.grid,
                           "y": dist.values})

    # the three closed-form curves intersect pairwise at the same radii
    for d2 in (4.0 - 2.0 * math.sqrt(2.0), 4.0 + 2.0 * math.sqrt(2.0)):
        d = math.sqrt(d2)
        vals = [float(closed_form_distance(k, np.array([d]))[0])
                for k in CLOSED]
        print(f"common crossing at d = {d:.6f}: "
              + ", ".join(f"{v:.9f}" for v in vals))

    svg_chart("demo_output/distance_laws.svg", series,
              title="pair-distance laws", xlabel="d", ylabel="D(d)")
    print("wrote demo_output/distance_laws.svg")


if __name__ == "__main__":
    main()
