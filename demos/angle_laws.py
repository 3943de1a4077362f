"""Relative-angle laws and the exchange signature.

The folded angle between the two detections carries the whole exchange
story: fermions suppress equal angles (sin^2), two bosons in opposite
vortices enhance them (cos^2), and a coherent ring is flat at 1/pi. The
two-boson superposition state (NOON) is flat too, yet it is correlated:
its joint angle density depends on theta_1 + theta_2, which the folded
law averages away, demonstrated here on the full torus.

Run:  python demos/angle_laws.py  (writes demo_output/angle_laws.svg)
"""

import math
import os

import numpy as np

from vortexcorr import (
    angle_distribution,
    bose_fock,
    build_state,
    closed_form_angle,
    coherent,
    fermi_fock,
    noon,
    two_angle_distribution,
)
from vortexcorr.svgplot import svg_chart, svg_heatmap


def main():
    os.makedirs("demo_output", exist_ok=True)
    series = []
    for name, spec in (("fermi-fock", fermi_fock()),
                       ("bose-fock", bose_fock(1, 1)),
                       ("coherent", coherent())):
        dist = angle_distribution(build_state(spec), n_points=181)
        sup = float(np.max(np.abs(dist.values
                                  - closed_form_angle(name, dist.grid))))
        at0, at90 = dist.values[0], dist.values[90]
        print(f"{name:<12} D(0) = {at0:.6f}  D(pi/2) = {at90:.6f}  "
              f"closed-form sup {sup:.2e}")
        series.append({"label": name, "x": dist.grid, "y": dist.values})
    print("fermions vanish at delta = 0 (antibunching), the opposite-vortex")
    print("boson pair peaks there (bunching), the coherent ring is flat.")

    svg_chart("demo_output/angle_laws.svg", series,
              title="relative-angle laws", xlabel="delta",
              ylabel="D(delta)")
    print("wrote demo_output/angle_laws.svg")

    state = build_state(noon())
    flat = angle_distribution(state).values - 1.0 / math.pi
    print("\nnoon relative angle: flat at 1/pi, sup "
          f"{np.max(np.abs(flat)):.2e}")
    joint = two_angle_distribution(state, n_points=120)
    want = np.sin(joint.grid[:, None] + joint.grid[None, :]) ** 2 \
        / (2.0 * math.pi ** 2)
    print("noon joint density vs sin^2(theta_1 + theta_2) / (2 pi^2): "
          f"sup {float(np.max(np.abs(joint.values - want))):.2e}")
    svg_heatmap("demo_output/noon_two_angle.svg", joint.grid, joint.grid,
                joint.values.T, title="noon joint angle density",
                xlabel="theta 1", ylabel="theta 2")
    print("wrote demo_output/noon_two_angle.svg")


if __name__ == "__main__":
    main()
