"""Single-shot detection frames and what they average to.

Draws reproducible position pairs for the fermionic and bosonic Fock
states, then checks that per-frame statistics recover the engine
laws: the near-coincidence fraction separates the two statistics, the
empirical mean distance lands within a few standard errors, and the
chi-square fit against the exact law passes.  The counter-based RNG
keys every draw by frame index, so the run is reproducible bit for bit.

Run:  python demos/single_shots.py
"""

import math

import numpy as np

from vortexcorr import (
    bose_fock,
    build_state,
    chi_square_gof,
    distance_distribution,
    fermi_fock,
    generate_frames,
    pair_separations,
    summarize,
)

COUNT = 200_000
SEED = 2026
NEAR = 0.35


def main():
    for name, spec in (("fermi-fock", fermi_fock()),
                       ("bose-fock", bose_fock(1, 1))):
        frames = generate_frames(spec, COUNT, seed=SEED)
        d = pair_separations(frames)
        law = distance_distribution(build_state(spec))
        ref = summarize(law)
        mean = float(np.mean(d))
        se = float(np.std(d, ddof=1)) / math.sqrt(d.size)
        gof = chi_square_gof(d, law)
        near = float(np.mean(d < NEAR))
        print(f"{name}: {COUNT} frames, seed {SEED}, "
              f"acceptance {frames.acceptance_rate:.3f}")
        print(f"  P(d < {NEAR}) = {near:.5f}  "
              f"({'suppressed' if near < 2e-3 else 'enhanced'} "
              "close pairs)")
        print(f"  mean d = {mean:.5f} vs {ref.mean:.5f} "
              f"({abs(mean - ref.mean) / se:.2f} standard errors)")
        print(f"  chi-square: statistic {gof.statistic:.1f} on "
              f"{gof.dof} dof, p = {gof.pvalue:.3f}")

    again = generate_frames(fermi_fock(), COUNT, seed=SEED)
    first = generate_frames(fermi_fock(), COUNT, seed=SEED)
    print("rerun identical:", bool(np.array_equal(again.points,
                                                  first.points)))
    threaded = generate_frames(fermi_fock(), COUNT, seed=SEED,
                               block=COUNT // 4, threads=2)
    print("threaded generation identical:",
          bool(np.array_equal(threaded.points, first.points)))


if __name__ == "__main__":
    main()
