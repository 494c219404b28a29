"""Choosing neighborhood size per site with an entrywise BIC.

Each site scans a nested family of boxes (radius 0, 1, 2, ...) and
keeps the radius minimizing log(rss) plus a penalty proportional to the
parameter count.  More data sharpens the choice: small series select
conservatively, long series recover the true radius.

Run from the repository root:  python3 demos/04_neighborhood_selection.py
"""

import numpy as np

from liargrid import (
    NoiseSpec,
    default_d0,
    interior_mask,
    nested_family,
    random_stable_kernels,
    select_all,
    select_site,
    simulate_liar,
)

shape = (10, 10)
true_k = 2
truth = random_stable_kernels(shape, true_k, target_norm=0.8, seed=31)
full = simulate_liar(truth, 8000, NoiseSpec(sigma=1.0, seed=32))

# One site in detail: the scan reuses a single factorization across the
# nested candidates, so the trace below costs one Cholesky factor of the
# largest box's Gram, not four factorizations.
family = nested_family((5, 5), shape, max_radius=3)
trace = select_site(full, family)
print(f"site (5, 5), candidates radius 0..3, true radius {true_k}")
print(f"penalty strength D0 = log log T = {default_d0(full.n_frames):.3f}")
print("radius  |J|    rss         bic")
for k, size, rss, bic in zip(trace.labels, trace.sizes, trace.rss, trace.bic):
    marker = "  <- chosen" if k == trace.chosen_k else ""
    print(f"  {k}    {size:3d}  {rss:10.2f}  {bic:.5f}{marker}")

# Whole grid at two series lengths.
inner = interior_mask(shape, true_k)
for t in (800, 8000):
    sel = select_all(full.slice_time(0, t), max_radius=3)
    chosen = np.array(sel.chosen_labels()).reshape(shape, order="F")
    hit = np.array([c == true_k for c in sel.chosen_labels()])
    print(f"\nT={t}: interior success {hit[inner].mean():.2f}, "
          f"boundary {hit[~inner].mean():.2f}")
    print("chosen radius per site:")
    for row in chosen:
        print("  " + " ".join(str(k) for k in row))
