"""Forecasting and comparing against two simple baselines.

The local model is fitted on the first 90% of the frames and scored on
the remaining 10% by one-step-ahead prediction (each held-out frame is
predicted from the actual preceding frames).  The baselines are a
pixel-wise AR (every site listens only to itself) and an alternating
least squares matrix autoregression (one global row factor and one
global column factor).

Run from the repository root:  python3 demos/06_forecast_and_baselines.py
"""

import time

import numpy as np

from liargrid import (
    NoiseSpec,
    baseline_mar_als,
    baseline_pixel_ar,
    box_neighborhood,
    fit_all,
    forecast,
    holdout_rmse,
    linear_to_site,
    random_stable_kernels,
    simulate_liar,
)

shape = (15, 15)
truth = random_stable_kernels(shape, 2, target_norm=0.8, seed=51)
series = simulate_liar(truth, 400, NoiseSpec(sigma=1.0, seed=52))
n_train = 360
train = series.slice_time(0, n_train)
n_test = series.n_frames - n_train
print(f"{shape} grid, {n_train} training frames, {n_test} test frames\n")

neighborhoods = [
    box_neighborhood(linear_to_site(i, shape), shape, 2)
    for i in range(series.n_sites)
]
t0 = time.perf_counter()
local = fit_all(train, neighborhoods, compute_se=False).kernels()
t_local = time.perf_counter() - t0

t0 = time.perf_counter()
pixel = baseline_pixel_ar(train)
t_pixel = time.perf_counter() - t0

t0 = time.perf_counter()
mar = baseline_mar_als(train)
t_mar = time.perf_counter() - t0

print("method            holdout rmse   fit seconds")
print(f"local kernels     {holdout_rmse(series, local, n_test):12.4f}"
      f"   {t_local:11.3f}")
print(f"pixel-wise AR     {holdout_rmse(series, pixel, n_test):12.4f}"
      f"   {t_pixel:11.3f}")
print(f"matrix AR (ALS)   {holdout_rmse(series, mar, n_test):12.4f}"
      f"   {t_mar:11.3f}")

# Iterated forecasts feed predictions back in, so they decay toward the
# stationary mean and their error approaches the series scale.
result = forecast(train, local, n_test, truth=series.values[n_train:])
print(f"\niterated {n_test}-step forecast rmse: {result.rmse:.4f}")
print("per-horizon rmse:",
      " ".join(f"{r:.3f}" for r in result.per_frame_rmse[:8]), "...")
print(f"series standard deviation:       {series.values.std():.4f}")
