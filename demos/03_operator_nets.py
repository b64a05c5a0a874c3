"""Quantized delta-nets for exponentially-decaying operator matrices.

A class member has entries below C2 exp(-alpha2 max(deg)); rounding the
low-degree block onto a delta' grid and zeroing the rest moves it by at most
delta/2 in operator norm.  The number of grid matrices needed grows only like
exp(C3 (-log delta)^3) in the plane, which is what loses against the packing count
and forces exponential instability.
"""

import math

import numpy as np

from expinstab.conductivity import fourier_degrees
from expinstab.opnet import (
    NetParams,
    counting_check,
    delta_of_epsilon,
    net_size_log_bound,
    quantize,
    random_class_member,
)
from expinstab.packing import packing_lower_bound

c2, alpha2 = 1.0, 0.5
rng = np.random.default_rng(1)

print("covering property ||G - quantize(G)||_2 <= delta/2:")
for delta in (1e-1, 1e-2, 1e-3):
    params = NetParams.for_delta(delta, c2, alpha2)
    worst = 0.0
    for _ in range(50):
        member = random_class_member(rng, c2, alpha2, np.arange(65))
        q = quantize(member, np.arange(65), params)
        worst = max(worst, np.linalg.norm(member - q, 2))
    print(
        f"  delta = {delta:7.0e}: n_tilde = {params.n_tilde:3d}, "
        f"delta' = {params.delta_prime:.2e}, worst distance = {worst:.2e}"
    )

print("\ncounted net-size log-bound vs delta:")
for delta in (1e-2, 1e-4, 1e-8, 1e-16):
    b = net_size_log_bound(delta, c2, alpha2)
    print(f"  delta = {delta:7.0e}: log #net <= {b.log_bound:12.1f}")

print("\npigeonhole bookkeeping (class constants of a deep inclusion, 65 DtN modes):")
c2_fit, alpha2_fit, eps0 = 0.36, 1.39, 0.39
for eps in (1e-1, 1e-3, 1e-5, 1e-6, 1e-7, 1e-9):
    d = delta_of_epsilon(eps, 1.0)
    pack = packing_lower_bound(eps, 1, eps0)
    net = net_size_log_bound(d, c2_fit, alpha2_fit, degrees=fourier_degrees(32)).log_bound
    ok, margin = counting_check(pack, net)
    verdict = "witness pair guaranteed" if ok else "not yet"
    print(f"  eps = {eps:7.0e}: margin = {margin:10.1f}  ({verdict})")
