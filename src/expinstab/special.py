"""Bessel and Hankel functions of integer order on the real line.

J_n is computed by Miller's backward recurrence normalized with
J_0 + 2*sum_k J_2k = 1; Y_n by forward recurrence seeded with Y_0, Y_1 from
their power series (x < 13) or the large-argument P/Q asymptotic expansions
(x >= 13); H_n^(1) = J_n + i*Y_n.  Targets relative accuracy ~1e-10 for
n <= 80 on x in [0.3, 60] (series branches stay accurate down to x -> 0).
"""

from __future__ import annotations

import math

import numpy as np

EULER_GAMMA = 0.577215664901532860606512090082

_SERIES_SPLIT = 13.0
_X_MAX = 200.0
WORK_ROWS = 8  # arrays of the argument's shape that the power series works in


def _check_x(x: np.ndarray) -> None:
    if np.any(x <= 0.0) or np.any(x > _X_MAX):
        raise ValueError(f"argument must lie in (0, {_X_MAX}]")


# ----------------------------------------------------------------------------
# order 0 and 1 by series / asymptotics (vectorized workhorses for kernels)
# ----------------------------------------------------------------------------

def _harmonic_numbers(k_max: int) -> np.ndarray:
    h = np.zeros(k_max + 1)
    h[1:] = np.cumsum(1.0 / np.arange(1, k_max + 1))
    return h


def _jy01_series(x: np.ndarray, work: np.ndarray | None = None):
    """J0, J1, Y0, Y1 from their power series in q = x^2/4.

    The sums share two positive term sequences, t_k = q^k/(k!)^2 and
    u_k = q^k/(k!(k+1)!), which enter with alternating signs:
    J0 = sum (-1)^k t_k, J1 = (x/2) sum (-1)^k u_k, and
    Y0 = (2/pi) [lg*J0 + sum_{k>=1} (-1)^(k+1) H_k t_k],
    Y1 = (2/pi) lg*J1 - 2/(pi x) - (x/2pi) sum_k (-1)^k (H_k+H_{k+1}) u_k,
    with lg = ln(x/2) + gamma.  The J pair, the Y0 sum and the Y1 sum each
    stop after the first iteration whose largest weighted term is below 1e-18.

    Every intermediate lives in work, WORK_ROWS arrays of x's shape (made
    here when not given), and the four results are rows of it.
    """
    if work is None:
        work = np.empty((WORK_ROWS,) + x.shape)
    q, t, u, j0, j1, s0, s1, term = work
    h = _harmonic_numbers(61)
    np.multiply(0.25, x, out=q)
    q *= x
    t.fill(1.0)
    u.fill(1.0)
    j0.fill(1.0)
    j1.fill(1.0)
    s0.fill(0.0)
    s1.fill(1.0)  # the k = 0 term (H_0 + H_1) u_0
    j_open = y0_open = y1_open = True
    for k in range(1, 60):
        t *= q
        t /= k * k
        u *= q
        u /= k * (k + 1)
        t_top, u_top = np.max(t), np.max(u)
        # adds (-1)^k times a term, and its opposite
        alternate, opposite = (np.subtract, np.add) if k % 2 else (np.add, np.subtract)
        if j_open:
            alternate(j0, t, out=j0)
            alternate(j1, u, out=j1)
            j_open = max(t_top, u_top) >= 1e-18
        if y0_open:
            opposite(s0, np.multiply(h[k], t, out=term), out=s0)
            y0_open = t_top * h[k] >= 1e-18
        if y1_open:
            weight = h[k] + h[k + 1]
            alternate(s1, np.multiply(weight, u, out=term), out=s1)
            y1_open = u_top * weight >= 1e-18
        if not (j_open or y0_open or y1_open):
            break
    # q and the term sequences are spent: lg, Y0 and Y1 take their rows
    lg, y0, y1 = q, t, u
    j1 *= np.multiply(0.5, x, out=term)
    np.log(term, out=lg)
    lg += EULER_GAMMA
    # Y0 = (2/pi) (lg J0 + s0)
    np.multiply(lg, j0, out=y0)
    y0 += s0
    y0 *= 2.0 / math.pi
    # Y1 = ((2/pi) lg) J1 - 2/(pi x) - (x/(2 pi)) s1
    np.multiply(2.0 / math.pi, lg, out=y1)
    y1 *= j1
    y1 -= np.divide(2.0, np.multiply(math.pi, x, out=term), out=term)
    y1 -= np.multiply(np.divide(x, 2.0 * math.pi, out=term), s1, out=term)
    return j0, j1, y0, y1


def _pq_asymptotic(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P(n, x), Q(n, x) of the Hankel asymptotic expansion, truncated at the
    smallest term."""
    mu = 4.0 * n * n
    p = np.ones_like(x)
    q = np.zeros_like(x)
    term = np.ones_like(x)
    prev = np.full_like(x, np.inf)
    for k in range(1, 40):
        term = term * (mu - (2 * k - 1) ** 2) / (k * 8.0 * x)
        mag = np.max(np.abs(term))
        if mag > np.max(np.abs(prev)):
            break
        if k % 2 == 1:
            q += term * (-1.0) ** ((k - 1) // 2)
        else:
            p += term * (-1.0) ** (k // 2)
        prev = term
        if mag < 1e-18:
            break
    return p, q


def _jy01_asymptotic(x: np.ndarray):
    amp = np.sqrt(2.0 / (math.pi * x))
    out = []
    for n in (0, 1):
        p, q = _pq_asymptotic(n, x)
        chi = x - (0.5 * n + 0.25) * math.pi
        c, s = np.cos(chi), np.sin(chi)
        out.append((amp * (p * c - q * s), amp * (p * s + q * c)))
    (j0, y0), (j1, y1) = out
    return j0, j1, y0, y1


def _jy01(x: np.ndarray, work: np.ndarray | None = None):
    """J0, J1, Y0, Y1 on positive arguments, series below 13, asymptotic above.

    When every argument takes the series, it runs in work (see _jy01_series)."""
    x = np.asarray(x, dtype=float)
    small = x < _SERIES_SPLIT
    if x.size and np.all(small):
        return _jy01_series(x, work)
    j0 = np.empty_like(x)
    j1 = np.empty_like(x)
    y0 = np.empty_like(x)
    y1 = np.empty_like(x)
    if np.any(small):
        j0[small], j1[small], y0[small], y1[small] = _jy01_series(x[small])
    if np.any(~small):
        xl = x[~small]
        j0l, j1l, y0l, y1l = _jy01_asymptotic(xl)
        j0[~small], j1[~small], y0[~small], y1[~small] = j0l, j1l, y0l, y1l
    return j0, j1, y0, y1


# ----------------------------------------------------------------------------
# sequences up to order n
# ----------------------------------------------------------------------------

def bessel_j_sequence(n_max: int, x) -> np.ndarray:
    """J_0(x)..J_n_max(x) by backward recurrence with series normalization.

    Shape of the result: (n_max + 1,) + shape(x).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _check_x(x)
    if n_max <= 1:
        j0, j1, _, _ = _jy01(x)
        return np.stack([j0, j1][: n_max + 1])

    top = max(n_max, int(np.ceil(np.max(x))))
    start = top + max(20, int(math.isqrt(40 * top)))
    out = np.zeros((n_max + 1,) + x.shape)
    jp = np.zeros_like(x)            # J_{k+1}
    jc = np.full_like(x, 1e-30)      # J_k, arbitrary seed
    norm = np.zeros_like(x)
    for k in range(start, -1, -1):
        if k <= n_max:
            out[k] = jc
        if k % 2 == 0 and k >= 2:
            norm += 2.0 * jc
        if k == 0:
            norm += jc
            break
        jm = (2.0 * k / x) * jc - jp
        jp, jc = jc, jm
        big = np.abs(jc) > 1e250
        if np.any(big):
            scale = np.where(big, 1e-250, 1.0)
            jc = jc * scale
            jp = jp * scale
            norm = norm * scale
            out *= scale  # stored rows share the column scale
    return out / norm


def bessel_y_sequence(n_max: int, x) -> np.ndarray:
    """Y_0(x)..Y_n_max(x): series/asymptotic seeds, forward recurrence."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _check_x(x)
    _, _, y0, y1 = _jy01(x)
    out = np.zeros((n_max + 1,) + x.shape)
    out[0] = y0
    if n_max >= 1:
        out[1] = y1
    for n in range(1, n_max):
        out[n + 1] = (2.0 * n / x) * out[n] - out[n - 1]
    return out


def hankel1_sequence(n_max: int, x) -> np.ndarray:
    return bessel_j_sequence(n_max, x) + 1j * bessel_y_sequence(n_max, x)


def jy01_kernel(x: np.ndarray, *, work: np.ndarray | None = None):
    """Fast vectorized (J0, J1, Y0, Y1) for boundary-integral kernels.

    A caller that evaluates one shape of arguments again and again passes
    work, WORK_ROWS arrays of x's shape that it keeps: when every argument is
    below 13 the series runs in it and the results are rows of it, so the
    call allocates no float array of x's size."""
    x = np.asarray(x, dtype=float)
    _check_x(x)
    return _jy01(x, work)
