"""Bessel and Hankel functions of integer order on the real line.

J_n is computed by Miller's backward recurrence normalized with
J_0 + 2*sum_k J_2k = 1; Y_n by forward recurrence seeded with Y_0, Y_1 from
their power series (x < 13) or the large-argument P/Q asymptotic expansions
(x >= 13); H_n^(1) = J_n + i*Y_n.  Targets relative accuracy ~1e-10 for
n <= 80 on x in [0.3, 60] (series branches stay accurate down to x -> 0).

The power series of J0, J1, Y0 and Y1 are one matrix product: a read-only
4-row table of coefficients times the powers of q = x^2/4, built in
cache-sized column chunks, with as many powers as the batch's largest
argument needs.  A value's bits depend on its own argument and that number
of powers alone, not on its place in the batch.  Against scipy, relative to
|H_n|, the series is within 1e-14 on x <= 5 and 2e-11 on x < 13.  A caller
may hand jy01_kernel the four result arrays and a flat scratch of two
arrays' worth of floats, so that the call allocates nothing of the batch's
size.
"""

from __future__ import annotations

import functools
import math

import numpy as np

EULER_GAMMA = 0.577215664901532860606512090082

_SERIES_SPLIT = 13.0
_X_MAX = 200.0
_SERIES_TERMS = 60  # powers q^0 .. q^59 at most
_BLOCK = 1 << 17  # floats of one chunk's powers of q and sums, at most: 1 MB
_PAD = 32  # a chunk's column count is a multiple of this


def _check_x(x: np.ndarray) -> None:
    if np.any(x <= 0.0) or np.any(x > _X_MAX):
        raise ValueError(f"argument must lie in (0, {_X_MAX}]")


# ----------------------------------------------------------------------------
# order 0 and 1 by series / asymptotics (vectorized workhorses for kernels)
# ----------------------------------------------------------------------------

@functools.cache
def _series_table() -> np.ndarray:
    """Read-only 4 x _SERIES_TERMS table of the power-series coefficients in
    q = x^2/4, each the correctly rounded quotient of two exact integers:
    J0 = sum (-1)^k q^k/(k!)^2, 2 J1/x = sum (-1)^k q^k/(k!(k+1)!), and the
    sums s0 = sum_{k>=1} (-1)^(k+1) H_k q^k/(k!)^2 and
    s1 = sum_k (-1)^k (H_k + H_{k+1}) q^k/(k!(k+1)!) of Y0 and Y1."""
    table = np.empty((4, _SERIES_TERMS))
    for k in range(_SERIES_TERMS):
        f, g = math.factorial(k), math.factorial(k + 1)
        h = sum(f // j for j in range(1, k + 1))  # k! H_k
        h_next = sum(g // j for j in range(1, k + 2))  # (k+1)! H_(k+1)
        sign = (-1) ** k
        table[:, k] = (sign / f**2, sign / (f * g), -sign * h / f**3,
                       sign * ((k + 1) * h + h_next) / (f * g * g))
    table.flags.writeable = False
    return table


def _series_degree(q_max: float) -> int:
    """Terms the batch needs: through the first k >= 1 whose largest term at
    q_max, |c_k| q_max^k over the four series, is below 1e-18."""
    terms = np.abs(_series_table()[:, 1:]).max(axis=0) * q_max ** np.arange(1, _SERIES_TERMS)
    small = np.flatnonzero(terms < 1e-18)
    return int(small[0]) + 2 if small.size else _SERIES_TERMS


def _jy01_series(x: np.ndarray, work: np.ndarray | None = None, out=None):
    """J0, J1, Y0, Y1 from their power series in q = x^2/4.

    The four sums J0, 2 J1/x, s0 and s1 (see _series_table) are one matrix
    product: the table's first d columns times the powers 1, q, ..., q^(d-1),
    with d from the batch's largest q (_series_degree).  The product runs over
    column chunks of at most _BLOCK floats of powers and sums, and each
    value's bits depend only on its own argument and on d.  Then, with
    lg = ln(x/2) + gamma, Y0 = (2/pi) (lg J0 + s0) and
    Y1 = (2/pi) lg J1 - 2/(pi x) - (x/(2 pi)) s1.

    The sums go into out, four C-ordered arrays of x's shape, and every other
    intermediate lives in work, a flat array of at least 2 x.size floats:
    first the chunk in hand, then lg and one term.  Either is made here when
    not given.
    """
    size = x.size
    if out is None:
        out = np.empty((4,) + x.shape)
    if work is None:
        work = np.empty(2 * size)
    rows = [value.reshape(-1) for value in out]
    xs = x.reshape(-1)
    x_max = float(np.max(xs))
    degree = _series_degree(0.25 * x_max * x_max)
    table = _series_table()[:, :degree]
    spare = work[: 2 * size]
    width = min(spare.size, _BLOCK) // (4 + degree) // _PAD * _PAD
    if width == 0:  # too few arguments to hold one padded chunk
        width = _PAD
        spare = np.empty((4 + degree) * width)
    # a chunk's four sums, then its powers, one column per argument
    block = spare[:(4 + degree) * width].reshape(4 + degree, width)
    block[4] = 1.0  # q^0, for every chunk
    for start in range(0, size, width):
        chunk = xs[start:start + width]
        # BLAS sums every column of full kernel tiles in one order: pad to them
        padded = -(-chunk.size // _PAD) * _PAD
        sums, p = block[:4, :padded], block[4:, :padded]
        np.multiply(0.25, chunk, out=p[1, :chunk.size])
        p[1, :chunk.size] *= chunk
        p[1, chunk.size:] = 0.0
        filled = 2
        while filled < degree:  # rows f .. 2f - 1 (f = filled) as q^f q^j, in two products
            np.multiply(p[filled - 1], p[1], out=p[filled])
            top = min(2 * filled, degree)
            np.multiply(p[1:top - filled], p[filled], out=p[filled + 1:top])
            filled = top
        np.matmul(table, p, out=sums)
        for row, value in zip(rows, sums):
            row[start:start + chunk.size] = value[:chunk.size]
    j0, j1, y0, y1 = out
    lg, term = work[: 2 * size].reshape((2,) + x.shape)
    # j1 holds 2 J1/x, y0 the sum s0 and y1 the sum s1
    j1 *= np.multiply(0.5, x, out=term)
    np.log(term, out=lg)
    lg += EULER_GAMMA
    # Y0 = (2/pi) (lg J0 + s0)
    y0 += np.multiply(lg, j0, out=term)
    y0 *= 2.0 / math.pi
    # Y1 = ((2/pi) lg) J1 - 2/(pi x) - (x/(2 pi)) s1
    lg *= 2.0 / math.pi
    lg *= j1
    lg -= np.divide(2.0, np.multiply(math.pi, x, out=term), out=term)
    y1 *= np.divide(x, 2.0 * math.pi, out=term)
    np.subtract(lg, y1, out=y1)
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


def _jy01(x: np.ndarray, work: np.ndarray | None = None, out=None):
    """J0, J1, Y0, Y1 on positive arguments, series below 13, asymptotic above,
    written into out when given.

    When every argument takes the series, it runs in work (see _jy01_series)."""
    x = np.asarray(x, dtype=float)
    small = x < _SERIES_SPLIT
    if x.size and np.all(small):
        return _jy01_series(x, work, out)
    if out is None:
        out = [np.empty_like(x) for _ in range(4)]
    j0, j1, y0, y1 = out
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


def jy01_kernel(x: np.ndarray, *, work: np.ndarray | None = None, out=None):
    """Fast vectorized (J0, J1, Y0, Y1) for boundary-integral kernels.

    A caller that evaluates one shape of arguments again and again passes
    out, four C-ordered arrays of x's shape, and work, a flat array of at
    least 2 x.size floats, both of which it keeps: the values are written
    into out (asymptotic ones too), and when every argument is below 13 the
    series runs in work, so the call allocates no float array of x's size.
    Neither may share memory with x or with each other."""
    x = np.asarray(x, dtype=float)
    _check_x(x)
    if out is not None and not all(v.shape == x.shape and v.flags.c_contiguous for v in out):
        raise ValueError("out must be four C-ordered arrays of the arguments' shape")
    return _jy01(x, work, out)
