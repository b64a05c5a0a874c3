"""Discrete families of perturbed defects with certified separation.

The construction partitions the base segment/circle into disjoint cells of
half-width w >= 2*eps and places, per selected bit, one polynomial bump of
height eps in the cell center.  Two families members with different bit
patterns then disagree on a full cell: a bump peak of height eps faces a flat
stretch of half-width >= 2*eps on the other shape, which certifies pairwise
Hausdorff distance >= eps without any case analysis.  The family is indexed
lazily by bit patterns; its certified cardinality 2**cell_count is never
enumerated.  Sampled patterns come from ``random_bits``, a hand-written copy
of the bits of numpy's ``default_rng(entropy).integers(0, 2)``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from expinstab import shapes
from expinstab.shapes import FlatProfile, RadialProfile, Shape

# construction targets 95% of the norm budget: the discrete C^m norm
# under-approximates the true one, so membership keeps this safety margin
NORM_MARGIN = 0.95


def bump_values(m: int, height: float, half_width: float, t: np.ndarray) -> np.ndarray:
    """Samples of the bump b(t) = height * (1 - (t/half_width)^2)^(m+1).

    b has m continuous derivatives, all vanishing at +-half_width.
    """
    s = np.clip(np.abs(np.asarray(t, dtype=float)) / half_width, 0.0, 1.0)
    return height * (1.0 - s**2) ** (m + 1)


def build_bump(m: int, height: float, half_width: float, samples: int = 257) -> np.ndarray:
    """Uniform samples of the order-m bump on [-half_width, half_width]."""
    if height < 0 or half_width <= 0:
        raise ValueError("bump needs height >= 0 and half_width > 0")
    t = np.linspace(-half_width, half_width, samples)
    return bump_values(m, height, half_width, t)


# interior grid on which bump_derivative_maxima brackets critical points:
# dyadic nodes, t = 0 among them
ROOT_GRID = np.linspace(-1.0, 1.0, 1025)[1:-1]


def _bisect_roots(desc: np.ndarray, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Brackets [lo, hi] of adjacent floats around each root of the
    polynomial (descending coefficients) that vanishes on a grid node
    (lo == hi there) or changes sign between neighbouring nodes."""
    sign = np.sign(np.polyval(desc, grid))
    at = np.concatenate([np.flatnonzero(sign == 0), np.flatnonzero(sign[:-1] * sign[1:] < 0)])
    lo, hi, side = grid[at], grid[at + (sign[at] != 0)], sign[at]
    while True:
        mid = 0.5 * (lo + hi)
        if not ((lo < mid) & (mid < hi)).any():
            return lo, hi
        same = np.sign(np.polyval(desc, mid)) == side
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)


@lru_cache(maxsize=None)
def bump_derivative_maxima(m: int) -> np.ndarray:
    """sup over [-1,1] of |d^k/dt^k (1-t^2)^(m+1)| for k = 0..m.

    Computed from the integer polynomial coefficients (exact in float64 for
    every m in use).  d^j (1-t^2)^(m+1) = (1-t^2)^(m+1-j) P_j(t), and by
    Rolle's theorem P_j has j simple roots in (-1, 1); those of P_(k+1) are
    the interior critical points of the k-th derivative.  Each is bracketed
    on ROOT_GRID and bisected to adjacent floats, and the k-th derivative is
    evaluated at both ends and at +-1.  A root the grid misses raises.
    """
    coef = np.zeros(2 * m + 3)  # ascending powers of t
    coef[::2] = [(-1) ** j * math.comb(m + 1, j) for j in range(m + 2)]
    factor = np.ones(1)  # P_k, ascending powers of t
    out = np.empty(m + 1)
    for k in range(m + 1):
        # P_(k+1) = (1 - t^2) P_k' - 2 (m + 1 - k) t P_k
        slope = np.arange(1, factor.size) * factor[1:]
        factor, prev = np.zeros(factor.size + 1), factor
        factor[: slope.size] += slope
        factor[2:] -= slope
        factor[1:] -= 2 * (m + 1 - k) * prev
        lo, hi = _bisect_roots(factor[::-1], ROOT_GRID)
        if lo.size != k + 1:
            raise ArithmeticError(
                f"bump order {m}: found {lo.size} roots of derivative {k + 1} in (-1, 1), not {k + 1}"
            )
        pts = np.concatenate([lo, hi, [-1.0, 1.0]])
        out[k] = np.abs(np.polyval(coef[::-1], pts)).max()
        coef = np.arange(1, coef.size) * coef[1:]
    out.flags.writeable = False
    return out


def bump_norm_constant(m: int) -> float:
    """K(m): the order-m derivative maximum, so that the bump of height h and
    half-width w has C^m norm h*K(m)/w^m once w is small enough for the top
    order to dominate."""
    return float(bump_derivative_maxima(m)[m])


def _norm_half_width(m: int, height: float, beta: float) -> float:
    """Smallest half-width keeping the bump's true C^m norm <= NORM_MARGIN*beta."""
    maxima = bump_derivative_maxima(m)
    budget = NORM_MARGIN * beta
    if height > budget:
        raise ValueError(f"bump height {height} exceeds norm budget {budget}")
    w = 0.0
    for k in range(1, m + 1):
        w = max(w, (height * maxima[k] / budget) ** (1.0 / k))
    return w


@dataclass(frozen=True)
class ShapeClass:
    """Parameters of one perturbation class (kind, base geometry, m, beta)."""

    kind: str = shapes.RADIAL_SUBGRAPH
    base: float = 0.5
    m: int = 1
    beta: float = 1.0
    grid_size: int = shapes.DEFAULT_GRID

    @property
    def is_radial(self) -> bool:
        return self.kind in (shapes.RADIAL_GRAPH, shapes.RADIAL_SUBGRAPH)

    @property
    def usable_length(self) -> float:
        # flat profiles must vanish near the segment ends; keep 5% clear per side
        if self.is_radial:
            return 2.0 * np.pi * self.base
        return 2.0 * self.base * 0.9


def cell_half_width(cls: ShapeClass, eps: float) -> float:
    """Cell half-width: >= 2*eps for the separation argument and wide enough
    for the height-eps bump to respect the norm budget."""
    return max(2.0 * eps, _norm_half_width(cls.m, eps, cls.beta))


def class_eps0(cls: ShapeClass) -> float:
    """Largest eps for which at least two cells fit on the base."""
    # cell_half_width is strictly increasing in eps; bisect w(eps) = L/4
    target = cls.usable_length / 4.0
    lo, hi = 0.0, cls.usable_length
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        try:
            w = cell_half_width(cls, mid)
        except ValueError:
            hi = mid
            continue
        if w <= target:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class PackingFamily:
    """Lazily indexable eps-discrete family: bit pattern -> Shape."""

    shape_class: ShapeClass
    eps: float
    cell_count: int
    eps0: float  # class_eps0 of the shape class
    _cell_slices: tuple = field(repr=False, default=())
    _cell_bumps: tuple = field(repr=False, default=())

    @property
    def certified_log_cardinality(self) -> float:
        return self.cell_count * math.log(2.0)

    def pattern_bits(self, pattern: int) -> np.ndarray:
        if not 0 <= pattern < (1 << self.cell_count):
            raise ValueError(f"pattern must be in [0, 2^{self.cell_count})")
        return np.array([(pattern >> c) & 1 for c in range(self.cell_count)], dtype=bool)

    def shape(self, pattern: int) -> Shape:
        bits = self.pattern_bits(pattern)
        cls = self.shape_class
        values = np.zeros(cls.grid_size)
        for c in np.nonzero(bits)[0]:
            idx, bump = self._cell_slices[c], self._cell_bumps[c]
            values[idx] = bump
        if cls.is_radial:
            return Shape(cls.kind, RadialProfile(values, base_radius=cls.base))
        return Shape(cls.kind, FlatProfile(values, half_width=cls.base))

    def base_shape(self) -> Shape:
        return self.shape(0)

    def sample_patterns(self, entropy: int | Sequence[int], count: int) -> list[int]:
        """Distinct patterns, in the order drawn: each draws cell_count bits
        of ``random_bits(entropy)``, cell 0 first; all patterns when there
        are at most count."""
        total = 1 << self.cell_count
        if total <= count:
            return list(range(total))
        bits = random_bits(entropy)
        seen: dict[int, None] = {}
        while len(seen) < count:
            pattern = sum(next(bits) << c for c in range(self.cell_count))
            seen.setdefault(pattern, None)
        return list(seen)


# numpy's SeedSequence and PCG64 constants (numpy/random/bit_generator.pyx,
# numpy/random/src/pcg64/pcg64.h)
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _entropy_words(entropy: int | Sequence[int]) -> list[int]:
    """SeedSequence's 32-bit words of a non-negative int (low word first, 0
    as one word) or of a sequence of them, concatenated."""
    if not isinstance(entropy, int):
        return [w for value in entropy for w in _entropy_words(value)]
    if entropy < 0:
        raise ValueError(f"entropy must be non-negative, got {entropy}")
    words = [entropy & _MASK32]
    while entropy := entropy >> 32:
        words.append(entropy & _MASK32)
    return words


def _seed_state(entropy: int | Sequence[int]) -> list[int]:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` as ints."""
    words = _entropy_words(entropy)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_L * x - _MIX_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


def random_bits(entropy: int | Sequence[int]) -> Iterator[int]:
    """The bits that ``np.random.default_rng(entropy).integers(0, 2, ...)``
    draws, one at a time and bit for bit, without importing numpy.random
    (5.6 MB of resident memory).

    PCG64 (XSL-RR output) is seeded from SeedSequence's state; each 64-bit
    output gives two 32-bit words, low half first, and Lemire's bounded draw
    on range 2 keeps bit 31 of each word and never rejects."""
    s0, s1, s2, s3 = _seed_state(entropy)
    inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128  # 2 initseq + 1
    state = (inc + (s0 << 64 | s1)) & _MASK128  # state 0 stepped, plus initstate
    state = (state * _PCG_MULT + inc) & _MASK128
    while True:
        state = (state * _PCG_MULT + inc) & _MASK128
        value = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        word = (value >> rot | value << (64 - rot)) & _MASK64
        yield word >> 31 & 1
        yield word >> 63


def build_packing(cls: ShapeClass, eps: float) -> PackingFamily:
    """Construct the eps-discrete family; refuses eps >= eps0 of the class."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    eps0 = class_eps0(cls)
    if eps >= eps0:
        raise ValueError(f"eps={eps} too large for this class: needs eps < eps0={eps0:.6g}")
    w = cell_half_width(cls, eps)
    length = cls.usable_length
    mc = int(length // (2.0 * w))
    if mc < 2:  # unreachable below eps0, kept as a guard
        raise ValueError(f"eps={eps} leaves fewer than two cells (eps0={eps0:.6g})")

    m_grid = cls.grid_size
    slices, bumps = [], []
    if cls.is_radial:
        centers = 2.0 * np.pi * (np.arange(mc) + 0.5) / mc
        theta = 2.0 * np.pi * np.arange(m_grid) / m_grid
        half_angle = w / cls.base
        for theta_c in centers:
            delta = np.angle(np.exp(1j * (theta - theta_c)))
            idx = np.nonzero(np.abs(delta) < half_angle)[0]
            arc = cls.base * delta[idx]
            slices.append(idx)
            bumps.append(bump_values(cls.m, eps, w, arc))
    else:
        centers = (2.0 * np.arange(mc) - (mc - 1)) * w
        grid = np.linspace(-cls.base, cls.base, m_grid)
        for t_c in centers:
            idx = np.nonzero(np.abs(grid - t_c) < w)[0]
            slices.append(idx)
            bumps.append(bump_values(cls.m, eps, w, grid[idx] - t_c))

    return PackingFamily(
        shape_class=cls,
        eps=eps,
        cell_count=mc,
        eps0=eps0,
        _cell_slices=tuple(slices),
        _cell_bumps=tuple(bumps),
    )


def packing_lower_bound(eps: float, m: int, eps0: float) -> float:
    """Certified log-cardinality lower bound for an eps-discrete subset:
    2^-N * eps0^((N-1)/m) * eps^(-(N-1)/m) at N = 2 (every shape class is
    planar), natural-log scale.  The class's beta enters only through eps0."""
    if not 0 < eps < eps0:
        raise ValueError(f"need 0 < eps < eps0, got eps={eps}, eps0={eps0}")
    power = 1 / m
    return 0.25 * eps0**power * eps ** (-power)


def construction_eps0_prime(cls: ShapeClass) -> float:
    """Largest tested eps below which the built family's certified cardinality
    dominates the packing lower bound on the whole test grid."""
    eps0 = class_eps0(cls)
    ok_up_to = 0.0
    for eps in eps0 * np.geomspace(1e-3, 0.999, 60):
        fam = build_packing(cls, float(eps))
        bound = packing_lower_bound(float(eps), cls.m, eps0)
        if fam.certified_log_cardinality >= bound:
            ok_up_to = float(eps)
        else:
            break
    return ok_up_to
