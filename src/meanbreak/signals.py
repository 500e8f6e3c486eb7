"""Declarative mean/volatility paths, their variance integrals, and seeded
Gaussian series synthesis.

A series is y_t = mu_t + sigma_t * eps_t with eps_t ~ N(0, 1).  Both paths
are deterministic functions of t/n: constant, step (abrupt regime changes at
given sample fractions) or smooth (logistic or exponential transition).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TransitionSpec",
    "MeanSpec",
    "SigmaSpec",
    "transition",
    "mean_path",
    "sigma_path",
    "ergodic_variance_limit",
    "partial_variance_limit",
    "gaussian_stream",
    "noise_blocks",
    "generate_series",
]

_FAMILIES = ("logistic", "exponential")

# Guards against 2/3 * 3 = 1.9999999999999998-style representation error
# when taking the integer part of fraction * n.
_FLOOR_NUDGE = 1e-9


@dataclass(frozen=True)
class TransitionSpec:
    """Smooth transition function: logistic or exponential, located at tau1
    with slope gamma."""

    family: str
    tau1: float
    gamma: float

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown transition family {self.family!r}")
        if not 0.0 < self.tau1 < 1.0:
            raise ValueError(f"tau1 must lie in (0, 1), got {self.tau1}")
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        # Stored as Python floats: a spec is a memo key in asymptotics, so it
        # must hash (a 0-d array would not), and equal specs must compute
        # the same bits.
        object.__setattr__(self, "tau1", float(self.tau1))
        object.__setattr__(self, "gamma", float(self.gamma))


def _exp_or_inf(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def transition(spec: TransitionSpec, x):
    """Evaluate the transition function at x (scalar or array), in [0, 1].

    Logistic: 1 / (1 + exp(-gamma (x - tau1))).
    Exponential: 1 - exp(-gamma (x - tau1)^2).
    Both are evaluated in overflow-safe form, in a copy of x.

    The logistic is the formula scipy's ``expit`` evaluates, on libm ``exp``
    (``math.exp``) for every element, 0 where ``exp`` overflows.  numpy's own
    ``exp`` is not libm's on every machine (AVX-512 builds differ in the last
    bits), and scipy is no runtime dependency.  A scalar runs as a 0-d array,
    whose ``** 2`` is C ``pow``; a longer array squares by multiplication
    (numpy's fast ``** 2``), which rounds differently.
    """
    out = _transition(spec, np.array(x, dtype=np.float64, order="C"))
    return float(out) if np.isscalar(x) else out


def _transition(spec: TransitionSpec, arr: np.ndarray) -> np.ndarray:
    """:func:`transition` of a C-contiguous float64 array, which it may
    overwrite.  The logistic runs its exponent in ``arr`` and its 1 / (1 +
    e) in the array of ``exp`` values: two path-sized arrays at most.  The
    exponential runs in ``arr`` alone, in the operation order of -expm1(-gamma
    (arr - tau1) ** 2); a 0-d array keeps that expression, whose ``** 2`` on
    a numpy scalar is C pow, where ``np.square`` multiplies."""
    if spec.family == "logistic":
        arr -= spec.tau1
        arr *= -spec.gamma
        # A memoryview yields the Python floats math.exp takes, with no list.
        w = memoryview(arr.ravel())
        try:
            e = np.fromiter(map(math.exp, w), np.float64, len(w))
        except OverflowError:
            e = np.fromiter(map(_exp_or_inf, w), np.float64, len(w))
        e += 1.0
        return np.divide(1.0, e, out=e).reshape(arr.shape)
    if arr.ndim == 0:
        return -np.expm1(-spec.gamma * (arr - spec.tau1) ** 2)
    arr -= spec.tau1
    np.square(arr, out=arr)
    arr *= -spec.gamma
    np.expm1(arr, out=arr)
    return np.negative(arr, out=arr)


@dataclass(frozen=True)
class _PathSpec:
    """Deterministic path of the sample fraction: constant, step with levels
    at given fractions, or a smooth two-regime transition."""

    variant: str
    levels: tuple[float, ...]
    fractions: tuple[float, ...] = ()
    transition: TransitionSpec | None = None

    def __post_init__(self) -> None:
        if self._positive:
            if any(not (math.isfinite(v) and v > 0.0) for v in self.levels):
                raise ValueError("volatility levels must be finite and strictly positive")
        elif any(not math.isfinite(v) for v in self.levels):
            raise ValueError("levels must be finite")
        if self.variant not in ("constant", "step", "smooth"):
            raise ValueError(f"unknown {self._kind} variant {self.variant!r}")
        if self.variant != "step" and len(self.fractions):
            raise ValueError(f"{self.variant} variant takes no fractions, got {self.fractions}")
        if self.variant != "smooth" and self.transition is not None:
            raise ValueError(f"{self.variant} variant takes no transition, got {self.transition}")
        if self.variant == "constant":
            if len(self.levels) != 1:
                raise ValueError("constant variant takes exactly one level")
        elif self.variant == "step":
            if len(self.levels) != len(self.fractions) + 1:
                raise ValueError("step variant needs len(levels) == len(fractions) + 1")
            edges = (0.0, *self.fractions, 1.0)
            if not all(a < b for a, b in zip(edges, edges[1:])):
                raise ValueError("step fractions must be strictly increasing within (0, 1),"
                                 f" got {self.fractions}")
        elif len(self.levels) != 2 or not isinstance(self.transition, TransitionSpec):
            raise ValueError("smooth variant needs two levels and a TransitionSpec,"
                             f" got {len(self.levels)} levels and {self.transition!r}")
        # Stored as Python floats, as TransitionSpec stores its own: equal
        # specs then build the same paths (an int level would build int64).
        object.__setattr__(self, "levels", tuple(map(float, self.levels)))
        object.__setattr__(self, "fractions", tuple(map(float, self.fractions)))

    @classmethod
    def step(cls, levels, fractions):
        return cls(variant="step", levels=tuple(levels), fractions=tuple(fractions))

    @classmethod
    def smooth(cls, level_from: float, level_to: float, spec: TransitionSpec):
        return cls(variant="smooth", levels=(level_from, level_to), transition=spec)


class MeanSpec(_PathSpec):
    """Mean path: constant, step, or smooth; levels may take any finite value."""

    _kind = "mean"
    _positive = False

    @classmethod
    def constant(cls, mu: float) -> "MeanSpec":
        return cls(variant="constant", levels=(mu,))


class SigmaSpec(_PathSpec):
    """Volatility path: constant, step, or smooth; levels are strictly
    positive."""

    _kind = "sigma"
    _positive = True

    @classmethod
    def constant(cls, sigma: float) -> "SigmaSpec":
        return cls(variant="constant", levels=(sigma,))


def _segments(spec: _PathSpec, n: int) -> list:
    """The path of ``spec`` at t = 1..n as segments (start, stop, level): t =
    start + 1..stop, the slice ``y[start:stop]``, holds ``level``.  A
    constant or step spec gives one per regime with its level as a float; a
    step's regime j ends at the integer part [fraction_j * n] (a break closes
    a regime), nudged so that e.g. (2/3) * 3 floors to 2, and breaks that
    floor alike leave empty segments.  A smooth spec is one segment, whose
    level is its :func:`mean_path` array."""
    if spec.variant == "smooth":
        return [(0, n, mean_path(spec, n))]
    edges = [0, *(math.floor(f * n + _FLOOR_NUDGE) for f in spec.fractions), n]
    return list(zip(edges, edges[1:], spec.levels))


def mean_path(spec: _PathSpec, n: int) -> np.ndarray:
    """Mean or volatility (``sigma_path`` is this function) at t = 1..n; step
    boundaries follow the integer-part convention of ``_segments``, smooth
    paths evaluate the transition at x = t/n (right endpoint included).
    ``n`` is an integer (anything else raises ``TypeError``).

    A constant or step path is its levels repeated over their segments: the
    path is the one array built.  A smooth path builds t/n in place and runs
    the transition in it, so a logistic one peaks at two path-sized arrays
    and an exponential one at one."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be positive")
    if spec.variant != "smooth":
        return np.repeat(spec.levels, [stop - start for start, stop, _ in _segments(spec, n)])
    path = np.arange(1, n + 1, dtype=np.float64)
    path /= n
    path = _transition(spec.transition, path)
    lo, hi = spec.levels
    path *= hi - lo  # lo + (hi - lo) * F, in place
    path += lo
    return path


sigma_path = mean_path


def _logistic_square_tail(z: float) -> float:
    """log1p(u) - u / (1 + u) at u = e^z, an antiderivative in z of F^2 =
    (u / (1 + u))^2, which cancels down to u^2 / 2 where u is small, by its
    series sum_{k>=2} (-1)^k (k - 1) u^k / k, summed until it stops changing."""
    u = math.exp(z)
    power, k, total = u * u, 2, 0.0  # power: (-1)^k u^k
    while True:
        total_next = total + (k - 1) * power / k
        if total_next == total:
            return total
        total, k = total_next, k + 1
        power *= -u


def _logistic_moments(tau1: float, gamma: float, a: float, b: float):
    """int_a^b F and int_a^b F^2 of the logistic transition: int F =
    softplus(gamma (x - tau1)) / gamma, and F' = gamma F (1 - F) gives
    int F^2 = int F - F / gamma.  exp(-|z|) cannot overflow.

    Below a slope of 1 the softplus difference loses about 1e-16 / gamma.
    So where gamma and gamma |b - a| are below 1 (every interval the library
    integrates), both come from g = expm1(gamma (b - a)), which lies in
    (-0.64, 1.72) there: int F = log1p(F(a) g) / gamma and F(b) - F(a) =
    F(a) (1 - F(b)) g, where 1 - F(b) is the logistic at -gamma (b - tau1).

    int F - F / gamma subtracts two terms of about e^z / gamma to leave
    about e^(2z) / (2 gamma), so its relative error grows as 1e-16 e^(-z).
    Where z < -13 at both ends (beyond every interval the library
    integrates), int F^2 is the difference of ``_logistic_square_tail``
    over gamma instead; int F keeps its form."""
    z_a, z_b = gamma * (a - tau1), gamma * (b - tau1)
    if gamma < 1.0 and gamma * abs(b - a) < 1.0:
        g = math.expm1(gamma * (b - a))
        f_a = 1.0 / (1.0 + _exp_or_inf(-z_a))
        m1 = math.log1p(f_a * g) / gamma
        m2 = m1 - f_a * g / (1.0 + _exp_or_inf(z_b)) / gamma
    else:
        ends = []
        for z in (z_a, z_b):
            e = math.exp(-abs(z))
            soft = (0.0 if z < 0.0 else z) + math.log1p(e)
            ends.append((soft, (1.0 if z >= 0.0 else e) / (1.0 + e)))
        (soft_a, f_a), (soft_b, f_b) = ends
        m1 = (soft_b - soft_a) / gamma
        m2 = m1 - (f_b - f_a) / gamma
    if max(z_a, z_b) < -13.0:
        m2 = (_logistic_square_tail(z_b) - _logistic_square_tail(z_a)) / gamma
    return m1, m2


def _exponential_series(x: float):
    """h(x) = int_0^x (1 - exp(-t^2)) dt and h2(x) = int_0^x (1 - exp(-t^2))^2
    dt by their Taylor series, for |x| < 1.  Term k >= 1 of h is (-1)^(k+1)
    x^(2k+1) / (k! (2k+1)), and h2's is -(2^k - 2) times it, from (1 -
    e^-s)^2 = sum_{k>=2} (-1)^k (2^k - 2) s^k / k!.  Summed until neither
    sum changes."""
    x2 = x * x
    power, k, h, h2 = x * x2, 1, 0.0, 0.0  # power: (-1)^(k+1) x^(2k+1) / k!
    while True:
        term = power / (2 * k + 1)
        h_next, h2_next = h + term, h2 - (2.0**k - 2.0) * term
        if h_next == h and h2_next == h2:
            return h, h2
        h, h2, k = h_next, h2_next, k + 1
        power *= -x2 / k


def _exponential_moments(tau1: float, gamma: float, a: float, b: float):
    """int_a^b F and int_a^b F^2 of the exponential transition: with u = x -
    tau1, F^2 = 1 - 2 exp(-gamma u^2) + exp(-2 gamma u^2), and int exp(-c u^2)
    = sqrt(pi / c) erf(sqrt(c) u) / 2.

    Those forms are (b - a) less an O(1) erf term, and lose about 1e-16 /
    (gamma u^2) relative.  So where gamma < 1 and x = sqrt(gamma) u lies in
    (-1, 1) at both ends (every interval of [0, 1] at such a slope), both
    come from the series of ``_exponential_series``: int F = (h(x_b) -
    h(x_a)) / sqrt(gamma), and likewise with h2."""
    root, root2 = math.sqrt(gamma), math.sqrt(2.0 * gamma)
    x_a, x_b = root * (a - tau1), root * (b - tau1)
    if gamma < 1.0 and abs(x_a) < 1.0 and abs(x_b) < 1.0:
        (h_a, h2_a), (h_b, h2_b) = _exponential_series(x_a), _exponential_series(x_b)
        return (h_b - h_a) / root, (h2_b - h2_a) / root
    half = 0.5 * math.sqrt(math.pi / gamma)
    e1 = math.erf(x_b) - math.erf(x_a)
    e2 = math.erf(root2 * (b - tau1)) - math.erf(root2 * (a - tau1))
    m1 = (b - a) - half * e1
    return m1, (b - a) - 2.0 * half * e1 + half / math.sqrt(2.0) * e2


def _transition_moments(spec: TransitionSpec, a: float, b: float):
    """(int_a^b F, int_a^b F^2) of the transition F in closed form, for any
    real a and b."""
    moments = _logistic_moments if spec.family == "logistic" else _exponential_moments
    return moments(spec.tau1, spec.gamma, a, b)


def partial_variance_limit(spec: SigmaSpec, tau: float) -> float:
    """Limit of (1/n) sum_{t <= n tau} sigma_t^2, i.e. int_0^tau sigma(x)^2 dx.

    Normalized by the full ergodic variance this is the limiting variance of
    the partial-sum process at sample fraction tau; it reduces to tau *
    sigma^2 for a constant volatility path.  Closed form for every variant:
    a smooth path from lo to hi squares to lo^2 + 2 lo d F + d^2 F^2 with d
    = hi - lo, whose integrals ``_transition_moments`` gives.
    """
    tau = float(tau)
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    if spec.variant == "constant":
        return tau * spec.levels[0] ** 2
    if spec.variant == "step":
        edges = np.asarray((0.0, *spec.fractions, 1.0))
        levels2 = np.square(np.asarray(spec.levels))
        widths = np.minimum(edges[1:], tau) - np.minimum(edges[:-1], tau)
        return float(widths @ levels2)
    m1, m2 = _transition_moments(spec.transition, 0.0, tau)
    lo, hi = spec.levels
    d = hi - lo
    return lo * lo * tau + 2.0 * lo * d * m1 + d * d * m2


def ergodic_variance_limit(spec: SigmaSpec) -> float:
    """Limit of (1/n) sum sigma_t^2: ``partial_variance_limit`` at tau = 1."""
    return partial_variance_limit(spec, 1.0)


def gaussian_stream(seed, count: int) -> np.ndarray:
    """Deterministic standard normal variates from a counter-based generator.

    ``seed`` is an integer or a tuple of integers (anything else raises
    ``TypeError``); the same seed yields a bit-identical stream across runs,
    platforms, and call orders, which makes parallel replication with
    disjoint derived seeds reproducible.
    """
    if count < 1:
        raise ValueError("count must be positive")
    seeds = seed if isinstance(seed, (tuple, list)) else [seed]
    entropy = [operator.index(v) for v in seeds]
    bit_gen = np.random.Philox(np.random.SeedSequence(entropy))
    return np.random.Generator(bit_gen).standard_normal(count)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): its constants,
# its pool of four 32-bit words and its shift.  ``_philox_keys`` repeats it
# over arrays of replications.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_XSHIFT = np.uint32(16)


def _uint32_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a nonnegative integer, as SeedSequence
    splits entropy: 0 is one word, 2**32 two.  A value that is not an
    integer raises ``TypeError``, as in :func:`gaussian_stream`."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"seed entries must be nonnegative, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's running hash over uint32 arrays: each call xors the
    value with the running constant, advances the constant by ``mult`` and
    multiplies."""
    const = init

    def step(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    return step


def _philox_keys(prefix, reps) -> np.ndarray:
    """Philox keys of ``gaussian_stream(tuple(prefix) + (r,), ...)`` for every
    r in ``reps``, shape (len(reps), 2) uint64.

    Each row equals ``SeedSequence(list(prefix) + [r]).generate_state(2,
    np.uint64)``.  The hash constants do not depend on the data, so the
    SeedSequence algorithm runs elementwise over the replications.  Every r
    must fit one 32-bit word.
    """
    r = np.asarray(reps, dtype=np.int64)
    if r.size and (r.min() < 0 or r.max() > _MASK32):
        raise ValueError("replication indices must lie in [0, 2**32)")
    entropy = [np.full(r.shape, w, np.uint32) for v in prefix for w in _uint32_words(v)]
    entropy.append(r.astype(np.uint32))
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    zero = np.zeros(r.shape, np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    # generate_state(2, np.uint64): four output words, paired little-endian.
    output = _hasher(_INIT_B, _MULT_B)
    low0, high0, low1, high1 = (output(value).astype(np.uint64) for value in pool)
    shift = np.uint64(32)
    return np.stack([low0 | high0 << shift, low1 | high1 << shift], axis=-1)


# Values per block of ``noise_blocks``: bounds a block's memory, and at
# n >= 2**14 makes it one replication.
_BLOCK_ELEMENTS = 2**14


def noise_blocks(prefix, reps: range, n: int):
    """Standard normals of the replications ``reps``, as (rows, n) blocks of
    at most ``_BLOCK_ELEMENTS`` values (one row at least); the row of
    replication r is ``gaussian_stream((*prefix, r), n)`` bit for bit.

    Keys are derived for ``_BLOCK_ELEMENTS`` replications at a time (see
    ``_philox_keys``), and one generator is set to each key in turn, with
    the zero counter and empty buffer of a newly seeded Philox.  The state
    holds Python ints, which the state setter reads faster than array items.
    """
    rows = max(1, _BLOCK_ELEMENTS // n)
    zeros = [0, 0, 0, 0]
    state = {"bit_generator": "Philox", "buffer": zeros, "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    bit_gen = np.random.Philox(key=zeros[:2])
    gen = np.random.Generator(bit_gen)
    for batch in range(0, len(reps), _BLOCK_ELEMENTS):
        keys = _philox_keys(prefix, reps[batch:batch + _BLOCK_ELEMENTS]).tolist()
        for start in range(0, len(keys), rows):
            block = keys[start:start + rows]
            out = np.empty((len(block), n))
            for row, key in zip(out, block):
                state["state"] = {"counter": zeros, "key": key}
                bit_gen.state = state
                gen.standard_normal(out=row)
            yield out


def _apply(op, y: np.ndarray, segments) -> None:
    """``op(y, path, out=y)`` along the last axis of ``y``, one (start, stop,
    level) segment of the path at a time, where a level is a float or an
    array of the segment's width.  Each element meets its own level, so the
    bits are those of the full path."""
    for start, stop, level in segments:
        part = y[..., start:stop]
        op(part, level, out=part)


def generate_series(mean: MeanSpec, sigma: SigmaSpec, n: int, seed) -> np.ndarray:
    """Synthesize y_t = mu_t + sigma_t * eps_t for t = 1..n, in the array of
    eps: ``eps *= sigma``, then ``eps += mu``, which rounds as mu + sigma *
    eps.  A constant or step path is applied as its level segments, and only
    a smooth one is built."""
    eps = gaussian_stream(seed, n)
    _apply(np.multiply, eps, _segments(sigma, n))
    _apply(np.add, eps, _segments(mean, n))
    return eps
