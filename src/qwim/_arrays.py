"""The array layer: the layer chain over whole energy grids and over a
trajectory's intervals, and the exact maps of linear sub-slabs.

This is the only qwim module that the chain pulls numpy in through, and
it is imported on first use: by ``scattering``'s energy sweeps and the
resonance scan where they take the array pass (``analytic._array_pass``),
by ``analytic._chain`` when it walks linear (sampled) slabs with numpy
loaded already, and by the walks of ``analytic._bridge`` and
``analytic._read`` on a piecewise potential's trajectory.  Work at one
energy never loads it.
Like the scalar walkers, every function here walks zeta = (m/hbar) Z
and takes the units as c = 2m/hbar^2 alone.

``_chain_many`` is ``analytic._chain`` over an energy array: one array
pass per slab (``_slabs_many``) or per linear sub-slab
(``_linear_many``), with an ``ok`` mask marking the energies where the
scalar walk would raise.  ``_slabs_many`` takes the tanh step's cosh
and sinh at every slab-energy entry and patches in the saturated form
and the linear step at a slab level only where an entry needs one, so
an ordinary entry keeps its bits whatever else its block holds; its
recurrence steps in place on its own buffers.
``_region_constants_many`` is ``analytic._constants`` over an array.

A sampled potential is linear between its samples, U = u0 + F s, and
there psi'' = (A + B s) psi with A = c (u0 - E) and B = c F.
``_linear_maps`` splits each sample interval into sub-slabs of length h
with h sqrt(max |A|) <= 1 and h |B|^(1/3) <= 1.  There the Taylor
series of the fundamental pair f, g (f = g' = 1, f' = g = 0 at the
start) converges in under 30 terms with no cancellation (``_series``),
each entry stopped by its own majorant and summed smallest term first,
so that a sub-slab's map is a function of its own a = A h^2 and
b = B h^3 alone, bit for bit the plain-Python twin's
(``analytic._series``), wherever the sub-slab sits in a pass; and zeta
maps across the sub-slab exactly as

    zeta -> (-i f' + g' zeta) / (f + i g zeta),

with psi(start) / psi(end) = 1 / den, the shape of a constant slab's
step in ``analytic._chain``.  ``_linear_steps`` hands those maps to the
scalar walker at one energy.

``_anchored_many`` is the array pass of the walk from a sample that
both ``analytic._bridge`` and ``analytic._read`` take, on a piecewise
potential: the walks (from an anchor, at zeta there, to a target) step
together through ``_slabs_many`` on its batch axis, one step each, on
the cell that ``_cells`` finds with one ``searchsorted`` against the
joins.  It gives arrays (num, den, r), the indices of the walks it
leaves to the scalar tail and each walk's level, from which the bridge
finds its long evanescent intervals.
``_size`` and ``_quotient`` are Python's abs and complex division over
arrays, by which the walks pick their anchors and divide.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .analytic import _MAX_SUBSLABS, _SATURATION_CUT, EPS_DEGENERATE
from .errors import NonFiniteStateError

# Slab-energy pairs per array pass of _chain_many.
_BATCH_CELLS = 1 << 15
# Sub-slab-energy pairs per chunk of linear sub-slab maps.  A smaller
# chunk than _BATCH_CELLS keeps ``_series``' block (three values per
# entry and term) nearer the cache: warm sweeps of a 61-sample Gaussian
# well at 200 and 1000 energies took 7-23 % less time at 8192 than at
# 32768 on a 2-core x86-64 host.
_SERIES_CELLS = 1 << 13
# d_1, d_0 and d_{-1} of f, g / h and the majorant (``_series``)
_START = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [0.0, 0.0, 0.0]])


def _series(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ...]:
    """(f, h f', g / h, g') at s = h of the fundamental pair of
    psi'' = (A + B s) psi, f(0) = g'(0) = 1 and f'(0) = g(0) = 0, given
    a = A h^2 and b = B h^3 (arrays that broadcast, |a| and |b| at most
    about one).  Each entry is a function of its own a and b alone,
    bitwise ``analytic._series`` of them, wherever it sits in the arrays.

    The Taylor coefficients of either solution obey
    c_{k+2} = (A c_k + B c_{k-1}) / ((k+1)(k+2)), so d_k = c_k h^k obey
    it with a and b.  Each entry stops where three terms in a row of its
    own majorant series (|a| and |b| in place of a and b, d_0 = d_1 = 1)
    are below 2^-56 max(|a|, |b|): under 30 terms, with no cancellation
    beyond that of cos(1).  The majorant is a third row of the
    recurrence, and an entry's terms past its stop are set to -0.0,
    which adds nothing, not even to a zero's sign.  The block takes the
    majorant's count at the largest |a| and the largest |b|, and one
    more term while an entry's own stop lies past it: the count at the
    largest pair can fall one short of an entry's (a = 0.1 and
    a = b = 0.0126, with b = 0.0126, in one block).

    d_k sits in row -2 - k, the last term in row 0, so a sum over rows
    adds each output's terms (d_k, and k d_k from k = 1) smallest first,
    one at a time: numpy sums a block of two or more columns along its
    first axis row by row.  A dot product (BLAS) or the pairwise sum of
    a lone column would round by the entry's place in the block.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    shape = np.broadcast(a, b).shape
    # a, b and their sizes, the majorant's coefficients, as three rows of
    # the block's shape (a product with a broadcast operand takes numpy's
    # slower strided loop)
    aa, bb = np.empty((3,) + shape), np.empty((3,) + shape)
    aa[:2], bb[:2] = a, b
    tol = np.maximum(np.abs(aa[0], out=aa[2]), np.abs(bb[0], out=bb[2]))
    tol *= 2.0 ** -56
    alpha, beta = float(np.max(aa[2])), float(np.max(bb[2]))
    top = 2.0 ** -56 * max(alpha, beta)
    m3, m2, m1, n = 0.0, 1.0, 1.0, 0
    while m1 > top or m2 > top or m3 > top:
        n += 1
        m3, m2, m1 = m2, m1, (alpha * m2 + beta * m3) / (n * (n + 1))
    tail = (1,) * len(shape)
    # d[-2 - k] holds d_k of f, g / h and the majorant, d[-1] d_{-1} = 0
    d = np.empty((n + 3, 3) + shape)
    d[-3:] = _START.reshape((3, 3) + tail)
    scratch, k = np.empty((3,) + shape), 0
    while True:
        for k in range(k + 1, len(d) - 2):
            j = len(d) - 3 - k
            new = np.multiply(aa, d[j + 2], out=d[j])
            new += np.multiply(bb, d[j + 3], out=scratch)
            new *= 1.0 / (k * (k + 1))
        # a term is taken where one of the three majorant terms below it
        # passes its entry's bound: past the top row, one more row
        over = d[:, 2] > tol
        if not (over[0] | over[1] | over[2]).any():
            break
        d = np.concatenate((np.empty_like(d[:1]), d))
    np.copyto(d[:-3, :2], -0.0, where=~(over[1:-2] | over[2:-1] | over[3:])[:, None])
    s0 = d[:-1, :2].sum(axis=0)
    terms = d[:-2, :2]
    terms *= np.arange(len(d) - 2, 0, -1.0).reshape((-1, 1) + tail)
    s1 = terms.sum(axis=0)
    return s0[0], s1[0], s0[1], s1[1]


def _linear_maps(slabs: np.ndarray, es: np.ndarray, c: float):
    """The sub-slab maps of a linear slab list (rows (u_start, slope, dx))
    over an energy array: (count, maps), the sub-slabs of each row and an
    iterator over their maps in walk order, in chunks of at most
    _SERIES_CELLS sub-slab-energy pairs (or one sub-slab), (kfp, gp, f,
    gk), each of shape (sub-slabs, energies).  A chunk that small keeps
    its series block in the cache; the maps do not depend on the chunks.
    One sub-slab carries zeta to
    (kfp + gp zeta) / (f + gk zeta), over the same denominator as the psi
    ratio psi(start) / psi(end) = 1 / (f + gk zeta).

    Each slab is split into n equal sub-slabs of length h, so that
    h sqrt(max |A|) <= 1 and h |B|^(1/3) <= 1 for every energy, with
    psi'' = (A + B s) psi, A = c (U - E) at the start of the sub-slab,
    B = c slope and c = 2m/hbar^2.  The fundamental pair f, g comes from
    ``_series``; gp = g', and kfp = -i f' and gk = i g are formed from
    the real quotient -(h f') / h and product h (g / h), with real part
    +0.0, as ``analytic._linear_twin`` forms them.  Raises
    NonFiniteStateError where the split count is not finite or exceeds
    _MAX_SUBSLABS.
    """
    u0, slope, dx = slabs.T
    with np.errstate(all="ignore"):
        lo, hi = np.min(es), np.max(es)
        u1 = u0 + slope * dx
        reach = np.maximum(
            np.maximum(np.abs(u0 - lo), np.abs(u0 - hi)),
            np.maximum(np.abs(u1 - lo), np.abs(u1 - hi)),
        )
        width = np.abs(dx) * np.maximum(np.sqrt(c * reach), np.cbrt(np.abs(c * slope)))
        count = np.maximum(np.ceil(width), 1.0)
        total = float(np.sum(count))
    if not total <= _MAX_SUBSLABS:  # NaN included
        raise NonFiniteStateError(
            f"linear slabs need {total} sub-slabs at energies {lo} to {hi}"
        )
    count = count.astype(np.intp)
    first = np.cumsum(count) - count
    chunk = max(1, _SERIES_CELLS // len(es))

    # the checks above run at the call; the maps are made as they are used
    def chunks():
        with np.errstate(all="ignore"):
            for k0 in range(0, int(total), chunk):
                k = np.arange(k0, min(k0 + chunk, int(total)))
                j = np.searchsorted(first, k, side="right") - 1
                h = dx[j] / count[j]
                u = u0[j] + slope[j] * ((k - first[j]) * h)
                h, hh = h[:, None], (h * h)[:, None]
                f, hfp, gh, gp = _series(
                    c * (u[:, None] - es) * hh, (c * slope[j])[:, None] * (hh * h)
                )
                kfp, gk = np.zeros(f.shape, dtype=complex), np.zeros(f.shape, dtype=complex)
                kfp.imag, gk.imag = -(hfp / h), h * gh
                yield kfp, gp, f, gk

    return count, chunks()


def _linear_steps(slabs: list[tuple[float, float, float]], e: float, c: float):
    """The sub-slab maps of a linear slab list at one energy, for
    ``analytic._chain`` where numpy is loaded: (count, steps), a list of
    the sub-slabs of each slab and an iterator of their (kfp, gp, f, gk)
    as Python numbers in walk order.  ``_linear_maps``' checks run at the
    call.  ``analytic._linear_twin`` is its plain-Python twin."""
    flat = np.fromiter(itertools.chain.from_iterable(slabs), float, 3 * len(slabs))
    count, maps = _linear_maps(flat.reshape(-1, 3), np.array([e]), c)
    return count.tolist(), itertools.chain.from_iterable(
        zip(*(m.ravel().tolist() for m in chunk)) for chunk in maps
    )


def _region_constants_many(es: np.ndarray, u, c: float) -> tuple[np.ndarray, np.ndarray]:
    """``analytic._constants`` over an energy array: (k, degenerate).

    Same arithmetic and branch as the scalar form; ``u`` may be a column
    of levels, giving one row per level.  ``degenerate`` marks where the
    scalar form raises DegenerateEnergyError; k vanishes there.  Where
    the scalar form overflows, k is not finite.
    """
    with np.errstate(all="ignore"):
        de = es - u
        degenerate = np.abs(de) <= EPS_DEGENERATE * np.maximum(np.abs(es), np.abs(u))
        # the principal root of (negative real + 0j) is +i sqrt(|x|): k's branch
        return np.sqrt(c * de + 0j), degenerate


def _chain_many(
    slabs: list[tuple[float, ...]],
    es: np.ndarray,
    z_anchor: np.ndarray,
    c: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``analytic._chain`` over an energy array: (num, den, r, ok).

    The slab constants and cosh/sinh of every slab crossed come from one
    array pass, with the saturated form and the limit at a slab level
    patched in only at the entries that take them (``_slabs_many``);
    the slab-to-slab recurrence is then a few in-place array operations
    per slab, in ``analytic._chain``'s step arithmetic.  Linear slabs
    take the sub-slab maps of ``_linear_maps`` instead, split for the
    range of each block of energies.  ``ok`` is False wherever the
    scalar walk raises (a zero denominator short of the end, a value
    that is not finite), and for a whole block whose split count
    overflows; those entries mean nothing.  Energies are taken in
    blocks of at most _BATCH_CELLS slab-energy pairs, which bounds the
    temporaries; a single block is returned as its pass gives it.
    """
    z_anchor = np.broadcast_to(np.asarray(z_anchor, dtype=complex), es.shape)
    block = max(1, _BATCH_CELLS // max(1, len(slabs)))
    if slabs and len(slabs[0]) == 3:
        walk, slabs = _linear_many, np.array(slabs, dtype=float)
    else:
        walk, slabs = _slabs_many, np.array(slabs, dtype=float).reshape(-1, 2).T[..., None]
    parts = [
        walk(slabs, es[i:i + block], z_anchor[i:i + block], c)
        for i in range(0, max(1, len(es)), block)
    ]
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(p) for p in zip(*parts))


def _linear_many(slabs, es, z, c):
    """The pass of ``_chain_many`` along linear slabs over one block of
    energies: ``_chain``'s sub-slab walk, one array step per sub-slab."""
    num, den, r = z, np.ones_like(z), np.ones_like(z)
    try:
        maps = _linear_maps(slabs, es, c)[1] if len(es) else ()
    except NonFiniteStateError:
        nan = np.full_like(z, np.nan)
        return nan, nan, nan, np.zeros(len(es), dtype=bool)
    with np.errstate(all="ignore"):
        for kfp, gp, f, gk in maps:
            for i in range(len(f)):
                z, r = num / den, r / den
                num, den = kfp[i] + gp[i] * z, f[i] + gk[i] * z
        ok = np.isfinite(num) & np.isfinite(den) & np.isfinite(r)
    return num, den, r, ok


def _slabs_many(slabs, es, z, c):
    """The array pass of ``_chain_many`` over one block of energies.

    Every slab-energy entry takes cosh g and sinh g with f = k; the
    saturated form (|Re g| > _SATURATION_CUT) and the linear step at a
    slab level are patched in only where an entry needs them, and an
    entry that is not patched keeps its bits.  The recurrence steps in
    place on its own buffers, in ``_chain``'s operand order, so its
    inputs are never written."""
    u, dx = slabs
    with np.errstate(all="ignore"):
        zs, degenerate = _region_constants_many(es, u, c)
        g = (1j * zs) * dx
        c1, c2, f = np.cosh(g), np.sinh(g), zs
        sat = np.abs(g.real) > _SATURATION_CUT
        if sat.any():
            # _chain's saturated form divides through by exp(|Re g|) / 2:
            # cosh -> 1, sinh -> th, and f gains 2 exp(-th g)
            th = np.sign(g.real) * sat
            c1, c2 = np.where(sat, 1.0, c1), np.where(sat, th, c2)
            f = np.where(sat, 2.0 * zs * np.exp(-th * g), zs)
        zc1, zc2 = zs * c1, zs * c2
        if degenerate.any():
            # _chain's linear step at a slab level: num = zeta,
            # den = 1 + zeta i dx, f = 1
            zs, c1, zc1, f = (np.where(degenerate, 1.0, v) for v in (zs, c1, zc1, f))
            zc2 = np.where(degenerate, 0.0, zc2)
            c2 = np.where(degenerate, 1j * dx, c2)
        num = np.array(z, dtype=complex)
        den, r, at = np.ones_like(num), np.ones_like(num), np.empty_like(num)
        for k, f_k, c1_k, c2_k, zc1_k, zc2_k in zip(zs, f, c1, c2, zc1, zc2):
            # at = zeta at the slab's start; r / den is the psi ratio so far
            np.divide(num, den, out=at)
            np.divide(r, den, out=r)
            np.multiply(r, f_k, out=r)
            np.multiply(at, c1_k, out=num)
            num += zc2_k
            np.multiply(k, num, out=num)
            np.multiply(at, c2_k, out=den)
            den += zc1_k
        ok = np.isfinite(num) & np.isfinite(den) & np.isfinite(r)
    return num, den, r, ok


def _quotient(a, b):
    """a / b of complex arrays, each entry bitwise CPython's complex
    division (``_Py_c_quot``, Smith's method): a and b divided through by
    the part of b larger in size, the real part at a tie, in its order of
    operations, and NaN where a part of b is NaN.  numpy's own complex
    division rounds otherwise.  An entry where b is zero, where Python
    raises, means nothing."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    by_real, by_imag = np.abs(br) >= np.abs(bi), np.abs(bi) >= np.abs(br)
    with np.errstate(all="ignore"):
        ratio = np.where(by_real, bi / br, br / bi)
        den = np.where(by_real, br + bi * ratio, br * ratio + bi)
        out = np.empty(np.broadcast(a, b).shape, dtype=complex)
        out.real = np.where(by_real, ar + ai * ratio, ar * ratio + ai) / den
        out.imag = np.where(by_real, ai - ar * ratio, ai * ratio - ar) / den
    out[~(by_real | by_imag)] = complex(math.nan, math.nan)
    return out


def _size(z):
    """|z| of a complex array, bitwise Python's ``abs`` (libm's ``hypot``
    of the parts), by which the walks pick a bridged or read interval's
    anchor: numpy's complex absolute value rounds otherwise in about a
    third of its entries, and would pick the other end at a near tie."""
    return np.hypot(z.real, z.imag)


def _cells(pot, lo, hi):
    """(level, one) of the intervals (lo, hi), lo <= hi, of a piecewise
    potential: the level of the cell (or lead) that holds each lower
    end, and whether the interval lies on that cell with some length,
    so that its ``_cut`` walk is the one step (level, dx).  An end on a
    join belongs to the interval's own cell: the lower end is searched
    with side "right", the upper with side "left"."""
    joins = np.array(pot.interfaces())
    cell = joins.searchsorted(lo, side="right")
    levels = np.array([pot.left_level, *(c[2] for c in pot.cells), pot.right_level])
    return levels[cell], (cell == joins.searchsorted(hi, side="left")) & (lo < hi)


def _anchored_many(pot, e, starts, zetas, ends, c):
    """The array pass of the walks of ``analytic._bridge`` and
    ``analytic._read``: (num, den, r, redo, level), arrays, of a walk from
    each of ``starts`` anchored at ``zetas`` to ``ends``.  Each takes one
    ``_chain`` step on the cell that holds its lower end (``_cells``; its
    ``level``), dx = end - start (bitwise the cut's), in one
    ``_slabs_many`` call; ``redo`` lists, ascending, the walks left to
    the scalar tail, whose entries mean nothing: those of no length or
    across a join, and those the pass marks not ``ok``."""
    level, one = _cells(pot, np.minimum(starts, ends), np.maximum(starts, ends))
    num, den, r, ok = _slabs_many(np.stack((level, ends - starts))[:, None, :], e, zetas, c)
    return num, den, r, np.flatnonzero(~(one & ok)), level
