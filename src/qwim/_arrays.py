"""The array layer: the layer chain over whole energy grids and over a
trajectory's intervals, and the exact maps of linear sub-slabs.

This is the only qwim module that the chain pulls numpy in through, and
it is imported on first use: by ``scattering``'s energy sweeps and the
spectral scan grids where they take the array pass
(``analytic._array_pass``: where numpy is loaded already, or the
potential is sampled), and by ``analytic._chain`` when it walks linear
(sampled) slabs, and ``analytic._bridge`` and ``analytic._read`` when
they bridge or read a piecewise potential's trajectory, with numpy
loaded already.  Work at one energy never loads it: cold, the chain
takes the plain-Python twin of the sub-slab maps
(``analytic._linear_twin``), and the bridge and the read walk each
interval or point.

``_chain_many`` is ``analytic._chain`` over an energy array: one array
pass per slab (``_slabs_many``) or per linear sub-slab
(``_linear_many``), with an ``ok`` mask marking the energies where the
scalar walk would raise.  ``_region_constants_many`` is
``region_constants`` over an array.

A sampled potential is linear between its samples, U = u0 + F s, and
there psi'' = (A + B s) psi with A = 2m (u0 - E) / hbar^2 and
B = 2m F / hbar^2.  ``_linear_maps`` splits each sample interval into
sub-slabs of length h with h sqrt(max |A|) <= 1 and h |B|^(1/3) <= 1.
There the Taylor series of the fundamental pair f, g (f = g' = 1,
f' = g = 0 at the start) converges in under 30 terms with no
cancellation (``_series``), and Z maps across the sub-slab exactly as

    Z -> (kappa f' + g' Z) / (f + (g / kappa) Z),   kappa = hbar / (i m),

with psi(start) / psi(end) = 1 / den, the shape of a constant slab's
step in ``analytic._chain``.
``_linear_steps`` hands those maps to the scalar walker at one energy
(``analytic._linear_steps`` picks it where numpy is loaded).

``_bridge_many`` is the array pass of ``analytic._bridge`` on a
piecewise potential: the one-cell intervals of a trajectory step
together through ``_slabs_many``, the intervals on its batch axis.
``_read_many`` is that of ``analytic._read``: Z at a grid's points, each
one step from a trajectory sample, the points on the batch axis.  Both
take the potential and the samples, and ``_cells`` finds the cell of
every interval with one ``searchsorted`` of its ends against the
joins; the interval's slab is that cell's level and its length, bitwise
the step that ``analytic._cut`` would cut, without building it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .analytic import _BRIDGE_PHASE, _MAX_SUBSLABS, _SATURATION_CUT, EPS_DEGENERATE, _scale
from .errors import NonFiniteStateError
from .model import ModelParams

# Slab-energy pairs per array pass of _chain_many, and sub-slab-energy
# pairs per chunk of linear sub-slab maps.
_BATCH_CELLS = 1 << 15


def _series(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ...]:
    """(f, h f', g / h, g') at s = h of the fundamental pair of
    psi'' = (A + B s) psi, f(0) = g'(0) = 1 and f'(0) = g(0) = 0, given
    a = A h^2 and b = B h^3 (arrays that broadcast, |a| and |b| at most
    about one).

    The Taylor coefficients of either solution obey
    c_{k+2} = (A c_k + B c_{k-1}) / ((k+1)(k+2)), so d_k = c_k h^k obey
    it with a and b.  The sum stops where three terms in a row of the
    majorant series (|a| and |b| at their largest, d_0 = d_1 = 1) are
    below 2^-56 max(|a|, |b|): under 30 terms, with no cancellation
    beyond that of cos(1).
    """
    alpha, beta = float(np.max(np.abs(a))), float(np.max(np.abs(b)))
    tol = 2.0 ** -56 * max(alpha, beta)
    majorant = [0.0, 1.0, 1.0]
    while max(majorant[-3:]) > tol:
        k = len(majorant) - 3
        majorant.append((alpha * majorant[-2] + beta * majorant[-3]) / ((k + 1) * (k + 2)))
    # d[k + 1] holds d_k of both solutions side by side; d[0] is d_{-1} = 0
    d = np.zeros((len(majorant), 2) + np.broadcast(a, b).shape)
    d[1, 0] = d[2, 1] = 1.0
    for k in range(len(majorant) - 3):
        new = np.multiply(a, d[k + 1], out=d[k + 3])
        new += b * d[k]
        new *= 1.0 / ((k + 1) * (k + 2))
    s0 = d.sum(axis=0)
    s1 = np.tensordot(np.arange(-1.0, len(majorant) - 1), d, axes=1)
    return s0[0], s1[0], s0[1], s1[1]


def _linear_maps(slabs: np.ndarray, es: np.ndarray, params: ModelParams):
    """The sub-slab maps of a linear slab list (rows (u_start, slope, dx))
    over an energy array: (count, maps), the sub-slabs of each row and an
    iterator over their maps in walk order, in chunks of at most
    _BATCH_CELLS sub-slab-energy pairs, (kfp, gp, f, gk), each of shape
    (sub-slabs, energies).  One sub-slab carries Z to
    (kfp + gp Z) / (f + gk Z), over the same denominator as the psi
    ratio psi(start) / psi(end) = 1 / (f + gk Z).

    Each slab is split into n equal sub-slabs of length h, so that
    h sqrt(max |A|) <= 1 and h |B|^(1/3) <= 1 for every energy, with
    psi'' = (A + B s) psi, A = 2m (U - E) / hbar^2 at the start of the
    sub-slab and B = 2m slope / hbar^2.  The fundamental pair f, g comes
    from ``_series``; with kappa = hbar / (i m), kfp = kappa f',
    gp = g' and gk = g / kappa.  Raises NonFiniteStateError where the
    split count is not finite or exceeds _MAX_SUBSLABS.
    """
    u0, slope, dx = slabs.T
    c = _scale(params)
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
    inv_kappa = 1j * params.mass / params.hbar
    chunk = max(1, _BATCH_CELLS // len(es))

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
                yield hfp / (inv_kappa * h), gp, f, (inv_kappa * h) * gh

    return count, chunks()


def _linear_steps(slabs: list[tuple[float, float, float]], e: float, params: ModelParams):
    """The sub-slab maps of a linear slab list at one energy, for
    ``analytic._chain`` where numpy is loaded: (count, steps), a list of
    the sub-slabs of each slab and an iterator of their (kfp, gp, f, gk)
    as Python numbers in walk order.  ``_linear_maps``' checks run at the
    call.  ``analytic._linear_twin`` is its plain-Python twin."""
    flat = np.fromiter(itertools.chain.from_iterable(slabs), float, 3 * len(slabs))
    count, maps = _linear_maps(flat.reshape(-1, 3), np.array([e]), params)
    return count.tolist(), itertools.chain.from_iterable(
        zip(*(m.ravel().tolist() for m in chunk)) for chunk in maps
    )


def _region_constants_many(
    es: np.ndarray, u, params: ModelParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``analytic.region_constants`` over an energy array: (z, gamma, degenerate).

    Same arithmetic and branch as the scalar form; ``u`` may be a column
    of levels, giving one row per level.  ``degenerate`` marks where the
    scalar form raises DegenerateEnergyError; z and gamma vanish there.
    Where the scalar form overflows, z and gamma are not finite.
    """
    with np.errstate(all="ignore"):
        de = es - u
        degenerate = np.abs(de) <= EPS_DEGENERATE * np.maximum(np.abs(es), np.abs(u))
        # the principal root of (negative real + 0j) is +i sqrt(|x|): z's branch
        z = np.sqrt(2.0 * de / params.mass + 0j)
        return z, 1j * (params.mass / params.hbar) * z, degenerate


def _chain_many(
    slabs: list[tuple[float, ...]],
    es: np.ndarray,
    z_anchor: np.ndarray,
    params: ModelParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``analytic._chain`` over an energy array: (num, den, r, ok).

    The slab constants, cosh/sinh and the saturated-branch factors of
    every slab crossed come from one array pass; the slab-to-slab
    recurrence is then a few array operations per slab, with
    ``analytic._chain``'s step arithmetic and its limit at a slab
    level.  Linear slabs take
    the sub-slab maps of ``_linear_maps`` instead, split for the range
    of each block of energies.  ``ok`` is False wherever the scalar walk
    raises (a zero denominator short of the end, a value that is not
    finite), and for a whole block whose split count overflows; those
    entries mean nothing.  Energies are taken in blocks of at most
    _BATCH_CELLS slab-energy pairs, which bounds the temporaries.
    """
    z_anchor = np.broadcast_to(np.asarray(z_anchor, dtype=complex), es.shape)
    block = max(1, _BATCH_CELLS // max(1, len(slabs)))
    if slabs and len(slabs[0]) == 3:
        walk, slabs = _linear_many, np.array(slabs, dtype=float)
    else:
        walk, slabs = _slabs_many, np.array(slabs, dtype=float).reshape(-1, 2).T[..., None]
    parts = [
        walk(slabs, es[i:i + block], z_anchor[i:i + block], params)
        for i in range(0, max(1, len(es)), block)
    ]
    return tuple(np.concatenate(p) for p in zip(*parts))


def _linear_many(slabs, es, z, params):
    """The pass of ``_chain_many`` along linear slabs over one block of
    energies: ``_chain``'s sub-slab walk, one array step per sub-slab."""
    num, den, r = z, np.ones_like(z), np.ones_like(z)
    try:
        maps = _linear_maps(slabs, es, params)[1] if len(es) else ()
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


def _slabs_many(slabs, es, z, params):
    """The array pass of ``_chain_many`` over one block of energies."""
    u, dx = slabs
    with np.errstate(all="ignore"):
        zs, gamma, degenerate = _region_constants_many(es, u, params)
        g = gamma * dx
        sat = np.abs(g.real) > _SATURATION_CUT
        th = np.sign(g.real) * sat
        g_cut = np.where(sat, 0.0, g)  # keeps cosh/sinh finite where unused
        # _chain's saturated form divides through by exp(|Re g|) / 2:
        # cosh -> 1, sinh -> th, and f gains 2 exp(-th g)
        c1 = np.where(sat, 1.0, np.cosh(g_cut))
        c2 = np.where(sat, th, np.sinh(g_cut))
        zc1, zc2 = zs * c1, zs * c2
        f = np.where(sat, 2.0 * zs * np.exp(-th * g), zs)
        if degenerate.any():
            # _chain's linear step at a slab level: num = Z,
            # den = 1 + Z i (m/hbar) dx, f = 1
            zs, c1, zc1, f = (np.where(degenerate, 1.0, v) for v in (zs, c1, zc1, f))
            zc2 = np.where(degenerate, 0.0, zc2)
            c2 = np.where(degenerate, 1j * (params.mass / params.hbar) * dx, c2)
        num, den, r = z, np.ones_like(z), np.ones_like(z)
        for i in range(len(zs)):
            z, ratio = num / den, r / den
            num = zs[i] * (z * c1[i] + zc2[i])
            den = zc1[i] + z * c2[i]
            r = ratio * f[i]
        ok = np.isfinite(num) & np.isfinite(den) & np.isfinite(r)
    return num, den, r, ok


def _cells(pot, lo, hi):
    """(level, one) of the intervals (lo, hi), lo <= hi, of a piecewise
    potential: the level of the cell (or lead) that holds each lower
    end, and whether the interval lies on that cell with some length,
    so that its ``_cut`` walk is the one step (level, dx).  An end on a
    join belongs to the interval's own cell: the lower end is searched
    with side "right", the upper with side "left"."""
    joins = pot.interfaces()
    cell = np.searchsorted(joins, lo, side="right")
    levels = np.array([pot.left_level, *(c[2] for c in pot.cells), pot.right_level])
    return levels[cell], (cell == np.searchsorted(joins, hi, side="left")) & (lo < hi)


def _bridge_many(pot, e, xs, zs, params):
    """The array pass of ``analytic._bridge`` on a piecewise potential:
    (ratios, redo).  Every interval that lies on one cell (``_cells``)
    takes its ``_chain`` step in one ``_slabs_many`` call, the intervals
    on its batch axis, anchored at Z of the end with the larger |Z| (the
    second at a tie, ``_bridge``'s rule) and walked back (dx negated)
    from the second end.  dx = xs[i + 1] - xs[i] is bitwise the cut's
    step in either walk direction.  ``ratios`` holds
    psi(xs[i + 1]) / psi(xs[i]) of each such interval, divided in Python
    as the walk divides it (numpy's complex division rounds otherwise,
    and its rounding would add up along psi's running product); ``redo``
    lists, in ascending order, the intervals left for the scalar walk:
    repeated samples and those across a join, those the pass marks not
    ``ok`` (where the walk raises), and those whose evanescent phase
    passes ``analytic._BRIDGE_PHASE`` (walked from both ends)."""
    x, z = np.fromiter(xs, float, len(xs)), np.fromiter(zs, complex, len(zs))
    n = max(len(x) - 1, 0)
    level, one = _cells(pot, np.minimum(x[:-1], x[1:]), np.maximum(x[:-1], x[1:]))
    one = np.flatnonzero(one)
    u, dx = level[one], np.diff(x)[one]
    size = np.abs(z)
    fwd = (size[:-1] > size[1:])[one]
    anchor = np.where(fwd, z[:-1][one], z[1:][one])
    slabs = np.stack((u, np.where(fwd, dx, -dx)))[:, None, :]
    _, den, r, ok = _slabs_many(slabs, e, anchor, params)
    # analytic._phase of each interval: past _BRIDGE_PHASE the walk takes
    # it from both ends
    c = _scale(params)
    ok &= ~(np.sqrt(c * np.maximum(u - e, 0.0)) * np.abs(dx) > _BRIDGE_PHASE)
    # psi(anchor) / psi(other end) = r / den
    top, bottom = (np.where(fwd, p, q)[ok].tolist() for p, q in ((den, r), (r, den)))
    done = one[ok]
    ratios = [None] * n
    for i, t, b in zip(done.tolist(), top, bottom):
        ratios[i] = t / b if b else complex(math.inf)
    redo = np.ones(n, dtype=bool)
    redo[done] = False
    return ratios, np.flatnonzero(redo).tolist()


def _read_many(pot, e, xs, zs, points, params):
    """The array pass of ``analytic._read`` on a piecewise potential:
    (read, redo), as ``_bridge_many`` gives (ratios, redo).  Every point
    inside an interval that lies on one cell (``_cells``; every interval
    of a stepper trajectory does) takes its step from the interval's
    anchor in one ``_slabs_many`` call, Z divided in Python as the walk
    divides it; ``redo`` lists the points on a sample, in an interval
    across a join, or flagged by the pass (where the walk raises), in
    ascending order."""
    x, z, p = np.fromiter(xs, float, len(xs)), np.fromiter(zs, complex, len(zs)), np.array(points)
    i = np.searchsorted(x, p, side="right") - 1  # xs[i] <= p < xs[i + 1]
    level, one = _cells(pot, x[i], x[i + 1])
    size = np.abs(z)
    j = np.where(size[i] > size[i + 1], i, i + 1)
    take = np.flatnonzero((x[i] != p) & one)
    slabs = np.stack((level[take], (p - x[j])[take]))[:, None, :]
    num, den, _, ok = _slabs_many(slabs, e, z[j[take]], params)
    ok &= den != 0
    read, done = [None] * len(p), take[ok]
    for k, a, b in zip(done.tolist(), num[ok].tolist(), den[ok].tolist()):
        read[k] = a / b
    redo = np.ones(len(p), dtype=bool)
    redo[done] = False
    return read, np.flatnonzero(redo).tolist()
