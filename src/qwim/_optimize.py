"""Brent's bracketed root finder and bounded minimiser.

The spectral searches refine every bound state with ``brentq`` and
every resonance with ``minimize_scalar`` (plus ``brentq`` on the
components of r); the square-well oracle solves its branch equations
with ``brentq``.  Both are ports of scipy's routines, step for step and
in scipy's operation order, so they visit the same iterates and return
the same floats: ``brentq`` of the C ``brentq`` in scipy.optimize (Brent's
zeroin), ``minimize_scalar`` of ``_minimize_scalar_bounded`` (fminbound).
Importing scipy.optimize for them took several times longer than
importing the rest of qwim, so qwim imports no scipy at run time.

Reference: R. P. Brent, *Algorithms for Minimization Without
Derivatives* (Prentice-Hall, 1973), chapters 4 and 5.

Callers bind ``brentq`` and ``minimize_scalar`` as their own module
names, so a profiler can still wrap them one module at a time.
"""

from __future__ import annotations

import math

# iterations after which brentq gives up with RuntimeError
_MAXITER = 100
# evaluations of f after which minimize_scalar returns its best point
_MAXFUN = 500


def _signbit(v: float) -> bool:
    return math.copysign(1.0, v) < 0.0


def brentq(f, a: float, b: float, xtol: float, rtol: float, maxiter: int | None = None) -> float:
    """A root of f in [a, b], to within xtol + rtol |root|.

    f(a) and f(b) must differ in sign; an end where f is exactly zero is
    returned as it is.  Raises ValueError for ends of the same sign and
    for a NaN value of f, RuntimeError when ``maxiter`` iterations
    (``_MAXITER`` by default) do not converge.  scipy's checks on xtol
    and rtol are left out: xtol must be positive and rtol at least 4 eps.
    """

    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; solver cannot continue")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    maxiter = _MAXITER if maxiter is None else maxiter
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        # the tolerance is 2 delta
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.inf  # C gives inf or nan here: the step test fails
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"failed to converge after {maxiter} iterations, value is {xcur}")


def minimize_scalar(f, lo: float, hi: float, xatol: float) -> float:
    """A local minimiser of f on [lo, hi] to within about xatol.

    Golden-section search with parabolic interpolation; returns its best
    point after ``_MAXFUN`` evaluations of f without raising.  f may
    return inf.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = float(lo), float(hi)
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = f(x)
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # check for a parabolic fit
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat

            # is the parabola acceptable?
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm - xf >= 0 else -tol1
            else:
                golden = True

        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e

        step = max(abs(rat), tol1)
        x = xf + step if rat >= 0 else xf - step
        fu = f(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= _MAXFUN:
            break
    return xf
