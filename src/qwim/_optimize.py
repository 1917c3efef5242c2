"""scipy.optimize's root finder and minimiser, imported on first use.

scipy.optimize takes several times longer to import than the rest of
qwim, and only the spectral searches and the square-well oracle need
it.  Those call ``load_scipy_optimize`` on entry, so the first search
pays for the import, not whichever root it happens to refine first.
Callers bind ``brentq`` and ``minimize_scalar`` as their own module
names, so a profiler can still wrap them one module at a time.
"""


def load_scipy_optimize():
    """Import scipy.optimize (once per process) and return it."""
    import scipy.optimize

    return scipy.optimize


def brentq(*args, **kwargs):
    return load_scipy_optimize().brentq(*args, **kwargs)


def minimize_scalar(*args, **kwargs):
    return load_scipy_optimize().minimize_scalar(*args, **kwargs)
