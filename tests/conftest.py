"""Shared ring fixtures for the whole suite.

All contexts are over GF(101).  The three quotient rings are the canned
geometry most tests revolve around:

* quadric: GF(101)[w,x,y,z]/(w*x - y*z), a three-dimensional hypersurface
  whose residue field has Betti numbers 1, 4, 7, 8, 8, 8, ...
* nilsquares: GF(101)[x,y]/(x^2, y^2), artinian complete intersection with
  Hilbert function 1, 2, 1 and socle x*y.
* gor5: GF(101)[x,y,z]/(x*y, x*z, y*z, x^2 - y^2, x^2 - z^2), artinian
  Gorenstein of length 5 with Hilbert function 1, 3, 1 and socle in
  degree 2; the residue field's Betti numbers satisfy
  b_{i+1} = 3 b_i - b_{i-1}: 1, 3, 8, 21, 55, ...
"""

import pytest

from extlab import groebner, linalg, resolution
from extlab.groebner import RingCtx
from extlab.poly import FieldSpec, PolyRing


def make_ctx(names, rels=()):
    ring = PolyRing(FieldSpec(101), tuple(names))
    return RingCtx(ring, [ring.parse(r) for r in rels])


@pytest.fixture(scope="session")
def quadric():
    return make_ctx(("w", "x", "y", "z"), ("w*x - y*z",))


@pytest.fixture(scope="session")
def nilsquares():
    return make_ctx(("x", "y"), ("x^2", "y^2"))


@pytest.fixture(scope="session")
def gor5():
    return make_ctx(("x", "y", "z"), ("x*y", "x*z", "y*z", "x^2 - y^2", "x^2 - z^2"))


@pytest.fixture(scope="session")
def affine_plane():
    return make_ctx(("x", "y"))


class _Runs:
    def __init__(self):
        self.count = 0

    def reset(self):
        self.count = 0


# The one Buchberger body, which serves tagged runs (syzygies) and plain
# runs alike.
RUNS = ("signature_gb",)


@pytest.fixture
def buchberger_runs(monkeypatch):
    """Counts Buchberger runs (`groebner.signature_gb`), tagged and plain,
    for the rest of the test.

    Buchberger runs are deterministic, so a test can pin a computation's
    Groebner work as an exact number.  A test that builds its own rings
    first calls `reset()` after, so the pin counts only the work under
    test.
    """
    runs = _Runs()

    def counted(real):
        def run(*args, **kwargs):
            runs.count += 1
            return real(*args, **kwargs)
        return run

    for name in RUNS:
        monkeypatch.setattr(groebner, name, counted(getattr(groebner, name)))
    return runs


@pytest.fixture
def buchberger_reductions(monkeypatch):
    """Counts the reductions Buchberger runs perform for the rest of the
    test: one per input they reduce and one per S-pair their criteria
    keep, the calls of `_SignatureSet.reduce_below`.  Normal forms taken
    outside a run (`VectorGB.reduce`, the reduced basis built on demand)
    are not counted.
    """
    runs = _Runs()
    real = groebner._SignatureSet.reduce_below

    def counted(self, *args):
        runs.count += 1
        return real(self, *args)

    monkeypatch.setattr(groebner._SignatureSet, "reduce_below", counted)
    return runs


@pytest.fixture
def axpy_calls(monkeypatch):
    """Counts `linalg._axpy` calls for the rest of the test: one per
    multiple of a stored row added to another, the unit of work of every
    elimination (`insert_row`, `_reduce_row`, `_insert_rows`), which all
    reach it through the module global.  Eliminations are deterministic,
    so a test can pin a computation's row work as an exact number.
    """
    runs = _Runs()
    real = linalg._axpy

    def counted(*args):
        runs.count += 1
        return real(*args)

    monkeypatch.setattr(linalg, "_axpy", counted)
    return runs


@pytest.fixture
def resolution_rank(monkeypatch):
    """Sums, for the rest of the test, the ranks of the resolution terms
    `Resolution._step` builds (a step that ends the resolution builds
    none).  Which resolutions a computation extends, and how far, is
    deterministic, so a test can pin its resolution work as an exact
    number: a caller that resolves a larger module than it needs shows up
    here before it shows up in a timing.
    """
    runs = _Runs()
    real = resolution.Resolution._step

    def counted(self):
        before = len(self._twists)
        real(self)
        if len(self._twists) > before:
            runs.count += len(self._twists[-1])

    monkeypatch.setattr(resolution.Resolution, "_step", counted)
    return runs


@pytest.fixture
def kernel_steps(monkeypatch):
    """Counts, for the rest of the test, the resolution steps that ran the
    kernel walk (`resolution._syzygy_step`).  Over an artinian ring a step
    taken before in the same context, up to a twist shift, is served from
    the context's step table and runs none, so a test can pin how many
    kernels a computation really took as an exact number.
    """
    runs = _Runs()
    real = resolution._syzygy_step

    def counted(*args):
        runs.count += 1
        return real(*args)

    monkeypatch.setattr(resolution, "_syzygy_step", counted)
    return runs
