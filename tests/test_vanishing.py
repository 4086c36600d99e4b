"""Window scans, checkers, and the random harness.

Frozen oracles used below, all derivable by hand:

* over k[x]/(x^2), dim Ext^i(k, k) = 1 for every i (periodic rank-one
  resolution), so a scan is a row of ones;
* over GF(101)[x,y]/(x^2,y^2) the pair (B/(x), B/(y)) has Ext^i = 0 and
  Tor_i = 0 for all i >= 1: the complexes reduce to multiplication by x
  on k[x]/(x^2)-like modules, where kernel equals image;
* over the length-5 ring GF(101)[x,y,z]/(xy,xz,yz,x^2-y^2,x^2-z^2) the
  residue field has Betti numbers 1, 3, 8, 21, 55, 144 (three-step
  recursion b_{i+1} = 3 b_i - b_{i-1}), which pins the closed Betti
  formulas (embdim 3, b0 = 3, s = 1) and the Tor dims at indices 3..5;
* over the quadric GF(101)[w,x,y,z]/(wx-yz), N = coker(w,x,y,z)^T has
  pd 1 with vanishing Tor(k, N) tail, while Ext^4(k, dual N) is nonzero:
  the two patterns disagree, and the disagreement must be reproducible
  exactly when the maximal Cohen-Macaulay gate is bypassed.
"""

import re

import pytest

from extlab import resolution, vanishing
from extlab.errors import HypothesisNotMet, InvariantViolation
from extlab.groebner import RingCtx
from extlab.modules import PresentedModule, dual_module, hom_module, tensor_module
from extlab.poly import FieldSpec, PolyRing
from extlab.resolution import (
    Resolution,
    derived_dims,
    gorenstein_check,
    negative_syzygy,
    tor,
    tor_profile,
)
from extlab.script import RunFlags, parse_script, run_script
from extlab.vanishing import (
    CheckReport,
    ExperimentConfig,
    GapReport,
    VanishingPattern,
    _smaller_resolution_first,
    change_of_rings_check,
    ext_index_estimate,
    external_product_check,
    external_tensor,
    free_or_nonvanishing_check,
    gap_analysis,
    lescot_betti_check,
    module_replay,
    quotient_context,
    random_module,
    random_pair,
    restrict_through_quotient,
    scan_ext,
    scan_tor,
    search_harness,
    stable_suite_check,
    symmetry_check,
    tail_equivalence_check,
    tensor_mcm_check,
    tor_duality_check,
)


def _ctx(names, rels=()):
    ring = PolyRing(FieldSpec(101), names)
    return RingCtx(ring, [ring.parse(r) for r in rels])


def _k(ctx):
    return PresentedModule.residue_field(ctx)


def _cyclic(ctx, *gens):
    return PresentedModule.from_matrix(ctx, [list(gens)])


# -- scans ---------------------------------------------------------------


def test_scan_of_free_module_is_all_zero(nilsquares):
    pat = scan_ext(PresentedModule.free(nilsquares, (0, 1)), _k(nilsquares), 6)
    assert pat.dims == {i: 0 for i in range(1, 7)}
    assert pat.tail_vanishing and pat.last_nonzero is None
    assert gap_analysis(pat) == []


def test_scan_row_of_ones_over_dual_numbers():
    ctx = _ctx(("x",), ["x^2"])
    pat = scan_ext(_k(ctx), _k(ctx), 8)
    assert pat.dims == {i: 1 for i in range(1, 9)}
    assert not pat.tail_vanishing
    assert pat.last_nonzero == 8


def test_scan_verdict_mode_stops_early(nilsquares):
    k = _k(nilsquares)
    pat = scan_ext(k, k, 12, full=False)
    assert pat.computed_to == 1  # dim 0, first nonzero index settles it
    assert not pat.tail_vanishing
    assert 5 not in pat.dims


def test_scan_window_must_clear_dimension(quadric):
    with pytest.raises(ValueError):
        scan_ext(_k(quadric), _k(quadric), 4)  # dim 3 needs H >= 6


def test_scan_mixed_contexts_rejected(nilsquares, gor5):
    with pytest.raises(ValueError):
        scan_ext(_k(nilsquares), _k(gor5), 6)


def test_pattern_rederives_flags_and_rejects_ragged_data():
    pat = VanishingPattern("tor", ("a", "b"), (1, 7), 0,
                           {1: 1, 2: 1, 3: 0, 4: 0, 5: 0, 6: 1, 7: 0}, 7)
    assert not pat.tail_vanishing
    assert pat.last_nonzero == 6
    assert gap_analysis(pat) == [GapReport(start=2, length=3)]
    with pytest.raises(InvariantViolation):
        VanishingPattern("tor", ("a", "b"), (1, 7), 0, {1: 0, 3: 0}, 3)


def test_infinite_values_count_as_nonzero():
    pat = VanishingPattern("ext", ("a", "b"), (1, 4), 0, {1: 0, 2: None, 3: 0, 4: 0}, 4)
    assert pat.last_nonzero == 2
    assert not pat.tail_vanishing
    assert pat.to_json_dict()["dims"]["2"] == "infinite"


def test_nonvanishing_pair_over_nilsquares(nilsquares):
    x_line = _cyclic(nilsquares, "x")
    y_line = _cyclic(nilsquares, "y")
    # every Ext and Tor of this pair vanishes: multiplication by x on
    # k[y]-side modules has kernel equal to image
    e = scan_ext(x_line, y_line, 8)
    t = scan_tor(x_line, y_line, 8)
    assert e.tail_vanishing and t.tail_vanishing
    assert e.last_nonzero is None and t.last_nonzero is None


def test_ext_index_estimate_over_regular_ring(affine_plane):
    k = _k(affine_plane)
    line = _cyclic(affine_plane, "x")
    out = ext_index_estimate([(k, k), (k, line)], H=6)
    assert out["estimate"] == 2  # equals the dimension, never exceeds it
    assert out["note"] == "window-bounded estimate"


def test_ext_index_estimate_reports_absence(nilsquares):
    k = _k(nilsquares)
    out = ext_index_estimate([(k, k)], H=5)
    assert out["estimate"] == "no tail-vanishing pair observed"


# -- pattern checkers ------------------------------------------------------


def test_tail_equivalence_consistent_over_gor5(gor5):
    rep = tail_equivalence_check(_k(gor5), _k(gor5), 4)
    assert rep.verdict == "consistent"
    flags = [p.tail_vanishing for p in rep.details["patterns"]]
    assert flags == [False, False, False]


def test_tail_equivalence_requires_gorenstein():
    ctx = _ctx(("x", "y"), ["x^2", "x*y", "y^3"])  # socle dim 2
    with pytest.raises(HypothesisNotMet):
        tail_equivalence_check(_k(ctx), _k(ctx), 4)


def test_tail_equivalence_gate_demonstrably_load_bearing(quadric, monkeypatch):
    # N has pd 1 and depth 2 < 3, so the honest verdict is a refusal;
    # bypassing the gate (every module passes as maximal Cohen-Macaulay)
    # surfaces the known pattern disagreement.
    N = PresentedModule.from_matrix(quadric, [["w"], ["x"], ["y"], ["z"]])
    k = _k(quadric)
    with pytest.raises(HypothesisNotMet):
        tail_equivalence_check(k, N, 6)
    monkeypatch.setattr(vanishing, "is_mcm", lambda X: True)
    forced = tail_equivalence_check(k, N, 6)
    assert forced.verdict == "VIOLATION"
    assert forced.replay is not None
    tor_pat, ext_dual, _ = forced.details["patterns"]
    assert tor_pat.tail_vanishing
    assert not ext_dual.tail_vanishing and ext_dual.dims[4] > 0


def test_symmetry_check_on_vanishing_pair(nilsquares):
    rep = symmetry_check(_cyclic(nilsquares, "x"), _cyclic(nilsquares, "y"), 6)
    assert rep.verdict == "consistent"
    assert rep.details["forward"].tail_vanishing
    assert rep.details["reverse"].tail_vanishing
    assert rep.replay["ring"]["characteristic"] == 101


def test_tor_duality_on_vanishing_pair(nilsquares):
    rep = tor_duality_check(_cyclic(nilsquares, "x"), _cyclic(nilsquares, "y"), 6)
    assert rep.verdict == "consistent"
    assert all(p.tail_vanishing for p in rep.details["patterns"])


def test_tor_duality_gate(quadric):
    N = PresentedModule.from_matrix(quadric, [["w"], ["x"], ["y"], ["z"]])
    with pytest.raises(HypothesisNotMet):
        tor_duality_check(_k(quadric), N, 6)


# -- numerical checkers ----------------------------------------------------


def test_lescot_formulas_on_residue_field(gor5):
    rep = lescot_betti_check(_k(gor5))
    assert rep.verdict == "consistent"
    got = {k: v["actual"] for k, v in rep.details["formulas"].items()}
    assert got == {"b1": 8, "b2": 21, "b3": 55}
    assert rep.details["b0"] == 3 and rep.details["socle_defect"] == 1


def test_lescot_free_module_is_vacuous(gor5):
    rep = lescot_betti_check(PresentedModule.free(gor5, (0,)))
    assert rep.verdict == "consistent"
    assert "note" in rep.details


def test_lescot_gate_rejects_other_rings(nilsquares, quadric):
    with pytest.raises(HypothesisNotMet):
        lescot_betti_check(_k(nilsquares))  # embdim 2
    with pytest.raises(HypothesisNotMet):
        lescot_betti_check(_k(quadric))  # not artinian


def test_free_or_nonvanishing_on_residue_field(gor5):
    rep = free_or_nonvanishing_check(_k(gor5), _k(gor5))
    assert rep.verdict == "consistent"
    assert rep.details["tor_dims"] == {3: 21, 4: 55, 5: 144}


@pytest.mark.parametrize("ring, generators", [("gor5", 3), ("gor5", 1), ("nilsquares", 3)])
def test_tor_is_balanced_on_seeded_pairs(ring, generators, request):
    # Tor_i(M, N) and Tor_i(N, M) have the same graded dimensions; the
    # Tor check relies on it when it resolves the smaller side.
    ctx = request.getfixturevalue(ring)
    cfg = ExperimentConfig(seed=23, trials=60, max_generators=generators)
    for t in range(cfg.trials):
        M, N = random_pair(cfg, ctx, t)
        for i in range(6):
            assert derived_dims("tor", M, N, i) == derived_dims("tor", N, M, i), (t, i)


def test_free_or_nonvanishing_matches_unswapped_tor(gor5):
    # Whichever side the check resolves, it reports the Tor dimensions of
    # the pair in the order given; on this corpus it swaps some pairs.
    cfg = ExperimentConfig(seed=23, trials=60)
    swapped = 0
    for t in range(cfg.trials):
        M, N = random_pair(cfg, gor5, t)
        Mm, Nm = M.minimal_presentation(), N.minimal_presentation()
        if Mm.is_free() or Nm.is_free():
            continue
        swapped += _smaller_resolution_first(Mm, Nm)[0] is Nm
        rep = free_or_nonvanishing_check(M, N)
        assert rep.details["tor_dims"] == {
            i: sum(tor_profile(Mm, Nm, i).values()) for i in (3, 4, 5)
        }, t
    assert swapped


def test_free_or_nonvanishing_matches_the_direct_route(gor5):
    # The check reads Tor_3..Tor_5 as Tor_2..Tor_4 against a first syzygy,
    # through `derived_dims`, the complete route's homology body; the
    # direct route, which takes homology as subquotients of the
    # unshifted complex, must give the same totals.
    cfg = ExperimentConfig(seed=23, trials=60)
    checked = 0
    for t in range(0, cfg.trials, 5):
        M, N = random_pair(cfg, gor5, t)
        Mm, Nm = M.minimal_presentation(), N.minimal_presentation()
        if Mm.is_free() or Nm.is_free():
            continue
        direct = tor(Mm, Nm, [3, 4, 5])
        rep = free_or_nonvanishing_check(M, N)
        assert rep.details["tor_dims"] == {i: direct.total(i) for i in (3, 4, 5)}, t
        checked += 1
    assert checked


def test_free_or_nonvanishing_builds_no_fifth_term(monkeypatch):
    # Tor_5(A, B) is read as Tor_4(A, Omega B), whose top cokernel is read
    # as Omega_4 A (x) Omega B off d_4, so the check resolves A to F_4 and
    # no further, and B to F_2 for the side choice (F_5 while it read
    # Tor_5 off d_5).  A fresh context keeps resolutions the other tests
    # extended out of it.
    ctx = _ctx(("x", "y", "z"), ("x*y", "x*z", "y*z", "x^2 - y^2", "x^2 - z^2"))
    real = resolution.Resolution._step
    built = []  # homological index of every term a step builds

    def step(self):
        n = len(self._twists)
        real(self)
        if len(self._twists) > n:
            built.append(n)

    monkeypatch.setattr(resolution.Resolution, "_step", step)
    cfg = ExperimentConfig(seed=23)
    checked = 0
    for t in range(12):
        rep = free_or_nonvanishing_check(*random_pair(cfg, ctx, t))
        assert rep.verdict == "consistent", t
        checked += "tor_dims" in rep.details
    assert checked and max(built) == 4


def test_smaller_resolution_first_keeps_order_on_ties(gor5):
    # R/(x) and R/(y) both resolve with ranks 1, 1, 2: a tie keeps the
    # order given.  k (ranks 1, 3, 8) goes after either.
    a, b, k = (m.minimal_presentation() for m in (_cyclic(gor5, "x"), _cyclic(gor5, "y"), _k(gor5)))
    assert _smaller_resolution_first(a, b) == (a, b)
    assert _smaller_resolution_first(b, a) == (b, a)
    assert _smaller_resolution_first(k, a) == (a, k)
    assert _smaller_resolution_first(a, k) == (a, k)


def test_free_or_nonvanishing_vacuous_for_free(gor5):
    rep = free_or_nonvanishing_check(PresentedModule.free(gor5, (0,)), _k(gor5))
    assert rep.verdict == "consistent" and "note" in rep.details


def test_free_or_nonvanishing_gate_protects_small_embdim(nilsquares):
    # (B/(x), B/(y)) is a non-free pair with vanishing Tor tail; the
    # statement tested here simply does not apply at embedding dimension 2
    with pytest.raises(HypothesisNotMet):
        free_or_nonvanishing_check(_cyclic(nilsquares, "x"), _cyclic(nilsquares, "y"))


def test_tensor_mcm_consistent_at_dimension_zero(gor5):
    rep = tensor_mcm_check(_k(gor5), _cyclic(gor5, "x", "y"))
    assert rep.verdict == "consistent"
    assert rep.details["ext_vanishes"] and rep.details["tensor_is_mcm"]
    assert rep.details["hom_is_mcm"] and rep.details["tensor_matches_dual_hom"]


def test_tensor_mcm_gates(quadric):
    ctx = _ctx(("x", "y"), ["x^2", "x*y", "y^3"])
    with pytest.raises(HypothesisNotMet):
        tensor_mcm_check(_k(ctx), _k(ctx))
    with pytest.raises(HypothesisNotMet):
        tensor_mcm_check(_k(quadric), _k(quadric))  # k not MCM in dim 3


def _is_mcm_except(monkeypatch, target):
    """Make `vanishing.is_mcm` answer False for modules equal to target."""
    real = vanishing.is_mcm
    monkeypatch.setattr(vanishing, "is_mcm", lambda X: X != target and real(X))


@pytest.mark.parametrize("broken, reason", [
    ("tensor", "Ext vanished but the tensor product is not maximal Cohen-Macaulay"),
    ("hom", "vanishing held but an attached conclusion failed"),
])
def test_tensor_mcm_violations_carry_replay(monkeypatch, gor5, broken, reason):
    # Every module over gor5 is MCM and the Ext range 1..dim is empty, so
    # the check is consistent there; a VIOLATION is forced by making
    # is_mcm refuse the tensor product, or Hom(N, M).
    M, N = _cyclic(gor5, "x"), _k(gor5)
    Mm, Nm = M.minimal_presentation(), N.minimal_presentation()
    if broken == "tensor":
        _is_mcm_except(monkeypatch, tensor_module(dual_module(Mm), Nm))
    else:
        _is_mcm_except(monkeypatch, hom_module(Nm, Mm))
    rep = tensor_mcm_check(M, N)
    assert rep.verdict == "VIOLATION"
    assert rep.details["reason"] == reason
    assert rep.replay["left"] == module_replay(M) and rep.replay["right"] == module_replay(N)


@pytest.mark.parametrize("value, verdict, reason", [
    ({0: 1}, "VIOLATION", "tensor product maximal Cohen-Macaulay but Ext did not vanish"),
    (None, "not established", "Ext values of infinite length; converse not covered"),
])
def test_tensor_mcm_reads_nonvanishing_and_infinite_ext(monkeypatch, quadric, value, verdict, reason):
    # The Ext branches need dim R > 0, so they run over the quadric on R
    # itself, free and so MCM, with Ext^1..Ext^3 forced by a patched
    # `derived_dims`: nonzero of finite length, or of infinite length.
    monkeypatch.setattr(vanishing, "derived_dims", lambda kind, M, N, i: value)
    R = PresentedModule.ring_module(quadric)
    rep = tensor_mcm_check(R, R)
    assert rep.verdict == verdict and rep.details["reason"] == reason
    assert rep.details["tensor_is_mcm"] and not rep.details["ext_vanishes"]
    assert (rep.replay is not None) == (verdict == "VIOLATION")
    assert rep.details["ext_totals_1_to_dim"] == ([1] * 3 if value else ["infinite"] * 3)


def test_stable_suite_leaves_infinite_ext_undecided(monkeypatch, gor5):
    # Ext values of infinite length, forced by a patched `derived_dims`,
    # leave both comparisons at each index undecided and the verdict "not
    # established"; the stable Hom lengths are still read and agree.
    monkeypatch.setattr(vanishing, "derived_dims", lambda kind, M, N, i: None)
    rep = stable_suite_check(_k(gor5), _k(gor5), (2, 3))
    assert rep.verdict == "not established" and rep.replay is None
    undecided = "not established (infinite length)"
    for entry in rep.details["per_index"].values():
        assert entry == {"four_term": undecided, "stable_hom_dim": undecided}
    shifts = rep.details["stable_shifts"]
    assert shifts["base"] == shifts["syzygy_shift"] == shifts["dual_swap"] == 1


def test_stable_suite_leaves_infinite_stable_shift_undecided(monkeypatch, quadric):
    # Over the quadric, w is a nonzerodivisor, so Hom(R/(w), R) = 0: no
    # map factors through a free module, and stable Hom(R/(w), R/(w)) is
    # R/(w), of infinite length.  `is_mcm` is patched to admit R/(w) and
    # `derived_dims` to vanish, so each per-index entry holds, and the
    # stable shifts alone leave the verdict "not established".  R/(w) has
    # a free first syzygy and a zero dual, so the other two read 0.
    monkeypatch.setattr(vanishing, "is_mcm", lambda X: True)
    monkeypatch.setattr(vanishing, "derived_dims", lambda kind, M, N, i: {})
    M = _cyclic(quadric, "w")
    rep = stable_suite_check(M, M, (2, 3))
    assert rep.verdict == "not established" and rep.replay is None
    for entry in rep.details["per_index"].values():
        assert entry == {"four_term": "ok", "stable_hom_dim": {"expected": 0, "actual": 0, "ok": True}}
    assert rep.details["stable_shifts"] == {"base": None, "syzygy_shift": 0, "dual_swap": 0}


def test_stable_suite_on_residue_field(gor5):
    rep = stable_suite_check(_k(gor5), _k(gor5), (2, 3))
    assert rep.verdict == "consistent"
    dims = {i: e["stable_hom_dim"]["actual"] for i, e in rep.details["per_index"].items()}
    assert dims == {2: 8, 3: 21}
    shifts = rep.details["stable_shifts"]
    assert shifts["base"] == shifts["syzygy_shift"] == shifts["dual_swap"] == 1


def test_stable_suite_validates_indices(gor5):
    with pytest.raises(ValueError):
        stable_suite_check(_k(gor5), _k(gor5), (1, 2))


# -- change of rings -------------------------------------------------------


@pytest.fixture(scope="module")
def plane_quotient():
    ring = PolyRing(FieldSpec(101), ("x", "y"))
    S = RingCtx(ring, [])
    f = ring.parse("x^2")
    return S, f, quotient_context(S, f)


def test_quotient_context_cached_and_guarded(plane_quotient):
    S, f, R = plane_quotient
    assert quotient_context(S, f) is R
    assert R.dim == 1
    with pytest.raises(ValueError):
        quotient_context(S, S.ring.parse("x^2 + y"))  # inhomogeneous
    crossed = _ctx(("x", "y"), ["x*y"])
    with pytest.raises(ValueError):
        quotient_context(crossed, crossed.ring.parse("x"))  # zerodivisor


def test_restriction_keeps_length(plane_quotient):
    S, f, R = plane_quotient
    k = _k(R)
    assert restrict_through_quotient(k, S, f).length() == 1
    fin = _cyclic(R, "x", "y^2")
    assert restrict_through_quotient(fin, S, f).length() == 2


def test_change_of_rings_on_finite_length_corpus(plane_quotient):
    S, f, R = plane_quotient
    k = _k(R)
    fin = _cyclic(R, "x", "y^2")
    for M, N in [(k, k), (k, fin), (fin, fin), (fin, k)]:
        rep = change_of_rings_check(S, f, M, N, 8)
        assert rep.verdict == "consistent", rep.details
        assert all(v == "ok" for v in rep.details["ext_inequality"].values())
        assert all(v == "ok" for v in rep.details["tor_inequality"].values())
        assert all(v == "ok" for v in rep.details["syzygy_transfer"].values())


def test_change_of_rings_periodicity_rows_present(plane_quotient):
    S, f, R = plane_quotient
    rep = change_of_rings_check(S, f, _k(R), _k(R), 8)
    rows = rep.details["periodicity"]
    assert rows and all(v == "ok" for v in rows.values())


def test_change_of_rings_shifted_bound_is_tight(plane_quotient):
    # Ext^2 over the base is nonzero exactly where Ext^1 over the quotient
    # sits after the degree shift by deg f; this pair fails under the
    # unshifted comparison, so it pins the convention.
    S, f, R = plane_quotient
    rep = change_of_rings_check(S, f, _k(R), PresentedModule.free(R, (0,)), 8)
    assert rep.details["ext_inequality"][2] == "ok"
    assert rep.verdict == "not established"  # Hom_S(A, N) has infinite length
    assert rep.details["syzygy_transfer"][0] == "undecided (infinite length)"
    assert all(rep.details["syzygy_transfer"][i] == "ok" for i in range(1, 9))


def test_change_of_rings_rejects_foreign_modules(plane_quotient):
    S, f, _ = plane_quotient
    with pytest.raises(ValueError):
        change_of_rings_check(S, f, _k(S), _k(S), 8)


def _dims_by_ring(monkeypatch, S, over_base, over_quotient):
    """Make `vanishing.derived_dims` answer `over_base` for modules over
    S and `over_quotient` for those over S/(f), at every index."""
    monkeypatch.setattr(vanishing, "derived_dims",
                        lambda kind, M, N, i: over_base if M.ctx is S else over_quotient)


def test_change_of_rings_leaves_infinite_quotient_values_undecided(monkeypatch, plane_quotient):
    # Values over S/(f) of infinite length, and zero over S, so every
    # periodicity window is silent over S: each comparison is undecided,
    # none is a violation.
    S, f, R = plane_quotient
    _dims_by_ring(monkeypatch, S, {}, None)
    rep = change_of_rings_check(S, f, _k(R), _k(R), 4)
    assert rep.verdict == "not established" and rep.replay is None
    undecided = "undecided (infinite length)"
    assert rep.details["ext_inequality"] == rep.details["tor_inequality"] == {i: undecided for i in range(1, 5)}
    assert rep.details["periodicity"] == {1: undecided, 2: undecided}
    assert rep.details["syzygy_transfer"] == {i: undecided for i in range(5)}
    assert "failures" not in rep.details


@pytest.mark.parametrize("over_base, over_quotient, failed", [
    # Ext and Tor over S above their bounds, and the transfer unequal.
    ({0: 1}, {}, ["ext_inequality", "tor_inequality", "syzygy_transfer"]),
    # Silent over S, so periodicity is compared, and Ext over S/(f) does
    # not repeat shifted by deg f; the transfer is unequal again.
    ({}, {0: 1}, ["periodicity", "syzygy_transfer"]),
])
def test_change_of_rings_reports_each_violation(monkeypatch, plane_quotient, over_base, over_quotient, failed):
    S, f, R = plane_quotient
    _dims_by_ring(monkeypatch, S, over_base, over_quotient)
    rep = change_of_rings_check(S, f, _k(R), _k(R), 4)
    assert rep.verdict == "VIOLATION" and rep.replay is not None
    assert sorted({item.split(" at ")[0] for item in rep.details["failures"]}) == sorted(failed)
    if "ext_inequality" in failed:
        assert rep.details["ext_inequality"][1] == {0: {"value": 1, "bound": 0}}
    if "periodicity" in failed:
        assert rep.details["periodicity"][1] == {"expected": {-2: 1}, "actual": {0: 1}}
    assert rep.details["syzygy_transfer"][0] == {"over_base": over_base, "over_quotient": over_quotient}


def test_change_of_rings_transfers_through_s_when_the_restriction_is_free(plane_quotient):
    # The zero module restricts to the zero module over S, which is free
    # with no first syzygy, so the transfer runs on S itself: Ext^0_S(S, k)
    # and Ext^0_R(R, k) are both k.
    S, f, R = plane_quotient
    rep = change_of_rings_check(S, f, PresentedModule.free(R, ()), _k(R), 4)
    assert rep.verdict == "consistent"
    assert rep.details["syzygy_transfer_note"] == "restricted module was free; used S itself"
    assert rep.details["syzygy_transfer"] == {i: "ok" for i in range(5)}


# -- external products ------------------------------------------------------


def test_external_tensor_renames_collision():
    one = _ctx(("x",), ["x^2"])
    other = _ctx(("x",), ["x^2"])
    ctx, carry_l, carry_r = external_tensor(one, other)
    assert ctx.ring.variables == ("x", "y")
    assert ctx.is_artinian and ctx.length == 4
    left = carry_l(PresentedModule.from_matrix(one, [["x"]]))
    assert left._finite_hf() == {0: 1, 1: 1}  # k[y]/(y^2)-shaped over the product


def test_external_tensor_names_at_most_twelve_letters():
    # Each factor has at most 12 variables, so the two take at most 24
    # names and a colliding name always finds a free letter.
    six = tuple("abcdef")
    ctx, _, _ = external_tensor(_ctx(six), _ctx(six))
    assert ctx.ring.variables == tuple("abcdefghijkl")
    seven = tuple("abcdefg")
    with pytest.raises(ValueError, match="need between 1 and 12 variables, got 14"):
        external_tensor(_ctx(seven), _ctx(seven))


def test_external_tensor_keeps_distinct_names():
    a = _ctx(("a",), ["a^2"])
    b = _ctx(("b",), ["b^3"])
    ctx, _, _ = external_tensor(a, b)
    assert ctx.ring.variables == ("a", "b")
    assert ctx.length == 6


def test_external_tensor_field_mismatch():
    a = _ctx(("x",), ["x^2"])
    ring = PolyRing(FieldSpec(7), ("y",))
    b = RingCtx(ring, [ring.parse("y^2")])
    with pytest.raises(ValueError):
        external_tensor(a, b)


def test_external_product_vanishing(gor5):
    one = _ctx(("x",), ["x^2"])
    kx = PresentedModule.from_matrix(one, [["x"]])
    rep = external_product_check(kx, kx, 10)
    assert rep.verdict == "consistent"
    assert rep.details["gorenstein"]
    assert rep.details["pattern"].tail_vanishing
    bad = _ctx(("x", "y"), ["x^2", "x*y", "y^3"])
    with pytest.raises(HypothesisNotMet):
        external_product_check(_k(bad), kx, 10)


# -- randomized harness ------------------------------------------------------


def test_random_module_deterministic(nilsquares):
    cfg = ExperimentConfig(seed=9, trials=1)
    a = random_module(cfg, nilsquares, 4)
    b = random_module(cfg, nilsquares, 4)
    assert a.value_key() == b.value_key()
    c = random_module(ExperimentConfig(seed=10, trials=1), nilsquares, 4)
    assert a.value_key() != c.value_key() or a.row_twists != c.row_twists


def test_random_module_respects_caps(nilsquares):
    # The generator cap is the config's; relation degrees are at most 3.
    cfg = ExperimentConfig(seed=1, trials=1, max_generators=2)
    for i in range(12):
        m = random_module(cfg, nilsquares, i)
        assert 1 <= len(m.row_twists) <= 2
        for row in m.presentation_matrix():
            for e in row:
                assert e.degree() <= 3


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(max_generators=4)


def test_search_harness_deterministic_and_quiet(nilsquares):
    cfg = ExperimentConfig(seed=5, trials=6, window=5)
    rep1 = search_harness(cfg, nilsquares)
    rep2 = search_harness(cfg, nilsquares)
    assert rep1 == rep2
    assert rep1["candidates"] == []
    assert all(t["status"] in ("resolved", "unresolved") for t in rep1["trials"])
    assert "not a counterexample" in rep1["note"]


def test_search_harness_budget_reports_unresolved(gor5):
    cfg = ExperimentConfig(seed=3, trials=4, window=6, rank_budget=4)
    rep = search_harness(cfg, gor5)
    statuses = {t["status"] for t in rep["trials"]}
    assert statuses <= {"resolved", "unresolved"}
    assert "unresolved" in statuses  # budget of 4 columns cannot fit these scans


def _suspicious_scan(windows, late):
    """Stand-in for `scan_ext` on a dimension-0 ring: Ext^1 nonzero, then
    zero to the top of the window, except at index `late` when the window
    reaches it.  Each call records its window top."""

    def scan(M, N, H, *, full=True, rank_budget=None):
        windows.append(H)
        dims = {i: 0 for i in range(1, H + 1)}
        dims[1] = 2
        if late is not None and late <= H:
            dims[late] = 1
        return VanishingPattern("ext", ("M", "N"), (1, H), 0, dims, H)

    return scan


@pytest.mark.parametrize("late, status, code", [
    (None, "candidate", 3),
    (9, "retracted at wider window", 0),
])
def test_search_harness_rechecks_a_suspicious_pattern(monkeypatch, nilsquares, late, status, code):
    # A pattern nonzero past the ring dimension and zero on the last three
    # or more indices of the window is scanned again four indices wider:
    # it is logged as a candidate, with both patterns and replay data,
    # when the wider scan keeps it, and retracted when the wider scan
    # shows a later nonzero value.  Through the script runner a candidate
    # sets exit code 3.
    windows = []
    monkeypatch.setattr(vanishing, "scan_ext", _suspicious_scan(windows, late))
    cfg = ExperimentConfig(seed=3, trials=2, window=6)
    out = search_harness(cfg, nilsquares)
    assert windows == [6, 10, 6, 10]
    for t, entry in enumerate(out["trials"]):
        M, N = random_pair(cfg, nilsquares, t)
        assert entry["status"] == status
        assert (entry["left"], entry["right"]) == (module_replay(M), module_replay(N))
        assert entry["pattern"]["last_nonzero"] == 1
        assert entry["widened"]["window"] == [1, 10]
        assert entry["widened"]["last_nonzero"] == (late or 1)
    assert out["candidates"] == (out["trials"] if status == "candidate" else [])
    script = "ring A = GF(101)[x, y] / (x^2, y^2);\nsearch harness(2, 6);\n"
    rep = run_script(parse_script(script), RunFlags(seed=3))
    assert rep["statements"][1]["result"]["report"] == out
    assert rep["exit_code"] == code


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda f: derived_dims("hom", _k(f("nilsquares")), _k(f("nilsquares")), 1),
                 ValueError, "unknown derived functor 'hom'", id="derived-kind"),
    pytest.param(lambda f: derived_dims("ext", _k(f("nilsquares")), _k(f("nilsquares")), -1),
                 ValueError, "derived-functor indices start at 0", id="derived-index"),
    pytest.param(lambda f: Resolution(_k(f("nilsquares"))).diff(0),
                 ValueError, "differentials are indexed from 1", id="diff-index"),
    pytest.param(lambda f: Resolution(_k(f("nilsquares"))).syzygy_module(-1),
                 ValueError, "use negative_syzygy below index zero", id="syzygy-index"),
    pytest.param(lambda f: negative_syzygy(_k(f("nilsquares")), 0),
                 ValueError, "use syzygy for nonnegative indices", id="negative-syzygy-index"),
    pytest.param(lambda f: VanishingPattern("hom", ("M", "N"), (1, 3), 0, {1: 0, 2: 0, 3: 0}, 3),
                 ValueError, "unknown scan kind 'hom'", id="pattern-kind"),
    pytest.param(lambda f: VanishingPattern("ext", ("M", "N"), (1, 2), 0, {1: 0, 2: 0}, 2),
                 ValueError, re.escape("window (1, 2) invalid"), id="pattern-window"),
    pytest.param(lambda f: ExperimentConfig(window=0),
                 ValueError, "window must be positive", id="config-window"),
    pytest.param(lambda f: stable_suite_check(_k(f("quadric")), _k(f("quadric"))),
                 HypothesisNotMet, "left argument not maximal Cohen-Macaulay", id="stable-suite-mcm"),
    pytest.param(lambda f: lescot_betti_check(_k(_ctx(("x", "y"), ["x^2", "x*y", "y^2"]))),
                 HypothesisNotMet, "ring is not Gorenstein", id="lescot-not-gorenstein"),
    pytest.param(lambda f: lescot_betti_check(_k(_ctx(("x", "y", "z"), ["x^2", "y^2", "z^2"]))),
                 HypothesisNotMet, re.escape("length 8 differs from embedding dimension + 2 = 5"),
                 id="lescot-length"),
])
def test_refusals_name_their_reason(request, call, error, message):
    # Each call is refused with its documented error class and message;
    # `call` reads ring fixtures through the function it is given.
    with pytest.raises(error, match=message):
        call(request.getfixturevalue)


def test_reports_serialize(gor5):
    rep = tail_equivalence_check(_k(gor5), _k(gor5), 4)
    js = rep.to_json_dict()
    assert js["verdict"] == "consistent"
    assert isinstance(js["details"]["patterns"][0]["dims"], dict)
    assert isinstance(CheckReport("x", "consistent").to_json_dict(), dict)
