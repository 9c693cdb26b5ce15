"""The check table's reference-pdf edge cases against a per-lane oracle, bit for bit.

A reference pdf r can vanish where p and q differ (a bare coordinate), be
subnormal so that ln_phi(r) is -inf (tsallis(-0.99) below about 4e-312),
or be so small that 1/r and the ratios p/r and q/r overflow.  ``_Batch``
handles all three inside its vectorized sums.  The oracle below computes one
lane the other way: plain sums in which a non-finite ln_phi(r) reads 0, and
then a per-lane fix-up that sums an infinite ln_phi(r) over the entries where
p and q differ only and adds the family's limits at 0+ times the bare sums.
h_r, e_r, the cross sum of relent_D, relent_I's sum, the support refusals
and each lane's error types must agree, and a lane must read the same in a
batch of its own as among other lanes.  Where the oracle's sum meets both
+inf and -inf, which math.fsum refuses, the batch must not raise: the lane
carries the row's overflow error instead.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phientropy as pe
from phientropy.bounds import run_bound_checks
from phientropy.errors import DomainError, SupportError
from phientropy.families import big_f_drop_unchecked, ln_phi_unchecked
from phientropy.table import _OVERFLOW, _QUIET, CHECKS, _Batch, _Layout, reads

FAMILIES = (*pe.default_family_grid(), pe.tsallis(-0.99))
# r's entries: a share of the unit mass, or one of these fixed weights.
# 1e-320 and 5e-324 make ln_phi(r) = -inf for tsallis(-0.99); from about
# 5.6e-309 down, 1/r overflows.
_TINY = (0.0, 5e-324, 1e-320, 1e-310, 3e-309, 1e-300)
# p's and q's entries: a share of the mass, 0 or a subnormal.
_SHARES = st.one_of(st.floats(0.01, 1.0), st.sampled_from((0.0, 1e-320)))


def _bits(x) -> bytes:
    return struct.pack("<d", float(x))


@st.composite
def _lane(draw):
    """(family, p, q, r) at N <= 16: r with zeros and tiny entries, q equal
    to p but on a drawn set of coordinates, which takes the set's mass anew."""
    fam = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(1, 16))
    tiny = draw(st.lists(st.one_of(st.none(), st.sampled_from(_TINY)), min_size=n, max_size=n))
    tiny[draw(st.integers(0, n - 1))] = None  # r keeps some mass
    shares = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    normal = np.array([t is None for t in tiny])
    r = np.array([0.0 if t is None else t for t in tiny])
    r[normal] = shares[normal] / shares[normal].sum()
    p = np.array(draw(st.lists(_SHARES, min_size=n, max_size=n)))
    p = p / p.sum() if p.sum() > 0 else np.full(n, 1.0 / n)
    moved = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    q = p.copy()
    if moved.any():
        again = np.array(draw(st.lists(_SHARES, min_size=int(moved.sum()), max_size=int(moved.sum()))))
        mass = math.fsum(p[moved].tolist())
        q[moved] = mass * again / again.sum() if again.sum() > 0 else p[moved][::-1]
    return fam, pe.Pdf(p), pe.Pdf(q), pe.Pdf(r)


def _oracle(fam, p, q, r):
    """Lane values as plain sums and then the per-lane fix-up compute them:
    (h, e, cross, relent, unsupported, h_error, e_error, overflow), each
    error its type or None.  Raises what math.fsum raises on inf - inf."""
    pw, qw, w = p.weights, q.weights, r.weights
    diff, dpq = np.abs(pw - qw), pw - qw
    zero = w == 0
    rdiv = np.where(zero, 1.0, w)
    inv = 1.0 / rdiv
    over = np.isinf(inv)
    inv[over] = 1.0
    ln2 = np.array([ln_phi_unchecked(fam, inv), ln_phi_unchecked(fam, rdiv)])
    ln2[:, zero] = 0.0
    rows = np.where(np.isfinite(ln2), ln2, 0.0)
    h, e, cross = (math.fsum(t.tolist()) for t in (diff * rows[0], diff * rows[1], dpq * rows[1]))
    ratios = np.array([qw / rdiv, pw / rdiv])
    overflow = not np.isfinite(ratios).all()
    ratios[~np.isfinite(ratios)] = 1.0
    g = big_f_drop_unchecked(fam, ratios)
    overflow = overflow or not np.isfinite(g).all()
    terms = (g[0] - g[1]) * rdiv + dpq * fam.f_zero
    terms[zero] = 0.0
    relent = math.fsum(terms.tolist())
    unsupported, h_error, e_error = (False, False), None, None
    bare = (diff > 0) & zero
    if not np.isfinite(ln2).all():
        moved = diff > 0
        h_terms, e_terms = (diff[moved] * ln2[:, moved]).tolist()
        h, e = math.fsum(h_terms), math.fsum(e_terms)
        kept, ln_r = dpq[~zero], ln2[1, ~zero]
        cross = math.fsum((kept[kept != 0] * ln_r[kept != 0]).tolist())
    if bare.any():
        unsupported = (not fam.omega_at_zero_finite, not math.isfinite(fam.ln_at_zero))
        mass = math.fsum((pw[bare] - qw[bare]).tolist())
        bare_abs = math.fsum(diff[bare].tolist())
        h += fam.ln_sup * bare_abs
        e += fam.ln_at_zero * bare_abs
        cross += fam.ln_at_zero * mass
        relent += -fam.omega_at_zero * mass
        h_error = None if math.isfinite(fam.ln_sup) else SupportError
        e_error = None if math.isfinite(fam.ln_at_zero) else SupportError
    if h_error is None and np.count_nonzero(diff[over] > 0):
        h_error = DomainError
    return h, -e, cross, relent, unsupported, h_error, e_error, DomainError if overflow else None


def _batch(lanes):
    fams, ps, qs, rs = zip(*lanes)
    with np.errstate(**_QUIET):
        layout = _Layout(fams, tuple(p.n for p in ps), rs)
        return _Batch(layout, ps, qs).evaluate([None] * len(lanes), [math.inf] * len(lanes), reads(CHECKS))


def _read(b, i):
    """Lane i of an evaluated batch, in the oracle's shape, values as bits."""
    kind = lambda errors: None if i not in errors else type(errors[i])
    values = tuple(_bits(getattr(b, name)[i]) for name in ("h", "e", "cross", "relent"))
    support = tuple(bool(u) for u in b.unsupported[:, i])
    return (*values, support, kind(b.h_error), kind(b.e_error), kind(b.overflow))


def _outcome(fn, *args):
    """``fn(*args)``, or the type of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def _assert_row_error(lane) -> None:
    """The lane raises the rows' overflow error, or the row whose sum met
    inf - inf is refused for support and every relative-entropy report it
    gives has finite sides."""
    try:
        reports, _ = run_bound_checks(*lane)
    except DomainError as exc:
        assert str(exc) == _OVERFLOW, lane
    else:
        relent = [rep for rep in reports if rep.bound_id.startswith("relent")]
        assert len(relent) < 2 and all(math.isfinite(rep.lhs) and math.isfinite(rep.rhs) for rep in relent), lane


@settings(max_examples=300)
@given(st.lists(_lane(), min_size=1, max_size=6))
def test_every_lane_equals_the_per_lane_oracle(lanes):
    with np.errstate(**_QUIET):
        want = [_outcome(_oracle, *lane) for lane in lanes]
    alone = [_read(_batch([lane]), 0) for lane in lanes]
    for lane, got, expected in zip(lanes, alone, want):
        if expected is ValueError:  # inf - inf in the oracle's math.fsum
            _assert_row_error(lane)
        else:
            h, e, cross, relent, *rest = expected
            assert got == (*map(_bits, (h, e, cross, relent)), *rest), lane
    together = _batch(lanes)
    assert [_read(together, i) for i in range(len(lanes))] == alone


@pytest.mark.parametrize(
    "fam, tiny", [(pe.tsallis(0.9), 1e-200), (pe.tsallis(-0.99), 1e-320)], ids=["ratio", "ln_phi(r)"]
)
def test_opposite_infinite_terms_raise_the_row_error(fam, tiny):
    # g(p/r) and g(q/r) overflow at different entries (relent_I's terms are
    # +inf and -inf), or ln_phi(r) is -inf where p - q takes both signs (the
    # cross sum's are): math.fsum refused both sums with a ValueError.
    p, q, r = pe.Pdf([0.4, 0.4, 0.2, 0.0]), pe.Pdf([0.4, 0.4, 0.0, 0.2]), pe.Pdf([0.5, 0.5, tiny, tiny])
    with pytest.raises(DomainError, match=f"^{_OVERFLOW}$"):
        run_bound_checks(fam, p, q, r)
    with pytest.raises(DomainError, match=f"^{_OVERFLOW}$"):
        pe.check_relent(fam, p, q, r)


def test_the_oracle_meets_every_edge():
    # One lane of each kind the strategy aims at: a bare coordinate, an
    # infinite ln_phi(r) where p and q agree, and a 1/r that overflows
    # where they differ.
    km, ts = pe.kappa_maxwell(2.0), pe.tsallis(-0.99)
    bare = (km, pe.Pdf([0.5, 0.3, 0.2]), pe.Pdf([0.4, 0.4, 0.2]), pe.Pdf([0.5, 0.0, 0.5]))
    infinite = (ts, pe.Pdf([0.5, 0.5, 1e-320]), pe.Pdf([0.4, 0.6, 1e-320]), pe.Pdf([0.5, 0.5, 1e-320]))
    over = (ts, pe.Pdf([0.5, 0.3, 0.2]), pe.Pdf([0.4, 0.4, 0.2]), pe.Pdf([0.5, 1e-310, 0.5]))
    with np.errstate(**_QUIET):
        # kappa_maxwell's ln_phi is bounded above, but not below.
        assert _oracle(*bare)[4:7] == ((False, True), None, SupportError)
        assert ln_phi_unchecked(ts, np.array([1e-320]))[0] == -math.inf
        assert all(math.isfinite(v) for v in _oracle(*infinite)[:4])
        assert _oracle(*over)[5:] == (DomainError, None, DomainError)
    for lane in (bare, infinite, over):
        with np.errstate(**_QUIET):
            h, e, cross, relent, *rest = _oracle(*lane)
        assert _read(_batch([lane]), 0) == (*map(_bits, (h, e, cross, relent)), *rest)
