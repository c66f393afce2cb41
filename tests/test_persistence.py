import json
import math
from fractions import Fraction

import numpy as np
import pytest

from lutzlab import persistence as ps
from lutzlab.errors import BasisOverflow, PreconditionFailed

import oracles


@pytest.fixture
def xy_dga():
    """x odd with dx = 1, y odd closed: the minimal vanishing example."""
    return ps.FilteredDGA(
        [ps.Generator("x", 1, 3.0), ps.Generator("y", 1, 5.0)],
        {"x": [(1, [])]}, action_cap=10.0, word_cap=4)


# --- boundary operator -------------------------------------------------------

def test_leibniz_on_product(xy_dga):
    out = ps.boundary(xy_dga, {("x", "y"): 1})
    assert out == {xy_dga._parse_word(["y"]): Fraction(1)}


def test_unit_is_closed(xy_dga):
    assert ps.boundary(xy_dga, [(1, [])]) == {}


def test_even_power_rule():
    # d(x^2) = 2 x dx for even x with dx an odd generator
    dga = ps.FilteredDGA(
        [ps.Generator("z", 1, 1.0), ps.Generator("x", 0, 3.0)],
        {"x": [(1, ["z"])]}, action_cap=20.0, word_cap=4)
    out = ps.boundary(dga, [(1, ["x", "x"])])
    word = dga._parse_word(["z", "x"])
    assert out == {word: Fraction(2)}


def test_koszul_sign_second_factor():
    # d(y x) with x, y odd, dx = 1, dy = 0: passing d over y flips the sign
    dga = ps.FilteredDGA(
        [ps.Generator("y", 1, 5.0), ps.Generator("x", 1, 3.0)],
        {"x": [(1, [])]}, action_cap=10.0, word_cap=4)
    out = ps.boundary(dga, {("y", "x"): 1})
    assert out == {dga._parse_word(["y"]): Fraction(-1)}


def test_odd_square_dies(xy_dga):
    with pytest.raises(ValueError):
        xy_dga._parse_word(["y", "y"])


def _insertion_sort_product(dga, a, b):
    """Reference: flatten a*b, insertion-sort it, flipping the sign on
    every swap of two odd letters; a repeated odd letter kills it."""
    arr = [(gi, dga.generators[gi].degree)
           for gi, e in a + b for _ in range(e)]
    sign = 1
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1][0] > arr[j][0]:
            if arr[j - 1][1] == 1 and arr[j][1] == 1:
                sign = -sign
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            j -= 1
    counts = {}
    for gi, dg in arr:
        counts[gi] = counts.get(gi, 0) + 1
        if dg == 1 and counts[gi] > 1:
            return 0, None
    return sign, tuple(sorted(counts.items()))


def test_product_matches_the_insertion_sort_rule():
    rng = np.random.default_rng(46)
    degrees = [1, 0, 1, 1, 0, 1, 0, 1]
    dga = ps.FilteredDGA(
        [ps.Generator(f"g{i}", d, 1.0) for i, d in enumerate(degrees)],
        {}, action_cap=100.0, word_cap=20)

    def random_word():
        picked = np.flatnonzero(rng.random(len(degrees)) < 0.45)
        return tuple((int(gi), 1 if degrees[gi] else int(rng.integers(1, 4)))
                     for gi in picked)

    signs = set()
    for _ in range(2000):
        a, b = random_word(), random_word()
        got = ps._product(degrees, a, b)
        assert got == _insertion_sort_product(dga, a, b)
        signs.add(got[0])
    assert signs == {-1, 0, 1}


def _two_merge_boundary_word(dga, word):
    """Reference: each Leibniz term merged as (prefix * dg) * (g^(e-1)
    suffix), two Koszul-signed products, with the sign of the prefix."""
    degree = [g.degree for g in dga.generators]
    out = {}
    prefix_deg = 0
    for pos, (gi, e) in enumerate(word):
        rest = list(word)
        if e == 1:
            rest.pop(pos)
        else:
            rest[pos] = (gi, e - 1)
        for coeff, dword in dga.differential.get(gi, []):
            s1, head = ps._product(degree, tuple(rest[:pos]), dword)
            s2, prod = (ps._product(degree, head, tuple(rest[pos:]))
                        if s1 else (0, None))
            if s2 == 0 or coeff == 0:
                continue
            c = coeff * (e * (-1) ** prefix_deg * s1 * s2)
            out[prod] = out.get(prod, 0) + c
        prefix_deg += e * dga.generators[gi].degree
    return {w: c for w, c in out.items() if c != 0}


def test_boundary_word_matches_the_two_merge_reference():
    rng = np.random.default_rng(47)
    degrees = [1, 0, 1, 0, 1, 1, 0, 1]
    gens = [ps.Generator(f"g{i}", d, 2.5 ** i) for i, d in enumerate(degrees)]
    diff = {}
    for i in range(1, len(degrees)):
        # one to three terms on earlier letters, of one or two letters
        # (or the unit), in the degree the parity rule asks for
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            for _ in range(50):
                js = [int(j) for j in rng.integers(0, i, rng.integers(0, 3))]
                odd = [j for j in js if degrees[j]]
                if len(odd) % 2 != degrees[i] and len(set(odd)) == len(odd):
                    terms.append((Fraction(int(rng.integers(-3, 4)) or 1,
                                           int(rng.integers(1, 5))),
                                  [f"g{j}" for j in js]))
                    break
        diff[f"g{i}"] = terms
    dga = ps.FilteredDGA(gens, diff, action_cap=1e6, word_cap=20)
    assert max(dga.word_length(w) for terms in dga.differential.values()
               for _, w in terms) == 2
    assert ps._IntegerBoundary(dga).scale == 12
    nonzero, denominators = 0, set()
    for _ in range(2000):
        picked = np.flatnonzero(rng.random(len(degrees)) < 0.5)
        word = tuple((int(gi), 1 if degrees[gi] else int(rng.integers(1, 4)))
                     for gi in picked)
        got = dga.boundary_word(word)
        assert list(got.items()) == list(
            _two_merge_boundary_word(dga, word).items())
        assert all(type(c) is Fraction for c in got.values())
        denominators |= {c.denominator for c in got.values()}
        nonzero += bool(got)
    assert nonzero > 1000 and {2, 3, 4} <= denominators


def _overflow_dga(dy):
    # a two-letter differential word pushes products past the word cap
    diff = {"x": [(1, ["y", "z"])]}
    if dy:
        diff["y"] = [(1, [])]  # d(dx) = z != 0
    return ps.FilteredDGA(
        [ps.Generator("y", 1, 1.0), ps.Generator("z", 1, 2.0),
         ps.Generator("x", 1, 5.0), ps.Generator("w", 0, 1.0)],
        diff, action_cap=50.0, word_cap=2)


def test_boundary_overflow():
    dga = _overflow_dga(dy=False)
    with pytest.raises(BasisOverflow):
        ps.boundary(dga, {("x", "w"): 1})  # d(xw) contains y*z*w, length 3


@pytest.mark.parametrize("fn", [ps.barcode, ps.unit_vanishing_level,
                                ps.brute_force_oracle])
def test_d_squared_failure_wins_over_overflow(fn):
    with pytest.raises(PreconditionFailed):
        fn(_overflow_dga(dy=True))
    with pytest.raises(BasisOverflow):
        fn(_overflow_dga(dy=False))


@pytest.mark.parametrize("fn", [ps.barcode, ps.unit_vanishing_level])
def test_overflow_past_the_unit_level_still_raises(fn):
    # dt = 1 puts the unit level at t's column (action 0.5); the one word
    # whose boundary leaves the word cap is x*t (d(xt) = yzt - x), later
    dga = ps.FilteredDGA(
        [ps.Generator("y", 1, 1.0), ps.Generator("z", 1, 2.0),
         ps.Generator("x", 1, 5.0), ps.Generator("t", 1, 0.5)],
        {"x": [(1, ["y", "z"])], "t": [(1, [])]},
        action_cap=50.0, word_cap=2)
    basis = dga.basis()
    assert basis[1] == dga._parse_word(["t"])
    leaving = [w for w in basis
               if not all(map(dga.in_caps, dga.boundary_word(w)))]
    assert leaving == [dga._parse_word(["x", "t"])]
    with pytest.raises(BasisOverflow):
        fn(dga)


@pytest.mark.parametrize("fn", [ps.barcode, ps.unit_vanishing_level,
                                ps.brute_force_oracle])
def test_boundary_leaving_the_action_cap_by_rounding_raises(fn):
    # dq = s lowers action by 2 ulp, yet d(pqr) = p r s (summed in another
    # order) rounds above pqr's action, which is the cap
    a_s = 0.20626039469180996
    dga = ps.FilteredDGA(
        [ps.Generator("p", 0, 0.4081988490867068),
         ps.Generator("q", 1, 0.20626039469181),
         ps.Generator("r", 0, 0.8540817562275901),
         ps.Generator("s", 0, a_s)],
        {"q": [(1, ["s"])]}, action_cap=1.4685410000061068, word_cap=3)
    pqr = dga._parse_word(["p", "q", "r"])
    prs = dga._parse_word(["p", "r", "s"])
    assert dga.word_action(pqr) == dga.action_cap < dga.word_action(prs)
    assert sum(map(Fraction, (0.4081988490867068, 0.8540817562275901, a_s))) \
        < sum(Fraction(g.action) for g in dga.generators[:3])
    assert list(dga.boundary_word(pqr)) == [prs]
    with pytest.raises(BasisOverflow):
        fn(dga)


def test_rounding_past_the_unit_level_still_raises():
    # the rounding example above with dt = 1 at a low action: the unit level
    # stops at t, before pqr, and still checks pqr's boundary
    dga = ps.FilteredDGA(
        [ps.Generator("p", 0, 0.4081988490867068),
         ps.Generator("q", 1, 0.20626039469181),
         ps.Generator("r", 0, 0.8540817562275901),
         ps.Generator("s", 0, 0.20626039469180996),
         ps.Generator("t", 1, 0.125)],
        {"q": [(1, ["s"])], "t": [(1, [])]},
        action_cap=1.4685410000061068, word_cap=3)
    assert dga.basis()[1] == dga._parse_word(["t"])
    with pytest.raises(BasisOverflow):
        ps.unit_vanishing_level(dga)


def test_differential_validation():
    with pytest.raises(ValueError):  # action must strictly decrease
        ps.FilteredDGA([ps.Generator("x", 1, 3.0),
                        ps.Generator("z", 0, 4.0)],
                       {"x": [(1, ["z"])]}, 10.0, 4)
    with pytest.raises(ValueError):  # parity must drop by one
        ps.FilteredDGA([ps.Generator("x", 0, 3.0)],
                       {"x": [(1, [])]}, 10.0, 4)


# --- d squared ---------------------------------------------------------------

def test_d_squared_good(xy_dga):
    assert ps.d_squared_check(xy_dga)


def test_d_squared_bad():
    bad = ps.FilteredDGA(
        [ps.Generator("y", 1, 1.0), ps.Generator("x", 0, 3.0)],
        {"x": [(1, ["y"])], "y": [(1, [])]}, 10.0, 4)
    assert not ps.d_squared_check(bad)


def test_d_squared_empty():
    dga = ps.FilteredDGA([ps.Generator("x", 1, 1.0)], {}, 10.0, 3)
    assert ps.d_squared_check(dga)


def _d_squared_per_word(dga):
    """Reference: recompute both boundaries word by word, no table."""
    for word in dga.basis():
        second = {}
        for w, c in dga.boundary_word(word).items():
            for w2, c2 in dga.boundary_word(w).items():
                second[w2] = second.get(w2, Fraction(0)) + c * c2
        if any(c != 0 for c in second.values()):
            return False
    return True


def test_d_squared_matches_per_word_reference():
    rng = np.random.default_rng(45)
    dgas = [oracles.random_chain_dga(rng) for _ in range(25)]
    dgas += [ps.random_admissible_dga(rng) for _ in range(10)]
    # words of up to 5 letters (Koszul signs across 3 or more letters), and
    # image words that leave the basis, with d^2 = 0 and with d^2 != 0
    dgas += [_koszul_dga(), _overflow_dga(dy=False), _overflow_dga(dy=True)]
    dgas.append(ps.FilteredDGA(
        [ps.Generator("y", 1, 1.0), ps.Generator("x", 0, 3.0)],
        {"x": [(1, ["y"])], "y": [(1, [])]}, 10.0, 4))
    for dga in dgas:
        assert ps.d_squared_check(dga) == _d_squared_per_word(dga)
    assert ps.d_squared_check(dgas[-4]) and ps.d_squared_check(dgas[-3])
    assert not ps.d_squared_check(dgas[-2])
    assert not ps.d_squared_check(dgas[-1])


def test_d_squared_with_no_letter_in_the_basis():
    # d(dx) = dy = 1 != 0, but word_cap = 0 leaves only the unit, which no
    # letter reaches
    dga = ps.FilteredDGA(
        [ps.Generator("y", 1, 1.0), ps.Generator("x", 0, 3.0)],
        {"x": [(1, ["y"])], "y": [(1, [])]}, 10.0, 0)
    assert dga.basis() == [ps.UNIT]
    assert _d_squared_per_word(dga)
    assert ps.d_squared_check(dga)
    assert ps.barcode(dga).bars == (ps.Bar("1", 0.0, math.inf),)


def test_d_squared_violation_above_action_cap():
    # d(dx) = dy = 1 != 0, but x lies above the cap, so no basis word
    # sees it
    dga = ps.FilteredDGA(
        [ps.Generator("y", 1, 1.0), ps.Generator("x", 0, 30.0)],
        {"x": [(1, ["y"])], "y": [(1, [])]}, 10.0, 4)
    assert _d_squared_per_word(dga)
    assert ps.d_squared_check(dga)
    ps.barcode(dga)


# --- unit level --------------------------------------------------------------

def test_unit_level_single_primitive(xy_dga):
    assert ps.unit_vanishing_level(xy_dga) == 3.0


def test_unit_level_picks_minimum():
    dga = ps.FilteredDGA(
        [ps.Generator("x1", 1, 3.0), ps.Generator("x2", 1, 2.0)],
        {"x1": [(1, [])], "x2": [(1, [])]}, 10.0, 4)
    assert ps.unit_vanishing_level(dga) == 2.0


def test_unit_level_infinite():
    dga = ps.FilteredDGA([ps.Generator("x", 1, 3.0)], {}, 10.0, 4)
    assert math.isinf(ps.unit_vanishing_level(dga))


# --- leibniz bound -----------------------------------------------------------

def test_leibniz_bound_values(xy_dga):
    assert ps.leibniz_upper_bound(xy_dga, ["y"]) == 8.0
    assert ps.leibniz_upper_bound(xy_dga, []) == 3.0


def test_leibniz_bound_preconditions():
    no_prim = ps.FilteredDGA([ps.Generator("x", 1, 3.0)], {}, 10.0, 4)
    with pytest.raises(PreconditionFailed):
        ps.leibniz_upper_bound(no_prim, ["x"])
    dga = ps.FilteredDGA(
        [ps.Generator("z", 1, 1.0), ps.Generator("x", 0, 3.0),
         ps.Generator("w", 1, 0.5)],
        {"x": [(1, ["z"])], "w": [(1, [])]}, 10.0, 4)
    with pytest.raises(PreconditionFailed):
        ps.leibniz_upper_bound(dga, ["x"])  # x is not closed


# --- barcodes ----------------------------------------------------------------

def test_barcode_minimal_example(xy_dga):
    bars = {(b.label, b.birth, b.death) for b in ps.barcode(xy_dga).bars}
    assert ("1", 0.0, 3.0) in bars
    assert ("y", 5.0, 8.0) in bars  # killed by x*y


def test_barcode_zero_differential_all_infinite():
    dga = ps.FilteredDGA(
        [ps.Generator("x", 1, 3.0), ps.Generator("w", 0, 2.0)], {},
        10.0, 3)
    bc = ps.barcode(dga)
    assert all(math.isinf(b.death) for b in bc.bars)


def test_barcode_polynomial_algebra():
    dga = ps.FilteredDGA([ps.Generator("x", 0, 3.0)], {}, 10.0, 4)
    bars = [(b.label, b.birth, b.death) for b in ps.barcode(dga).bars]
    assert bars == [("1", 0.0, math.inf), ("x", 3.0, math.inf),
                    ("x^2", 6.0, math.inf), ("x^3", 9.0, math.inf)]


def test_barcode_empty_dga():
    dga = ps.FilteredDGA([], {}, 10.0, 4)
    bars = ps.barcode(dga).bars
    assert len(bars) == 1 and bars[0].label == "1" \
        and math.isinf(bars[0].death)


def test_barcode_requires_d_squared_zero():
    bad = ps.FilteredDGA(
        [ps.Generator("y", 1, 1.0), ps.Generator("x", 0, 3.0)],
        {"x": [(1, ["y"])], "y": [(1, [])]}, 10.0, 4)
    with pytest.raises(PreconditionFailed):
        ps.barcode(bad)
    with pytest.raises(PreconditionFailed):
        ps.brute_force_oracle(bad)


def test_random_three_generator_oracle_equality():
    rng = np.random.default_rng(42)
    for _ in range(10):
        dga = ps.random_admissible_dga(rng, n_generators=3)
        assert ps.barcode(dga).bars == ps.brute_force_oracle(dga).bars


def test_action_rounding_is_numpys():
    # random_admissible_dga rounds its actions without numpy, by the rule
    # of np.round(x, 3): the same floats over the draws it makes, plus
    # near-halfway points and a wider range
    rng = np.random.default_rng(44)
    xs = np.concatenate([rng.uniform(0.6, 9.5, 200_000),
                         (2.0 * np.arange(20_000) + 1.0) / 2000.0,
                         rng.uniform(-1e6, 1e6, 50_000)])
    assert ([round(x * 1e3) / 1e3 for x in xs.tolist()]
            == np.round(xs, 3).tolist())


def test_random_chain_oracle_equality():
    rng = np.random.default_rng(43)
    for word_cap in (4, 5):
        for _ in range(25):
            dga = oracles.random_chain_dga(rng, word_cap=word_cap)
            assert ps.d_squared_check(dga)
            assert ps.barcode(dga).bars == ps.brute_force_oracle(dga).bars


def test_filtration_monotonicity_random():
    rng = np.random.default_rng(44)
    for _ in range(10):
        dga = oracles.random_chain_dga(rng)
        for w in dga.basis():
            img = dga.boundary_word(w)
            for w2 in img:
                assert dga.word_action(w2) < dga.word_action(w)


def _koszul_dga(pairs=4, coeffs=None):
    """Even e_i, odd o_i with d o_i = c_i e_i, and odd t with dt = 1;
    c_i = (-1)^i (i + 1)/2 unless `coeffs` gives them."""
    gens, diff = [], {}
    for i in range(pairs):
        gens += [ps.Generator(f"e{i}", 0, 1.0 + 0.1 * i),
                 ps.Generator(f"o{i}", 1, 1.5 + 0.1 * i)]
        c = coeffs[i] if coeffs else Fraction((-1) ** i * (i + 1), 2)
        diff[f"o{i}"] = [(c, [f"e{i}"])]
    gens.append(ps.Generator("t", 1, 2.2))
    diff["t"] = [(1, [])]
    return ps.FilteredDGA(gens, diff, action_cap=1e6, word_cap=5)


def _cleared(dga, bars):
    """Even basis words with a finite bar: the pivot rows of odd columns,
    whose own columns `barcode` clears."""
    finite = {b.label for b in bars.finite_bars()}
    return {w for w in dga.basis()
            if dga.word_degree(w) == 0 and dga.word_name(w) in finite}


@pytest.mark.parametrize("fn", [ps.barcode, ps.unit_vanishing_level,
                                ps.d_squared_check])
def test_one_boundary_per_basis_word(monkeypatch, fn):
    # no word is expanded twice by the Leibniz expansions: on packed words
    # (`_PackedBoundary.expand`) in the eliminations, on tuple words
    # (`_IntegerBoundary.expand`) in `d_squared_check`.  The d^2 check
    # expands only the one-letter basis words and their images outside
    # them (here the nine letters and the unit); no boundary leaves a cap
    # here, so the closure check adds none.  The unit level then builds the
    # odd columns up to its stop at t, which are letters; barcode builds
    # every column it does not clear.
    dga = _koszul_dga()
    basis = dga.basis()
    assert len(basis) == 1002
    letters = [w for w in basis if len(w) == 1 and w[0][1] == 1]
    images = {w for x in letters for w in dga.boundary_word(x)}
    checked = set(letters) | images
    cleared = _cleared(dga, ps.barcode(dga))
    calls = []
    tuple_expand = ps._IntegerBoundary.expand
    packed_expand = ps._PackedBoundary.expand
    monkeypatch.setattr(ps._IntegerBoundary, "expand",
                        lambda self, w: calls.append(w)
                        or tuple_expand(self, w))
    monkeypatch.setattr(ps._PackedBoundary, "expand",
                        lambda self, p: calls.append(self.unpack(p))
                        or packed_expand(self, p))
    fn(dga)
    assert len(calls) == len(set(calls))
    if fn is ps.barcode:
        assert set(calls) == (set(basis) - cleared) | checked
        assert (len(cleared), len(calls)) == (253, 754)
    else:
        stop = basis.index(dga._parse_word(["t"]))
        odd = {w for w in basis[:stop + 1] if dga.word_degree(w)}
        assert odd <= set(letters)
        assert set(calls) == checked and len(calls) == 10


def test_cleared_koszul_oracle_equality():
    dga = _koszul_dga(pairs=3)
    bars = ps.barcode(dga)
    assert len(dga.basis()) == 360 and len(_cleared(dga, bars)) == 92
    assert bars.bars == ps.brute_force_oracle(dga).bars


# --- packed words and the heap walk -----------------------------------------

def _sign_dga():
    """Odd letters in one- and two-letter differential terms (dp = 3a,
    dr = ac - bc): the Koszul signs of the packed expansion change the
    bars here, and d^2 = 0 holds as every target is closed."""
    return ps.FilteredDGA(
        [ps.Generator("a", 1, 1.08), ps.Generator("b", 1, 1.18),
         ps.Generator("c", 0, 1.19), ps.Generator("p", 0, 1.61),
         ps.Generator("q", 1, 2.39), ps.Generator("r", 0, 2.62)],
        {"p": [(3, ["a"])], "q": [(1, ["c"])],
         "r": [(1, ["a", "c"]), (-1, ["b", "c"])]},
        action_cap=7.0, word_cap=8)


def _carry_dga():
    """A differential term y^4 above the word cap 1: the d^2 check expands
    the image y^4 g of the letter x to y^8 z, an exponent of 4 bits."""
    return ps.FilteredDGA(
        [ps.Generator("z", 1, 0.5), ps.Generator("y", 0, 1.0),
         ps.Generator("g", 0, 10.0), ps.Generator("x", 1, 100.0)],
        {"x": [(1, ["y"] * 4 + ["g"])], "g": [(2, ["y"] * 4 + ["z"])]},
        action_cap=1000.0, word_cap=1)


def _random_two_letter_dga(rng, word_cap=4):
    """Random terms of one or two letters (or the unit) on earlier
    generators, odd letters among them; d^2 need not vanish."""
    degrees = [int(d) for d in rng.integers(0, 2, int(rng.integers(3, 7)))]
    diff = {}
    for i in range(1, len(degrees)):
        terms = []
        for _ in range(int(rng.integers(0, 3))):
            js = sorted(int(j) for j in rng.integers(0, i, rng.integers(0, 3)))
            odd = [j for j in js if degrees[j]]
            if len(odd) % 2 != degrees[i] and len(set(odd)) == len(odd):
                terms.append((int(rng.integers(-3, 4)) or 1,
                              [f"g{j}" for j in js]))
        if terms:
            diff[f"g{i}"] = terms
    return ps.FilteredDGA(
        [ps.Generator(f"g{i}", d, 2.5 ** i) for i, d in enumerate(degrees)],
        diff, action_cap=1e6, word_cap=word_cap)


def _expansion_dgas():
    rng = np.random.default_rng(51)
    dgas = [_koszul_dga(), _koszul_dga(coeffs=MIXED + (Fraction(-3, 5),)),
            _sign_dga(), _carry_dga()]
    dgas += [oracles.random_chain_dga(rng) for _ in range(60)]
    dgas += [ps.random_admissible_dga(rng) for _ in range(60)]
    dgas += [_random_two_letter_dga(rng) for _ in range(30)]
    return dgas


def test_packed_expansion_matches_the_tuple_expansion():
    # on every basis word, and on every image of a letter, which the d^2
    # check expands too although it may lie outside the basis
    signs = images_outside = 0
    for dga in _expansion_dgas():
        packed, ref = ps._PackedBoundary(dga), ps._IntegerBoundary(dga)
        basis = dga.basis()
        words = set(basis)
        for gi in ps._letters(dga):
            words |= set(ref.expand(((gi, 1),)))
        images_outside += len(words) - len(basis)
        for w in words:
            p = packed.pack(w)
            assert packed.unpack(p) == w
            got = {packed.unpack(q): c for q, c in packed.expand(p).items()}
            want = ref.expand(w)
            assert got == want
            signs += any(c < 0 for c in want.values())
    assert signs > 1000 and images_outside >= 2


def test_packed_words_do_not_carry():
    dga = _carry_dga()
    lift = ps._PackedBoundary(dga)
    x, image = dga._parse_word(["x"]), dga._parse_word(["y"] * 4 + ["g"])
    assert dga.word_cap == 1 and 2 ** lift.bits > 8
    assert lift.expand(lift.pack(x)) == {lift.pack(image): 1}
    assert lift.expand(lift.pack(image)) == {
        lift.pack(dga._parse_word(["y"] * 8 + ["z"])): 2}
    assert not ps.d_squared_check(dga)
    for fn in (ps.barcode, ps.unit_vanishing_level):
        with pytest.raises(PreconditionFailed):
            fn(dga)


def test_sign_dga_oracle_equality():
    dga = _sign_dga()
    bars = ps.barcode(dga)
    assert len(dga.basis()) == 109 and ps.d_squared_check(dga)
    assert bars.bars == ps.brute_force_oracle(dga).bars
    assert ps.unit_vanishing_level(dga) == bars.unit_bar().death


def test_random_two_letter_oracle_equality():
    # random DGAs with two-letter terms whose d^2 vanishes and whose
    # boundaries stay in the basis
    rng = np.random.default_rng(52)
    compared = 0
    for _ in range(300):
        base = _random_two_letter_dga(rng, word_cap=8)
        dga = ps.FilteredDGA(base.generators, {
            base.generators[gi].name: [
                (c, [j for j, e in w for _ in range(e)]) for c, w in terms]
            for gi, terms in base.differential.items()},
            action_cap=2.5 ** (len(base.generators) - 1) * 2.2, word_cap=8)
        if len(dga.basis()) > 120 or not ps.d_squared_check(dga):
            continue
        try:
            ref = ps.brute_force_oracle(dga)
        except BasisOverflow:
            with pytest.raises(BasisOverflow):
                ps.barcode(dga)
            continue
        assert ps.barcode(dga).bars == ref.bars
        compared += 1
    assert compared > 20


def test_keyed_basis_keys():
    # the keys attached while enumerating are those of the word helpers
    for dga in _expansion_dgas():
        lift = ps._PackedBoundary(dga)
        entries = ps._keyed_basis(dga, lift.bits)
        assert [e[4] for e in entries] == dga.basis()
        for action, names, length, degree, word, packed, label in entries:
            assert action == dga.word_action(word)
            assert label == dga.word_name(word)
            assert (length, degree) == (dga.word_length(word),
                                        dga.word_degree(word))
            assert names == tuple(dga.generators[gi].name
                                  for gi, e in word for _ in range(e))
            assert packed == lift.pack(word)


def _walked(dga):
    """Every entry the heap walk pops, or None if it needs the basis."""
    columns = ps._Columns(dga, walk=True)
    if columns.entries and not columns.heap:
        return None
    columns.entry(10 ** 9)
    return columns.entries


def test_heap_walk_pops_in_basis_order():
    rng = np.random.default_rng(53)
    dgas = [_koszul_dga(), _koszul_dga(pairs=3, coeffs=MIXED)]
    for _ in range(40):
        base = oracles.random_chain_dga(rng, word_cap=int(rng.integers(3, 6)))
        dgas.append(ps.FilteredDGA(base.generators, {
            base.generators[gi].name: [
                (c, [j for j, e in w for _ in range(e)]) for c, w in terms]
            for gi, terms in base.differential.items()},
            action_cap=1e6, word_cap=base.word_cap))
    for dga in dgas:
        walked = _walked(dga)
        assert walked == ps._keyed_basis(dga, ps._PackedBoundary(dga).bits)
    # a word cap within reach of the action cap, or a two-letter term,
    # enumerates the basis first
    assert _walked(ps.FilteredDGA(dgas[0].generators, {}, 10.0, 5)) is None
    assert _walked(_sign_dga()) is None


def test_unit_level_enumerates_no_basis_on_koszul(monkeypatch):
    dga = _koszul_dga()
    level = ps.barcode(dga).unit_bar().death

    def refuse(*args):
        raise AssertionError("full basis enumerated")
    monkeypatch.setattr(ps, "_keyed_basis", refuse)
    monkeypatch.setattr(ps.FilteredDGA, "basis", refuse)
    assert ps.unit_vanishing_level(dga) == level == 2.2


def test_unit_level_numbers_an_image_that_sorts_after_its_word():
    # d(pqr) = prs rounds above pqr's action (see the rounding test); with
    # the action cap far above, the walk pops prs ahead to build pqr's
    # column
    dga = ps.FilteredDGA(
        [ps.Generator("p", 0, 0.4081988490867068),
         ps.Generator("q", 1, 0.20626039469181),
         ps.Generator("r", 0, 0.8540817562275901),
         ps.Generator("s", 0, 0.20626039469180996),
         ps.Generator("t", 1, 1.5)],
        {"q": [(1, ["s"])], "t": [(1, [])]}, action_cap=1e6, word_cap=3)
    basis = dga.basis()
    pqr = dga._parse_word(["p", "q", "r"])
    assert basis.index(pqr) < basis.index(dga._parse_word(["p", "r", "s"]))
    assert _walked(dga) is not None
    bars = ps.barcode(dga)
    assert bars.bars == ps.brute_force_oracle(dga).bars
    assert ps.unit_vanishing_level(dga) == bars.unit_bar().death == 1.5


# --- fraction-free elimination ----------------------------------------------

def _fraction_reduce(col, pivots):
    """Reference: the elimination step over Q, col - (col[low]/p) other."""
    while col:
        low = max(col)
        owner = pivots.get(low)
        if owner is None:
            break
        other = owner[1]
        factor = col[low] / other[low]
        for i, c in other.items():
            new = col.get(i, Fraction(0)) - factor * c
            if new == 0:
                col.pop(i, None)
            else:
                col[i] = new
    return col


def _proportional(int_col, frac_col):
    if int_col.keys() != frac_col.keys():
        return False
    ratios = {Fraction(c) / frac_col[i] for i, c in int_col.items()}
    return len(ratios) <= 1 and 0 not in ratios


def test_integer_reduce_is_proportional_to_the_rational_one():
    # the same random sparse columns reduced into two pivot tables, one
    # over Q and one in integers, which must stay proportional column by
    # column; the integer columns end primitive
    rng = np.random.default_rng(49)
    scaled = 0
    for _ in range(40):
        rows = int(rng.integers(4, 16))
        int_pivots, frac_pivots = {}, {}
        for j in range(int(rng.integers(10, 30))):
            support = np.flatnonzero(rng.random(rows) < 0.4)
            col = {int(i): int(rng.integers(-6, 7)) or 1 for i in support}
            low = max(col, default=None)
            owner = int_pivots.get(low)
            if owner and col[low] % owner[1][low]:
                scaled += 1   # the first step must scale col by a != 1
            got = ps._reduce(dict(col), int_pivots)
            want = _fraction_reduce(
                {i: Fraction(c) for i, c in col.items()}, frac_pivots)
            assert _proportional(got, want)
            assert all(type(c) is int for c in got.values())
            if got:
                assert math.gcd(*got.values()) == 1
                int_pivots[max(got)] = (j, got)
                frac_pivots[max(want)] = (j, want)
        assert int_pivots.keys() == frac_pivots.keys()
    assert scaled > 50


def _count_scalings(monkeypatch):
    """Wrap `_reduce` to count columns whose first step scales by a != 1."""
    seen = []
    inner = ps._reduce

    def wrapped(col, pivots):
        low = max(col, default=None)
        if low in pivots:
            p, q = pivots[low][1][low], col[low]
            seen.append(abs(p) // math.gcd(p, q) != 1)
        return inner(col, pivots)
    monkeypatch.setattr(ps, "_reduce", wrapped)
    return seen


MIXED = (Fraction(2, 3), Fraction(-5, 4), Fraction(7, 6))


def test_mixed_denominator_koszul_oracle_equality(monkeypatch):
    dga = _koszul_dga(pairs=3, coeffs=MIXED)
    assert ps._IntegerBoundary(dga).scale == 12
    seen = _count_scalings(monkeypatch)
    bars = ps.barcode(dga)
    assert any(seen)
    assert bars.bars == ps.brute_force_oracle(dga).bars
    assert ps.unit_vanishing_level(dga) == bars.unit_bar().death == 2.2


def test_mixed_denominator_chain_oracle_equality(monkeypatch):
    # random chain DGAs with each coefficient swapped for one of MIXED:
    # every differential has a single term on a closed generator or the
    # unit, so d^2 = 0 still holds.  Doubling the action cap lets products
    # of generators into the basis, whose columns have several entries
    rng = np.random.default_rng(50)
    seen = _count_scalings(monkeypatch)
    for _ in range(40):
        base = oracles.random_chain_dga(rng, word_cap=int(rng.integers(3, 6)))
        diff = {base.generators[gi].name:
                [(MIXED[int(rng.integers(0, 3))],
                  [gi for gi, e in w for _ in range(e)]) for _, w in terms]
                for gi, terms in base.differential.items()}
        dga = ps.FilteredDGA(base.generators, diff, 2 * base.action_cap,
                             base.word_cap)
        assert ps.barcode(dga).bars == ps.brute_force_oracle(dga).bars
    assert any(seen)


def test_unit_level_is_the_unit_bars_death():
    # cmd_persist_barcode reports the unit's bar death as the unit level
    rng = np.random.default_rng(48)
    dgas = [ps.random_admissible_dga(rng) for _ in range(120)]
    dgas += [oracles.random_chain_dga(rng, word_cap=int(rng.integers(3, 6)))
             for _ in range(120)]
    levels = [ps.unit_vanishing_level(dga) for dga in dgas]
    assert levels == [ps.barcode(dga).unit_bar().death for dga in dgas]
    assert 40 < sum(map(math.isinf, levels)) < 200


def test_determinism_bit_reproducible(xy_dga):
    b1 = ps.barcode(xy_dga)
    b2 = ps.barcode(xy_dga)
    assert b1.bars == b2.bars
    assert ps.unit_vanishing_level(xy_dga) == ps.unit_vanishing_level(xy_dga)


# --- serialization -----------------------------------------------------------

def test_json_round_trip(xy_dga):
    back = ps.FilteredDGA.from_json(xy_dga.to_json())
    assert ps.barcode(back).bars == ps.barcode(xy_dga).bars


@pytest.mark.parametrize("action_cap, word_cap, bad", [
    (math.nan, 4, "action_cap"),
    (-1.0, 4, "action_cap"),
    (-math.inf, 4, "action_cap"),
    (10.0, -2, "word_cap"),
    (10.0, 2.7, "word_cap"),
    (10.0, math.nan, "word_cap"),
    (10.0, math.inf, "word_cap"),
    (math.inf, 4, None),
    (0.0, 0, None),
    (10.0, np.int64(3), None),
    (10.0, 4.0, None),
])
def test_caps_are_validated(action_cap, word_cap, bad):
    gens = [ps.Generator("x", 1, 3.0), ps.Generator("y", 1, 5.0)]
    if bad:
        with pytest.raises(ValueError, match=bad):
            ps.FilteredDGA(gens, {"x": [(1, [])]}, action_cap, word_cap)
    else:
        dga = ps.FilteredDGA(gens, {"x": [(1, [])]}, action_cap, word_cap)
        assert (dga.action_cap, dga.word_cap) == (action_cap, word_cap)
        assert type(dga.word_cap) is int


@pytest.mark.parametrize("name", ["", "a,b", "x^2", "a*b", "a b", "x\t",
                                  "\n", 7])
def test_generator_names_are_validated(name):
    with pytest.raises(ValueError, match="name"):
        ps.Generator(name, 1, 3.0)


def test_json_generator_name_is_validated():
    text = json.dumps({
        "generators": [{"name": "x", "degree": 1, "action": 3.0},
                       {"name": "x^2", "degree": 0, "action": 5.0}],
        "differential": {}, "action_cap": 10.0, "word_cap": 4})
    with pytest.raises(ValueError, match="name"):
        ps.FilteredDGA.from_json(text)


def test_degrees_given_as_floats_or_numpy_integers():
    dga = ps.FilteredDGA(
        [ps.Generator("x", 1.0, 3.0), ps.Generator("y", np.int64(1), 5.0),
         ps.Generator("w", 0.0, 2.0)],
        {"x": [(1, [])]}, 10.0, 4)
    bars = ps.barcode(dga)
    assert bars.bars == ps.brute_force_oracle(dga).bars
    assert ps.unit_vanishing_level(dga) == bars.unit_bar().death == 3.0


def test_json_schema_parses():
    text = """{
      "generators": [{"name": "x", "degree": 1, "action": 3.0},
                     {"name": "y", "degree": 1, "action": 5.0}],
      "differential": {"x": [{"coeff": "2/3", "word": []}]},
      "action_cap": 10.0, "word_cap": 4}"""
    dga = ps.FilteredDGA.from_json(text)
    assert dga.differential[0] == [(Fraction(2, 3), ())]
    assert ps.unit_vanishing_level(dga) == 3.0


def test_barcode_csv(tmp_path, xy_dga):
    out = tmp_path / "bars.csv"
    ps.barcode(xy_dga).to_csv(str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "label,birth,death"
    assert any(line == "1,0,3" for line in lines)
    survivor = ps.FilteredDGA([ps.Generator("w", 0, 2.0)], {}, 10.0, 2)
    ps.barcode(survivor).to_csv(str(out))
    assert any(line.endswith(",inf")
               for line in out.read_text().strip().splitlines())


def test_oracle_basis_overflow_guard():
    gens = [ps.Generator(f"e{i}", 0, 0.01) for i in range(8)]
    dga = ps.FilteredDGA(gens, {}, action_cap=10.0, word_cap=8)
    with pytest.raises(BasisOverflow):
        ps.brute_force_oracle(dga)
