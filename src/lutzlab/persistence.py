"""Action-filtered supercommutative DG-algebras over the rationals.

Generators carry a mod-2 degree and a positive action; the differential
strictly decreases action and drops degree by one (mod 2), extended to
monomials by the graded Leibniz rule with Koszul signs.  Sublevel
complexes then form a persistence module; `barcode` computes its bars by
filtered elimination and `brute_force_oracle` recomputes them by dense
row reduction over `Fraction`s as an independent check.  The unit's bar
is the longest finite one; its right endpoint is the lowest action of a
primitive of the empty word.

The eliminations are exact but fraction-free.  A column is the integer
vector L d(w), with L the least common denominator of the differential's
coefficients (`_IntegerBoundary`), and a reduction step scales it by an
integer before subtracting an integer multiple of the pivot column
(`_reduce`).  Each column so stays a nonzero rational multiple of the one
elimination over Q gives, so it has the same support and pivot: the bars
are those over Q.

`barcode` and `unit_vanishing_level` build a boundary column only when
elimination reaches it.  Before any, they check d^2 = 0 on the one-letter
words alone, as d^2 = [d, d]/2 is an even derivation (`_squares_to_zero`),
and then that every boundary stays in the basis: d strictly lowers action,
so only words whose length plus some letter's differential length, less
one, exceeds the word cap (or whose action is within rounding of the
action cap) are expanded to check it (`_on_demand_columns`).  d changes
the degree, so odd and even columns share no pivot row.
`unit_vanishing_level` reduces the odd columns alone, which hold the
unit's row, and stops at the first one that kills the unit.  `barcode`
reduces the odd columns, then the even ones, and clears each even column
whose word is already a pivot row: it would reduce to zero.
`brute_force_oracle` expands every column first, as an independent check
of these shortcuts.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import BasisOverflow, PreconditionFailed
from .numerics import format_float

INF = math.inf

# a monomial is a tuple of (generator_index, exponent), sorted by index
Word = Tuple[Tuple[int, int], ...]
UNIT: Word = ()


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int          # 0 or 1
    action: float

    def __post_init__(self):
        if self.degree not in (0, 1):
            raise ValueError("degree must be 0 or 1 (mod-2 grading)")
        if not self.action > 0.0:
            raise ValueError("generator actions must be positive")


class FilteredDGA:
    """Generators, a sparse rational differential, and truncation caps."""

    def __init__(self, generators, differential, action_cap: float,
                 word_cap: int):
        self.generators: List[Generator] = list(generators)
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        self.index = {g.name: i for i, g in enumerate(self.generators)}
        self.action_cap = float(action_cap)
        if not self.action_cap >= 0.0:  # NaN fails this too
            raise ValueError(
                f"action_cap must be >= 0 or inf, got {action_cap!r}")
        word_cap_f = float(word_cap)
        if not (word_cap_f.is_integer() and word_cap_f >= 0.0):
            raise ValueError(
                f"word_cap must be a whole number >= 0, got {word_cap!r}")
        self.word_cap = int(word_cap_f)
        # differential: generator index -> list of (Fraction, Word)
        self.differential: Dict[int, List[Tuple[Fraction, Word]]] = {}
        for name, terms in differential.items():
            gi = self.index[name]
            parsed = []
            for coeff, word in terms:
                parsed.append((Fraction(coeff), self._parse_word(word)))
            self.differential[gi] = parsed
        self._validate()

    def _parse_word(self, word) -> Word:
        counts: Dict[int, int] = {}
        for w in word:
            gi = self.index[w] if isinstance(w, str) else int(w)
            counts[gi] = counts.get(gi, 0) + 1
        for gi, e in counts.items():
            if self.generators[gi].degree == 1 and e > 1:
                raise ValueError(
                    f"odd generator {self.generators[gi].name} squared")
        return tuple(sorted(counts.items()))

    def _validate(self):
        for gi, terms in self.differential.items():
            g = self.generators[gi]
            for coeff, word in terms:
                if coeff == 0:
                    continue
                if self.word_action(word) >= g.action:
                    raise ValueError(
                        f"differential of {g.name} does not decrease action")
                if self.word_degree(word) != (g.degree + 1) % 2:
                    raise ValueError(
                        f"differential of {g.name} breaks the parity rule")

    # -- monomial helpers ---------------------------------------------------

    def word_action(self, word: Word) -> float:
        return float(sum(e * self.generators[gi].action for gi, e in word))

    def word_degree(self, word: Word) -> int:
        return sum(e * self.generators[gi].degree for gi, e in word) % 2

    def word_length(self, word: Word) -> int:
        return sum(e for _, e in word)

    def word_name(self, word: Word) -> str:
        if not word:
            return "1"
        parts = []
        for gi, e in word:
            nm = self.generators[gi].name
            parts.append(nm if e == 1 else f"{nm}^{e}")
        return "*".join(parts)

    def in_caps(self, word: Word) -> bool:
        return (self.word_length(word) <= self.word_cap
                and self.word_action(word) <= self.action_cap)

    # -- the boundary operator ----------------------------------------------

    def boundary_word(self, word: Word) -> Dict[Word, Fraction]:
        """Graded Leibniz expansion of the differential on one monomial,
        with exact rational coefficients: `_IntegerBoundary`'s L d(w),
        divided by L."""
        lift = _IntegerBoundary(self)
        return {w: Fraction(c, lift.scale)
                for w, c in lift.expand(word).items()}

    def boundary(self, element: Dict[Word, Fraction]) -> Dict[Word, Fraction]:
        """Boundary of a rational combination of monomials.

        Raises BasisOverflow if any resulting monomial leaves the caps.
        """
        out: Dict[Word, Fraction] = {}
        for word, coeff in element.items():
            if coeff == 0:
                continue
            for w, c in self.boundary_word(word).items():
                if not self.in_caps(w):
                    raise BasisOverflow(
                        f"boundary leaves the caps at {self.word_name(w)}")
                out[w] = out.get(w, Fraction(0)) + coeff * c
        return {w: c for w, c in out.items() if c != 0}

    # -- basis enumeration ---------------------------------------------------

    def basis(self) -> List[Word]:
        """All monomials under the caps, ordered by (action, name, length).

        Each word's sort key grows with it, its action summed letter by
        letter in the order `word_action` sums it, so both agree exactly.
        """
        keyed = []
        stack = [((), 0, 0.0, (), 0)]
        while stack:
            word, length, action, names, start = stack.pop()
            keyed.append(((action, names, length), word))
            for gi in range(start, len(self.generators)):
                g = self.generators[gi]
                max_e = 1 if g.degree == 1 else self.word_cap - length
                for e in range(1, max_e + 1):
                    new_len = length + e
                    new_act = action + e * g.action
                    if new_len > self.word_cap or new_act > self.action_cap:
                        break
                    stack.append((word + ((gi, e),), new_len, new_act,
                                  names + (g.name,) * e, gi + 1))
        keyed.sort()  # the names tell words apart, so no word is compared
        return [word for _, word in keyed]

    # -- json ------------------------------------------------------------

    @staticmethod
    def from_json(text: str) -> "FilteredDGA":
        data = json.loads(text)
        gens = [Generator(g["name"], int(g["degree"]), float(g["action"]))
                for g in data["generators"]]
        diff = {}
        for name, terms in data.get("differential", {}).items():
            diff[name] = [(Fraction(t["coeff"]), list(t["word"]))
                          for t in terms]
        return FilteredDGA(gens, diff, data["action_cap"], data["word_cap"])

    def to_json(self) -> str:
        diff = {}
        for gi, terms in self.differential.items():
            diff[self.generators[gi].name] = [
                {"coeff": str(c),
                 "word": [self.generators[j].name
                          for j, e in w for _ in range(e)]}
                for c, w in terms]
        return json.dumps({
            "generators": [{"name": g.name, "degree": g.degree,
                            "action": g.action} for g in self.generators],
            "differential": diff,
            "action_cap": self.action_cap,
            "word_cap": self.word_cap}, sort_keys=True)


def _as_word(dga: FilteredDGA, w) -> Word:
    if isinstance(w, tuple) and all(
            isinstance(t, tuple) and len(t) == 2
            and all(isinstance(x, int) for x in t) for t in w):
        return w
    return dga._parse_word(w)


def boundary(dga: FilteredDGA, element) -> Dict[Word, Fraction]:
    """Module-level alias accepting {word: coeff} or [(coeff, word)] input."""
    if isinstance(element, dict):
        elem = {_as_word(dga, w): Fraction(c) for w, c in element.items()}
    else:
        elem = {}
        for coeff, word in element:
            w = _as_word(dga, word)
            elem[w] = elem.get(w, Fraction(0)) + Fraction(coeff)
    return dga.boundary(elem)


def _product(degree, a: Word, b: Word) -> Tuple[int, Optional[Word]]:
    """Koszul sign and sorted word of the product a*b of two sorted
    monomials, merged in one pass; (0, None) if it dies.

    `degree` holds each generator's degree.  Each odd letter y of b moves
    left past the odd letters x > y of a, those not merged yet, so the
    sign is (-1)^#{(x odd in a, y odd in b): x > y}; an odd generator in
    both factors kills the product.
    """
    out: list = []
    sign, i, n = 1, 0, len(a)
    for gi, e in b:
        while i < n and a[i][0] < gi:
            out.append(a[i])
            i += 1
        if i < n and a[i][0] == gi:
            if degree[gi]:
                return 0, None
            e += a[i][1]
            i += 1
        elif degree[gi] and sum(degree[x] for x, _ in a[i:]) % 2:
            sign = -sign
        out.append((gi, e))
    out.extend(a[i:])
    return sign, tuple(out)


class _IntegerBoundary:
    """L d over the integers, with L (`scale`) the least common denominator
    of the differential's coefficients.

    Each call that expands boundaries (an elimination, `d_squared_check`,
    `boundary_word`) builds one and drops it on return, so the DGA keeps no
    integer copy of its differential.  L d(w) has the support of d(w), and
    L^2 d^2 = 0 iff d^2 = 0.
    """

    def __init__(self, dga: FilteredDGA):
        self.degree = tuple(g.degree for g in dga.generators)
        self.scale = math.lcm(*(c.denominator
                                for terms in dga.differential.values()
                                for c, _ in terms))
        self.differential = {
            gi: [(int(c * self.scale), w) for c, w in terms if c]
            for gi, terms in dga.differential.items()}

    def expand(self, word: Word) -> Dict[Word, int]:
        """Graded Leibniz expansion of L d on one monomial.

        The term of the letter g^e is (-1)^|prefix| e prefix g^(e-1) dg
        suffix (e = 1 for odd g).  It is merged once, as rest * dg with
        rest the word less one g, and dg (of degree |g| + 1) moved back
        past the suffix for a sign (-1)^(|dg| |suffix|).  For odd g that
        leaves (-1)^|prefix|; for even g, (-1)^(|prefix| + |suffix|) =
        (-1)^|word|.
        """
        degree = self.degree
        word_deg = sum(e * degree[gi] for gi, e in word)
        out: Dict[Word, int] = {}
        prefix_deg = 0
        for pos, (gi, e) in enumerate(word):
            gdeg = degree[gi]
            terms = self.differential.get(gi)
            if terms:
                # d(g^e) = e g^(e-1) dg for even g; e = 1 for odd g
                rest = word[:pos] + (((gi, e - 1),) if e > 1 else ()) \
                    + word[pos + 1:]
                odd = (prefix_deg if gdeg else word_deg) % 2
                outer = -e if odd else e
                for coeff, dword in terms:
                    s, prod = _product(degree, rest, dword)
                    if s:
                        out[prod] = out.get(prod, 0) + coeff * outer * s
            prefix_deg += e * gdeg
        return {w: c for w, c in out.items() if c}


def _squares_to_zero(dga: FilteredDGA, lift: _IntegerBoundary,
                     table) -> bool:
    """True iff d^2 = 0 on each one-letter basis word, hence on every word.

    d is odd, so d^2 = [d, d]/2 is an even derivation: it vanishes on a
    word once it vanishes on each letter, and every letter of a basis word
    is itself a basis word.  The test runs on L d, as L^2 d^2 = 0 iff
    d^2 = 0.  Boundaries are read from `table`, and a word missing from it
    is expanded into it once.
    """
    def bd(word):
        if word not in table:
            table[word] = lift.expand(word)
        return table[word]

    for gi in range(len(dga.generators)):
        letter = ((gi, 1),)
        if not dga.in_caps(letter):
            continue
        second: Dict[Word, int] = {}
        for w, c in bd(letter).items():
            for w2, c2 in bd(w).items():
                second[w2] = second.get(w2, 0) + c * c2
        if any(second.values()):
            return False
    return True


def d_squared_check(dga: FilteredDGA) -> bool:
    """True iff d^2 (a derivation) is zero on the letters, so on all words."""
    return _squares_to_zero(dga, _IntegerBoundary(dga), {})


# ---------------------------------------------------------------------------
# bars
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bar:
    label: str
    birth: float
    death: float   # math.inf when the class survives

    @property
    def length(self) -> float:
        return self.death - self.birth


@dataclass(frozen=True)
class Barcode:
    bars: Tuple[Bar, ...]

    def finite_bars(self) -> list:
        return [b for b in self.bars if not math.isinf(b.death)]

    def unit_bar(self) -> Bar:
        for b in self.bars:
            if b.label == "1":
                return b
        raise ValueError("no unit bar present")

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("label,birth,death\n")
            for b in self.bars:
                fh.write(f"{b.label},{format_float(b.birth)},"
                         f"{format_float(b.death)}\n")


def _checked_columns(dga: FilteredDGA, basis: List[Word]):
    """Sparse boundary columns over `basis`, every one expanded up front.

    `brute_force_oracle` builds its matrix from these, so it tests every
    boundary against the basis, independently of the shortcut in
    `_on_demand_columns`.  d^2 = 0 is checked first from the same table,
    on the letters alone as d^2 is a derivation (`_squares_to_zero`), so a
    failing differential raises PreconditionFailed before an image outside
    the basis raises BasisOverflow.  The columns hold d exactly, as
    `Fraction`s.
    """
    lift = _IntegerBoundary(dga)
    table = {w: lift.expand(w) for w in basis}
    if not _squares_to_zero(dga, lift, table):
        raise PreconditionFailed("differential does not square to zero")
    pos = {w: i for i, w in enumerate(basis)}
    cols = []
    for w in basis:
        col = {}
        for word, coeff in table[w].items():
            if word not in pos:
                raise BasisOverflow(
                    f"boundary of {dga.word_name(w)} leaves the basis")
            col[pos[word]] = Fraction(coeff, lift.scale)
        cols.append(col)
    return cols


def _on_demand_columns(dga: FilteredDGA, basis: List[Word]):
    """A function giving the sparse integer column L d(basis[j])
    (`_IntegerBoundary`), built when first asked for, after two checks
    that cover every basis word.

    d^2 = 0 is checked first, on the letters alone as d^2 is a derivation
    (`_squares_to_zero`), so a failing differential raises
    PreconditionFailed before a boundary outside the basis raises
    BasisOverflow.  Closure is then checked exactly, expanding only the
    words that could leave a cap.  A term of d(w) swaps one letter g for a
    word of d(g), so it has len(w) - 1 + len(that word) letters: only words
    with a letter whose differential is long enough can leave the word
    cap.  d strictly lowers action, so only words within rounding of the
    action cap, whose float sums may round past it, can leave that cap.
    """
    lift = _IntegerBoundary(dga)
    table: Dict[Word, Dict[Word, int]] = {}
    if not _squares_to_zero(dga, lift, table):
        raise PreconditionFailed("differential does not square to zero")
    pos = {w: i for i, w in enumerate(basis)}
    grow = {gi: max((dga.word_length(w) for _, w in terms), default=0) - 1
            for gi, terms in dga.differential.items()}
    grow = {gi: g for gi, g in grow.items() if g > 0}
    suspects = [w for w in basis
                if max((grow.get(gi, 0) for gi, _ in w), default=0)
                > dga.word_cap - dga.word_length(w)] if grow else []
    # the float actions of w and of a term, sums of at most n positive
    # terms, are each within about n eps / 2 of their exact values, so a
    # term can round past the cap only from a word within ~2 n eps of it
    n = dga.word_cap + max(grow.values(), default=0) + 1
    near_cap = dga.action_cap * (1.0 - 8 * n * sys.float_info.epsilon)
    first = len(basis)
    while first and dga.word_action(basis[first - 1]) > near_cap:
        first -= 1  # the basis is sorted by action
    for w in suspects + basis[first:]:
        if w not in table:
            table[w] = lift.expand(w)
        for word in table[w]:
            if word not in pos:
                raise BasisOverflow(
                    f"boundary of {dga.word_name(w)} leaves the basis")

    def column(j: int) -> Dict[int, int]:
        w = basis[j]
        image = table.pop(w) if w in table else lift.expand(w)
        return {pos[word]: coeff for word, coeff in image.items()}
    return column


def _reduce(col: Dict[int, int], pivots) -> Dict[int, int]:
    """Integer column `col` reduced against `pivots` ({row: (column index,
    reduced column)}): its largest row is cancelled while another column
    has it as pivot, then it is divided by the gcd of its entries.

    Fraction-free (Bareiss 1968): with g = gcd(p, q) for p = other[low] and
    q = col[low], a step sets col <- (p/g) col - (q/g) other, which is p/g
    times the rational step col - (q/p) other.  By induction every column
    is a nonzero rational multiple of its rational reduction, so supports,
    pivots and bars are those of elimination over Q.
    """
    while col:
        low = max(col)
        owner = pivots.get(low)
        if owner is None:
            break
        other = owner[1]
        p, q = other[low], col[low]
        g = math.gcd(p, q) if p > 0 else -math.gcd(p, q)
        a, b = p // g, q // g
        if a != 1:
            for i in col:
                col[i] *= a
        for i, c in other.items():
            new = col.get(i, 0) - b * c
            if new:
                col[i] = new
            else:
                col.pop(i, None)
    content = math.gcd(*col.values())
    if content > 1:
        for i in col:
            col[i] //= content
    return col


def barcode(dga: FilteredDGA) -> Barcode:
    """Persistence pairing by sparse filtered elimination over Q.

    A column that reduces to zero births a class at its own action, and a
    pivot pair (i, j) closes the bar of basis element i at the action of j.
    d changes the degree, so an odd column has even rows and an even column
    odd rows: the two degrees share no pivot row and reduce apart, each
    left to right.  The odd columns go first.  An even column whose index
    is then a pivot row reduces to zero, as the reduced column with that
    pivot is a cycle with that word as its last term, so it is recorded
    as a birth and never built (clearing; Chen & Kerber, 2011).
    Raises PreconditionFailed unless d^2 = 0 on every basis word, and
    BasisOverflow if a boundary leaves the basis (`_on_demand_columns`).
    """
    basis = dga.basis()
    column = _on_demand_columns(dga, basis)
    degree = [dga.word_degree(w) for w in basis]
    pivots: Dict[int, Tuple[int, Dict[int, int]]] = {}
    for parity in (1, 0):
        for j in range(len(basis)):
            if degree[j] == parity and j not in pivots:
                col = _reduce(column(j), pivots)
                if col:
                    pivots[max(col)] = (j, col)
    deaths = {j for j, _ in pivots.values()}
    bars = []
    for i, w in enumerate(basis):
        if i in pivots:
            bars.append(Bar(dga.word_name(w), dga.word_action(w),
                            dga.word_action(basis[pivots[i][0]])))
        elif i not in deaths:
            bars.append(Bar(dga.word_name(w), dga.word_action(w), INF))
    return Barcode(tuple(bars))


def brute_force_oracle(dga: FilteredDGA) -> Barcode:
    """Dense rational row reduction of the full boundary matrix.

    Independent of `barcode`: materialises the whole matrix, reduces each
    column fully against all earlier ones with filtration-respecting
    pivoting, no sparsity tricks, exact arithmetic throughout.
    """
    basis = dga.basis()
    n = len(basis)
    if n > 5000:
        raise BasisOverflow(f"{n} monomials exceed the oracle bound")
    cols = _checked_columns(dga, basis)
    mat = [[Fraction(0)] * n for _ in range(n)]
    for j, col in enumerate(cols):
        for i, c in col.items():
            mat[i][j] = c

    def low(j):
        for i in range(n - 1, -1, -1):
            if mat[i][j] != 0:
                return i
        return None

    lows: Dict[int, int] = {}
    for j in range(n):
        lj = low(j)
        while lj is not None and lj in lows:
            jprev = lows[lj]
            factor = mat[lj][j] / mat[lj][jprev]
            for i in range(n):
                mat[i][j] -= factor * mat[i][jprev]
            lj = low(j)
        if lj is not None:
            lows[lj] = j
    paired_death = {i: j for i, j in lows.items()}
    death_columns = set(paired_death.values())
    bars = []
    for i, w in enumerate(basis):
        if i in paired_death:
            bars.append(Bar(dga.word_name(w), dga.word_action(w),
                            dga.word_action(basis[paired_death[i]])))
        elif i not in death_columns:
            bars.append(Bar(dga.word_name(w), dga.word_action(w), INF))
    return Barcode(tuple(bars))


# ---------------------------------------------------------------------------
# the unit's level and the Leibniz bound
# ---------------------------------------------------------------------------

def unit_vanishing_level(dga: FilteredDGA):
    """Least action t with the unit in the image of the t-sublevel boundary.

    Elimination in filtration order of the odd columns alone: only they
    have the even unit's row, and they share no pivot row with the even
    ones (`barcode`).  It stops at the first column whose reduced form is
    supported on the unit alone, and builds no column past it.  Returns
    math.inf when no primitive exists under the caps.  Raises
    PreconditionFailed unless d^2 = 0 on every basis word, and
    BasisOverflow if any boundary, past the stop too, leaves the basis.
    """
    basis = dga.basis()
    column = _on_demand_columns(dga, basis)
    pivots: Dict[int, Tuple[int, Dict[int, int]]] = {}
    for j, w in enumerate(basis):
        if dga.word_degree(w):
            col = _reduce(column(j), pivots)
            if col:
                if max(col) == 0:  # the unit's row
                    return dga.word_action(w)
                pivots[max(col)] = (j, col)
    return INF


def leibniz_upper_bound(dga: FilteredDGA, y) -> float:
    """Vanishing-level bound for a closed monomial: level(unit) + action(y).

    Multiplying a unit primitive into y gives a primitive of y, at the
    cost of the unit's level in action.
    """
    word = _as_word(dga, y)
    if dga.boundary_word(word):
        raise PreconditionFailed(f"{dga.word_name(word)} is not closed")
    level = unit_vanishing_level(dga)
    if math.isinf(level):
        raise PreconditionFailed("unit has no primitive under the caps")
    return level + dga.word_action(word)


# ---------------------------------------------------------------------------
# random admissible inputs (testing and demos)
# ---------------------------------------------------------------------------

def random_admissible_dga(rng, n_generators: int = 4, action_cap: float = 10.0,
                          word_cap: int = 4,
                          unit_primitive_chance: float = 0.7) -> FilteredDGA:
    """Random DGA whose truncation provably keeps the Leibniz bound.

    Nonzero differentials send odd generators to rational multiples of the
    unit.  Every death column then has image supported on words at least
    one letter shorter than the cap, so any dying class has a cycle whose
    unit-primitive product is an in-cap killer; finite bar lengths stay
    bounded by the unit's vanishing level.  Generator-to-generator
    differentials would lose this under the word cap (a longer-word kill
    can outlive the unit's level once products with the primitive leave
    the basis).
    """
    n = int(rng.integers(1, n_generators + 1))
    gens = []
    for i in range(n):
        gens.append(Generator(
            name=f"g{i}", degree=int(rng.integers(0, 2)),
            action=float(np.round(rng.uniform(0.6, action_cap * 0.95), 3))))
    diff = {}
    if rng.random() < unit_primitive_chance:
        odd = [i for i, g in enumerate(gens) if g.degree == 1]
        for pos, i in enumerate(odd):
            if pos > 0 and rng.random() < 0.5:
                continue  # the first odd generator always gets a primitive
            num = int(rng.integers(-3, 4)) or 1
            den = int(rng.integers(1, 4))
            diff[gens[i].name] = [(Fraction(num, den), [])]
    return FilteredDGA(gens, diff, action_cap, word_cap)


def random_chain_dga(rng, n_generators: int = 4, action_cap: float = 10.0,
                     word_cap: int = 4) -> FilteredDGA:
    """Random DGA with single-generator differential targets.

    Richer elimination patterns for oracle-equality coverage; truncated
    bar lengths are not bounded by the unit level here, so only barcode
    agreement may be asserted.
    """
    n = int(rng.integers(2, n_generators + 1))
    gens = []
    for i in range(n):
        gens.append(Generator(
            name=f"g{i}", degree=int(rng.integers(0, 2)),
            action=float(np.round(rng.uniform(0.6, action_cap * 0.95), 3))))
    diff = {}
    closed = set(range(n))
    odd = [i for i, g in enumerate(gens) if g.degree == 1]
    if odd and rng.random() < 0.6:
        x = int(rng.choice(odd))
        diff[gens[x].name] = [(Fraction(int(rng.integers(1, 4))), [])]
        closed.discard(x)
    for i in range(n):
        if gens[i].name in diff or rng.random() < 0.4:
            continue
        # only earlier-processed generators stay closed for good
        targets = [j for j in closed
                   if j < i
                   and gens[j].action < gens[i].action - 1e-9
                   and gens[j].degree == (gens[i].degree + 1) % 2]
        if targets:
            j = int(rng.choice(targets))
            num = int(rng.integers(-3, 4)) or 1
            den = int(rng.integers(1, 4))
            diff[gens[i].name] = [(Fraction(num, den), [gens[j].name])]
            closed.discard(i)
    return FilteredDGA(gens, diff, action_cap, word_cap)

