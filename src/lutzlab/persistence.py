"""Action-filtered supercommutative DG-algebras over the rationals.

Generators carry a mod-2 degree and a positive action; the differential
strictly decreases action and drops degree by one (mod 2), extended to
monomials by the graded Leibniz rule with Koszul signs.  Sublevel
complexes then form a persistence module; `barcode` computes its bars by
filtered elimination over exact rationals and `brute_force_oracle`
recomputes them by dense row reduction as an independent check.  The
unit's bar is the longest finite one; its right endpoint is the lowest
action of a primitive of the empty word.
"""

from __future__ import annotations

import json
import math
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
        self.word_cap = int(word_cap)
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

    def _flatten(self, word: Word) -> list:
        out = []
        for gi, e in word:
            out.extend([gi] * e)
        return out

    def _sort_sign(self, flat: list) -> Tuple[int, Optional[Word]]:
        """Koszul sign of sorting a flat factor sequence; None if it dies.

        Only swaps of two odd generators contribute a sign; a repeated odd
        generator kills the monomial.
        """
        degs = [self.generators[gi].degree for gi in flat]
        sign = 1
        # insertion sort, counting odd-odd inversions
        arr = list(zip(flat, degs))
        for i in range(1, len(arr)):
            j = i
            while j > 0 and arr[j - 1][0] > arr[j][0]:
                if arr[j - 1][1] == 1 and arr[j][1] == 1:
                    sign = -sign
                arr[j - 1], arr[j] = arr[j], arr[j - 1]
                j -= 1
        counts: Dict[int, int] = {}
        for gi, dg in arr:
            counts[gi] = counts.get(gi, 0) + 1
            if dg == 1 and counts[gi] > 1:
                return 0, None
        return sign, tuple(sorted(counts.items()))

    def multiply_words(self, w1: Word, w2: Word) -> Tuple[int, Optional[Word]]:
        """(sign, product word); sign 0 when an odd square appears."""
        return self._sort_sign(self._flatten(w1) + self._flatten(w2))

    # -- the boundary operator ----------------------------------------------

    def boundary_word(self, word: Word) -> Dict[Word, Fraction]:
        """Graded Leibniz expansion of the differential on one monomial."""
        out: Dict[Word, Fraction] = {}
        flat_prefix_deg = 0
        for pos, (gi, e) in enumerate(word):
            terms = self.differential.get(gi, [])
            gdeg = self.generators[gi].degree
            if terms:
                # d(g^e) = e g^(e-1) dg for even g; e = 1 for odd g
                mult = Fraction(e)
                rest = list(word)
                if e == 1:
                    rest.pop(pos)
                else:
                    rest[pos] = (gi, e - 1)
                prefix_sign = -1 if flat_prefix_deg % 2 else 1
                for coeff, dword in terms:
                    sign, prod = self._sort_sign(
                        self._flatten(tuple(rest[:pos]))
                        + self._flatten(dword)
                        + self._flatten(tuple(rest[pos:])))
                    if sign == 0 or coeff == 0:
                        continue
                    c = coeff * mult * prefix_sign * sign
                    out[prod] = out.get(prod, Fraction(0)) + c
            flat_prefix_deg += e * gdeg
        return {w: c for w, c in out.items() if c != 0}

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
        """All monomials under the caps, ordered by (action, name, length)."""
        words: List[Word] = []

        def grow(word: list, start: int, length: int, action: float):
            words.append(tuple(word))
            for gi in range(start, len(self.generators)):
                g = self.generators[gi]
                max_e = 1 if g.degree == 1 else self.word_cap - length
                for e in range(1, max_e + 1):
                    new_len = length + e
                    new_act = action + e * g.action
                    if new_len > self.word_cap or new_act > self.action_cap:
                        break
                    grow(word + [(gi, e)], gi + 1, new_len, new_act)

        grow([], 0, 0, 0.0)
        return sorted(words, key=self._order_key)

    def _order_key(self, word: Word):
        return (self.word_action(word),
                tuple(self.generators[gi].name for gi in self._flatten(word)),
                self.word_length(word))

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


def d_squared_check(dga: FilteredDGA) -> bool:
    """True iff the boundary squares to zero on every basis monomial."""
    for word in dga.basis():
        first = dga.boundary_word(word)
        second: Dict[Word, Fraction] = {}
        for w, c in first.items():
            for w2, c2 in dga.boundary_word(w).items():
                second[w2] = second.get(w2, Fraction(0)) + c * c2
        if any(c != 0 for c in second.values()):
            return False
    return True


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


def _boundary_columns(dga: FilteredDGA, basis: List[Word]):
    pos = {w: i for i, w in enumerate(basis)}
    cols = []
    for w in basis:
        img = dga.boundary_word(w)
        col = {}
        for word, coeff in img.items():
            if word not in pos:
                raise BasisOverflow(
                    f"boundary of {dga.word_name(w)} leaves the basis")
            col[pos[word]] = coeff
        cols.append(col)
    return cols


def _eliminate(cols):
    """Yield each column reduced left to right against recorded pivots
    (pivot = the largest remaining row index), in column order."""
    pivot_of_row: Dict[int, int] = {}
    reduced: List[Dict[int, Fraction]] = []
    for j, col in enumerate(cols):
        col = dict(col)
        while col:
            low = max(col)
            owner = pivot_of_row.get(low)
            if owner is None:
                break
            factor = col[low] / reduced[owner][low]
            for i, c in reduced[owner].items():
                new = col.get(i, Fraction(0)) - factor * c
                if new == 0:
                    col.pop(i, None)
                else:
                    col[i] = new
        reduced.append(col)
        if col:
            pivot_of_row[max(col)] = j
        yield col


def barcode(dga: FilteredDGA) -> Barcode:
    """Persistence pairing by sparse filtered elimination over Q.

    A column that reduces to zero births a class at its own action, and a
    pivot pair (i, j) closes the bar of basis element i at the action of j.
    """
    if not d_squared_check(dga):
        raise PreconditionFailed("differential does not square to zero")
    basis = dga.basis()
    reduced = list(_eliminate(_boundary_columns(dga, basis)))
    death_of = {max(col): j for j, col in enumerate(reduced) if col}
    bars = []
    for i, w in enumerate(basis):
        if i in death_of:
            bars.append(Bar(dga.word_name(w), dga.word_action(w),
                            dga.word_action(basis[death_of[i]])))
        elif reduced[i]:
            continue  # i is a death column, not a class
        else:
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
    if not d_squared_check(dga):
        raise PreconditionFailed("differential does not square to zero")
    mat = [[Fraction(0)] * n for _ in range(n)]
    for j, col in enumerate(_boundary_columns(dga, basis)):
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

    Incremental elimination in filtration order, stopping at the first
    column whose reduced form is supported on the unit alone.  Returns
    math.inf when no primitive exists under the caps.
    """
    if not d_squared_check(dga):
        raise PreconditionFailed("differential does not square to zero")
    basis = dga.basis()
    for j, col in enumerate(_eliminate(_boundary_columns(dga, basis))):
        if col and max(col) == 0:  # the unit's row
            return dga.word_action(basis[j])
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

