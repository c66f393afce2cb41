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

Each elimination enumerates every basis word at most once, with its keys
attached (`_keyed_basis`): its action, summed as `word_action` sums it,
its degree, its bar label and the word packed into one int.  A packed
word gives each generator a field of B bits, wide enough that no
exponent a Leibniz expansion makes carries out of it; a product of words
is then an integer sum, an odd letter in both factors a common bit, and
a Koszul sign the parity of a popcount (`_PackedBoundary`).

`barcode` and `unit_vanishing_level` build a boundary column only when
elimination reaches it.  Before any, they check d^2 = 0 on the one-letter
words alone, as d^2 = [d, d]/2 is an even derivation (`_squares_to_zero`),
and then that every boundary stays in the basis: d strictly lowers action,
so only words whose length plus some letter's differential length, less
one, exceeds the word cap (or whose action is within rounding of the
action cap) are expanded to check it (`_Columns`).  d changes the degree,
so odd and even columns share no pivot row.  `unit_vanishing_level`
reduces the odd columns alone, which hold the unit's row, and stops at
the first one that kills the unit.  When no term of d is longer than one
letter and word_cap times the largest generator action stays below the
rounding margin of the action cap, no boundary can leave a cap, and it
pops the words from a heap in `basis()` order up to that stop instead of
enumerating them all.  `barcode` reduces the odd columns, then the even
ones, and clears each even column whose word is already a pivot row: it
would reduce to zero.

`brute_force_oracle`, `boundary_word` and `d_squared_check` expand tuple
words (`_IntegerBoundary`, `_product`) and `brute_force_oracle` expands
every column first, as an independent check of the packed words and of
these shortcuts.
"""

from __future__ import annotations

import heapq
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import BasisOverflow, PreconditionFailed

INF = math.inf

# a monomial is a tuple of (generator_index, exponent), sorted by index
Word = Tuple[Tuple[int, int], ...]
UNIT: Word = ()


@dataclass(frozen=True, slots=True)
class Generator:
    name: str
    degree: int          # 0 or 1
    action: float

    def __post_init__(self):
        # bar labels join names with '*' and powers with '^', and CSV rows
        # with ',': only such names keep every label to one word
        if not (isinstance(self.name, str) and self.name) or any(
                c in "*^," or c.isspace() for c in self.name):
            raise ValueError(
                "generator name must be non-empty and free of '*', '^', "
                f"',' and whitespace, got {self.name!r}")
        if self.degree not in (0, 1):
            raise ValueError("degree must be 0 or 1 (mod-2 grading)")
        if not self.action > 0.0:
            raise ValueError("generator actions must be positive")


class FilteredDGA:
    """Generators, a sparse rational differential, and truncation caps."""

    # callers may hold many DGAs at once: keep each one small
    __slots__ = ("generators", "action_cap", "word_cap", "differential")

    def __init__(self, generators, differential, action_cap: float,
                 word_cap: int):
        self.generators: List[Generator] = list(generators)
        index = self.index
        if len(index) != len(self.generators):
            raise ValueError("generator names must be distinct")
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
        self.differential: Dict[int, List[Tuple[Fraction, Word]]] = {
            index[name]: [
                (coeff if isinstance(coeff, Fraction) else Fraction(coeff),
                 self._parse_word(word, index)) for coeff, word in terms]
            for name, terms in differential.items()}
        self._validate()

    @property
    def index(self) -> Dict[str, int]:
        """Generator name -> position, built on each call."""
        return {g.name: i for i, g in enumerate(self.generators)}

    def _parse_word(self, word, index=None) -> Word:
        if index is None:
            index = self.index
        counts: Dict[int, int] = {}
        for w in word:
            gi = index[w] if isinstance(w, str) else int(w)
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

        Each word's action is summed letter by letter in the order
        `word_action` sums it, so both agree exactly (`_keyed_basis`).
        """
        return [entry[4] for entry in _keyed_basis(self, _word_bits(self))]

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


# ---------------------------------------------------------------------------
# keyed enumeration
# ---------------------------------------------------------------------------

# A basis entry is (action, names, length, degree, word, packed, label): the
# sort key (action, names, length), the word's mod-2 degree, the word, the
# word packed into one int (`_PackedBoundary`) and its bar label, equal to
# `word_name`.  Distinct words have distinct names tuples, so sorting or
# heaping entries never compares past the key.
_ROOT = (0.0, (), 0, 0, UNIT, 0, "1")


def _word_bits(dga: FilteredDGA) -> int:
    """Bits per generator of a packed word: every exponent that a Leibniz
    expansion makes, in a basis word's boundary or in the boundary of a
    letter's image, stays below 2^bits, so packed products never carry."""
    top = max((e for terms in dga.differential.values()
               for _, w in terms for _, e in w), default=0)
    return max(1, (max(dga.word_cap, top) + top).bit_length())


def _children(dga: FilteredDGA, bits: int):
    """A function listing the entries of the basis words that extend a
    given one by a power of a later generator.

    A child's action adds a positive term to its parent's, summed in
    `word_action`'s order, and its names extend the parent's, so its key
    exceeds its parent's.  Every basis word but the unit is the child of
    exactly one other.
    """
    gens = [(gi, g.name, int(g.degree), g.action, bits * gi)
            for gi, g in enumerate(dga.generators)]
    word_cap, action_cap = dga.word_cap, dga.action_cap

    def children(entry) -> list:
        action, names, length, degree, word, packed, label = entry
        out = []
        for gi, name, gdeg, gact, shift in gens[
                word[-1][0] + 1 if word else 0:]:
            for e in range(1, 2 if gdeg else word_cap - length + 1):
                new_len = length + e
                new_act = action + e * gact
                if new_len > word_cap or new_act > action_cap:
                    break
                part = name if e == 1 else f"{name}^{e}"
                out.append((new_act, names + (name,) * e, new_len,
                            degree ^ gdeg, word + ((gi, e),),
                            packed + (e << shift),
                            f"{label}*{part}" if word else part))
        return out
    return children


def _keyed_basis(dga: FilteredDGA, bits: int) -> list:
    """Every basis entry (see `_ROOT`) once, in `basis()` order."""
    children = _children(dga, bits)
    out, stack = [], [_ROOT]
    while stack:
        entry = stack.pop()
        out.append(entry)
        stack.extend(children(entry))
    out.sort()
    return out


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


class _PackedBoundary(_IntegerBoundary):
    """L d on words packed into one int, for the eliminations.

    Generator i holds bits [i B, (i + 1) B) of a packed word, B = `bits`
    (`_word_bits`), which no exponent reached here overflows.  A product
    is then an integer sum; two factors that share an odd letter have a
    common bit in `odd`, the bits of the odd generators; and the Koszul
    sign of rest * dg, (-1)^#{(x odd in rest, y odd in dg): x > y}, is
    the parity of the popcount of rest & above(dg), where above(dg) holds
    the odd letters x with an odd number of odd letters of dg below x.
    `expand` so agrees with `_IntegerBoundary.expand` word for word.
    """

    def __init__(self, dga: FilteredDGA):
        super().__init__(dga)
        self.bits = bits = _word_bits(dga)
        self.mask = (1 << bits) - 1
        ones = [1 << (bits * gi) for gi in range(len(self.degree))]
        self.odd = odd = sum(o for o, d in zip(ones, self.degree) if d)
        # per generator with a differential: its shift, its unit, the odd
        # letters before it, its degree, and (L c, dg, dg's odd letters,
        # above(dg)) per term
        self.letters = []
        for gi, terms in sorted(self.differential.items()):
            packed_terms = []
            for coeff, dword in terms:
                above, below, exps = 0, 0, dict(dword)
                for gj, one in enumerate(ones):
                    if below % 2 and self.degree[gj]:
                        above |= one
                    below += self.degree[gj] * exps.get(gj, 0)
                dp = self.pack(dword)
                packed_terms.append((coeff, dp, dp & odd, above))
            if packed_terms:
                self.letters.append((bits * gi, ones[gi],
                                     odd & (ones[gi] - 1),
                                     self.degree[gi], packed_terms))

    def pack(self, word: Word) -> int:
        return sum(e << (self.bits * gi) for gi, e in word)

    def unpack(self, packed: int) -> Word:
        return tuple((gi, packed >> (self.bits * gi) & self.mask)
                     for gi in range(len(self.degree))
                     if packed >> (self.bits * gi) & self.mask)

    def expand(self, packed: int) -> Dict[int, int]:
        """`_IntegerBoundary.expand` on a packed word, with the same signs:
        (-1)^|prefix| for an odd letter, e (-1)^|word| for g^e even."""
        odd, mask = self.odd, self.mask
        word_odd = (packed & odd).bit_count() % 2
        out: Dict[int, int] = {}
        for shift, one, below, gdeg, terms in self.letters:
            e = packed >> shift & mask
            if not e:
                continue
            rest = packed - one
            if gdeg:
                outer = -1 if (packed & below).bit_count() % 2 else 1
            else:
                outer = -e if word_odd else e
            for coeff, dp, dodd, above in terms:
                if rest & dodd:
                    continue  # an odd letter squared
                c = coeff * outer
                if (rest & above).bit_count() % 2:
                    c = -c
                w = rest + dp
                out[w] = out.get(w, 0) + c
        return {w: c for w, c in out.items() if c}


def _letters(dga: FilteredDGA) -> List[int]:
    """Indices of the generators whose one-letter word is a basis word."""
    return [gi for gi in range(len(dga.generators))
            if dga.in_caps(((gi, 1),))]


def _squares_to_zero(letters, expand, table) -> bool:
    """True iff d^2 = 0 on each of the one-letter basis words `letters`,
    hence on every word.

    d is odd, so d^2 = [d, d]/2 is an even derivation: it vanishes on a
    word once it vanishes on each letter, and every letter of a basis word
    is itself a basis word.  The test runs on L d (`expand`, on tuple or
    packed words), as L^2 d^2 = 0 iff d^2 = 0.  Boundaries are read from
    `table`, and a word missing from it is expanded into it once.
    """
    def bd(word):
        if word not in table:
            table[word] = expand(word)
        return table[word]

    for letter in letters:
        second: Dict = {}
        for w, c in bd(letter).items():
            for w2, c2 in bd(w).items():
                second[w2] = second.get(w2, 0) + c * c2
        if any(second.values()):
            return False
    return True


def d_squared_check(dga: FilteredDGA) -> bool:
    """True iff d^2 (a derivation) is zero on the letters, so on all words.

    It expands tuple words (`_IntegerBoundary`), independently of the
    packed words of the eliminations."""
    return _squares_to_zero([((gi, 1),) for gi in _letters(dga)],
                            _IntegerBoundary(dga).expand, {})


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
                fh.write(f"{b.label},{b.birth:.17g},{b.death:.17g}\n")


def _checked_columns(dga: FilteredDGA, basis: List[Word]):
    """Sparse boundary columns over `basis`, every one expanded up front.

    `brute_force_oracle` builds its matrix from these, so it tests every
    boundary against the basis on tuple words (`_IntegerBoundary`),
    independently of the packed words and the shortcuts of `_Columns`.
    d^2 = 0 is checked first from the same table, on the letters alone as
    d^2 is a derivation (`_squares_to_zero`), so a failing differential
    raises PreconditionFailed before an image outside the basis raises
    BasisOverflow.  The columns hold d exactly, as `Fraction`s.
    """
    lift = _IntegerBoundary(dga)
    table = {w: lift.expand(w) for w in basis}
    if not _squares_to_zero([((gi, 1),) for gi in _letters(dga)],
                            lift.expand, table):
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


class _Columns:
    """Basis entries (`_keyed_basis`) in `basis()` order, each with its
    sparse integer column L d(w) (`_PackedBoundary`), built when first
    asked for, after two checks that cover every basis word.

    d^2 = 0 is checked first, on the letters alone as d^2 is a derivation
    (`_squares_to_zero`), so a failing differential raises
    PreconditionFailed before a boundary outside the basis raises
    BasisOverflow.  Closure is then checked exactly, expanding only the
    words that could leave a cap.  A term of d(w) swaps one letter g for a
    word of d(g), so it has len(w) - 1 + len(that word) letters: only words
    with a letter whose differential is long enough can leave the word
    cap.  d strictly lowers action, so only words within rounding of the
    action cap, whose float sums may round past it, can leave that cap.

    With `walk` set, and when no word can leave a cap (no term of d is
    longer than one letter, and word_cap times the largest generator
    action stays below that rounding margin), the check has nothing to
    expand.  The
    entries then come off a heap keyed like the sort, each numbered as it
    is popped, and its children pushed (`_children`): a child's key
    exceeds its parent's, so the pops follow `basis()` order, and only the
    words up to the last one asked for are enumerated.  A boundary word
    not numbered yet (an image whose float action rounds to its source's
    or above) is popped up to before the column is built.
    """

    def __init__(self, dga: FilteredDGA, walk: bool = False):
        self.lift = lift = _PackedBoundary(dga)
        self.table: Dict[int, Dict[int, int]] = {}
        if not _squares_to_zero([1 << (lift.bits * gi) for gi in
                                 _letters(dga)], lift.expand, self.table):
            raise PreconditionFailed("differential does not square to zero")
        grow = {gi: max((dga.word_length(w) for _, w in terms),
                        default=0) - 1
                for gi, terms in dga.differential.items()}
        grow = {gi: g for gi, g in grow.items() if g > 0}
        # the float actions of w and of a term, sums of at most n positive
        # terms, are each within about n eps / 2 of their exact values, so
        # a term can round past the cap only from a word within ~2 n eps of
        # it; every float action is at most word_cap * top (1 + n eps)
        eps = sys.float_info.epsilon
        n = dga.word_cap + max(grow.values(), default=0) + 1
        near_cap = dga.action_cap * (1.0 - 8 * n * eps)
        top = max((g.action for g in dga.generators), default=0.0)
        if walk and not grow and \
                dga.word_cap * top * (1.0 + 2 * n * eps) <= near_cap:
            self.entries, self.pos, self.heap = [], {}, [_ROOT]
            self.children = _children(dga, lift.bits)
            return
        self.entries = entries = _keyed_basis(dga, lift.bits)
        self.pos = pos = {entry[5]: j for j, entry in enumerate(entries)}
        self.heap = []
        suspects = [entry for entry in entries
                    if max((grow.get(gi, 0) for gi, _ in entry[4]),
                           default=0) > dga.word_cap - entry[2]] \
            if grow else []
        first = len(entries)
        while first and entries[first - 1][0] > near_cap:
            first -= 1  # the basis is sorted by action
        for entry in suspects + entries[first:]:
            packed = entry[5]
            if packed not in self.table:
                self.table[packed] = lift.expand(packed)
            for word in self.table[packed]:
                if word not in pos:
                    raise BasisOverflow(
                        f"boundary of {entry[6]} leaves the basis")

    def _pop(self):
        entry = heapq.heappop(self.heap)
        self.pos[entry[5]] = len(self.entries)
        self.entries.append(entry)
        for child in self.children(entry):
            heapq.heappush(self.heap, child)

    def entry(self, j: int):
        """The j-th basis entry, or None past the last."""
        while j >= len(self.entries) and self.heap:
            self._pop()
        return self.entries[j] if j < len(self.entries) else None

    def column(self, j: int) -> Dict[int, int]:
        entry = self.entries[j]
        packed = entry[5]
        image = self.table.pop(packed) if packed in self.table \
            else self.lift.expand(packed)
        pos, col = self.pos, {}
        for word, coeff in image.items():
            while word not in pos:
                if not self.heap:
                    raise BasisOverflow(
                        f"boundary of {entry[6]} leaves the basis")
                self._pop()
            col[pos[word]] = coeff
        return col


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
    BasisOverflow if a boundary leaves the basis (`_Columns`).
    """
    columns = _Columns(dga)
    entries = columns.entries
    pivots: Dict[int, Tuple[int, Dict[int, int]]] = {}
    for parity in (1, 0):
        for j, entry in enumerate(entries):
            if entry[3] == parity and j not in pivots:
                col = _reduce(columns.column(j), pivots)
                if col:
                    pivots[max(col)] = (j, col)
    deaths = {j for j, _ in pivots.values()}
    bars = []
    for i, entry in enumerate(entries):
        if i in pivots:
            bars.append(Bar(entry[6], entry[0], entries[pivots[i][0]][0]))
        elif i not in deaths:
            bars.append(Bar(entry[6], entry[0], INF))
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
    supported on the unit alone, and builds no column past it.  When no
    boundary can leave a cap, it also enumerates no word past it: the
    words come off a heap in `basis()` order (`_Columns`).  Returns
    math.inf when no primitive exists under the caps.  Raises
    PreconditionFailed unless d^2 = 0 on every basis word, and
    BasisOverflow if any boundary, past the stop too, leaves the basis.
    """
    columns = _Columns(dga, walk=True)
    pivots: Dict[int, Tuple[int, Dict[int, int]]] = {}
    j = 0
    while (entry := columns.entry(j)) is not None:
        if entry[3]:
            col = _reduce(columns.column(j), pivots)
            if col:
                if max(col) == 0:  # the unit's row
                    return entry[0]
                pivots[max(col)] = (j, col)
        j += 1
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
            # np.round(x, 3)'s rule: x * 1e3 rounded half to even, / 1e3
            action=round(rng.uniform(0.6, action_cap * 0.95) * 1e3) / 1e3))
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
