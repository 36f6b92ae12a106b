"""Words in the free fundamental group of a genus-g one-boundary surface.

Generators come in the fixed order a1, b1, ..., ag, bg, flat-indexed exactly
like the homology basis (2i-2 <-> a_i, 2i-1 <-> b_i).  A word is a freely
reduced sequence of signed letters; the boundary word is the product of the
handle commutators [a_i, b_i] = a_i b_i a_i^-1 b_i^-1.  Automorphisms are
given by their generator images; the two adapted Dehn-twist families are
provided as constructors, and inverses are maintained through recorded twist
factorizations (inverse twists are written down directly, so no general
free-group inversion is ever needed).

Text format: whitespace-separated tokens a1..ag, b1..bg, with uppercase
A1..Bg denoting inverse letters; the empty string is the identity.
"""

from __future__ import annotations

import re
from math import gcd

from .rationals import Rat

# ASCII only: the classes name code points, so no other script's digits match
_COUNT = "[1-9][0-9]*"
_NAME = re.compile(f"([abAB])({_COUNT})")


def gen_name(index: int) -> str:
    letter = "a" if index % 2 == 0 else "b"
    return f"{letter}{index // 2 + 1}"


def parse_name(name, genus: int, letters: str, unknown: str, too_big: str) -> tuple:
    """(flat index, letter) of a generator or basis name.

    The name must match ``[abAB][1-9][0-9]*`` in full with its letter in
    ``letters``, and its number i must be at most ``genus``; the flat index
    is 2i-2 for a_i and A_i, 2i-1 for b_i and B_i.  Otherwise ValueError is
    raised with ``unknown`` or ``too_big``, formatted with the keys
    ``name`` (the name's repr) and ``genus``.
    """
    m = _NAME.fullmatch(name) if isinstance(name, str) else None
    if m is None or m[1] not in letters:
        raise ValueError(unknown.format(name=repr(name), genus=genus))
    i = int(m[2])
    if i > genus:
        raise ValueError(too_big.format(name=repr(name), genus=genus))
    return 2 * i - 2 + (m[1] in "bB"), m[1]


def parse_count(text: str) -> int | None:
    """The positive integer written ``[1-9][0-9]*`` in ASCII, or None."""
    return int(text) if re.fullmatch(_COUNT, text) else None


class GroupWord:
    """Freely reduced word; letters are (generator index, sign) pairs."""

    __slots__ = ("genus", "letters")

    def __init__(self, genus: int, letters=()):
        if genus < 1:
            raise ValueError(f"genus must be >= 1, got {genus}")
        self.genus = genus
        self.letters = _reduce(letters, 2 * genus)

    @classmethod
    def _make(cls, genus, letters):
        # trusted: letters already reduced and validated
        w = object.__new__(cls)
        w.genus = genus
        w.letters = letters
        return w

    def __eq__(self, other):
        return (
            isinstance(other, GroupWord)
            and self.genus == other.genus
            and self.letters == other.letters
        )

    def __hash__(self):
        return hash((self.genus, self.letters))

    def __len__(self):
        return len(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def __mul__(self, other):
        return concat(self, other)

    def __repr__(self):
        return f"GroupWord({word_to_string(self) or '1'!r})"


def _reduce(letters, dim) -> tuple:
    stack = []
    for gen, sign in letters:
        if not 0 <= gen < dim:
            raise ValueError(f"generator index {gen} out of range")
        if sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {sign}")
        if stack and stack[-1][0] == gen and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((gen, sign))
    return tuple(stack)


def word_from_string(genus: int, text: str) -> GroupWord:
    """Parse the token syntax; errors carry the 1-based token position."""
    letters = []
    for pos, token in enumerate(text.split(), start=1):
        gen, letter = parse_name(
            token,
            genus,
            "abAB",
            f"token {pos}: " + "{name} is not a generator letter",
            f"token {pos}: " + "{name} exceeds genus {genus}",
        )
        letters.append((gen, 1 if letter.islower() else -1))
    return GroupWord(genus, letters)


def word_to_string(w: GroupWord) -> str:
    bits = []
    for gen, sign in w.letters:
        name = gen_name(gen)
        bits.append(name if sign == 1 else name.upper())
    return " ".join(bits)


def generator_word(genus: int, index: int, sign: int = 1) -> GroupWord:
    return GroupWord(genus, [(index, sign)])


def concat(w1: GroupWord, w2: GroupWord) -> GroupWord:
    if w1.genus != w2.genus:
        raise ValueError("genus mismatch")
    return GroupWord._make(w1.genus, _reduce(w1.letters + w2.letters, 2 * w1.genus))


def invert(w: GroupWord) -> GroupWord:
    return GroupWord._make(
        w.genus, tuple((g, -s) for g, s in reversed(w.letters))
    )


def conjugate(w: GroupWord, by: GroupWord) -> GroupWord:
    """by * w * by^-1."""
    return concat(concat(by, w), invert(by))


def commutator(x: GroupWord, y: GroupWord) -> GroupWord:
    """x y x^-1 y^-1."""
    return concat(concat(x, y), concat(invert(x), invert(y)))


def boundary_word(genus: int) -> GroupWord:
    """zeta = [a1,b1][a2,b2]...[ag,bg], the boundary of the surface."""
    return handle_word(genus, genus)


def handle_word(genus: int, h: int) -> GroupWord:
    """gamma_h = [a1,b1]...[ah,bh], the separating curve around the first h
    handles (h = genus gives the boundary word itself)."""
    if not 1 <= h <= genus:
        raise ValueError(f"handle count {h} out of range 1..{genus}")
    w = GroupWord(genus)
    for i in range(h):
        w = concat(w, commutator(generator_word(genus, 2 * i), generator_word(genus, 2 * i + 1)))
    return w


# -- automorphisms -----------------------------------------------------------


class FreeAutomorphism:
    """Endomorphism of the free group by generator images; the constructors
    below only ever produce automorphisms.

    ``factorization`` records the twist word that produced the map (tuples
    (kind, h, power)); inverses are available exactly when it is present.
    ``boundary_preserving`` is computed, not asserted: it records whether the
    boundary word is fixed as a reduced word.
    """

    __slots__ = ("genus", "images", "factorization", "boundary_preserving")

    def __init__(self, genus: int, images, factorization=None):
        if len(images) != 2 * genus:
            raise ValueError(f"expected {2 * genus} generator images")
        for im in images:
            if im.genus != genus:
                raise ValueError("genus mismatch in generator image")
        self.genus = genus
        self.images = tuple(images)
        self.factorization = tuple(factorization) if factorization is not None else None
        if homology_inverse(self) is None:
            raise ValueError("generator images are singular on homology")
        zeta = boundary_word(genus)
        self.boundary_preserving = apply_automorphism(self, zeta) == zeta

    def __eq__(self, other):
        return (
            isinstance(other, FreeAutomorphism)
            and self.genus == other.genus
            and self.images == other.images
        )

    def __repr__(self):
        ims = ", ".join(word_to_string(w) or "1" for w in self.images)
        return f"FreeAutomorphism({ims})"


def apply_automorphism(phi: FreeAutomorphism, w: GroupWord) -> GroupWord:
    if phi.genus != w.genus:
        raise ValueError("genus mismatch")
    letters = []
    for gen, sign in w.letters:
        image = phi.images[gen] if sign == 1 else invert(phi.images[gen])
        letters.extend(image.letters)
    return GroupWord(w.genus, letters)


def identity_automorphism(genus: int) -> FreeAutomorphism:
    return FreeAutomorphism(
        genus, [generator_word(genus, i) for i in range(2 * genus)], factorization=()
    )


# Most letters that one twist power may repeat: |power| letters for a
# non-separating twist, 4h|power| for a twist along gamma_h.  A longer power
# is refused before any word is built.  Conjugating a twist by an
# automorphism composes image words letter by letter, which is quadratic in
# their length: at this bound, johnson --curve conj:FILE --k 1 on fixture:g2
# took 3.6 s for {"kind": "sep", "h": 1, "power": 250} and 6.8 s for h = 2,
# power 125 (Python 3.11, one core of a 2-vCPU host).
MAX_POWER_LETTERS = 1000


def _word_power(w: GroupWord, power: int) -> GroupWord:
    """w**power, its letters written out in one pass and reduced once."""
    step = w if power >= 0 else invert(w)
    return GroupWord._make(w.genus, _reduce(step.letters * abs(power), 2 * w.genus))


def _twist_power(genus: int, kind: str, h: int | None, power: int) -> FreeAutomorphism:
    if kind == "nonsep":
        period = 1
    elif kind == "sep":
        if type(h) is not int or not 1 <= h <= genus:
            raise ValueError(f"separating twist parameter h={h!r} out of range 1..{genus}")
        period = 4 * h
    else:
        raise ValueError(f"unknown twist kind {kind!r}")
    if abs(power) * period > MAX_POWER_LETTERS:
        raise ValueError(
            f"twist power {power} repeats {abs(power) * period} letters, above the "
            f"limit of {MAX_POWER_LETTERS}"
        )
    if power == 0:
        return identity_automorphism(genus)
    images = [generator_word(genus, i) for i in range(2 * genus)]
    if kind == "nonsep":
        # twist along the curve underlying a1: only b1 moves, b1 -> b1 a1^power
        images[1] = concat(images[1], _word_power(generator_word(genus, 0), power))
    else:
        # twist along gamma_h: conjugates the first h handles by gamma_h^power
        gamma = _word_power(handle_word(genus, h), power)
        inv_gamma = invert(gamma)
        for i in range(2 * h):
            images[i] = concat(concat(inv_gamma, images[i]), gamma)
    return FreeAutomorphism(genus, images, factorization=[(kind, h, power)])


def twist_nonseparating(genus: int) -> FreeAutomorphism:
    """Twist along the non-separating adapted curve (the one whose class is
    A_1): a_i -> a_i, b_1 -> b_1 a_1, all other b_i fixed."""
    return _twist_power(genus, "nonsep", None, 1)


def twist_separating(genus: int, h: int) -> FreeAutomorphism:
    """Twist along the separating adapted curve gamma_h, 1 <= h <= genus:
    conjugation by gamma_h on the first h handles, identity on the rest.
    h = genus is the boundary-parallel degenerate case (central, still valid).
    """
    return _twist_power(genus, "sep", h, 1)


def compose(phi1: FreeAutomorphism, phi2: FreeAutomorphism) -> FreeAutomorphism:
    """phi1 after phi2: the automorphism w -> phi1(phi2(w))."""
    if phi1.genus != phi2.genus:
        raise ValueError("genus mismatch")
    images = [apply_automorphism(phi1, im) for im in phi2.images]
    fact = None
    if phi1.factorization is not None and phi2.factorization is not None:
        fact = phi1.factorization + phi2.factorization
    return FreeAutomorphism(phi1.genus, images, factorization=fact)


def invert_automorphism(phi: FreeAutomorphism) -> FreeAutomorphism:
    """Inverse through the recorded twist factorization (reversed, powers
    negated).  Raises if the automorphism carries no factorization."""
    if phi.factorization is None:
        raise ValueError(
            "automorphism has no recorded twist factorization; cannot invert"
        )
    out = identity_automorphism(phi.genus)
    for kind, h, power in reversed(phi.factorization):
        out = compose(out, _twist_power(phi.genus, kind, h, -power))
    return out


def homology_matrix(phi: FreeAutomorphism) -> list:
    """The integer matrix of phi on H: entry [i][j] is the exponent sum of
    generator i in phi(x_j)."""
    n = 2 * phi.genus
    mat = [[0] * n for _ in range(n)]
    for j, im in enumerate(phi.images):
        for gen, sign in im.letters:
            mat[gen][j] += sign
    return mat


def homology_inverse(phi: FreeAutomorphism) -> list | None:
    """The inverse of ``homology_matrix(phi)`` as rows of exact rationals,
    or None when the matrix is singular.

    Gauss-Jordan elimination on [M | I] in integers: a row update
    multiplies through by the pivot instead of dividing by it, and divides
    out the row's gcd, so only the last step makes fractions."""
    mat = homology_matrix(phi)
    n = len(mat)
    rows = [row + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c]), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        p = rows[c][c]
        for r in range(n):
            a = rows[r][c]
            if r != c and a:
                row = [p * x - a * y for x, y in zip(rows[r], rows[c])]
                g = gcd(*row)
                rows[r] = [x // g for x in row] if g > 1 else row
    return [[Rat(x, row[i]) for x in row[n:]] for i, row in enumerate(rows)]


# -- serialization -----------------------------------------------------------


def automorphism_to_json(phi: FreeAutomorphism) -> dict:
    fact = None
    if phi.factorization is not None:
        fact = [
            {"kind": kind, **({"h": h} if h is not None else {}), "power": power}
            for kind, h, power in phi.factorization
        ]
    return {
        "genus": phi.genus,
        "images": [word_to_string(im) for im in phi.images],
        "factorization": fact,
    }


def automorphism_from_json(obj: dict) -> FreeAutomorphism:
    if not isinstance(obj, dict) or "genus" not in obj:
        raise ValueError("automorphism JSON must be an object with a genus")
    genus = obj["genus"]
    if type(genus) is not int or genus < 1:
        raise ValueError(f"automorphism JSON genus must be a positive integer, got {genus!r}")
    fact = None
    if obj.get("factorization") is not None:
        if not isinstance(obj["factorization"], list):
            raise ValueError("automorphism JSON 'factorization' must be a list")
        fact = []
        for entry in obj["factorization"]:
            if not isinstance(entry, dict):
                raise ValueError(f"factorization entry must be an object: {entry!r}")
            kind = entry.get("kind")
            if kind not in ("nonsep", "sep"):
                raise ValueError(f"unknown twist kind {kind!r} in factorization")
            h = entry.get("h")
            power = entry.get("power", 1)
            if kind == "sep" and type(h) is not int:
                raise ValueError("separating twist descriptor needs an integer h")
            if kind == "nonsep" and h is not None:
                raise ValueError("non-separating twist descriptor takes no h")
            if type(power) is not int:
                raise ValueError(f"twist power must be an integer, got {power!r}")
            fact.append((kind, h, power))
    if "images" in obj and obj["images"] is not None:
        if not isinstance(obj["images"], list) or not all(
            isinstance(s, str) for s in obj["images"]
        ):
            raise ValueError("automorphism JSON 'images' must be a list of words")
        images = [word_from_string(genus, s) for s in obj["images"]]
        phi = FreeAutomorphism(genus, images, factorization=fact)
        if fact is not None:
            rebuilt = _from_factorization(genus, fact)
            if rebuilt.images != phi.images:
                raise ValueError("automorphism JSON: images disagree with factorization")
        return phi
    if fact is None:
        raise ValueError("automorphism JSON needs images or a factorization")
    return _from_factorization(genus, fact)


def _from_factorization(genus: int, fact) -> FreeAutomorphism:
    out = identity_automorphism(genus)
    for kind, h, power in fact:
        out = compose(out, _twist_power(genus, kind, h, power))
    # re-attach the requested factorization verbatim
    return FreeAutomorphism(genus, out.images, factorization=fact)
