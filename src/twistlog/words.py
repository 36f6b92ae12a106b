"""Words in the free fundamental group of a genus-g one-boundary surface.

Generators come in the fixed order a1, b1, ..., ag, bg, flat-indexed exactly
like the homology basis (2i-2 <-> a_i, 2i-1 <-> b_i).  A word is a freely
reduced sequence of letters, each the int code 2*gen + (sign < 0), whose
inverse is code ^ 1; the boundary word is the product of the handle
commutators [a_i, b_i] = a_i b_i a_i^-1 b_i^-1.  Every automorphism
is a word in Dehn twists along adapted curves, which come from one table of
twist kinds, ``TWIST_KINDS``: it carries that twist word (its
factorization) along with its generator images.  The inverse on the group
is read from the inverse twist word, so no general free-group inversion is
ever needed; the inverse on H is read from the intersection form, which
every twist preserves.

Text format: whitespace-separated tokens a1..ag, b1..bg, with uppercase
A1..Bg denoting inverse letters; the empty string is the identity.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

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


class GroupWord:
    """Freely reduced word; letters are int codes 2*gen + (sign < 0)."""

    __slots__ = ("genus", "letters")

    def __init__(self, genus: int, letters=()):
        if genus < 1:
            raise ValueError(f"genus must be >= 1, got {genus}")
        self.genus = genus
        self.letters = _reduce(letters, 4 * genus)

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


def _reduce(letters, codes: int) -> tuple:
    stack = []
    for c in letters:
        if type(c) is not int or not 0 <= c < codes:
            raise ValueError(f"letter code {c!r} out of range 0..{codes - 1}")
        if stack and stack[-1] == c ^ 1:
            stack.pop()
        else:
            stack.append(c)
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
        letters.append(2 * gen + letter.isupper())
    return GroupWord(genus, letters)


def word_to_string(w: GroupWord) -> str:
    bits = []
    for c in w.letters:
        name = gen_name(c >> 1)
        bits.append(name.upper() if c & 1 else name)
    return " ".join(bits)


def generator_word(genus: int, index: int) -> GroupWord:
    return GroupWord(genus, [2 * index])


def concat(w1: GroupWord, w2: GroupWord) -> GroupWord:
    """w1 w2, freely reduced: both are reduced, so only the seam cancels."""
    if w1.genus != w2.genus:
        raise ValueError("genus mismatch")
    a, b = w1.letters, w2.letters
    k, n = 0, min(len(a), len(b))
    while k < n and a[-1 - k] == b[k] ^ 1:
        k += 1
    return GroupWord._make(w1.genus, a[:len(a) - k] + b[k:])


def invert(w: GroupWord) -> GroupWord:
    return GroupWord._make(w.genus, tuple(c ^ 1 for c in reversed(w.letters)))


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
    """Automorphism of the free group: a twist word and its generator images.

    ``factorization`` is the twist word, a tuple of (kind, h, power) read as
    the composite t_1 o t_2 o ...; ``images`` are the images of the
    generators under it.  The constructor trusts that the two agree, so only
    ``twist``, ``identity_automorphism``, ``compose`` and
    ``_from_factorization`` call it; outside input goes through
    ``automorphism_from_json``, which checks it.  ``boundary_preserving`` is
    computed when read, not asserted: it says whether the boundary word is
    fixed as a reduced word.
    """

    __slots__ = ("genus", "images", "factorization", "_coded")

    def __init__(self, genus: int, images, factorization):
        self.genus = genus
        self.images = tuple(images)
        # per letter code: the letters of its image and of the image's inverse
        self._coded = []
        for im in self.images:
            forward = list(im.letters)
            backward = [c ^ 1 for c in reversed(forward)]
            self._coded += [(forward, backward), (backward, forward)]
        self.factorization = tuple(factorization)

    @property
    def boundary_preserving(self) -> bool:
        zeta = boundary_word(self.genus)
        return apply_automorphism(self, zeta) == zeta

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
    """phi(w), reduced while it is substituted.

    Each letter's image is a reduced word, so only a prefix of it can cancel
    against the reduced word built so far: the longest k for which the last
    k letters built are the inverse of the image's first k.  That test holds
    for every smaller k too, so k is found by bisection on list slices, and
    the k letters go in one step.  phi holds the image of each letter code
    and its inverse as lists (``FreeAutomorphism._coded``), so a letter is
    read by its code alone."""
    if phi.genus != w.genus:
        raise ValueError("genus mismatch")
    coded = phi._coded
    out = []
    for c in w.letters:
        image, undo = coded[c]
        k = 0
        if out and image and out[-1] == undo[-1]:
            k, hi = 1, min(len(out), len(image))
            while k < hi:
                mid = (k + hi + 1) // 2
                if out[-mid:] == undo[-mid:]:
                    k = mid
                else:
                    hi = mid - 1
            del out[-k:]
        out.extend(image[k:] if k else image)
    return GroupWord._make(w.genus, tuple(out))


def identity_automorphism(genus: int) -> FreeAutomorphism:
    return FreeAutomorphism(genus, [generator_word(genus, i) for i in range(2 * genus)], ())


# Most letters that a twist factorization may repeat in total: |power| times
# the curve word's letters (1 for nonsep, 4h for gamma_h), and at least one
# per entry, since composing even an identity entry passes over every image.
# A single twist power is a one-entry factorization.  A longer one is
# refused before any word is built.  Composing automorphisms
# substitutes image words and cancels each one against the word built so
# far (``apply_automorphism``), so the cost still grows with the image
# lengths: at this bound, johnson --curve conj:FILE --k 1 on fixture:g2
# took at most 0.35 s, for 62 entries {"kind": "sep", "h": 2, "power": 1};
# one entry of h = 2, power 62 took 0.23 s.  At 1000 letters the same
# shapes took 1.3 s and 0.57 s, and 8 entries of 248 letters each (1984 in
# all) took 4.1 s (Python 3.11, one core of a 2-vCPU Xeon host, the slowest
# of six fresh processes).
MAX_POWER_LETTERS = 500


def _word_power(w: GroupWord, power: int) -> GroupWord:
    """w**power, its letters written out in one pass and reduced once."""
    step = w if power >= 0 else invert(w)
    return GroupWord._make(w.genus, _reduce(step.letters * abs(power), 4 * w.genus))


class TwistKind(NamedTuple):
    """One kind of adapted curve, and the Dehn twist along it."""

    takes_h: bool
    letters: Callable  # h -> letters of the curve word, before it is built
    word: Callable  # (genus, h) -> the curve word
    images: Callable  # (generators, h, word**power) -> images of the twist power


# The one table of twist kinds.
TWIST_KINDS = {
    # the curve underlying a1 (class A_1): only b1 moves, b1 -> b1 a1^power
    "nonsep": TwistKind(
        False,
        lambda h: 1,
        lambda genus, h: generator_word(genus, 0),
        lambda gens, h, c: gens[:1] + [concat(gens[1], c)] + gens[2:],
    ),
    # gamma_h, 1 <= h <= genus, central at h = genus (boundary-parallel):
    # conjugates the first h handles by gamma_h^power
    "sep": TwistKind(
        True,
        lambda h: 4 * h,
        handle_word,
        lambda gens, h, c: [conjugate(x, invert(c)) for x in gens[: 2 * h]] + gens[2 * h :],
    ),
}


def _twist_kind(genus: int, kind, h) -> TwistKind:
    """The table entry of ``kind``, once h is checked against it."""
    entry = TWIST_KINDS.get(kind) if isinstance(kind, str) else None
    if entry is None:
        raise ValueError(f"unknown twist kind {kind!r}")
    if not entry.takes_h:
        if h is not None:
            raise ValueError(f"{kind} twist takes no h, got h={h!r}")
    elif type(h) is not int or not 1 <= h <= genus:
        raise ValueError(f"{kind} twist parameter h={h!r} out of range 1..{genus}")
    return entry


def parse_twist(genus: int, text) -> tuple:
    """(kind, h) of a curve descriptor: ``kind``, or ``kind:h`` with h
    written ``[1-9][0-9]*`` for a kind that takes h."""
    name, colon, arg = text.partition(":") if isinstance(text, str) else (None, "", "")
    entry = TWIST_KINDS.get(name)
    if entry is None or entry.takes_h != bool(colon):
        forms = " | ".join(k + (":h" if e.takes_h else "") for k, e in TWIST_KINDS.items())
        raise ValueError(f"unknown curve descriptor {text!r}; expected {forms}")
    if colon and not re.fullmatch(_COUNT, arg):
        raise ValueError(f"bad h in curve descriptor {text!r}")
    h = int(arg) if colon else None
    _twist_kind(genus, name, h)
    return name, h


def format_twist(kind: str, h: int | None) -> str:
    """The descriptor that ``parse_twist`` reads back as (kind, h)."""
    return kind if h is None else f"{kind}:{h}"


def twist_word(genus: int, kind: str, h: int | None = None) -> GroupWord:
    """A based loop word of the adapted curve of a twist kind."""
    return _twist_kind(genus, kind, h).word(genus, h)


def _check_letters(what: str, letters: int) -> None:
    if letters > MAX_POWER_LETTERS:
        raise ValueError(
            f"{what} repeats {letters} letters, above the limit of {MAX_POWER_LETTERS}"
        )


def twist(genus: int, kind: str, h: int | None = None, power: int = 1) -> FreeAutomorphism:
    """The power-th power of the Dehn twist along the adapted curve of a
    twist kind, refused before any word is built if it repeats more than
    MAX_POWER_LETTERS letters."""
    entry = _twist_kind(genus, kind, h)
    _check_letters(f"twist power {power}", entry.letters(h) * abs(power))
    if power == 0:
        return identity_automorphism(genus)
    gens = [generator_word(genus, i) for i in range(2 * genus)]
    images = entry.images(gens, h, _word_power(entry.word(genus, h), power))
    return FreeAutomorphism(genus, images, [(kind, h, power)])


def compose(phi1: FreeAutomorphism, phi2: FreeAutomorphism) -> FreeAutomorphism:
    """phi1 after phi2: the automorphism w -> phi1(phi2(w))."""
    if phi1.genus != phi2.genus:
        raise ValueError("genus mismatch")
    images = [apply_automorphism(phi1, im) for im in phi2.images]
    return FreeAutomorphism(phi1.genus, images, phi1.factorization + phi2.factorization)


def invert_automorphism(phi: FreeAutomorphism) -> FreeAutomorphism:
    """Inverse through the twist factorization (reversed, powers negated)."""
    fact = [(kind, h, -power) for kind, h, power in reversed(phi.factorization)]
    return _from_factorization(phi.genus, fact)


def homology_class(w: GroupWord) -> list:
    """The class of w in H as ints: the exponent sum of each generator."""
    counts = [0] * (2 * w.genus)
    for c in w.letters:
        counts[c >> 1] += -1 if c & 1 else 1
    return counts


def homology_matrix(phi: FreeAutomorphism) -> list:
    """The integer matrix of phi on H: column j is the class of phi(x_j)."""
    return [list(row) for row in zip(*map(homology_class, phi.images))]


def homology_inverse(phi: FreeAutomorphism) -> list:
    """The inverse of M = ``homology_matrix(phi)`` as integer rows, read
    from the intersection form J (J(a_i, b_i) = 1 = -J(b_i, a_i)): phi is a
    word in Dehn twists, each of which preserves J (the ``transvection``
    check), so M^T J M = J and M^-1 = J^-1 M^T J, whose (i, j) entry is
    (-1)^(i+j) M[j^1][i^1], ^ pairing a_k with b_k."""
    mat = homology_matrix(phi)
    n = len(mat)
    return [[(-1) ** (i + j) * mat[j ^ 1][i ^ 1] for j in range(n)] for i in range(n)]


# -- serialization -----------------------------------------------------------


def automorphism_to_json(phi: FreeAutomorphism) -> dict:
    return {
        "genus": phi.genus,
        "images": [word_to_string(im) for im in phi.images],
        "factorization": [
            {"kind": kind, **({"h": h} if h is not None else {}), "power": power}
            for kind, h, power in phi.factorization
        ],
    }


def automorphism_from_json(obj: dict) -> FreeAutomorphism:
    if not isinstance(obj, dict) or "genus" not in obj:
        raise ValueError("automorphism JSON must be an object with a genus")
    genus = obj["genus"]
    if type(genus) is not int or genus < 1:
        raise ValueError(f"automorphism JSON genus must be a positive integer, got {genus!r}")
    if obj.get("factorization") is None:
        raise ValueError(
            "automorphism JSON needs a 'factorization' list of twists;"
            " images alone are not accepted"
        )
    if not isinstance(obj["factorization"], list):
        raise ValueError("automorphism JSON 'factorization' must be a list")
    fact, letters = [], 0
    for entry in obj["factorization"]:
        if not isinstance(entry, dict):
            raise ValueError(f"factorization entry must be an object: {entry!r}")
        kind, h, power = entry.get("kind"), entry.get("h"), entry.get("power", 1)
        if type(power) is not int:
            raise ValueError(f"twist power must be an integer, got {power!r}")
        letters += max(1, _twist_kind(genus, kind, h).letters(h) * abs(power))
        fact.append((kind, h, power))
    _check_letters(f"factorization of {len(fact)} entries", letters)
    images = obj.get("images")
    if images is not None:
        if not isinstance(images, list) or not all(isinstance(s, str) for s in images):
            raise ValueError("automorphism JSON 'images' must be a list of words")
        images = tuple(word_from_string(genus, s) for s in images)
    phi = _from_factorization(genus, fact)
    if images is not None and phi.images != images:
        raise ValueError("automorphism JSON: images disagree with factorization")
    return phi


def _from_factorization(genus: int, fact) -> FreeAutomorphism:
    out = identity_automorphism(genus)
    for kind, h, power in fact:
        out = compose(out, twist(genus, kind, h, power))
    # re-attach the requested factorization verbatim
    return FreeAutomorphism(genus, out.images, fact)
