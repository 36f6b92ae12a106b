"""Free-group words, adapted Dehn twists, and automorphism serialization."""

import itertools
import random

import pytest

from twistlog import words
from twistlog.tensor import AlgebraContext, intersection
from twistlog.words import (
    MAX_POWER_LETTERS,
    TWIST_KINDS,
    GroupWord,
    apply_automorphism,
    automorphism_from_json,
    automorphism_to_json,
    boundary_word,
    commutator,
    compose,
    concat,
    conjugate,
    format_twist,
    gen_name,
    generator_word,
    handle_word,
    homology_inverse,
    homology_matrix,
    identity_automorphism,
    invert,
    invert_automorphism,
    parse_twist,
    _word_power,
    twist,
    twist_word,
    word_from_string,
    word_to_string,
)

from algebra_tools import random_word


def test_gen_names():
    assert [gen_name(i) for i in range(4)] == ["a1", "b1", "a2", "b2"]


def test_parse_print_round_trip():
    w = word_from_string(2, "a1 b1 A2 B1")
    assert w.letters == (0, 2, 5, 3)
    assert word_to_string(w) == "a1 b1 A2 B1"
    assert word_from_string(2, "") == GroupWord(2)


def test_parse_errors_name_position():
    with pytest.raises(ValueError, match="token 2"):
        word_from_string(2, "a1 c3")
    with pytest.raises(ValueError, match="exceeds genus"):
        word_from_string(1, "a2")
    with pytest.raises(ValueError):
        word_from_string(2, "a0")


def test_free_reduction():
    w = word_from_string(1, "a1 A1")
    assert not w
    # cancellation cascades through the middle
    w = word_from_string(1, "a1 b1 B1 A1 b1")
    assert word_to_string(w) == "b1"
    # a letter is an int code 2*gen + (sign < 0), from 0 to 4*genus - 1
    for genus in (1, 2):
        assert word_to_string(GroupWord(genus, [4 * genus - 1])) == f"B{genus}"
        for bad in [(0, 1), (5, 1), (0, 2), True, -1, 4 * genus]:
            with pytest.raises(ValueError, match="letter code"):
                GroupWord(genus, [bad])
            with pytest.raises(ValueError, match="letter code"):
                GroupWord(genus, [0, 1, bad])
    with pytest.raises(ValueError, match="genus must be >= 1, got 0"):
        GroupWord(0)


def test_invert_concat_conjugate():
    rng = random.Random(1999)
    for _ in range(20):
        w = random_word(rng, 2, rng.randint(0, 6))
        y = random_word(rng, 2, rng.randint(0, 4))
        assert not concat(w, invert(w))
        assert conjugate(w, y) == concat(concat(y, w), invert(y))
        assert invert(invert(w)) == w
    with pytest.raises(ValueError):
        concat(random_word(rng, 1, 2), random_word(rng, 2, 2))


def test_concat_cancels_at_the_seam_as_a_full_reduction_does():
    # both words are reduced, so only the seam can cancel; the oracle reduces
    # every letter of the joined words again
    rng = random.Random(3707)
    cuts = set()
    for genus in (1, 2, 3):
        empty = GroupWord(genus)
        for _ in range(40):
            u = random_word(rng, genus, rng.randint(0, 12))
            v = random_word(rng, genus, rng.randint(0, 12))
            tail = u.letters[rng.randint(0, len(u)):]
            partial = GroupWord(genus, invert(GroupWord(genus, tail)).letters + v.letters)
            for a, b in [(u, v), (u, invert(u)), (u, partial), (empty, u), (u, empty)]:
                expected = words._reduce(a.letters + b.letters, 4 * genus)
                got = concat(a, b)
                assert got.letters == expected and got.genus == genus
                cut = (len(a) + len(b) - len(expected)) // 2
                cuts.add("none" if not cut else "partial" if cut < min(len(a), len(b)) else "full")
    assert cuts == {"none", "partial", "full"}


def test_commutator_and_boundary():
    a1, b1 = generator_word(2, 0), generator_word(2, 1)
    assert word_to_string(commutator(a1, b1)) == "a1 b1 A1 B1"
    assert word_to_string(boundary_word(2)) == "a1 b1 A1 B1 a2 b2 A2 B2"
    assert handle_word(2, 2) == boundary_word(2)
    assert handle_word(2, 1) == commutator(a1, b1)
    with pytest.raises(ValueError):
        handle_word(2, 3)
    with pytest.raises(ValueError):
        handle_word(2, 0)


def test_twist_nonseparating_images():
    t = twist(2, "nonsep")
    assert word_to_string(t.images[1]) == "b1 a1"
    for i in (0, 2, 3):
        assert t.images[i] == generator_word(2, i)
    assert t.boundary_preserving
    assert twist(2, "nonsep", power=0) == identity_automorphism(2)
    with pytest.raises(ValueError, match="nonsep twist takes no h, got h=1"):
        twist(2, "nonsep", 1)


def test_twist_separating_conjugates_first_handles():
    t = twist(2, "sep", 1)
    gamma = handle_word(2, 1)
    for i in (0, 1):
        assert t.images[i] == concat(concat(invert(gamma), generator_word(2, i)), gamma)
    for i in (2, 3):
        assert t.images[i] == generator_word(2, i)
    assert t.boundary_preserving
    with pytest.raises(ValueError):
        twist(2, "sep", 3)


@pytest.mark.parametrize("kind", sorted(TWIST_KINDS))
def test_every_twist_kind_against_its_oracles(kind):
    entry = TWIST_KINDS[kind]
    for genus in (1, 2, 3):
        ctx = AlgebraContext(genus, 2)
        n = 2 * genus
        for h in range(1, genus + 1) if entry.takes_h else (None,):
            assert parse_twist(genus, format_twist(kind, h)) == (kind, h)
            word = twist_word(genus, kind, h)
            # the class c of the curve, and x -> omega(x, c) on the basis
            c = [sum(1 - 2 * (x & 1) for x in word.letters if x >> 1 == i) for i in range(n)]
            pairing = [sum(c[k] * intersection(ctx, j, k) for k in range(n)) for j in range(n)]
            for power in (-2, -1, 1, 2):
                assert entry.letters(h) * abs(power) == len(_word_power(word, power))
                t = twist(genus, kind, h, power)
                assert apply_automorphism(t, word) == word
                assert t.boundary_preserving
                # on H, the power-th power of x -> x - omega(x, c) c
                expected = [
                    [int(i == j) - power * c[i] * pairing[j] for j in range(n)]
                    for i in range(n)
                ]
                assert homology_matrix(t) == expected, (genus, h, power)


def test_word_power_equals_repeated_concat():
    rng = random.Random(2718)
    for _ in range(20):
        # random words need not be cyclically reduced, so powers cancel at the seams
        w = random_word(rng, 2, rng.randint(0, 6))
        for p in range(-4, 5):
            expected = GroupWord(2)
            for _ in range(abs(p)):
                expected = concat(expected, w if p > 0 else invert(w))
            assert _word_power(w, p) == expected


def test_twist_powers_are_bounded_before_any_word_is_built():
    t = twist(2, "nonsep", None, -MAX_POWER_LETTERS)
    assert len(t.images[1]) == MAX_POWER_LETTERS + 1
    for kind, h, power in (
        ("nonsep", None, MAX_POWER_LETTERS + 1),
        ("nonsep", None, -(10**100)),
        ("sep", 2, -(MAX_POWER_LETTERS // 8 + 1)),  # gamma_2 has 8 letters
    ):
        with pytest.raises(ValueError, match="limit"):
            twist(2, kind, h, power)
    for h in (0, 3, None, True):
        with pytest.raises(ValueError, match="out of range"):
            twist(2, "sep", h, 1)


def test_factorizations_are_bounded_in_total_before_any_word_is_built():
    half = MAX_POWER_LETTERS // 2
    nonsep = [{"kind": "nonsep", "power": half}, {"kind": "nonsep", "power": -half}]
    assert automorphism_from_json({"genus": 2, "factorization": nonsep}) == identity_automorphism(2)
    for fact in (
        [{"kind": "nonsep", "power": half}, {"kind": "nonsep", "power": -half - 1}],
        [{"kind": "sep", "h": 1, "power": half // 4 + 1}, {"kind": "nonsep", "power": half}],
        [{"kind": "nonsep", "power": 0}] * (MAX_POWER_LETTERS + 1),  # one letter per entry
    ):
        with pytest.raises(ValueError, match="limit"):
            automorphism_from_json({"genus": 2, "factorization": fact})
    # the entries are checked before the total
    with pytest.raises(ValueError, match="out of range"):
        automorphism_from_json({"genus": 2, "factorization": [{"kind": "sep", "h": 3}]})


def test_compose_and_invert():
    rng = random.Random(321)
    phi = compose(twist(2, "sep", 1), compose(twist(2, "nonsep"), twist(2, "sep", 2)))
    inv = invert_automorphism(phi)
    for _ in range(10):
        w = random_word(rng, 2, rng.randint(0, 5))
        assert apply_automorphism(inv, apply_automorphism(phi, w)) == w
    assert compose(phi, inv) == identity_automorphism(2)
    with pytest.raises(ValueError, match="genus mismatch"):
        compose(twist(1, "nonsep"), phi)


def test_apply_automorphism_respects_words():
    # phi is a homomorphism: images of products multiply
    rng = random.Random(77)
    phi = compose(twist(2, "sep", 1), twist(2, "nonsep"))
    for _ in range(10):
        u = random_word(rng, 2, rng.randint(0, 4))
        v = random_word(rng, 2, rng.randint(0, 4))
        assert apply_automorphism(phi, concat(u, v)) == concat(
            apply_automorphism(phi, u), apply_automorphism(phi, v)
        )
    with pytest.raises(ValueError):
        apply_automorphism(phi, random_word(rng, 1, 2))


def _substitute_then_reduce(images, w):
    # the oracle: write out every image letter, then reduce once
    letters = []
    for c in w.letters:
        image = invert(images[c >> 1]) if c & 1 else images[c >> 1]
        letters.extend(image.letters)
    return GroupWord(w.genus, letters)


def _random_twist_product(rng, genus, factors):
    phi = identity_automorphism(genus)
    for _ in range(factors):
        kind = rng.choice(sorted(TWIST_KINDS))
        h = rng.randint(1, genus) if TWIST_KINDS[kind].takes_h else None
        phi = compose(phi, twist(genus, kind, h, rng.choice((-3, -2, -1, 1, 2, 3))))
    return phi


def test_apply_automorphism_matches_substitute_then_reduce():
    rng = random.Random(1307)
    for _ in range(40):
        genus = rng.randint(1, 3)
        phi = identity_automorphism(genus)
        oracle = phi.images  # the composite's images, substituted without apply_automorphism
        for _ in range(rng.randint(1, 5)):
            kind = rng.choice(sorted(TWIST_KINDS))
            h = rng.randint(1, genus) if TWIST_KINDS[kind].takes_h else None
            t = twist(genus, kind, h, rng.choice((-3, -2, -1, 1, 2, 3)))
            phi = compose(phi, t)
            oracle = tuple(_substitute_then_reduce(oracle, im) for im in t.images)
        assert phi.images == oracle
        inv = invert_automorphism(phi)
        words = [random_word(rng, genus, rng.randint(0, 12)) for _ in range(4)]
        # preimages cancel at nearly every seam, down to a short word
        words += [apply_automorphism(inv, w) for w in words]
        words += [concat(w, invert(w)) for w in words[:2]] + list(phi.images)
        for w in words:
            assert apply_automorphism(phi, w) == _substitute_then_reduce(phi.images, w)
            assert apply_automorphism(inv, w) == _substitute_then_reduce(inv.images, w)


def _leibniz_determinant(mat):
    n = len(mat)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= mat[i][perm[i]]
        total += term
    return total


def _inverse_by_twists(phi):
    """Oracle: the product of the matrices of the inverse twist powers, in
    reverse order, each distinct power built once."""
    n = 2 * phi.genus
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    steps = {}
    for kind, h, power in phi.factorization:
        if (kind, h, power) not in steps:
            steps[kind, h, power] = homology_matrix(twist(phi.genus, kind, h, -power))
        step = steps[kind, h, power]
        inv = [[sum(a * b for a, b in zip(row, col)) for col in zip(*inv)] for row in step]
    return inv


def test_homology_inverse_against_leibniz_determinant(monkeypatch):
    # oracles: the matrix of the inverse automorphism, built from its own
    # twist word, and the product of the inverse twist powers' matrices
    rng = random.Random(4242)
    products = []
    for _ in range(60):
        genus = rng.randint(1, 3)
        phi = _random_twist_product(rng, genus, rng.randint(1, 5))
        mat, inv = homology_matrix(phi), homology_inverse(phi)
        n = 2 * genus
        ctx = AlgebraContext(genus, 2)
        J = [[intersection(ctx, i, j) for j in range(n)] for i in range(n)]
        assert all(type(x) is int for row in inv for x in row)
        for i in range(n):
            for j in range(n):
                assert sum(mat[i][k] * inv[k][j] for k in range(n)) == (i == j)
                # the premise: M^T J M = J
                assert sum(
                    mat[k][i] * J[k][m] * mat[m][j] for k in range(n) for m in range(n)
                ) == J[i][j]
        assert _leibniz_determinant(mat) == 1
        assert inv == homology_matrix(invert_automorphism(phi))
        assert inv == _inverse_by_twists(phi)
        products.append((phi, inv))
    # a conjugator at the letter bound: 62 entries of sep:2, 8 letters each
    bound = automorphism_from_json(
        {"genus": 2, "factorization": [{"kind": "sep", "h": 2, "power": 1}] * 62}
    )
    assert 62 * 8 <= MAX_POWER_LETTERS
    products.append((bound, homology_inverse(bound)))
    assert products[-1][1] == _inverse_by_twists(bound)

    # the inverse on H builds no twist
    def refuse(*args, **kwargs):
        raise AssertionError("homology_inverse built a twist")

    monkeypatch.setattr(words, "twist", refuse)
    for phi, inv in products:
        assert homology_inverse(phi) == inv


def test_automorphism_json_round_trip():
    phi = compose(twist(2, "sep", 1), twist(2, "nonsep"))
    obj = automorphism_to_json(phi)
    assert automorphism_from_json(obj) == phi
    # factorization alone reconstructs the same map
    fact_only = {"genus": obj["genus"], "factorization": obj["factorization"]}
    assert automorphism_from_json(fact_only) == phi
    # images alone are refused: every automorphism is a twist word
    images_only = {"genus": obj["genus"], "images": obj["images"]}
    for bare in (images_only, dict(images_only, factorization=None)):
        with pytest.raises(ValueError, match="'factorization'"):
            automorphism_from_json(bare)


def test_automorphism_json_validation():
    phi = twist(2, "nonsep")
    obj = automorphism_to_json(phi)
    with pytest.raises(ValueError):
        automorphism_from_json({"images": []})
    with pytest.raises(ValueError):
        automorphism_from_json({"genus": 2})
    bad_kind = dict(obj, factorization=[{"kind": "twirl", "power": 1}])
    with pytest.raises(ValueError):
        automorphism_from_json(bad_kind)
    sep_no_h = dict(obj, factorization=[{"kind": "sep", "power": 1}])
    with pytest.raises(ValueError):
        automorphism_from_json(sep_no_h)
    lying = dict(obj, factorization=[{"kind": "sep", "h": 1, "power": 1}])
    with pytest.raises(ValueError, match="disagree"):
        automorphism_from_json(lying)
