"""Free-group words, adapted Dehn twists, and automorphism serialization."""

import itertools
import random

import pytest

from twistlog.words import (
    MAX_POWER_LETTERS,
    FreeAutomorphism,
    GroupWord,
    apply_automorphism,
    automorphism_from_json,
    automorphism_to_json,
    boundary_word,
    commutator,
    compose,
    concat,
    conjugate,
    gen_name,
    generator_word,
    handle_word,
    homology_inverse,
    homology_matrix,
    identity_automorphism,
    invert,
    invert_automorphism,
    _twist_power,
    _word_power,
    twist_nonseparating,
    twist_separating,
    word_from_string,
    word_to_string,
)


def random_word(rng, genus, length):
    return GroupWord(
        genus, [(rng.randrange(2 * genus), rng.choice((1, -1))) for _ in range(length)]
    )


def test_gen_names():
    assert [gen_name(i) for i in range(4)] == ["a1", "b1", "a2", "b2"]


def test_parse_print_round_trip():
    w = word_from_string(2, "a1 b1 A2 B1")
    assert w.letters == ((0, 1), (1, 1), (2, -1), (1, -1))
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
    with pytest.raises(ValueError):
        GroupWord(1, [(5, 1)])
    with pytest.raises(ValueError):
        GroupWord(1, [(0, 2)])


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
    t = twist_nonseparating(2)
    assert word_to_string(t.images[1]) == "b1 a1"
    for i in (0, 2, 3):
        assert t.images[i] == generator_word(2, i)
    assert t.boundary_preserving


def test_twist_separating_conjugates_first_handles():
    t = twist_separating(2, 1)
    gamma = handle_word(2, 1)
    for i in (0, 1):
        assert t.images[i] == concat(concat(invert(gamma), generator_word(2, i)), gamma)
    for i in (2, 3):
        assert t.images[i] == generator_word(2, i)
    assert t.boundary_preserving
    with pytest.raises(ValueError):
        twist_separating(2, 3)


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
    t = _twist_power(2, "nonsep", None, -MAX_POWER_LETTERS)
    assert len(t.images[1]) == MAX_POWER_LETTERS + 1
    for kind, h, power in (
        ("nonsep", None, MAX_POWER_LETTERS + 1),
        ("nonsep", None, -(10**100)),
        ("sep", 2, -(MAX_POWER_LETTERS // 8 + 1)),  # gamma_2 has 8 letters
    ):
        with pytest.raises(ValueError, match="limit"):
            _twist_power(2, kind, h, power)
    for h in (0, 3, None, True):
        with pytest.raises(ValueError, match="out of range"):
            _twist_power(2, "sep", h, 1)


def test_compose_and_invert():
    rng = random.Random(321)
    phi = compose(twist_separating(2, 1), compose(twist_nonseparating(2), twist_separating(2, 2)))
    inv = invert_automorphism(phi)
    for _ in range(10):
        w = random_word(rng, 2, rng.randint(0, 5))
        assert apply_automorphism(inv, apply_automorphism(phi, w)) == w
    assert compose(phi, inv) == identity_automorphism(2)


def test_invert_requires_factorization():
    t = twist_nonseparating(1)
    bare = FreeAutomorphism(1, t.images)  # same map, factorization dropped
    with pytest.raises(ValueError):
        invert_automorphism(bare)


def test_apply_automorphism_respects_words():
    # phi is a homomorphism: images of products multiply
    rng = random.Random(77)
    phi = compose(twist_separating(2, 1), twist_nonseparating(2))
    for _ in range(10):
        u = random_word(rng, 2, rng.randint(0, 4))
        v = random_word(rng, 2, rng.randint(0, 4))
        assert apply_automorphism(phi, concat(u, v)) == concat(
            apply_automorphism(phi, u), apply_automorphism(phi, v)
        )
    with pytest.raises(ValueError):
        apply_automorphism(phi, random_word(rng, 1, 2))


def test_singular_images_rejected():
    a1 = generator_word(1, 0)
    with pytest.raises(ValueError, match="singular"):
        FreeAutomorphism(1, [a1, a1])
    with pytest.raises(ValueError):
        FreeAutomorphism(1, [a1])


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


def test_homology_inverse_against_leibniz_determinant():
    # images drawn from short random words, so that singular, unimodular and
    # non-unimodular matrices all occur
    rng = random.Random(4242)
    seen = set()
    for _ in range(300):
        genus = rng.choice((1, 2))
        images = [random_word(rng, genus, rng.randint(0, 3)) for _ in range(2 * genus)]
        n = 2 * genus
        mat = [[0] * n for _ in range(n)]
        for j, image in enumerate(images):
            for gen, sign in image.letters:
                mat[gen][j] += sign
        det = _leibniz_determinant(mat)
        seen.add("singular" if det == 0 else "unimodular" if abs(det) == 1 else "other")
        if det == 0:
            with pytest.raises(ValueError, match="singular"):
                FreeAutomorphism(genus, images)
            continue
        phi = FreeAutomorphism(genus, images)
        assert homology_matrix(phi) == mat
        inv = homology_inverse(phi)
        for i in range(n):
            for j in range(n):
                assert sum(mat[i][k] * inv[k][j] for k in range(n)) == (i == j)
    assert seen == {"singular", "unimodular", "other"}


def test_automorphism_json_round_trip():
    phi = compose(twist_separating(2, 1), twist_nonseparating(2))
    obj = automorphism_to_json(phi)
    assert automorphism_from_json(obj) == phi
    # factorization alone reconstructs the same map
    fact_only = {"genus": obj["genus"], "factorization": obj["factorization"]}
    assert automorphism_from_json(fact_only) == phi
    # images alone work too
    images_only = {"genus": obj["genus"], "images": obj["images"]}
    rebuilt = automorphism_from_json(images_only)
    assert rebuilt == phi
    assert rebuilt.factorization is None


def test_automorphism_json_validation():
    phi = twist_nonseparating(2)
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
