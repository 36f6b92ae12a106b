"""Cyclic operators nu, N and the necklace bracket with its oracle."""

import random
import sys
import threading

import pytest

from twistlog import cyclic
from twistlog.cyclic import cyclic_n, is_nu_invariant, necklace_bracket, nu, orbits
from twistlog.derivation import commutator, from_tensor
from twistlog.expansion import build_symplectic
from twistlog.johnson import l_invariant_tensor
from twistlog.rationals import Rat
from twistlog.tensor import (
    AlgebraContext,
    basis_tensor,
    decode_monomial,
    encode_monomial,
    one_tensor,
    symplectic_form,
    zero_tensor,
)
from twistlog.words import GroupWord

from algebra_tools import monomial_tensor


def random_nu_invariant(rng, ctx, degree):
    acc = zero_tensor(ctx)
    for _ in range(rng.randint(1, 2)):
        mono = tuple(rng.randrange(ctx.dim) for _ in range(degree))
        acc = acc + monomial_tensor(ctx, mono, Rat(rng.randint(-3, 3), rng.randint(1, 3)))
    return cyclic_n(acc)


def test_nu_rotates():
    ctx = AlgebraContext(1, 4)
    t = monomial_tensor(ctx, (0, 1, 1), Rat(3))
    assert nu(t) == monomial_tensor(ctx, (1, 1, 0), Rat(3))
    # degrees 0 and 1 are fixed
    low = one_tensor(ctx) + basis_tensor(ctx, 0)
    assert nu(low) == low
    assert nu(nu(nu(t))) == t


def test_cyclic_n_sums_rotations():
    ctx = AlgebraContext(1, 4)
    ab = monomial_tensor(ctx, (0, 1))
    assert cyclic_n(ab) == ab + monomial_tensor(ctx, (1, 0))
    # degree 0 dies, a full rotation class collapses with multiplicity
    assert cyclic_n(one_tensor(ctx)) == 0
    aa = monomial_tensor(ctx, (0, 0))
    assert cyclic_n(aa) == aa.scale(2)


def test_is_nu_invariant():
    ctx = AlgebraContext(1, 3)
    assert is_nu_invariant(cyclic_n(monomial_tensor(ctx, (0, 1, 1))))
    assert not is_nu_invariant(monomial_tensor(ctx, (0, 1)))
    # omega is nu-ANTI-invariant: rotation swaps AB and BA
    assert nu(symplectic_form(ctx)) == -symplectic_form(ctx)


def test_necklace_bracket_small_example():
    ctx = AlgebraContext(1, 5)
    u = cyclic_n(monomial_tensor(ctx, (0, 1)))  # A1B1 + B1A1
    v = cyclic_n(monomial_tensor(ctx, (1,)))  # B1
    assert necklace_bracket(u, v) == -basis_tensor(ctx, 1)


def test_necklace_bracket_validation():
    ctx = AlgebraContext(1, 4)
    good = cyclic_n(monomial_tensor(ctx, (0, 1)))
    with pytest.raises(ValueError):
        necklace_bracket(monomial_tensor(ctx, (0, 1)), good)
    with pytest.raises(ValueError):
        necklace_bracket(good, one_tensor(ctx) + good)
    other = cyclic_n(monomial_tensor(AlgebraContext(1, 3), (0, 1)))
    with pytest.raises(ValueError):
        necklace_bracket(good, other)


def test_necklace_bracket_equals_derivation_commutator():
    # dual-route check: the cyclic double-sum formula against the honest
    # commutator of the named derivations
    rng = random.Random(60611)
    checked = 0
    while checked < 30:
        genus = rng.choice((1, 2))
        ctx = AlgebraContext(genus, 5)
        du = rng.randint(1, 4)
        dv = rng.randint(1, 5 - du)
        u = random_nu_invariant(rng, ctx, du)
        v = random_nu_invariant(rng, ctx, dv)
        if not u or not v:
            continue
        assert from_tensor(necklace_bracket(u, v)) == commutator(
            from_tensor(u), from_tensor(v)
        )
        checked += 1


def test_necklace_bracket_antisymmetry():
    rng = random.Random(424242)
    ctx = AlgebraContext(2, 5)
    for _ in range(10):
        u = random_nu_invariant(rng, ctx, rng.randint(2, 3))
        v = random_nu_invariant(rng, ctx, rng.randint(1, 2))
        assert necklace_bracket(u, v) == -necklace_bracket(v, u)


# -- orbit slots ----------------------------------------------------------------


def _rotation_set(x, p, dim):
    """The codes of every rotation of code x, from its letters."""
    mono = decode_monomial(x, p, dim)
    return {encode_monomial(mono[k:] + mono[:k], dim) for k in range(p)}


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_every_orbit_slot_holds_the_least_code_of_its_rotation_set(dim):
    # each orbit is walked from whichever member comes first in a shuffled
    # order, not always from its least code
    rng = random.Random(dim)
    cyclic._ORBITS.clear()
    for p in range(1, 7):
        table = orbits(dim, p)
        assert orbits(dim, p) is table
        codes = list(range(dim**p))
        rng.shuffle(codes)
        for x in codes:
            if table.slots[x] is None:
                table.fill(x)
        for x in range(dim**p):
            rotations = _rotation_set(x, p, dim)
            least = table.slots[x]
            assert least == min(rotations)
            members = table.members[least]
            assert members[0] == least
            assert len(members) == len(rotations) and set(members) == rotations
            assert p % len(members) == 0
        assert len(table.members) == len({table.slots[x] for x in range(dim**p)})


def test_concurrent_callers_fill_the_same_slots_to_the_same_results():
    theta = build_symplectic(2, 4)
    rng = random.Random(2718)
    words = [
        GroupWord(
            2, [2 * rng.randrange(4) + (rng.choice((1, -1)) < 0) for _ in range(rng.randint(1, 6))]
        )
        for _ in range(20)
    ]
    expected = [l_invariant_tensor(theta, w) for w in words]
    cyclic._ORBITS.clear()
    threads, results = 4, {}
    start = threading.Barrier(threads)

    def work(k):
        order = list(range(len(words)))
        random.Random(k).shuffle(order)
        start.wait()
        results[k] = {i: l_invariant_tensor(theta, words[i]) for i in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(k,)) for k in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert sorted(results) == list(range(threads))
    for got in results.values():
        assert [got[i] for i in range(len(words))] == expected
    for (dim, p), table in cyclic._ORBITS.items():
        for x, least in enumerate(table.slots):
            if least is not None:
                assert least == min(_rotation_set(x, p, dim))
                assert x in table.members[least]
