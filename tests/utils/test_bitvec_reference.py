"""``BitVector`` against a Python ``set`` of its set-bit indices.

Random sequences of mutations run on two vectors and two sets side by
side; after every step every query, and every boolean combination of the
two vectors, must agree with the sets.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.bitvec import BitVector

MUTATIONS = ("set", "clear", "set_many", "clear_many", "zero", "fill", "load_from")


def _agrees(vec, ref, size):
    assert vec.popcount() == len(ref)
    assert vec.to_indices().tolist() == sorted(ref)
    assert vec.to_bool_array().tolist() == [i in ref for i in range(size)]
    assert list(vec) == [i in ref for i in range(size)]
    for i in range(size):
        assert vec.test(i) == (i in ref)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_bit_vector_matches_a_set(data):
    size = data.draw(st.integers(1, 150))
    index = st.integers(0, size - 1)
    vecs = [BitVector(size), BitVector(size)]
    refs = [set(), set()]
    for _ in range(data.draw(st.integers(1, 20))):
        which = data.draw(st.integers(0, 1))
        vec, ref = vecs[which], refs[which]
        op = data.draw(st.sampled_from(MUTATIONS))
        if op == "set":
            i = data.draw(index)
            vec.set(i)
            ref.add(i)
        elif op == "clear":
            i = data.draw(index)
            vec.clear(i)
            ref.discard(i)
        elif op in ("set_many", "clear_many"):
            many = data.draw(st.lists(index, max_size=40))
            getattr(vec, op)(np.asarray(many, dtype=np.int64))
            if op == "set_many":
                ref.update(many)
            else:
                ref.difference_update(many)
        elif op == "zero":
            vec.zero()
            ref.clear()
        elif op == "fill":
            vec.fill()
            ref.update(range(size))
        else:
            vec.load_from(vecs[1 - which])
            refs[which] = ref = set(refs[1 - which])

        (a, b), (ra, rb) = vecs, refs
        _agrees(a, ra, size)
        _agrees(b, rb, size)
        _agrees(a & b, ra & rb, size)
        _agrees(a | b, ra | rb, size)
        _agrees(a ^ b, ra ^ rb, size)
        _agrees(~a, set(range(size)) - ra, size)
        _agrees(a.andnot(b), ra - rb, size)
        _agrees(a.copy(), ra, size)
        assert a.and_popcount(b) == len(ra & rb)
        assert a.xor_popcount(b) == len(ra ^ rb)
        assert (a == b) == (ra == rb)
        probe = data.draw(st.lists(index, max_size=10))
        assert a.test_many(np.asarray(probe, dtype=np.int64)).tolist() == [
            i in ra for i in probe
        ]


def test_copies_and_combinations_do_not_alias():
    a = BitVector.from_indices(10, [1, 2])
    b = BitVector.from_indices(10, [2, 3])
    derived = [a.copy(), a & b, a | b, a ^ b, ~a, a.andnot(b)]
    before = [d.to_indices().tolist() for d in derived]
    a.fill()
    b.zero()
    assert [d.to_indices().tolist() for d in derived] == before
    assert a.to_bool_array().all()
    flags = a.to_bool_array()
    flags[:] = False
    assert a.popcount() == 10
