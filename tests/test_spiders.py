import re
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import brute_partition_count

from esos.embed import embed_bruteforce
from esos.errors import InputError
from esos.graphs import Graph
from esos.spiders import Spider, enumerate_spiders, in_T0_family, t0


def test_enumeration_examples():
    assert [s.legs for s in enumerate_spiders(1)] == [(1,)]
    assert [s.legs for s in enumerate_spiders(4)] == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    assert sum(1 for _ in enumerate_spiders(6)) == 11
    with pytest.raises(InputError):
        list(enumerate_spiders(0))


@given(st.integers(1, 20))
def test_enumeration_count_is_partition_number(k):
    assert sum(1 for _ in enumerate_spiders(k)) == brute_partition_count(k)


def test_edge_count_is_stored_and_unseen_by_equality():
    T = Spider((3, 2, 2))
    assert T.k == 7 and Spider(()).k == 0
    assert repr(T) == "Spider(legs=(3, 2, 2))" and str(T) == "3,2,2"
    assert T == Spider.from_lengths([2, 3, 2]) and hash(T) == hash(Spider((3, 2, 2)))
    assert T != Spider((3, 3, 1)) and T.to_json() == [3, 2, 2]
    with pytest.raises(TypeError):
        Spider((1,), k=5)
    with pytest.raises(FrozenInstanceError):
        T.k = 1


def test_canonical_form_enforced():
    with pytest.raises(InputError):
        Spider((1, 2))
    with pytest.raises(InputError):
        Spider((2, 0))
    assert Spider.from_lengths([1, 3, 2]).legs == (3, 2, 1)
    assert Spider.parse("3,2,1").legs == (3, 2, 1)
    with pytest.raises(InputError):
        Spider.parse("a,b")


def test_list_legs_make_the_same_hashable_spider():
    # list legs are taken as a tuple, so the spider hashes and equals t0(4);
    # the positivity message still comes before the ordering one
    T = Spider([2, 2])
    assert T.legs == (2, 2) and T == t0(4) and hash(T) == hash(t0(4))
    assert {T: 1}[t0(4)] == 1
    with pytest.raises(InputError, match="positive"):
        Spider([0, 1])
    with pytest.raises(InputError, match="non-increasing"):
        Spider([1, 2])


@pytest.mark.parametrize("legs", [(2.5, 1), (2, 1.0), (True,), (2, True), ("2",)])
def test_non_integer_legs_are_input_errors(legs):
    # a float leg summed to k = 3.5, and a bool leg printed as JSON true;
    # the type is checked before any other check
    bad = next(leg for leg in legs if type(leg) is not int)
    text = f"leg length {bad!r} is not an integer"
    with pytest.raises(InputError, match=f"^{re.escape(text)}$"):
        Spider(legs)


@pytest.mark.parametrize("k", [4.0, True], ids=["float", "bool"])
def test_a_non_integer_k_is_an_input_error(k):
    with pytest.raises(InputError, match=f"^k {k} is not an integer$"):
        list(enumerate_spiders(k))
    with pytest.raises(InputError, match="^t0 needs a positive even k$"):
        t0(k)


def test_embedding_a_float_legged_spider_fails_at_the_spider():
    # the spider is refused before the oracle sees a leg it cannot place
    with pytest.raises(InputError, match=r"^leg length 2\.5 is not an integer$"):
        embed_bruteforce(Graph.complete(6), Spider((2.5, 1)))


def test_T0_family_examples():
    assert in_T0_family(Spider((2, 2)))
    assert not in_T0_family(Spider((2, 1, 1)))
    assert in_T0_family(Spider((4, 2)))


def test_t0_examples():
    assert t0(2).legs == (2,)
    assert t0(6).legs == (2, 2, 2)
    with pytest.raises(InputError):
        t0(3)


@given(st.integers(1, 10))
def test_t0_lies_in_the_family(half):
    assert in_T0_family(t0(2 * half))

