import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lpq import (
    DegenerateInstance,
    LabelOutOfRange,
    MarkedSetTooLarge,
    OracleHandle,
    OverflowsLabelSpace,
    PeriodTooLarge,
    build_oracle,
)
from reference import members


def test_build_oracle_example():
    spec = build_oracle(16, 3, 4, 1)
    assert members(spec) == [1, 5, 9]
    # strict: p*p <= n and 2*m <= n, the regime all bounds assume
    assert spec.p * spec.p <= spec.n and 2 * spec.m <= spec.n


def test_strict_period_rejected():
    with pytest.raises(PeriodTooLarge):
        build_oracle(16, 3, 5, 0)
    # the same instance is fine outside strict mode
    assert members(build_oracle(16, 3, 5, 0, strict=False)) == [0, 5, 10]


def test_overflow_rejected():
    with pytest.raises(OverflowsLabelSpace):
        build_oracle(16, 4, 4, 4, strict=False)


@pytest.mark.parametrize("s", [-1, 16])
def test_offset_outside_labels_rejected(s):
    with pytest.raises(OverflowsLabelSpace, match=f"offset {s} outside 0..15"):
        build_oracle(16, 1, 1, s)


def test_degenerate_rejected():
    with pytest.raises(DegenerateInstance):
        build_oracle(16, 0, 4, 1)
    with pytest.raises(DegenerateInstance):
        build_oracle(0, 1, 1, 0)
    with pytest.raises(DegenerateInstance):
        build_oracle(16, 3, 0, 1)


def test_strict_marked_set_rejected():
    with pytest.raises(MarkedSetTooLarge):
        build_oracle(16, 9, 1, 0)
    assert build_oracle(16, 9, 1, 0, strict=False).m == 9


@pytest.mark.parametrize(
    "x,expected",
    [(5, 1), (13, 0), (2, 0), (1, 1), (9, 1), (0, 0), (15, 0)],
)
def test_evaluate(x, expected):
    # the handle agrees with the spec's member list
    spec = build_oracle(16, 3, 4, 1)
    handle = OracleHandle(spec)
    assert members(spec) == [1, 5, 9]
    assert handle(x) == int(x in members(spec)) == expected
    assert handle.query_count == 1


def test_evaluate_out_of_range():
    handle = OracleHandle(build_oracle(16, 3, 4, 1))
    with pytest.raises(LabelOutOfRange):
        handle(16)
    with pytest.raises(LabelOutOfRange):
        handle(-1)
    assert handle.query_count == 0  # a rejected label is not a query


@pytest.mark.parametrize(
    "args,expected",
    [
        ((16, 3, 4, 1), [1, 5, 9]),
        ((10, 1, 1, 7), [7]),
        ((32, 4, 5, 2), [2, 7, 12, 17]),
    ],
)
def test_members(args, expected):
    assert members(build_oracle(*args)) == expected


def test_query_counter():
    handle = OracleHandle(build_oracle(16, 3, 4, 1))
    for x in range(16):
        handle(x)
    assert handle.query_count == 16


@given(st.integers(2, 512))
def test_membership_matches_members_exhaustively(n):
    # one deterministic instance per n, checked on every label
    p = max(1, int(n**0.5) - 1)
    m = max(1, min(n // 2, (n - 1) // p))
    spec = build_oracle(n, m, p, 0)
    handle = OracleHandle(spec)
    marked = set(members(spec))
    assert len(marked) == m
    for x in range(n):
        assert handle(x) == (1 if x in marked else 0)


def test_member_gaps_are_exactly_p():
    spec = build_oracle(143, 5, 11, 7)
    ms = members(spec)
    assert all(b - a == 11 for a, b in zip(ms, ms[1:]))


def test_json_round_trip():
    # a spec is its four fields, so it rebuilds from their JSON
    spec = build_oracle(16, 3, 4, 1)
    text = json.dumps(dataclasses.asdict(spec))
    assert text == '{"n": 16, "m": 3, "p": 4, "s": 1}'
    assert build_oracle(**json.loads(text)) == spec



class TestQueryMany:
    """``OracleHandle.probe`` on a batch of labels."""

    @pytest.mark.parametrize("n", [1, 2, 7, 16, 33, 40])
    def test_equals_probe_on_every_label(self, n):
        # every valid instance at this n, every label in -3..n+2, as one batch
        labels = list(range(-3, n + 3))
        for p in range(1, n + 1):
            for m in range(1, (n - 1) // p + 2):
                for s in range(0, n - (m - 1) * p):
                    spec = build_oracle(n, m, p, s, strict=False)
                    batched, scalar = OracleHandle(spec), OracleHandle(spec)
                    got = batched.probe(labels)
                    assert got.dtype == np.int8
                    assert got.tolist() == [scalar.probe(x) for x in labels]
                    assert batched.query_count == scalar.query_count == n

    def test_charges_exactly_the_in_range_labels(self):
        handle = OracleHandle(build_oracle(16, 3, 4, 1))
        handle.probe([5, 5, -1, 16, 0, 15, 1 << 40])
        assert handle.query_count == 4  # repeats are charged; out-of-range labels are not
        handle(9)
        assert handle.query_count == 5
        handle.probe(np.arange(-16, 32, dtype=np.int64))
        assert handle.query_count == 21

    def test_empty(self):
        handle = OracleHandle(build_oracle(16, 3, 4, 1))
        for xs in ([], np.empty(0, dtype=np.int64)):
            got = handle.probe(xs)
            assert got.dtype == np.int8 and got.shape == (0,)
        assert handle.query_count == 0

    def test_labels_near_2_62(self):
        n = (1 << 62) + 5
        spec = build_oracle(n, 4, 1 << 20, n - 1 - 3 * (1 << 20))
        handle = OracleHandle(spec)
        top = members(spec)[-1]
        labels = [top, top - (1 << 20), top - 1, top + 1, n - 1, n, n + 1, 1 << 62, -(1 << 62),
                  (1 << 63) - 1, -(1 << 63), spec.s, spec.s - (1 << 20)]
        got = handle.probe(np.array(labels, dtype=np.int64))
        assert got.tolist() == [int(x in members(spec)) for x in labels]
        assert handle.query_count == sum(0 <= x < n for x in labels)
