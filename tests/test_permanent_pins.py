"""Permanents, witnesses and decisions pinned to recorded values.

The values in ``PINNED`` and ``CLI_PINNED`` were recorded with the
field-arithmetic Ryser kernel that preceded the integer Glynn kernel, on
the seeded inputs built below.  A kernel change must reproduce them exactly:
the same permanents, the same lexicographically first witnesses, the same
``prk <= k`` answers and the same CLI bytes, with values over Q in lowest
terms.
"""

import json
import random
from fractions import Fraction

import pytest

from permrank import QQ, PrimeField, mat, matrix_to_json, per_fast, prk, prk_decide_leq
from permrank.cli import main

F3, F5, FW = PrimeField(3), PrimeField(5), PrimeField(2**31 - 1)


def _scalar(rng, field, nonzero=False):
    while True:
        if field == QQ:
            v = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        else:
            v = rng.randrange(field.p)
        if v or not nonzero:
            return v


def _dense(rng, n, field, zero_row=None):
    rows = [[_scalar(rng, field) for _ in range(n)] for _ in range(n)]
    if zero_row is not None:
        rows[zero_row] = [0] * n
    return mat(rows, field)


def _row_scaled(rng, n, k, field, style):
    """Only k rows are nonzero (``row``: whole rows, ``block``: a k x k block),
    then rows and columns are permuted and every row is scaled by a nonzero
    scalar, so the permanental rank is at most k."""
    width = n if style == "row" else k
    rows = [[_scalar(rng, field) for _ in range(width)] + [0] * (n - width) for _ in range(k)]
    rows += [[0] * n for _ in range(n - k)]
    row_order = rng.sample(range(n), n)
    col_order = rng.sample(range(n), n)
    scales = [_scalar(rng, field, nonzero=True) for _ in range(n)]
    return mat(
        [[scales[i] * rows[row_order[i]][col_order[j]] for j in range(n)] for i in range(n)],
        field,
    )


def pinned_cases():
    """``(name, matrix)`` pairs, each drawn from its own seed."""
    out = []
    for field, tag in ((QQ, "Q"), (F3, "F3"), (F5, "F5"), (FW, "Fw")):
        for n in range(1, 7):
            out.append((f"{tag}-dense-{n}", _dense(random.Random(f"{tag}:dense:{n}"), n, field)))
        out.append((f"{tag}-zero-row", _dense(random.Random(f"{tag}:zero-row"), 5, field, zero_row=2)))
        for n, k, style in ((5, 2, "row"), (5, 3, "block"), (6, 2, "block"), (6, 4, "row")):
            rng = random.Random(f"{tag}:{style}:{n}:{k}")
            out.append((f"{tag}-{style}-{n}-{k}", _row_scaled(rng, n, k, field, style)))
    return out


def record(a):
    """Everything pinned about one matrix: per, the prk witness, prk <= k."""
    w = prk(a)
    return {
        "per": str(per_fast(a)),
        "prk": [w.rank, list(w.row_set), list(w.col_set), str(w.per_value)],
        "leq": [prk_decide_leq(a, k) for k in range(a.rows + 1)],
    }


def cli_record(a, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix_to_json(a)))
    out = []
    for args in (["per", str(path), "--json"], ["prk", str(path), "--witness", "--json"]):
        assert main(args) == 0
        out.append(capsys.readouterr().out)
    return out


PINNED = {
    'Q-dense-1': {'per': '1', 'prk': [1, [1], [1], '1'], 'leq': [False, True]},
    'Q-dense-2': {'per': '15/4', 'prk': [2, [1, 2], [1, 2], '15/4'], 'leq': [False, False, True]},
    'Q-dense-3': {'per': '-77/24', 'prk': [3, [1, 2, 3], [1, 2, 3], '-77/24'], 'leq': [False, False, False, True]},
    'Q-dense-4': {'per': '-1051/64', 'prk': [4, [1, 2, 3, 4], [1, 2, 3, 4], '-1051/64'], 'leq': [False, False, False, False, True]},
    'Q-dense-5': {'per': '-1514789/6912', 'prk': [5, [1, 2, 3, 4, 5], [1, 2, 3, 4, 5], '-1514789/6912'], 'leq': [False, False, False, False, False, True]},
    'Q-dense-6': {'per': '998349/2048', 'prk': [6, [1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6], '998349/2048'], 'leq': [False, False, False, False, False, False, True]},
    'Q-zero-row': {'per': '0', 'prk': [4, [1, 2, 4, 5], [1, 2, 3, 4], '-6737/144'], 'leq': [False, False, False, False, True, True]},
    'Q-row-5-2': {'per': '0', 'prk': [2, [4, 5], [1, 2], '-72'], 'leq': [False, False, True, True, True, True]},
    'Q-block-5-3': {'per': '0', 'prk': [3, [1, 2, 3], [2, 3, 5], '5/4'], 'leq': [False, False, False, True, True, True]},
    'Q-block-6-2': {'per': '0', 'prk': [2, [1, 2], [3, 4], '-5'], 'leq': [False, False, True, True, True, True, True]},
    'Q-row-6-4': {'per': '0', 'prk': [4, [1, 2, 4, 5], [1, 2, 3, 4], '-341/864'], 'leq': [False, False, False, False, True, True, True]},
    'F3-dense-1': {'per': '2', 'prk': [1, [1], [1], '2'], 'leq': [False, True]},
    'F3-dense-2': {'per': '1', 'prk': [2, [1, 2], [1, 2], '1'], 'leq': [False, False, True]},
    'F3-dense-3': {'per': '1', 'prk': [3, [1, 2, 3], [1, 2, 3], '1'], 'leq': [False, False, False, True]},
    'F3-dense-4': {'per': '1', 'prk': [4, [1, 2, 3, 4], [1, 2, 3, 4], '1'], 'leq': [False, False, False, False, True]},
    'F3-dense-5': {'per': '0', 'prk': [4, [1, 2, 3, 4], [1, 2, 3, 4], '2'], 'leq': [False, False, False, False, True, True]},
    'F3-dense-6': {'per': '0', 'prk': [5, [1, 2, 3, 4, 5], [1, 2, 3, 4, 5], '1'], 'leq': [False, False, False, False, False, True, True]},
    'F3-zero-row': {'per': '0', 'prk': [4, [1, 2, 4, 5], [1, 2, 3, 4], '2'], 'leq': [False, False, False, False, True, True]},
    'F3-row-5-2': {'per': '0', 'prk': [2, [3, 4], [2, 5], '2'], 'leq': [False, False, True, True, True, True]},
    'F3-block-5-3': {'per': '0', 'prk': [3, [3, 4, 5], [1, 2, 4], '1'], 'leq': [False, False, False, True, True, True]},
    'F3-block-6-2': {'per': '0', 'prk': [1, [2], [6], '2'], 'leq': [False, True, True, True, True, True, True]},
    'F3-row-6-4': {'per': '0', 'prk': [4, [1, 2, 4, 5], [1, 2, 3, 4], '1'], 'leq': [False, False, False, False, True, True, True]},
    'F5-dense-1': {'per': '2', 'prk': [1, [1], [1], '2'], 'leq': [False, True]},
    'F5-dense-2': {'per': '0', 'prk': [1, [1], [2], '3'], 'leq': [False, True, True]},
    'F5-dense-3': {'per': '1', 'prk': [3, [1, 2, 3], [1, 2, 3], '1'], 'leq': [False, False, False, True]},
    'F5-dense-4': {'per': '2', 'prk': [4, [1, 2, 3, 4], [1, 2, 3, 4], '2'], 'leq': [False, False, False, False, True]},
    'F5-dense-5': {'per': '0', 'prk': [4, [1, 2, 3, 4], [1, 2, 3, 4], '1'], 'leq': [False, False, False, False, True, True]},
    'F5-dense-6': {'per': '3', 'prk': [6, [1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6], '3'], 'leq': [False, False, False, False, False, False, True]},
    'F5-zero-row': {'per': '0', 'prk': [4, [1, 2, 4, 5], [1, 2, 3, 4], '2'], 'leq': [False, False, False, False, True, True]},
    'F5-row-5-2': {'per': '0', 'prk': [2, [1, 2], [1, 3], '4'], 'leq': [False, False, True, True, True, True]},
    'F5-block-5-3': {'per': '0', 'prk': [3, [1, 4, 5], [1, 2, 4], '2'], 'leq': [False, False, False, True, True, True]},
    'F5-block-6-2': {'per': '0', 'prk': [2, [1, 3], [1, 3], '2'], 'leq': [False, False, True, True, True, True, True]},
    'F5-row-6-4': {'per': '0', 'prk': [4, [1, 3, 4, 6], [1, 2, 3, 4], '1'], 'leq': [False, False, False, False, True, True, True]},
    'Fw-dense-1': {'per': '411283602', 'prk': [1, [1], [1], '411283602'], 'leq': [False, True]},
    'Fw-dense-2': {'per': '496927912', 'prk': [2, [1, 2], [1, 2], '496927912'], 'leq': [False, False, True]},
    'Fw-dense-3': {'per': '2094411515', 'prk': [3, [1, 2, 3], [1, 2, 3], '2094411515'], 'leq': [False, False, False, True]},
    'Fw-dense-4': {'per': '299027343', 'prk': [4, [1, 2, 3, 4], [1, 2, 3, 4], '299027343'], 'leq': [False, False, False, False, True]},
    'Fw-dense-5': {'per': '2029796463', 'prk': [5, [1, 2, 3, 4, 5], [1, 2, 3, 4, 5], '2029796463'], 'leq': [False, False, False, False, False, True]},
    'Fw-dense-6': {'per': '1732762195', 'prk': [6, [1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6], '1732762195'], 'leq': [False, False, False, False, False, False, True]},
    'Fw-zero-row': {'per': '0', 'prk': [4, [1, 2, 4, 5], [1, 2, 3, 4], '208462153'], 'leq': [False, False, False, False, True, True]},
    'Fw-row-5-2': {'per': '0', 'prk': [2, [2, 5], [1, 2], '1479938526'], 'leq': [False, False, True, True, True, True]},
    'Fw-block-5-3': {'per': '0', 'prk': [3, [1, 2, 5], [1, 2, 4], '1097172992'], 'leq': [False, False, False, True, True, True]},
    'Fw-block-6-2': {'per': '0', 'prk': [2, [2, 3], [4, 5], '234123701'], 'leq': [False, False, True, True, True, True, True]},
    'Fw-row-6-4': {'per': '0', 'prk': [4, [1, 3, 4, 5], [1, 2, 3, 4], '1157557642'], 'leq': [False, False, False, False, True, True, True]},
}

CLI_PINNED = {
    'Q-dense-5': ['{\n  "per": "-1514789/6912"\n}\n', '{\n  "rank": 5,\n  "I": [\n    1,\n    2,\n    3,\n    4,\n    5\n  ],\n  "J": [\n    1,\n    2,\n    3,\n    4,\n    5\n  ]\n}\n'],
    'Q-dense-6': ['{\n  "per": "998349/2048"\n}\n', '{\n  "rank": 6,\n  "I": [\n    1,\n    2,\n    3,\n    4,\n    5,\n    6\n  ],\n  "J": [\n    1,\n    2,\n    3,\n    4,\n    5,\n    6\n  ]\n}\n'],
    'Q-zero-row': ['{\n  "per": "0"\n}\n', '{\n  "rank": 4,\n  "I": [\n    1,\n    2,\n    4,\n    5\n  ],\n  "J": [\n    1,\n    2,\n    3,\n    4\n  ]\n}\n'],
    'Q-block-6-2': ['{\n  "per": "0"\n}\n', '{\n  "rank": 2,\n  "I": [\n    1,\n    2\n  ],\n  "J": [\n    3,\n    4\n  ]\n}\n'],
    'Q-row-6-4': ['{\n  "per": "0"\n}\n', '{\n  "rank": 4,\n  "I": [\n    1,\n    2,\n    4,\n    5\n  ],\n  "J": [\n    1,\n    2,\n    3,\n    4\n  ]\n}\n'],
    'F3-dense-5': ['{\n  "per": "0"\n}\n', '{\n  "rank": 4,\n  "I": [\n    1,\n    2,\n    3,\n    4\n  ],\n  "J": [\n    1,\n    2,\n    3,\n    4\n  ]\n}\n'],
    'F3-dense-6': ['{\n  "per": "0"\n}\n', '{\n  "rank": 5,\n  "I": [\n    1,\n    2,\n    3,\n    4,\n    5\n  ],\n  "J": [\n    1,\n    2,\n    3,\n    4,\n    5\n  ]\n}\n'],
    'F3-zero-row': ['{\n  "per": "0"\n}\n', '{\n  "rank": 4,\n  "I": [\n    1,\n    2,\n    4,\n    5\n  ],\n  "J": [\n    1,\n    2,\n    3,\n    4\n  ]\n}\n'],
    'F3-block-6-2': ['{\n  "per": "0"\n}\n', '{\n  "rank": 1,\n  "I": [\n    2\n  ],\n  "J": [\n    6\n  ]\n}\n'],
    'F3-row-6-4': ['{\n  "per": "0"\n}\n', '{\n  "rank": 4,\n  "I": [\n    1,\n    2,\n    4,\n    5\n  ],\n  "J": [\n    1,\n    2,\n    3,\n    4\n  ]\n}\n'],
    'F5-dense-5': ['{\n  "per": "0"\n}\n', '{\n  "rank": 4,\n  "I": [\n    1,\n    2,\n    3,\n    4\n  ],\n  "J": [\n    1,\n    2,\n    3,\n    4\n  ]\n}\n'],
    'F5-dense-6': ['{\n  "per": "3"\n}\n', '{\n  "rank": 6,\n  "I": [\n    1,\n    2,\n    3,\n    4,\n    5,\n    6\n  ],\n  "J": [\n    1,\n    2,\n    3,\n    4,\n    5,\n    6\n  ]\n}\n'],
    'F5-zero-row': ['{\n  "per": "0"\n}\n', '{\n  "rank": 4,\n  "I": [\n    1,\n    2,\n    4,\n    5\n  ],\n  "J": [\n    1,\n    2,\n    3,\n    4\n  ]\n}\n'],
    'F5-block-6-2': ['{\n  "per": "0"\n}\n', '{\n  "rank": 2,\n  "I": [\n    1,\n    3\n  ],\n  "J": [\n    1,\n    3\n  ]\n}\n'],
    'F5-row-6-4': ['{\n  "per": "0"\n}\n', '{\n  "rank": 4,\n  "I": [\n    1,\n    3,\n    4,\n    6\n  ],\n  "J": [\n    1,\n    2,\n    3,\n    4\n  ]\n}\n'],
    'Fw-dense-5': ['{\n  "per": "2029796463"\n}\n', '{\n  "rank": 5,\n  "I": [\n    1,\n    2,\n    3,\n    4,\n    5\n  ],\n  "J": [\n    1,\n    2,\n    3,\n    4,\n    5\n  ]\n}\n'],
    'Fw-dense-6': ['{\n  "per": "1732762195"\n}\n', '{\n  "rank": 6,\n  "I": [\n    1,\n    2,\n    3,\n    4,\n    5,\n    6\n  ],\n  "J": [\n    1,\n    2,\n    3,\n    4,\n    5,\n    6\n  ]\n}\n'],
    'Fw-zero-row': ['{\n  "per": "0"\n}\n', '{\n  "rank": 4,\n  "I": [\n    1,\n    2,\n    4,\n    5\n  ],\n  "J": [\n    1,\n    2,\n    3,\n    4\n  ]\n}\n'],
    'Fw-block-6-2': ['{\n  "per": "0"\n}\n', '{\n  "rank": 2,\n  "I": [\n    2,\n    3\n  ],\n  "J": [\n    4,\n    5\n  ]\n}\n'],
    'Fw-row-6-4': ['{\n  "per": "0"\n}\n', '{\n  "rank": 4,\n  "I": [\n    1,\n    3,\n    4,\n    5\n  ],\n  "J": [\n    1,\n    2,\n    3,\n    4\n  ]\n}\n'],
}


CASES = dict(pinned_cases())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_per_prk_and_decisions(name):
    assert record(CASES[name]) == PINNED[name]


@pytest.mark.parametrize("name", sorted(CLI_PINNED))
def test_pinned_cli_bytes(name, tmp_path, capsys):
    assert cli_record(CASES[name], tmp_path, capsys) == CLI_PINNED[name]
