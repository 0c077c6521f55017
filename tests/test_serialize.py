import json

import numpy as np
import pytest

from medli import pgm, random_ensemble
from medli.serialize import dumps, ensemble_to_doc, matrix_to_json, measurement_to_doc

EMITTER_CASES = [
    ([], "[]"),
    ({}, "{}"),
    ([1, 2.5, "a"], '[1, 2.5, "a"]'),
    ([[1, 2], [3]], "[[1, 2], [3]]"),
    (
        matrix_to_json(np.array([[1.0, 1j], [0.0, -0.0]])),
        "[\n  [[1, 0], [0, 1]],\n  [[0, 0], [0, 0]]\n]",
    ),
    ([1, {"a": 2}], '[\n  1,\n  {\n    "a": 2\n  }\n]'),
    (
        {"a": {"b": [1, 2], "c": [[1, 2]]}, "d": {}},
        '{\n  "a": {\n    "b": [1, 2],\n    "c": [[1, 2]]\n  },\n  "d": {}\n}',
    ),
    ((1, (2, 3), ()), "[1, [2, 3], []]"),
    (np.float64(0.1), "0.10000000000000001"),
    (np.int64(-7), "-7"),
    (-0.0, "0"),
    ([True, False, None], "[true, false, null]"),
    ('a"b\\c\né', '"a\\"b\\\\c\\n\\u00e9"'),
]


EMITTER_IDS = [
    "empty-list",
    "empty-dict",
    "flat-list",
    "list-of-flat-lists",
    "matrix",
    "list-holding-dict",
    "nested-dict",
    "tuple",
    "np-float64",
    "np-int64",
    "negative-zero",
    "bools-and-null",
    "string-escapes",
]


@pytest.mark.parametrize("doc, expected", EMITTER_CASES, ids=EMITTER_IDS)
def test_emitter_layout(doc, expected):
    assert dumps(doc) == expected + "\n"


@pytest.mark.parametrize(
    "doc, error",
    [([1.0, float("nan")], ValueError), ({"a": object()}, TypeError)],
    ids=["nan", "object"],
)
def test_emitter_rejects(doc, error):
    with pytest.raises(error):
        dumps(doc)


@pytest.mark.parametrize("dim", range(2, 17))
def test_parse_reproduces_documents(dim):
    signature = (2,) * (dim // 2 - 1) + (1,) * (2 + dim % 2)
    ensemble = random_ensemble(dim, signature, seed=dim)
    for doc in (ensemble_to_doc(ensemble), measurement_to_doc(pgm(ensemble))):
        assert json.loads(dumps(doc)) == doc
