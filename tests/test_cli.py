import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import permrank
from permrank import (
    LinearMap,
    PrimeField,
    identity,
    linear_map_to_json,
    mat,
    matrix_to_json,
    unit,
)
from permrank.cli import main


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def id3_path(tmp_path, Q):
    return _write(tmp_path, "id3.json", matrix_to_json(identity(3, Q)))


@pytest.fixture
def transpose3_path(tmp_path, F3):
    return _write(
        tmp_path, "transpose3.json", linear_map_to_json(LinearMap.transposition(3, F3))
    )


class TestPerAndPrk:
    def test_prk_prints_rank(self, id3_path, capsys):
        assert main(["prk", id3_path]) == 0
        assert capsys.readouterr().out == "3\n"

    def test_per_identity(self, id3_path, capsys):
        assert main(["per", id3_path]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_per_json(self, tmp_path, capsys, Q):
        path = _write(tmp_path, "ones.json", matrix_to_json(mat([[1, 1], [1, 1]], Q)))
        assert main(["per", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"per": "2"}

    def test_witness_json_schema(self, id3_path, capsys):
        assert main(["prk", id3_path, "--witness"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"rank": 3, "I": [1, 2, 3], "J": [1, 2, 3]}

    def test_not_square_is_usage_error(self, tmp_path, capsys, Q):
        doc = {"field": "Q", "rows": 1, "cols": 2, "entries": [["1", "2"]]}
        path = _write(tmp_path, "rect.json", doc)
        assert main(["per", path]) == 2
        assert "error" in capsys.readouterr().err


class TestCheckPreserver:
    def test_transposition_is_a_preserver(self, transpose3_path, capsys):
        code = main(
            ["check-preserver", transpose3_path, "--k", "1", "--mode", "structural"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: preserver" in out
        assert '"transpose_flag": true' in out

    def test_json_verdict(self, transpose3_path, capsys):
        code = main(
            [
                "check-preserver",
                transpose3_path,
                "--k",
                "2",
                "--mode",
                "exhaustive",
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "preserver"
        assert doc["canonical"]["transpose_flag"] is True

    def test_not_preserver_exits_one_with_counterexample(self, tmp_path, capsys, F3):
        def image(i, j):
            if (i, j) == (1, 1):
                return unit(1, 1, 3, F3) + unit(2, 2, 3, F3)
            return unit(i, j, 3, F3)

        bad = LinearMap.from_unit_images(3, F3, image)
        path = _write(tmp_path, "bad.json", linear_map_to_json(bad))
        code = main(["check-preserver", path, "--k", "1", "--json"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "not_preserver"
        assert doc["counterexample"]["entries"][0][0] == "1"

    def test_sample_mode_requires_seed_in_json(self, transpose3_path, capsys):
        args = ["check-preserver", transpose3_path, "--k", "1", "--mode", "sample", "--json"]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: --seed is required")

    def test_equality_variant_flag(self, transpose3_path, capsys):
        code = main(
            ["check-preserver", transpose3_path, "--k", "1", "--equality", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert "bijectivity derived" in doc["detail"]


class TestComposeDecompose:
    def test_pipe_round_trip(self, tmp_path, capsys):
        code = main(
            [
                "compose",
                "--field",
                "Fp:5",
                "--d1",
                "1,2,3",
                "--sigma1",
                "2,1,3",
                "--transpose",
                "--sigma2",
                "1,3,2",
                "--d2",
                "1,1,4",
            ]
        )
        assert code == 0
        map_doc = json.loads(capsys.readouterr().out)
        assert map_doc["vectorization"] == "row-major"
        path = _write(tmp_path, "map.json", map_doc)
        assert main(["decompose", path, "--k", "1", "--json"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got["transpose_flag"] is True
        assert got["sigma1"] == [2, 1, 3]
        assert got["sigma2"] == [1, 3, 2]
        assert got["d1"] == ["1", "2", "3"]
        assert got["d2"] == ["1", "1", "4"]

    def test_decompose_failure_exits_one(self, tmp_path, capsys, F3):
        def image(i, j):
            if (i, j) == (1, 1):
                return unit(1, 1, 3, F3) + unit(2, 2, 3, F3)
            return unit(i, j, 3, F3)

        bad = LinearMap.from_unit_images(3, F3, image)
        path = _write(tmp_path, "bad.json", linear_map_to_json(bad))
        assert main(["decompose", path, "--k", "1", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"] == "UnitImageNotMonomial"


class TestTheta:
    def test_hat_json_golden(self, capsys):
        assert main(["theta", "--n", "4", "--k", "2", "--hat", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["vertices"]) == 12
        assert len(doc["components"]) == 1

    def test_dot_output(self, capsys):
        assert main(["theta", "--n", "3", "--k", "1", "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph theta_3_1 {")
        assert '"R{1}" -- "R{2}" [label="0"];' in out

    def test_human_summary(self, capsys):
        assert main(["theta", "--n", "5", "--k", "2", "--hat"]) == 0
        out = capsys.readouterr().out
        assert "components: 2" in out

    def test_byte_identical_reruns(self, capsys):
        main(["theta", "--n", "4", "--k", "2", "--hat", "--format", "json"])
        first = capsys.readouterr().out
        main(["theta", "--n", "4", "--k", "2", "--hat", "--format", "json"])
        assert capsys.readouterr().out == first


class TestClassifySubspace:
    def test_canonical_row(self, tmp_path, capsys, F3):
        docs = [
            matrix_to_json(unit(2, j, 3, F3)) for j in range(1, 4)
        ]
        path = _write(tmp_path, "basis.json", docs)
        assert main(["classify-subspace", path, "--k", "1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"classification": "row", "support": [2]}

    def test_not_canonical_exits_one(self, tmp_path, capsys, Q):
        docs = [matrix_to_json(identity(3, Q))]
        path = _write(tmp_path, "basis.json", docs)
        assert main(["classify-subspace", path, "--k", "1", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"classification": "not_canonical"}


class TestLift:
    def test_lift_unit(self, tmp_path, capsys, Q):
        path = _write(tmp_path, "e11.json", matrix_to_json(unit(1, 1, 3, Q)))
        code = main(
            ["lift", path, "--i", "2", "--j", "2", "--constraint", "entry:1,1", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["entries"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]]

    def test_perminor_constraint_spec(self, tmp_path, capsys, Q):
        m = unit(1, 1, 3, Q) + unit(2, 2, 3, Q)
        path = _write(tmp_path, "m.json", matrix_to_json(m))
        code = main(["lift", path, "--constraint", "perminor:1,2:1,2", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["entries"][2][2] == "1"

    def test_finite_field_lift_is_an_input_error(self, tmp_path, capsys, F3):
        path = _write(tmp_path, "e.json", matrix_to_json(unit(1, 1, 3, F3)))
        assert main(["lift", path]) == 2


class TestVerify:
    def test_theta_suite(self, capsys):
        assert main(["verify", "--suite", "theta", "--n", "4", "--k", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True

    def test_randomized_suite_requires_seed_in_json(self, capsys):
        assert main(["verify", "--suite", "invariance", "--n", "3", "--json"]) == 2
        assert capsys.readouterr().err.startswith("error: --seed is required")

    def test_invariance_json_deterministic(self, capsys):
        args = [
            "verify",
            "--suite",
            "invariance",
            "--n",
            "3",
            "--p",
            "3",
            "--trials",
            "10",
            "--seed",
            "4",
            "--json",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert json.loads(first)["ok"] is True

    def test_density_suite_cli(self, capsys):
        args = [
            "verify",
            "--suite",
            "density",
            "--n",
            "3",
            "--k",
            "2",
            "--trials",
            "5",
            "--seed",
            "1",
        ]
        assert main(args) == 0
        assert "failures: 0" in capsys.readouterr().out

    def test_zero_trials_run_zero_cases(self, capsys):
        assert main(_VERIFY_INVARIANCE + ["--trials", "0", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["params"]["trials"] == 0
        assert doc["cases"] == 0


class TestUsage:
    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["per", "x.json", "--frobnicate"])
        assert exc.value.code == 2

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["per", "/nonexistent/m.json"]) == 2


_ID3_MAP = linear_map_to_json(LinearMap.identity(3, PrimeField(3)))
_COMPOSE = ["compose", "--field", "Q", "--sigma2", "1,2,3", "--d2", "1,1,1"]
_VERIFY_INVARIANCE = ["verify", "--suite", "invariance", "--n", "3", "--seed", "1"]
_ID3_DOC = matrix_to_json(identity(3, permrank.QQ))


def _matrix_doc(**changes):
    doc = {"field": "Q", "rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "1"]]}
    doc.update(changes)
    return doc


@pytest.mark.parametrize(
    "command, doc",
    [
        pytest.param(["per"], _matrix_doc(entries=[["1/0", "0"], ["0", "1"]]), id="q-zero-denominator"),
        pytest.param(
            ["per"], _matrix_doc(field="F5", entries=[["1/0", "0"], ["0", "1"]]), id="fp-zero-denominator"
        ),
        pytest.param(["per"], _matrix_doc(entries=[["abc", "0"], ["0", "1"]]), id="unparsable-entry"),
        pytest.param(["per"], _matrix_doc(field=7), id="field-not-a-string"),
        pytest.param(["per"], _matrix_doc(entries=5), id="entries-not-a-list"),
        pytest.param(["per"], _matrix_doc(rows="2"), id="rows-not-an-int"),
        pytest.param(["decompose", "--k", "1"], dict(_ID3_MAP, n="3"), id="map-n-not-an-int"),
        pytest.param(["decompose", "--k", "1"], dict(_ID3_MAP, matrix=5), id="map-matrix-not-a-list"),
        pytest.param(
            ["classify-subspace", "--k", "1"], [_matrix_doc(), _matrix_doc(field="F5")], id="basis-mixed-fields"
        ),
        pytest.param(
            ["classify-subspace", "--k", "1"],
            [_matrix_doc(cols=3, entries=[["1", "0", "0"]] * 2)],
            id="basis-not-square",
        ),
        pytest.param(["classify-subspace", "--k", "1"], 5, id="basis-not-a-list"),
        pytest.param(["classify-subspace", "--k", "0"], [_ID3_DOC], id="classify-k-zero"),
        pytest.param(["classify-subspace", "--k", "7"], [_ID3_DOC], id="classify-k-above-n"),
        pytest.param(_COMPOSE + ["--d1", "1,1/0,1", "--sigma1", "1,2,3"], None, id="compose-zero-denominator"),
        pytest.param(_COMPOSE + ["--d1", "1,x,1", "--sigma1", "1,2,3"], None, id="compose-unparsable-scalar"),
        pytest.param(_COMPOSE + ["--d1", "1,1,1", "--sigma1", "1,a,3"], None, id="compose-non-integer-image"),
        pytest.param(["lift", "--constraint", "entry:1"], _matrix_doc(), id="entry-constraint-one-index"),
        pytest.param(["lift", "--i", "1"], _matrix_doc(), id="lift-i-without-j"),
        # the next prime above the Miller-Rabin bound: refused, where trial division stalled
        pytest.param(
            ["per"], _matrix_doc(field="Fp:3317044064679887385962123"), id="modulus-above-bound"
        ),
        pytest.param(
            ["check-preserver", "--k", "1", "--samples", "-1"], _ID3_MAP, id="negative-samples"
        ),
        pytest.param(
            ["check-preserver", "--k", "1", "--mode", "sample", "--json"], _ID3_MAP, id="sample-json-without-seed"
        ),
        pytest.param(
            ["verify", "--suite", "invariance", "--n", "3", "--json"], None, id="verify-json-without-seed"
        ),
        pytest.param(["verify", "--suite", "theta", "--n", "4"], None, id="verify-without-k"),
        pytest.param(_VERIFY_INVARIANCE + ["--p", "0"], None, id="verify-p-zero"),
        pytest.param(_VERIFY_INVARIANCE + ["--trials", "-1"], None, id="verify-negative-trials"),
        pytest.param(
            ["verify", "--suite", "thm12-converse", "--n", "3", "--k", "1", "--p", "0", "--seed", "1"],
            None,
            id="converse-p-zero",
        ),
        # 2 * (3!)^2 * 4^6 = 294912 canonical tuples: refused before enumerating
        pytest.param(
            ["verify", "--suite", "thm12-forward", "--n", "3", "--k", "1", "--p", "5"],
            None,
            id="forward-over-budget",
        ),
    ],
)
def test_bad_input_exits_two_without_traceback(tmp_path, command, doc):
    args = list(command)
    if doc is not None:
        args.insert(1, _write(tmp_path, "input.json", doc))
    src = os.path.dirname(os.path.dirname(permrank.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "permrank.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:")
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr


def test_converse_over_budget_exits_before_the_first_trial():
    # 3^1600 matrices: refused before any 1600 x 1600 operator is sampled
    src = os.path.dirname(os.path.dirname(permrank.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "permrank.cli", "verify", "--suite", "thm12-converse", "--n", "40", "--k", "1", "--trials", "1"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=5,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: enumeration of {3 ** 1600} cases exceeds budget {1 << 26}")
    assert proc.stderr.count("\n") == 1


# -- fuzz: malformed documents ------------------------------------------------


def test_deeply_nested_document_exits_two(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    err = io.StringIO()
    with redirect_stderr(err):
        assert main(["per", str(path)]) == 2
    assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1

#: JSON values that are no scalar of any field, no shape and no field tag.
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.sampled_from(["", "abc", "1/0", "1.5.2", "x/2", "--1"]),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
_BAD_FIELD = st.one_of(
    st.sampled_from(["", "R", "q", "F4", "F1", "F-3", "Fp:2", "Fp:9", "Fp:x"]), st.integers(), st.none()
)
_MATRIX_KEYS = ("field", "rows", "cols", "entries")
_MAP_KEYS = ("n", "field", "matrix", "vectorization")


def _unknown_fields(known):
    return st.dictionaries(st.text(min_size=1, max_size=6).filter(lambda k: k not in known), _JUNK, max_size=2)


@st.composite
def _bad_matrix_doc(draw):
    """A matrix document with one fault, plus unknown fields as noise."""
    n = draw(st.integers(1, 3))
    field = draw(st.sampled_from(["Q", "F3", "Fp:5"]))
    entries = [[str(draw(st.integers(-2, 2))) for _ in range(n)] for _ in range(n)]
    doc = {"field": field, "rows": n, "cols": n, "entries": entries}
    fault = draw(st.sampled_from(
        ["shape", "shape-type", "entry", "ragged", "field", "missing", "not-square", "rows-not-lists"]
    ))
    if fault == "shape":
        doc[draw(st.sampled_from(["rows", "cols"]))] = draw(st.integers(-3, 6).filter(lambda m: m != n))
    elif fault == "shape-type":
        doc[draw(st.sampled_from(["rows", "cols"]))] = draw(_JUNK.filter(lambda v: not isinstance(v, int)))
    elif fault == "entry":
        entries[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(_JUNK)
    elif fault == "ragged":
        row = entries[draw(st.integers(0, n - 1))]
        if draw(st.booleans()):
            row.pop()
        else:
            row.append("1")
    elif fault == "field":
        doc["field"] = draw(_BAD_FIELD)
    elif fault == "missing":
        doc.pop(draw(st.sampled_from(_MATRIX_KEYS)))
    elif fault == "not-square":
        doc["cols"] = n + 1
        for row in entries:
            row.append("1")
    else:
        doc["entries"] = draw(st.one_of(_JUNK, st.lists(_JUNK, min_size=1, max_size=2)))
    doc.update(draw(_unknown_fields(_MATRIX_KEYS)))
    return doc


@st.composite
def _bad_map_doc(draw):
    """A linear-map document (n = 3) with one fault, plus unknown fields."""
    size = 9
    matrix = [[int(r == c) for c in range(size)] for r in range(size)]
    doc = {"n": 3, "field": draw(st.sampled_from(["Q", "F3", "F5"])), "matrix": matrix}
    fault = draw(st.sampled_from(["n", "n-type", "entry", "ragged", "field", "missing", "vectorization", "rows"]))
    if fault == "n":
        doc["n"] = draw(st.integers(-5, 5).filter(lambda m: m * m != size))
    elif fault == "n-type":
        doc["n"] = draw(_JUNK.filter(lambda v: not isinstance(v, int)))
    elif fault == "entry":
        matrix[draw(st.integers(0, size - 1))][draw(st.integers(0, size - 1))] = draw(_JUNK)
    elif fault == "ragged":
        row = matrix[draw(st.integers(0, size - 1))]
        if draw(st.booleans()):
            row.pop()
        else:
            row.append(0)
    elif fault == "field":
        doc["field"] = draw(_BAD_FIELD)
    elif fault == "missing":
        doc.pop(draw(st.sampled_from(_MAP_KEYS[:3])))
    elif fault == "vectorization":
        doc["vectorization"] = draw(st.one_of(_JUNK, st.text(max_size=12)).filter(lambda v: v != "row-major"))
    else:
        doc["matrix"] = draw(st.one_of(_JUNK, st.lists(_JUNK, min_size=1, max_size=2)))
    doc.update(draw(_unknown_fields(_MAP_KEYS)))
    return doc


def _cut(doc, share):
    text = json.dumps(doc)
    return text[: int(len(text) * share)]


def _as_text(docs):
    """The document as JSON, or not a JSON object at all: another JSON value,
    the document cut off, or bytes that are not UTF-8."""
    return st.one_of(
        docs.map(json.dumps),
        _JUNK.map(json.dumps),
        st.builds(_cut, docs, st.floats(0, 0.99)),
        st.binary(max_size=8).map(lambda b: b"\xff" + b),
    )


_FUZZ_COMMANDS = {
    "per": (["per"], _bad_matrix_doc()),
    "prk": (["prk", "--witness"], _bad_matrix_doc()),
    "lift": (["lift"], _bad_matrix_doc()),
    "check-preserver": (["check-preserver", "--k", "1"], _bad_map_doc()),
}


@pytest.mark.parametrize("name", sorted(_FUZZ_COMMANDS))
def test_fuzzed_bad_documents_exit_two_with_one_error_line(name, tmp_path_factory):
    command, docs = _FUZZ_COMMANDS[name]
    path = tmp_path_factory.mktemp(name) / "input.json"

    @settings(derandomize=True, max_examples=150, database=None)
    @given(_as_text(docs))
    def run(text):
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command[0], str(path), *command[1:]])
        assert (code, out.getvalue()) == (2, ""), err.getvalue()
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1, err.getvalue()

    run()
