"""Instance file round-trips and parse diagnostics."""

import json

import numpy as np
import pytest

from semiradius.errors import BadConfig, DimensionMismatch, NotHermitian, ParseError
from semiradius.instances import content_seed, read_instance, write_instance
from semiradius.sampler import SampleConfig, sample_bundle, sample_space
from semiradius.space import build_space


def test_roundtrip_is_exact(tmp_path):
    sp = sample_space(SampleConfig(dim=4, rank=2, master_seed=5))
    ops = sample_bundle(sp, seed=9)
    path = tmp_path / "inst.json"
    write_instance(path, sp, ops)
    sp2, ops2 = read_instance(path)
    assert np.array_equal(sp2.matrix, sp.matrix)
    assert sp2.rank == sp.rank and sp2.cutoff == sp.cutoff
    assert set(ops2) == set(ops)
    for name in ops:
        assert np.array_equal(ops2[name], ops[name])


def test_roundtrip_awkward_floats(tmp_path):
    A = np.diag([1.0 + 2**-52, 1e-300])
    sp = build_space(A)
    T = np.array([[0.1, 1e308], [-(2**-1074), 3.0 + 1e-17j]])
    path = tmp_path / "inst.json"
    write_instance(path, sp, {"T": T})
    _, ops = read_instance(path)
    assert np.array_equal(ops["T"], T)


def test_roundtrip_keeps_signed_zeros(tmp_path):
    sp = sample_space(SampleConfig(dim=3, rank=2, master_seed=1))
    T = sample_bundle(sp, seed=2)["T"]
    T.imag[0, 1] = -0.0
    T.real[1, 2] = -0.0
    path = tmp_path / "inst.json"
    write_instance(path, sp, {"T": T})
    _, ops = read_instance(path)
    assert ops["T"].tobytes() == T.tobytes()
    # The replay reduces T to the same bits, so C15 draws its vectors from
    # the same seed of the reduced T as the campaign did.
    assert content_seed(ops["T"]) == content_seed(T)


def test_write_rejects_wrong_shape(tmp_path):
    sp = build_space(np.eye(2))
    with pytest.raises(DimensionMismatch):
        write_instance(tmp_path / "x.json", sp, {"T": np.eye(3)})


def test_write_rejects_non_finite(tmp_path):
    sp = build_space(np.eye(2))
    with pytest.raises(BadConfig):
        write_instance(tmp_path / "x.json", sp, {"T": np.array([[np.inf, 0], [0, 0]])})


def _base_doc():
    return {
        "dim": 2,
        "cutoff": 1e-10,
        "A": {"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
        "operators": {"T": {"re": [[0.0, 1.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}},
    }


def _write_doc(tmp_path, doc):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    return p


def test_read_valid_document(tmp_path):
    sp, ops = read_instance(_write_doc(tmp_path, _base_doc()))
    assert sp.dim == 2 and list(ops) == ["T"]


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.pop("dim"), "dim"),
        (lambda d: d.update(dim=0), "dim"),
        (lambda d: d.update(cutoff=2.0), "cutoff"),
        pytest.param(lambda d: d.update(cutoff=-1.0), "cutoff", id="negative-cutoff"),
        (lambda d: d.pop("A"), "A"),
        (lambda d: d["A"].pop("im"), "A.im"),
        (lambda d: d["A"]["re"].pop(), "A.re"),
        (lambda d: d["A"]["re"][0].__setitem__(0, "x"), "A.re"),
        (lambda d: d["A"]["re"][0].pop(), "A.re"),
        (lambda d: d.update(operators=[1]), "operators"),
        (lambda d: d["operators"]["T"].update(re=[[1.0]]), "operators.T"),
    ],
)
def test_parse_diagnostics(tmp_path, mutate, fragment):
    doc = _base_doc()
    mutate(doc)
    with pytest.raises(ParseError) as err:
        read_instance(_write_doc(tmp_path, doc))
    assert fragment in str(err.value)


@pytest.mark.parametrize("field,value", [("dim", True), ("cutoff", False)])
def test_rejects_booleans(tmp_path, field, value):
    # A 1 x 1 document with cutoff 0, so that reading the boolean as the
    # number 1 or 0 would pass every other check.
    doc = {"dim": 1, "cutoff": 0, "A": {"re": [[1.0]], "im": [[0.0]]}, "operators": {}}
    read_instance(_write_doc(tmp_path, doc))
    doc[field] = value
    with pytest.raises(ParseError) as err:
        read_instance(_write_doc(tmp_path, doc))
    assert field in str(err.value)


def test_rejects_non_finite_tokens(tmp_path):
    p = tmp_path / "doc.json"
    p.write_text(
        '{"dim": 1, "cutoff": 1e-10, "A": {"re": [[NaN]], "im": [[0.0]]},'
        ' "operators": {}}'
    )
    with pytest.raises(ParseError):
        read_instance(p)


def test_invalid_json(tmp_path):
    p = tmp_path / "doc.json"
    p.write_text("{nope")
    with pytest.raises(ParseError):
        read_instance(p)


def test_missing_file(tmp_path):
    with pytest.raises(ParseError):
        read_instance(tmp_path / "absent.json")


def test_seed_validation_still_applies(tmp_path):
    doc = _base_doc()
    doc["A"]["re"] = [[0.0, 1.0], [0.0, 0.0]]
    with pytest.raises(NotHermitian):
        read_instance(_write_doc(tmp_path, doc))


def test_content_seed_sensitivity():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert content_seed(M) == content_seed(M.copy())
    assert content_seed(M) != content_seed(M + 1e-12 * np.eye(2))
    assert content_seed(M) != content_seed(M.T)
    assert content_seed(M, M) != content_seed(M)
    assert 0 <= content_seed(M) < 2**64
