import json

import numpy as np
import pytest

from sigembed import (EvaluationError, SignatureClass, classify_signature_grid,
                      eval_metric_grid, load_model, model_from_dict,
                      radical_transversality_grid, slice_metric_grid)
from sigembed.modelfile import ExpressionError, compile_expression


def test_compile_basic_arithmetic():
    f = compile_expression("1 + t^2", ["t", "x1"])
    assert f({"t": 2.0, "x1": 0.0}) == 5.0
    g = compile_expression("exp(-x1) * cos(t) + pi", ["t", "x1"])
    assert g({"t": 0.0, "x1": 0.0}) == pytest.approx(1.0 + np.pi)
    h = compile_expression("-t / (1 + x1**2)", ["t", "x1"])
    assert h({"t": 4.0, "x1": 1.0}) == pytest.approx(-2.0)


@pytest.mark.parametrize("expr", [
    "__import__('os')",
    "t.__class__",
    "(lambda: 1)()",
    "[1,2][0]",
    "open('x')",
    "unknown_name",
    "t @ t",
    "'str'",
])
def test_compile_rejects_outside_grammar(expr):
    with pytest.raises(ExpressionError):
        compile_expression(expr, ["t", "x1"])


def test_model_from_dict_diagonal():
    model = model_from_dict({
        "dimension": 3,
        "spatial_block": [["1 + t^2", "0"], ["0", "1"]],
    })
    block, pd = slice_metric_grid(model, [[2.0, 0.0, 0.0]])
    np.testing.assert_allclose(block, [np.diag([5.0, 1.0])])
    assert pd.all()
    g = eval_metric_grid(model, [[2.0, 0.0, 0.0]])
    np.testing.assert_allclose(g, [np.diag([-2.0, 5.0, 1.0])])


def test_model_signature_tracks_t():
    model = model_from_dict({
        "dimension": 2,
        "spatial_block": [["1 + x1^2"]],
    })
    classes = classify_signature_grid(model, [[-1.0, 0.3], [0.0, 0.3], [1.0, 0.3]])[0]
    assert list(classes) == [SignatureClass.RIEMANNIAN, SignatureClass.DEGENERATE,
                             SignatureClass.LORENTZIAN]


def test_model_radical_transversality_fd():
    model = model_from_dict({
        "dimension": 2,
        "spatial_block": [["1 + t^2"]],
    })
    det, grad, transverse = radical_transversality_grid(model, [[0.0, 0.0]])
    # det = -t (1 + t^2): gradient (-1, 0) on the locus
    assert det[0] == 0.0
    np.testing.assert_allclose(grad[0], [-1.0, 0.0], atol=1e-9)
    assert transverse[0]


def test_asymmetric_block_rejected():
    model = model_from_dict({
        "dimension": 3,
        "spatial_block": [["1", "t"], ["0", "1"]],
    })
    with pytest.raises(EvaluationError):
        eval_metric_grid(model, [[1.0, 0.0, 0.0]])


def test_bad_shapes_rejected():
    with pytest.raises(ExpressionError):
        model_from_dict({"dimension": 3, "spatial_block": [["1"]]})
    with pytest.raises(ExpressionError):
        model_from_dict({"dimension": 1, "spatial_block": []})
    with pytest.raises(ExpressionError):
        model_from_dict({"spatial_block": [["1"]]})


def test_load_model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "dimension": 2,
        "spatial_block": [["exp(2*ln(1+t^2))/ (1+t^2)"]],
    }))
    model = load_model(path)
    block, pd = slice_metric_grid(model, [[3.0, 0.0]])
    assert block[0, 0, 0] == pytest.approx(10.0, rel=1e-12)
    assert pd
