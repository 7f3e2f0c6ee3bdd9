"""Smoke tests: examples run end to end against the current API."""

import runpy
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def test_tensor_core_gemm_example(capsys):
    """The FP64 GEMM splits and the engine's GEMM NTT check out bit-exact."""
    runpy.run_path(str(EXAMPLES / "tensor_core_gemm.py"))["main"]()
    out = capsys.readouterr().out
    assert "four-step GEMM NTT (N=4096" in out
    assert "OK: the FP64 tensor-core mapping is exact" in out
