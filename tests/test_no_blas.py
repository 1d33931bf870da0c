"""No part of the package calls BLAS or LAPACK.

The gate's moment algebra is 2x2 and 4x4 products batched over the time bins.
numpy sends ``@``, ``np.dot`` and the like to OpenBLAS, whose first call pages
in about 400 kB of native code and buffers to multiply matrices this small.
``np.einsum`` with its default ``optimize=False`` runs numpy's own loops.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dynsqueeze

SRC = Path(dynsqueeze.__file__).resolve().parent

# each of these reaches BLAS or LAPACK, as np.<name>, numpy.<name> or <array>.<name>
_BLAS_NAMES = {"dot", "matmul", "linalg", "tensordot", "inner", "vdot"}


def _blas_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{where}: @")
        elif isinstance(node, ast.Attribute) and node.attr in _BLAS_NAMES:
            found.append(f"{where}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("numpy"):
            found += [f"{where}: import {a.name}" for a in node.names if a.name in _BLAS_NAMES]
            if "linalg" in node.module.split("."):
                found.append(f"{where}: from {node.module}")
        elif isinstance(node, ast.Import):
            found += [f"{where}: import {a.name}" for a in node.names if "linalg" in a.name]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "einsum"
              and any(k.arg in ("optimize", None) for k in node.keywords)):
            # optimize=True may contract through tensordot; **kwargs could pass it
            found.append(f"{where}: einsum with optimize")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_the_package_source_calls_no_blas(path):
    assert _blas_uses(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize("source", [
    "c = a @ b", "a @= b", "np.dot(a, b)", "a.dot(b)", "np.matmul(a, b)", "np.linalg.eigvalsh(a)",
    "np.tensordot(a, b)", "np.inner(a, b)", "np.vdot(a, b)", "from numpy import linalg",
    "import numpy.linalg", "from numpy.linalg import inv", "np.einsum('ij,jk', a, b, optimize=True)",
    "np.einsum('ij,jk', a, b, **kw)",
])
def test_the_guard_finds_each_route_to_blas(source):
    assert _blas_uses(ast.parse(source))


def test_the_guard_passes_a_default_einsum():
    assert _blas_uses(ast.parse("np.einsum('...ij,...jk->...ik', a, b)")) == []


_BLAS_RSS = """import contextlib, io, re, sys
import numpy  # maps OpenBLAS and touches its start-up pages; cli imports numpy lazily
from dynsqueeze.cli import main

def blas_rss():
    '''Resident kB of every mapping of a BLAS or LAPACK library.'''
    total, path = 0, ""
    with open("/proc/self/smaps") as f:
        for line in f:
            if re.match(r"[0-9a-f]+-[0-9a-f]+ ", line):
                fields = line.split(None, 5)
                path = fields[5] if len(fields) > 5 else ""
            elif line.startswith("Rss:") and re.search("blas|lapack", path, re.I):
                total += int(line.split()[1])
    return total

cfg, out = sys.argv[1:]
moments = [f"{out}/moments_{a}.csv" for a in ("x", "p", "pi4")]
theory = [f"{out}/theory_{a}.csv" for a in ("x", "p", "pi4")]
before = blas_rss()
for argv in (["simulate", "--save-records", "--config", cfg, "--out", out],
             ["theory", "--config", cfg, "--out", out],
             ["analyze", "--out", out, "--moments", *moments, "--theory", *theory],
             ["circuits", "--segments", "8", "--out", out]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    print(argv[0], blas_rss() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps"), reason="needs /proc/self/smaps")
def test_no_subcommand_pages_in_blas(tmp_path):
    cfg = tmp_path / "run.json"
    dynsqueeze.save_config(dynsqueeze.RunConfig(bins_per_period=5, n_trials=200, seed=3), cfg)
    done = subprocess.run(
        [sys.executable, "-c", _BLAS_RSS, str(cfg), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert done.returncode == 0, done.stderr
    rises = dict(line.split() for line in done.stdout.splitlines())
    assert rises == {"simulate": "0", "theory": "0", "analyze": "0", "circuits": "0"}
