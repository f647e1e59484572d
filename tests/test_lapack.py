"""The kernel loader: a CLI process imports no scipy.linalg, the solvers
call scipy's own LAPACK and BLAS functions, and the fallback through
scipy.linalg gives the same functions and the same bits."""

import scipy.linalg.blas
import scipy.linalg.lapack

from vectorhost import eigen, stepper
from vectorhost.cli import main
from test_cli import README, run_module

# (module, where scipy exports the kernel, kernel names)
KERNELS = [(stepper, scipy.linalg.lapack, ("dgtsv", "dgttrf", "dgttrs")),
           (stepper, scipy.linalg.blas, ("ddot",)),
           (eigen, scipy.linalg.lapack, ("dgbtrf", "dgbtrs")),
           (eigen, scipy.linalg.blas, ("dgbmv",))]

# the by-path loader refuses, so the module takes its fallback
REFUSE = """
import importlib.util
def refuse(*args, **kwargs):
    raise ImportError("loading by file path refused")
importlib.util.spec_from_file_location = refuse
"""


def test_cli_import_leaves_scipy_linalg_unloaded():
    p = run_module("-c", "import sys, vectorhost.cli; "
                          "print(' '.join(sorted(m for m in sys.modules if m.startswith('scipy'))))")
    assert p.returncode == 0, p.stderr
    assert p.stdout.split() == ["scipy.linalg._fblas", "scipy.linalg._flapack"]


def test_solvers_bind_scipys_own_kernels():
    for module, exporter, names in KERNELS:
        for name in names:
            assert getattr(module, name) is getattr(exporter, name), name


def test_fallback_reloads_the_same_kernels():
    p = run_module("-c", """
import importlib, sys
import vectorhost._lapack as lapack
names = ("dgtsv", "dgttrf", "dgttrs", "dgbtrf", "dgbtrs", "ddot", "dgbmv")
by_path = [getattr(lapack, name) for name in names]
assert "scipy.linalg" not in sys.modules
del sys.modules["scipy.linalg._flapack"], sys.modules["scipy.linalg._fblas"]
""" + REFUSE + """
importlib.reload(lapack)
assert "scipy.linalg" in sys.modules
assert all(getattr(lapack, name) is f for name, f in zip(names, by_path))
""")
    assert p.returncode == 0, p.stderr


def test_fallback_gives_the_same_eigen_bits(tmp_path, capsys):
    # the README eigenvalues at 31/128, zeta among them, to the last bit
    config = tmp_path / "readme.ini"
    config.write_text(README)
    assert main(["eigen", "--config", str(config), "--out", str(tmp_path / "path")]) == 0
    p = run_module("-c", REFUSE + f"""
import sys
from vectorhost.cli import main
assert "scipy.linalg" in sys.modules
sys.exit(main(["eigen", "--config", {str(config)!r}, "--out", {str(tmp_path / "fallback")!r}]))
""")
    assert p.returncode == 0, p.stderr
    assert p.stdout == capsys.readouterr().out
    report = (tmp_path / "path" / "eigen_report.txt").read_text()
    assert "zeta=-1.0000" in report
    assert (tmp_path / "fallback" / "eigen_report.txt").read_text() == report
