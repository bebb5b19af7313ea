"""The benchmark binds package names from outside the package.

``perfbench/tracing.py`` wraps module-level functions and methods of
``renzeta`` by name and reads some engine tables, and ``perfbench/child.py``
calls package functions by name and keyword. A change to ``src/`` that
renames or deletes one of them, or a keyword it is called with, must fail
here, not on the first benchmark run. Nothing in ``perfbench/`` is changed by
this test.
"""

import ast
import inspect
import sys
from fractions import Fraction
from pathlib import Path

from renzeta import chenint, cli, emsum, mzv, verify
from engine_keys import strict_fp_res

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import tracing  # noqa: E402

sys.path.pop(0)

#: the package modules child.py imports, by the names it uses for them
MODULES = {"chenint": chenint, "cli": cli, "emsum": emsum, "mzv": mzv, "verify": verify}


def _child_tree():
    return ast.parse((PERFBENCH / "child.py").read_text())


def _package_attribute(node):
    """(module name, attribute) when node reads an attribute of one of the
    package modules, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in MODULES
    ):
        return node.value.id, node.attr
    return None


def test_child_names_exist():
    used = {a for node in ast.walk(_child_tree()) if (a := _package_attribute(node))}
    # the scan sees the calls the workloads are built on
    assert {("mzv", "verify_stuffle"), ("verify", "suite_hurwitz"), ("cli", "main")} <= used
    missing = sorted(f"{m}.{attr}" for m, attr in used if not hasattr(MODULES[m], attr))
    assert missing == []


def test_child_calls_bind():
    calls = 0
    for node in ast.walk(_child_tree()):
        if not isinstance(node, ast.Call) or not (target := _package_attribute(node.func)):
            continue
        module, attr = target
        assert not any(isinstance(a, ast.Starred) for a in node.args)
        keywords = {k.arg: None for k in node.keywords}
        assert None not in keywords  # no **kwargs: every keyword is checked by name
        signature = inspect.signature(getattr(MODULES[module], attr))
        signature.bind_partial(*range(len(node.args)), **keywords)  # TypeError if stale
        calls += 1
    assert calls > 0


def test_tracer_installs_and_uninstalls():
    originals = (mzv.zeta_value, emsum._nested)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        emsum.clear_cache()
        mzv._memo.clear()
        assert mzv.zeta_value((1, 1), Fraction(1, 3)) == strict_fp_res((1, 1), Fraction(1, 3)).fp
    finally:
        tracer.uninstall()
    assert (mzv.zeta_value, emsum._nested) == originals
    metrics = tracer.layer_metrics(0)
    assert metrics["mzv.values"] == 1
    assert metrics["emsum.germ_cache.size"] > 0
    # the engine reaches every state it computes through the patched module
    # global, not only the top one
    assert metrics["emsum.recursions"] >= len(emsum._cache) > 1
    assert all(isinstance(x, (int, float)) for x in metrics.values())


def test_tracer_counts_weak_states():
    # a weak value is a sum of prefix-sum states; each one must be reached
    # through the patched module global too, or the tracer undercounts
    tracer = tracing.Tracer()
    tracer.install()
    try:
        emsum.clear_cache()
        mzv._memo.clear()
        mzv.zeta_value((1, 2, 1), Fraction(1, 3), "weak")
    finally:
        tracer.uninstall()
    states = len(emsum._cache)
    assert tracer.layer_metrics(states)["emsum.recursions"] >= states > 1


def test_tracer_runs_a_stuffle_pass():
    # a traced stuffle_sweep child makes this call, cold; the tracer also
    # wraps mzv.stuffle by name, so the name must stay bound in mzv. A pass
    # reads its values in one batch, and only its memo misses go through
    # mzv.zeta_value, which the tracer counts as mzv.values
    assert "stuffle" in vars(mzv)
    mzv._memo.clear()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = mzv.verify_stuffle(2, Fraction(1, 7), "weak", max_depth=2)
    finally:
        tracer.uninstall()
    assert report.ok and report.cases > 0
    metrics = tracer.layer_metrics(len(emsum._cache))
    assert metrics["verify.self_s"] > 0
    assert metrics["mzv.values"] > 0
