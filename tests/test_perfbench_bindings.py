"""The benchmark tracer binds package names from outside the package.

``perfbench/tracing.py`` wraps module-level functions and methods of
``renzeta`` by name and reads some engine tables. A change to ``src/`` that
renames or deletes one of them must fail here, not on the first traced
benchmark run. Nothing in ``perfbench/`` is changed by this test.
"""

import sys
from fractions import Fraction
from pathlib import Path

from renzeta import emsum, mzv

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402

sys.path.pop(0)


def test_tracer_installs_and_uninstalls():
    originals = (mzv.zeta_value, emsum._nested)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        emsum.clear_cache()
        mzv._zeta_strict.cache_clear()
        assert mzv.zeta_value((1, 1), Fraction(1, 3)) == mzv._zeta_strict((1, 1), Fraction(1, 3))
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
        mzv._zeta_weak.cache_clear()
        mzv.zeta_value((1, 2, 1), Fraction(1, 3), "weak")
    finally:
        tracer.uninstall()
    states = len(emsum._cache)
    assert tracer.layer_metrics(states)["emsum.recursions"] >= states > 1
