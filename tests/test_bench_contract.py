"""The benchmark reads memo statistics of the package by internal name.

``bench/run.py`` lists the ``lru_cache`` tables whose hit ratios it reports
in ``MEMOS``, and skips a name that has no ``cache_info``.  A rename in the
package would then shrink what the metric measures without any error; this
test makes it fail instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def _bench_run(monkeypatch):
    # Registered while it runs: dataclasses resolve annotations through
    # sys.modules.
    spec = importlib.util.spec_from_file_location("_propalg_bench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_bench_memo_names_are_memoized_functions(monkeypatch):
    memos = _bench_run(monkeypatch).MEMOS
    assert memos
    for metric, (mod_name, names) in memos.items():
        module = importlib.import_module(f"propalg.{mod_name}")
        for name in names:
            fn = getattr(module, name, None)
            assert callable(getattr(fn, "cache_info", None)), f"{metric}: propalg.{mod_name}.{name} has no cache_info"
