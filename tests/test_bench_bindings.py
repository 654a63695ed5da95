"""The names through which the benchmark's tracer and set-up reach the package.

perfbench/tracing.py rebinds each (module, name) of its BINDINGS and skips
a name that is missing, so a renamed or dropped binding would read as a
layer that takes no time.  These tests only read perfbench/.
"""

import importlib
import json
import sys
from pathlib import Path

import numpy as np

import pabsig
import pabsig.cli
import pabsig.tensors

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402


def test_every_binding_resolves_to_a_callable():
    for module_name, attr, span_name, _ in tracing.BINDINGS:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), (module_name, attr, span_name)


def test_names_the_benchmark_set_up_calls_exist():
    assert callable(pabsig.tensors._concat_tables.cache_clear)
    assert callable(pabsig.kernel)


def test_every_span_of_the_bindings_occurs(tmp_path):
    rng = np.random.default_rng(20)
    series = tmp_path / "set"
    series.mkdir()
    for i in range(2):
        values = rng.standard_normal((5, 2)).cumsum(axis=0) * 0.3
        lines = ["time,x1,x2"] + [f"{t / 4},{a},{b}" for t, (a, b) in enumerate(values.tolist())]
        (series / f"s{i}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_fine": 8, "factors": [4], "degrees": [1, 2],
                                  "repetitions": 1}))
    x, y = str(series / "s0.csv"), str(series / "s1.csv")
    tracer = tracing.Tracer()
    with tracer.installed():
        assert pabsig.cli.main(["kernel", x, y, "--degree", "2"]) == 0
        assert pabsig.cli.main(["gram", str(series), "--degree", "2"]) == 0
        assert pabsig.cli.main(["convergence", "--config", str(config)]) == 0
    names = {span[0] for span in tracer.spans}
    for _, _, span_name, _ in tracing.BINDINGS:
        assert span_name in names, span_name
