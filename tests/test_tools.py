"""The scripts in tools/, each run once on its smallest input.

tools/time_lift.py and tools/time_sweep.py rebind private names of the
package (lift._chen, goursat._sweep_order1) through tools/abtime.py, so a
renamed name fails here.  Each script runs in a child process, since importing
tools/abtime.py pins BLAS threads and edits sys.path.
"""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def run(*args):
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True,
                          text=True, timeout=120)


def run_patched(patch, script, *argv):
    """Run a tool as __main__ after `patch`, Python source run with abtime,
    helpers and pabsig.goursat imported."""
    code = "\n".join([
        f"import sys; sys.path.insert(0, {str(TOOLS)!r})",
        "import runpy, abtime, helpers",
        "from pabsig import goursat",
        patch,
        f"sys.argv = [{script!r}, *{list(argv)!r}]",
        f"runpy.run_path({str(TOOLS / script)!r}, run_name='__main__')",
    ])
    return run("-c", code)


def test_time_lift_prints_each_shape():
    out = run(TOOLS / "time_lift.py", "--best", "1", "--rounds", "1",
              "--shape", "gram-m1", "--shape", "gram-m3")
    assert out.returncode == 0, out.stderr
    rows = [line.split()[0] for line in out.stdout.splitlines()[1:]]
    assert rows == ["gram-m1", "gram-m3"]


def test_time_lift_exits_when_the_lifts_differ():
    patch = "\n".join([
        "real = helpers.chen_steps",
        "def chen_steps(*args):",
        "    out = real(*args)",
        "    out[..., -1] += 1e-3",
        "    return out",
        "helpers.chen_steps = chen_steps",
    ])
    out = run_patched(patch, "time_lift.py", "--best", "1", "--rounds", "1",
                      "--shape", "gram-m3")
    assert out.returncode == 1
    assert "gram-m3: the two lifts differ" in out.stderr


def test_time_sweep_prints_time_and_deviation_rows():
    out = run(TOOLS / "time_sweep.py", "--best", "1", "--rounds", "1",
              "--pairs", "8", "--size", "64")
    assert out.returncode == 0, out.stderr
    rows = [line for line in out.stdout.splitlines() if line.startswith("   64^2 ")]
    assert len(rows) == 3
    # the time row ends with the tracemalloc peak of each form
    fields = rows[0].split()
    assert fields[-1] == fields[-3] == "MB"
    assert 0.0 < float(fields[-4]) and 0.0 < float(fields[-2])
    # the time row of the curvature-firing pair ends with each form's peak
    # as a fraction of the pair budget, goursat._pair_values
    fields = rows[1].split()
    assert fields[2] == fields[4] == "ms" and 0.0 < float(fields[-2]) and 0.0 < float(fields[-1])
    # the deviation row: median (largest) of each form, below 1e-13; the
    # two forms round differently, and exit status 0 says the blocked
    # form's median is within the limit of the sliced form's
    devs = [float(f.strip("()")) for f in rows[2].split()[1:]]
    assert len(devs) == 4 and all(0.0 <= v < 1e-13 for v in devs)


def test_time_sweep_exits_1_on_a_worse_rounding_grid_free_form():
    patch = "\n".join([
        "import numpy as np",
        "real = goursat._sweep_order1",
        "def _sweep_order1(X, Y, grid=None):",
        "    out = real(X, Y, grid)",
        "    return out * (1.0 + 1e-12) if out.dtype == np.float64 else out",
        "goursat._sweep_order1 = _sweep_order1",
    ])
    out = run_patched(patch, "time_sweep.py", "--best", "1", "--rounds", "1",
                      "--pairs", "8", "--size", "16")
    assert out.returncode == 1, out.stderr
    assert "exceeds 4x the sliced form's at 16^2" in out.stdout


def test_time_sweep_exits_2_on_too_few_pairs_for_a_verdict():
    # the median deviation of 2 pairs is noise: it read 8.5x at 64^2 on the
    # library's own sweep, which passes on 8 pairs
    out = run(TOOLS / "time_sweep.py", "--best", "1", "--rounds", "1",
              "--pairs", "2", "--size", "64")
    assert out.returncode == 2
    assert out.stdout == ""
    assert "--pairs must be >= 8" in out.stderr


def test_code_lines_total_is_the_sum_of_its_rows():
    out = run(TOOLS / "code_lines.py")
    assert out.returncode == 0, out.stderr
    rows = [line.split() for line in out.stdout.splitlines()]
    assert rows[-1][0] == "total" and len(rows) > 2
    assert all(name.endswith(".py") for name, _ in rows[:-1])
    assert int(rows[-1][1]) == sum(int(count) for _, count in rows[:-1])
