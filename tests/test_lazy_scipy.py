"""scipy loads at the first sparse solve only: not at ``import exdil``, and
not for the flat-interface model, whose solve needs numpy alone.

Each check runs in a fresh interpreter: this one has loaded scipy long
before, through the other tests.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import exdil

SRC = str(Path(exdil.__file__).resolve().parents[1])

# The scipy modules loaded so far, as a JSON list.
SCIPY_MODULES = ("sorted(m for m in sys.modules "
                 "if m == 'scipy' or m.startswith('scipy.'))")

# A small mapped problem: 16² grid, two modes, tensor GL with 3 points a
# dimension on U(-1, 1).
MAPPED = """
from exdil import collocation, forward_mapped, interface
from exdil.fd_core import Grid2D

device = forward_mapped.DeviceConfig(
    5.0, 10.0, 4.0, forward_mapped.GenerationProfile.exponential(5.0))
model = interface.InterfaceModel.with_power_spectrum(
    1.0, 4.0, 2, -1.0, interface.UniformDist(-1.0, 1.0))
grid = Grid2D.unit(16, 16)
rule = collocation.build_rule(collocation.TENSOR_GL, 2, 3)


def node_pl(thetas):
    sample = interface.InterfaceSample(tuple(thetas))
    return forward_mapped.solve_mapped_2d(device, model, sample, grid).pl
"""


def run_fresh(script: str, *args: str) -> object:
    """Run ``script`` in a new interpreter with this checkout's exdil first
    on the path; its last output line, parsed as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert run_fresh(f"""
        import json, sys
        import exdil
        print(json.dumps({SCIPY_MODULES}))
        """) == []


def test_validate_runs_without_scipy(tmp_path):
    out = tmp_path / "out"
    path = tmp_path / "run.cfg"
    path.write_text(f"[run]\nkind = validate\noutput = {out}\n\n"
                    "[interface]\nmodes = 3\n\n"
                    "[validate]\nsigma_star = 5.0\nbetas = -2, -1\n"
                    "thicknesses = 10, 20, 30\n")
    code, loaded = run_fresh(f"""
        import json, sys
        from exdil import cli
        code = cli.main(["validate", "--config", sys.argv[1]])
        print(json.dumps([code, {SCIPY_MODULES}]))
        """, str(path))
    assert (code, loaded) == (0, [])
    assert (out / "validate_summary.csv").is_file()
    assert (out / "manifest.json").is_file()


def test_flat_model_runs_without_scipy():
    # the set-up of the fit-expansion benchmark, then one flat-model
    # evaluation with its sensitivity solves
    values, derivatives, loaded = run_fresh(f"""
        import json, sys
        from exdil import experiments, inverse

        family = inverse.DeviceFamily(period=4.0)
        curve = experiments.generate_synthetic_curve(
            experiments.MODEL_1D, 5.0, (10.0, 17.5, 25.0), family=family)
        derivatives = inverse.OneDimensionalForward(
            family).pl_with_derivatives(5.0, 10.0)
        print(json.dumps([curve.values, derivatives, {SCIPY_MODULES}]))
        """)
    assert loaded == []
    assert derivatives[0] == values[0] > 0


def test_stand_in_set_before_the_first_operator_sees_every_splu():
    calls, nodes, kept, loaded = run_fresh(MAPPED + f"""
import importlib, json, sys
from exdil import fd_core

loaded = {SCIPY_MODULES}
calls = []


class StandIn:
    def splu(self, *args, **kwargs):
        calls.append(None)
        return importlib.import_module("scipy.sparse.linalg").splu(
            *args, **kwargs)


stand_in = fd_core.spla = StandIn()
forward_mapped.expected_mapped_pl(device, model, rule, grid,
                                  derivatives=True)
nodes = forward_mapped.symmetry_folded_rule(rule, grid).node_count
print(json.dumps([len(calls), nodes, fd_core.spla is stand_in, loaded]))
""")
    assert loaded == []
    assert kept
    assert calls == nodes > 1


@pytest.mark.parametrize("jobs", [2, 4])
def test_first_load_on_worker_threads_gives_serial_bits(jobs):
    # the workers race to load scipy (at 4, more workers than a 2-core
    # machine has cores), with thread switches forced every microsecond
    loaded, bound, threaded, serial = run_fresh(MAPPED + f"""
import json, sys
from exdil import fd_core

loaded = {SCIPY_MODULES}
interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    threaded = collocation.expect(rule, node_pl, jobs={jobs}).value
finally:
    sys.setswitchinterval(interval)
bound = (fd_core.sp is sys.modules["scipy.sparse"]
         and fd_core.spla is sys.modules["scipy.sparse.linalg"])
serial = collocation.expect(rule, node_pl, jobs=1).value
print(json.dumps([loaded, bound, threaded.hex(), serial.hex()]))
""")
    assert loaded == []
    assert bound
    assert threaded == serial
