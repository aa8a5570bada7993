"""Import hygiene: numpy loads only with the Fock layer, and the lazy package
surface exposes the same names as an eager one."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import defosc

SRC = Path(__file__).resolve().parents[1] / "src"

# runs the CLI in-process, then reports the exit code and whether numpy loaded
_CLI_PROBE = """
import json, sys
from defosc.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules}), file=sys.stderr)
"""


def fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run `code` in a new interpreter that imports defosc from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=60, check=True)


def cli_probe(*argv: str) -> dict:
    return json.loads(fresh(_CLI_PROBE, *argv).stderr.splitlines()[-1])


SCALAR_ARGVS = [
    ("dsf", "--family", "A", "--q", "1.1", "--n-max", "5"),
    ("dsf", "--family", "At", "--q", "1.2", "--p", "1.1", "--format", "json"),
    ("dsf", "--fig1"),
    ("spectrum", "--family", "B", "--q", "1.1", "--n-max", "5", "--format", "json"),
    ("degeneracy", "--family", "A", "--n", "10", "--m", "0", "--q-range", "1.001:1.5",
     "--tol", "1e-6"),
]


@pytest.mark.parametrize("argv", SCALAR_ARGVS)
def test_scalar_commands_do_not_load_numpy(argv):
    assert cli_probe(*argv) == {"code": 0, "numpy": False}


# dataclasses pulls in inspect, ast, dis and tokenize: about 20 ms of a fresh CLI
# process on a 2-vCPU host
_SLOW_IMPORTS_PROBE = """
import sys
print(sorted({"dataclasses", "inspect"} & set(sys.modules)), file=sys.stderr)
"""


@pytest.mark.parametrize("code,argv", [
    pytest.param("import defosc", (), id="import-defosc"),
    pytest.param("import defosc.cli", (), id="import-defosc.cli"),
    *(pytest.param(_CLI_PROBE, argv, id=f"argv{i}") for i, argv in enumerate(SCALAR_ARGVS)),
])
def test_scalar_path_does_not_load_dataclasses(code, argv):
    assert fresh(code + _SLOW_IMPORTS_PROBE, *argv).stderr.splitlines()[-1] == "[]"


def test_verify_loads_numpy():
    assert cli_probe("verify", "--family", "A", "--q", "1.1") == {"code": 0, "numpy": True}


def test_package_import_does_not_load_numpy():
    out = fresh("import sys, defosc; print('numpy' in sys.modules)").stdout
    assert out == "False\n"


@pytest.mark.parametrize("call", [
    'defosc.phi_symmetrized("A", 1.1, 5)',
    'defosc.phi_symmetrized_qp("At", 1.2, 0.9, 5)',
    'defosc.symmetrized_routes("A", cmath.exp(0.3j), 5)',
    'defosc.StructureFunction.symmetrized("A", 1.1)(5)',
])
def test_symmetrized_forms_do_not_load_numpy(call):
    # they lived beside the metrics in `symmetry`, whose import loaded numpy
    out = fresh(f"import cmath, sys, defosc; {call}; print('numpy' in sys.modules)").stdout
    assert out == "False\n"


@pytest.mark.parametrize("call", [
    'defosc.coefficients("Bt", defosc.DeformationParams(q=1.1, p=0.9)).f(5)',
    'defosc.gh_pair("C", 1.1).H(5)',
    'gh = defosc.gh_pair("A", 1.1); defosc.phi_from_gh(gh.G, gh.H, 5)',
    'defosc.verify_ratio_recursions(defosc.coefficients("A", 1.1), 1.1, 30)',
])
def test_family_laws_do_not_load_numpy(call):
    # `families` holds the value functions that fock applies to numpy arrays
    out = fresh(f"import sys, defosc; {call}; print('numpy' in sys.modules)").stdout
    assert out == "False\n"


def test_submodule_attribute_loads_on_access():
    out = fresh("import defosc; print(defosc.fock.build_rep is defosc.build_rep)").stdout
    assert out == "True\n"


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from defosc import *", namespace)
    assert set(defosc.__all__) <= set(namespace)
    for name in defosc.__all__:
        assert namespace[name] is getattr(defosc, name)


def test_all_is_the_union_of_the_module_surfaces():
    from defosc import dsf, errors, families, spectra

    assert defosc.__all__ == sorted([*dsf.__all__, *errors.__all__, *families.__all__,
                                     *spectra.__all__, *defosc._LAZY])


def test_lazy_list_matches_the_fock_layer_surfaces():
    import defosc.fock
    import defosc.symmetry

    assert set(defosc._LAZY) == set(defosc.fock.__all__) | set(defosc.symmetry.__all__)


def test_guard_band_reads_without_numpy():
    out = fresh("import sys, defosc; print(defosc.GUARD_BAND, 'numpy' in sys.modules)").stdout
    assert out == "0.0001 False\n"


def test_dir_lists_all():
    assert set(defosc.__all__) <= set(dir(defosc))


def test_lazy_names_are_the_submodule_objects():
    import defosc.fock
    import defosc.symmetry

    assert defosc.build_rep is defosc.fock.build_rep
    assert defosc.find_metric is defosc.symmetry.find_metric


def test_resolved_name_becomes_a_plain_attribute():
    out = fresh("import defosc; before = 'verify_ladder' in vars(defosc); "
                "defosc.verify_ladder; print(before, 'verify_ladder' in vars(defosc))").stdout
    assert out == "False True\n"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        defosc.no_such_name  # noqa: B018
