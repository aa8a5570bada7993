"""Seeded task lists, task bodies and output checks of the four workloads.

Boxes, task classes and pass sizes live in workloads.json.  Every task's
output is checked after the timed region against the 50-digit reference in
reference.py; the library is reached only through its public functions.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import reference as ref
from tracing import SHIM_MARKER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((BENCH / "workloads.json").read_text())
REL_TOL = SPEC["tolerance"]["relative"]
RESIDUAL_TOL = SPEC["tolerance"]["residual"]
DEGENERACY_GRID = 400  # find_degeneracy's documented default scan grid
CLI_TIMEOUT_S = 60


@dataclass(frozen=True)
class Task:
    index: int
    cls: str
    family: str | None = None
    q: float | None = None
    p: float | None = None
    size: int = 0            # n_max, level n, or dimension D
    m: int = 0               # second level of a degeneracy search
    lo: float = 0.0          # degeneracy search interval
    hi: float = 0.0
    tol: float = 0.0
    fmt: str = "csv"         # cli output format


class Check:
    """Accumulates one task's comparisons: worst relative error and first problem."""

    def __init__(self):
        self.max_err = 0.0
        self.problem: str | None = None

    def require(self, condition: bool, what: str) -> bool:
        if not condition and self.problem is None:
            self.problem = what
        return condition

    def close(self, value, reference: Decimal, what: str) -> bool:
        if not self.require(isinstance(value, (int, float)) and math.isfinite(value),
                            f"{what}: non-finite {value!r}"):
            return False
        if reference == 0:
            return self.require(value == 0, f"{what}: {value!r} != 0")
        err = float(abs(Decimal(value) - reference) / abs(reference))
        self.max_err = max(self.max_err, err)
        return self.require(err <= REL_TOL, f"{what}: {value!r} vs {reference:.17g} (rel {err:.3g})")

    def small(self, value, bound: float, what: str) -> bool:
        return self.require(isinstance(value, (int, float)) and math.isfinite(value)
                            and 0 <= value <= bound, f"{what}: {value!r} not in [0, {bound}]")


def _box_params(rng: random.Random, family: str, q_box, p_box) -> tuple[float, float | None]:
    q = rng.uniform(*q_box)
    return q, (rng.uniform(*p_box) if family.endswith("t") else None)


def _interval(rng: random.Random, sides) -> tuple[float, float]:
    side = sides[rng.randrange(len(sides))]
    lo, hi = sorted((rng.uniform(*side), rng.uniform(*side)))
    return lo, hi


def _stratified(rng: random.Random, box, count: int) -> list[int]:
    """`count` integers from box, one from each of `count` equal strata, shuffled.

    Every draw stays inside the box; the total work of a pass varies less
    from seed to seed than with independent draws.
    """
    lo, hi = box
    values = [lo + int((k + rng.random()) * (hi - lo + 1) / count) for k in range(count)]
    rng.shuffle(values)
    return values


def _levels(rng: random.Random, n_box) -> tuple[int, int]:
    n = rng.randint(*n_box)
    return n, rng.randrange(n)


def check_roots(chk: Check, family: str, n: int, m: int, lo: float, hi: float,
                tol: float, roots: list[tuple], signs: list[int]) -> None:
    """Roots of E(n) = E(m) against reference signs on the documented scan grid.

    The count must match the grid's sign changes, and each returned bracket
    must hold a 50-digit sign change no wider than tol.
    """
    expected = sum(1 for a, b in zip(signs, signs[1:]) if a == 0 or a * b < 0) + (signs[-1] == 0)
    chk.require(len(roots) == expected, f"{len(roots)} roots, reference grid has {expected}")
    chk.require([r[2] for r in roots] == sorted(r[2] for r in roots), "roots not ascending")
    for rn, rm, q_star, residual, b_lo, b_hi in roots:
        where = f"root {q_star!r}"
        chk.require((rn, rm) == (n, m), f"{where}: levels {(rn, rm)}")
        chk.require(lo <= b_lo <= q_star <= b_hi <= hi, f"{where}: bracket {(b_lo, b_hi)}")
        chk.require(b_hi - b_lo <= tol * (1 + 1e-9), f"{where}: bracket wider than {tol}")
        chk.small(residual, math.inf, f"{where}: residual")
        g_lo, g_hi = ref.energy_gap(family, b_lo, n, m), ref.energy_gap(family, b_hi, n, m)
        if chk.require(g_lo * g_hi <= 0, f"{where}: reference has no sign change in the bracket"):
            q_ref = Decimal(b_lo) if g_lo == g_hi else Decimal(b_lo) - g_lo * (Decimal(b_hi) - Decimal(b_lo)) / (g_hi - g_lo)
            chk.max_err = max(chk.max_err, float(abs(Decimal(q_star) - q_ref) / q_ref))


def scan_grid(lo: float, hi: float) -> list[float]:
    step = (hi - lo) / (DEGENERACY_GRID - 1)
    return [lo + i * step for i in range(DEGENERACY_GRID - 1)] + [hi]


class Workload:
    """Task list of one workload and how to run and check a task."""

    classes: tuple[str, ...] = ()
    refused: tuple[type, ...] = ()

    def __init__(self, name: str, seed: int):
        self.name = name
        self.spec = SPEC["workloads"][name]
        rng = random.Random(f"{name}:{seed}")
        self.tasks = [self.draw(rng, i) for i in range(self.spec["pass_tasks"])]
        self._refs: dict[int, object] = {}
        self._verdicts: dict[tuple, tuple] = {}

    def family(self, i: int) -> str:
        """Families cycle within each class so every class covers all of them."""
        fams = self.spec["families"]
        return fams[(i // len(self.classes)) % len(fams)]

    def draw(self, rng: random.Random, i: int) -> Task:
        raise NotImplementedError

    def run(self, task: Task, tracer=None):
        raise NotImplementedError

    def reference(self, task: Task):
        raise NotImplementedError

    def compare(self, chk: Check, task: Task, out, refs) -> None:
        raise NotImplementedError

    def summarize(self, out):
        """Hashable form of a task output (outside the timed region)."""
        return out

    def warmup_tasks(self) -> list[Task]:
        seen: dict[str, Task] = {}
        for task in self.tasks:
            seen.setdefault(task.cls, task)
        return list(seen.values())

    def check(self, task: Task, out) -> tuple[str, float, str | None]:
        """('ok' | 'failed' | 'refused', worst relative error, problem), memoised per output."""
        key = (task.index, out)
        if key not in self._verdicts:
            if task.index not in self._refs:
                self._refs[task.index] = self.reference(task)
            chk = Check()
            self.compare(chk, task, out, self._refs[task.index])
            status = "ok" if chk.problem is None else "failed"
            self._verdicts[key] = (status, chk.max_err, chk.problem)
        return self._verdicts[key]


class LibraryWorkload(Workload):
    """Runs tasks in-process against the `defosc` package."""

    def __init__(self, name: str, seed: int):
        import defosc
        from defosc.errors import DomainError, MetricError

        self.lib = defosc
        self.refused = (DomainError, MetricError)
        super().__init__(name, seed)

    def params(self, task: Task):
        return self.lib.DeformationParams(q=task.q, p=task.p)


class Tables(LibraryWorkload):
    classes = ("table", "recipe60", "recipe200")

    def draw(self, rng, i):
        if i == 0:
            self.n_max = _stratified(rng, self.spec["n_max"], len(range(0, self.spec["pass_tasks"], 3)))
        cls, family = self.classes[i % 3], self.family(i)
        q, p = _box_params(rng, family, self.spec["q"], self.spec["p"])
        size = {"table": self.n_max[i // 3], "recipe60": 60, "recipe200": 200}[cls]
        return Task(i, cls, family, q, p, size)

    def run(self, task, tracer=None):
        lib, params = self.lib, self.params(task)
        if task.cls == "table":
            phis = [lib.phi_closed(task.family, params, n) for n in range(task.size + 1)]
            return phis, lib.spectrum(task.family, params, task.size).energies
        pair = lib.gh_pair(task.family, params)
        if task.cls == "recipe60":
            return [lib.phi_from_gh(pair.G, pair.H, n) for n in range(61)]
        return lib.phi_from_gh(pair.G, pair.H, 200)

    def summarize(self, out):
        if isinstance(out, tuple):
            phis, energies = out
            return tuple(phis), tuple(energies)
        return tuple(out) if isinstance(out, list) else out

    def reference(self, task):
        phi = ref.phi_table(task.family, task.q, task.p, task.size + 1)
        return phi, ref.energies(phi)

    def compare(self, chk, task, out, refs):
        phi, energies = refs
        if task.cls == "table":
            phis, rows = out
            chk.require(len(phis) == task.size + 1 and len(rows) == task.size + 1, "table length")
            for n, value in enumerate(phis[: task.size + 1]):
                chk.close(value, phi[n], f"phi({n})")
            for n, row in enumerate(rows[: task.size + 1]):
                chk.require(row[0] == n, f"spectrum row {n} labelled {row[0]!r}")
                chk.close(row[1], energies[n], f"E({n})")
        elif task.cls == "recipe60":
            chk.require(len(out) == 61, "recipe table length")
            for n, value in enumerate(out[:61]):
                chk.close(value, phi[n], f"phi_from_gh({n})")
        else:
            chk.close(out, phi[200], "phi_from_gh(200)")


class Roots(LibraryWorkload):
    classes = ("criterion1", "search")

    def __init__(self, name, seed):
        self.fixed = SPEC["workloads"][name]["criterion1"]
        super().__init__(name, seed)

    def draw(self, rng, i):
        if i < len(self.fixed):
            family, n, m, (lo, hi), tol = self.fixed[i]
            return Task(i, "criterion1", family, size=n, m=m, lo=lo, hi=hi, tol=tol)
        n, m = _levels(rng, self.spec["n"])
        lo, hi = _interval(rng, self.spec["q_sides"])
        tol = self.spec["tol"][rng.randrange(len(self.spec["tol"]))]
        return Task(i, "search", self.family(i), size=n, m=m, lo=lo, hi=hi, tol=tol)

    def run(self, task, tracer=None):
        return self.lib.find_degeneracy(task.family, task.size, task.m, (task.lo, task.hi), task.tol)

    def summarize(self, out):
        return tuple((r.n, r.m, r.q_star, r.residual, r.bracket[0], r.bracket[1]) for r in out)

    def reference(self, task):
        return ref.gap_signs(task.family, scan_grid(task.lo, task.hi), task.size, task.m)

    def compare(self, chk, task, out, signs):
        check_roots(chk, task.family, task.size, task.m, task.lo, task.hi, task.tol, list(out), signs)


def rep_bytes(rep) -> int:
    """Computed bytes of the array fields of a FockRep."""
    values = ([getattr(rep, f.name) for f in dataclasses.fields(rep)]
              if dataclasses.is_dataclass(rep) else list(vars(rep).values()))
    return sum(int(v.nbytes) for v in values if hasattr(v, "nbytes") and hasattr(v, "dtype"))


class Verify(LibraryWorkload):
    classes = ("D30", "D100", "D300")

    def draw(self, rng, i):
        cls, family = self.classes[i % 3], self.family(i)
        q, p = _box_params(rng, family, self.spec["q"], self.spec["p"])
        return Task(i, cls, family, q, p, int(cls[1:]))

    def run(self, task, tracer=None):
        lib, params = self.lib, self.params(task)
        rep = lib.build_rep(task.family, params, task.size)
        reports = (lib.verify_heisenberg(rep), lib.verify_gh_relation(rep), lib.verify_ladder(rep))
        recursion = lib.verify_ratio_recursions(lib.coefficients(task.family, params), params, task.size)
        defects = (lib.hermiticity_defect(rep, "X"), lib.hermiticity_defect(rep, "P"))
        metrics = (lib.find_metric(rep, "X"), lib.find_metric(rep, "P")) if task.size == 30 else ()
        return reports, recursion, defects, metrics, rep_bytes(rep)

    def summarize(self, out):
        reports, recursion, defects, metrics, nbytes = out
        return (tuple((r.name, r.residual, r.boundary, r.tol, r.passed) for r in reports),
                recursion, tuple(defects),
                tuple((tuple(m.eta.tolist()), m.residual) for m in metrics), nbytes)

    def reference(self, task):
        refs = {"defect": {t: ref.hermiticity_defect(task.family, task.q, task.p, task.size, t)
                           for t in "XP"}}
        if task.size == 30:
            refs["eta"] = {t: ref.metric_eta(task.family, task.q, task.p, task.size, t) for t in "XP"}
        return refs

    def compare(self, chk, task, out, refs):
        reports, recursion, defects, metrics, _ = out
        chk.require([r[0] for r in reports] == ["heisenberg", "gh_relation", "ladder"], "report names")
        for name, residual, boundary, _tol, passed in reports:
            chk.small(residual, RESIDUAL_TOL, f"{name} residual")
            chk.small(boundary, math.inf, f"{name} boundary")
            chk.require(passed is True, f"{name} not passed")
        chk.small(recursion, RESIDUAL_TOL, "ratio recursions")
        for target, value in zip("XP", defects):
            check_defect(chk, value, *refs["defect"][target], f"hermiticity_defect {target}")
        chk.require(len(metrics) == (2 if task.size == 30 else 0), "metric count")
        for target, (eta, residual) in zip("XP", metrics):
            chk.small(residual, RESIDUAL_TOL, f"find_metric {target} residual")
            chk.require(len(eta) == task.size, f"find_metric {target} length")
            for n, (value, expect) in enumerate(zip(eta, refs["eta"][target])):
                chk.close(value, expect, f"eta_{target}({n})")


def check_defect(chk: Check, value, defect: Decimal, scale: Decimal, what: str) -> None:
    """Hermiticity defects cancel; judge them against the size of the entries forming them."""
    if chk.require(isinstance(value, float) and math.isfinite(value), f"{what}: {value!r}"):
        err = float(abs(Decimal(value) - defect) / scale) if scale else abs(value)
        chk.max_err = max(chk.max_err, err)
        chk.require(err <= REL_TOL, f"{what}: {value!r} vs {defect:.17g}")


# ---------------------------------------------------------------------------
# cli: one fresh process per task
# ---------------------------------------------------------------------------

def strict_json(text: str):
    """json.loads that rejects NaN and +-Infinity, which are not JSON."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


FIG1 = (1.015, 100, ("A", "B", "C"))
CLI_KINDS = (("dsf", "csv"), ("dsf", "json"), ("fig1", "csv"), ("fig1", "json"),
             ("spectrum", "csv"), ("spectrum", "json"), ("verify", "json"),
             ("degeneracy", "csv"), ("degeneracy", "json"))


class Cli(Workload):
    classes = tuple(kind for kind, _ in CLI_KINDS)

    def warmup_tasks(self):
        return self.tasks[:1]

    def family(self, i):
        # nine kinds against eight families: each kind meets five families per pass
        fams = self.spec["families"]
        return fams[i % len(fams)]

    def draw(self, rng, i):
        cls, fmt = CLI_KINDS[i % len(CLI_KINDS)]
        spec = self.spec
        if cls == "fig1":
            return Task(i, cls, fmt=fmt)
        if cls == "degeneracy":
            family = "ABCD"[i % 4]
            n, m = _levels(rng, spec["degeneracy_n"])
            lo, hi = _interval(rng, SPEC["workloads"]["roots"]["q_sides"])
            tol = SPEC["workloads"]["roots"]["tol"][rng.randrange(2)]
            return Task(i, cls, family, size=n, m=m, lo=lo, hi=hi, tol=tol, fmt=fmt)
        family = self.family(i)
        if cls == "verify":
            q, p = _box_params(rng, family, spec["verify_q"], spec["verify_p"])
            return Task(i, cls, family, q, p, spec["dim"], fmt=fmt)
        q, p = _box_params(rng, family, spec["q"], spec["p"])
        return Task(i, cls, family, q, p, rng.randint(*spec["n_max"]), fmt=fmt)

    @staticmethod
    def argv(task: Task) -> list[str]:
        if task.cls == "fig1":
            return ["dsf", "--fig1", "--format", task.fmt]
        if task.cls == "degeneracy":
            return ["degeneracy", "--family", task.family, "--n", str(task.size), "--m", str(task.m),
                    "--q-range", f"{task.lo!r}:{task.hi!r}", "--tol", repr(task.tol),
                    "--format", task.fmt]
        args = [task.cls, "--family", task.family, "--q", repr(task.q)]
        if task.p is not None:
            args += ["--p", repr(task.p)]
        if task.cls == "verify":
            return args + ["--dim", str(task.size)]
        return args + ["--n-max", str(task.size), "--format", task.fmt]

    def run(self, task, tracer=None):
        """(exit code, stdout, stderr) of one CLI process; spans go to `tracer` if given."""
        entry = [str(BENCH / "cli_shim.py")] if tracer else ["-m", "defosc.cli"]
        proc = subprocess.run([sys.executable, *entry, *self.argv(task)], cwd=ROOT, env=cli_env(),
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        stderr = proc.stderr
        if tracer is not None and SHIM_MARKER in stderr:
            stderr, _, payload = stderr.rpartition(SHIM_MARKER)
            data = json.loads(payload)
            tracer.adopt(data["spans"])
        return proc.returncode, proc.stdout, stderr

    def check(self, task, out):
        code, _stdout, stderr = out
        if code == 2 and stderr.startswith("error:"):
            return "refused", 0.0, stderr.strip()
        return super().check(task, out)

    def reference(self, task):
        if task.cls == "fig1":
            q, n_max, fams = FIG1
            return [ref.phi_table(f, q, None, n_max) for f in fams]
        if task.cls == "dsf":
            return [ref.phi_table(task.family, task.q, task.p, task.size)]
        if task.cls == "spectrum":
            refs = [ref.energies(ref.phi_table(task.family, task.q, task.p, task.size + 1))]
            if task.p is None:
                refs.append([ref.energies(ref.phi_table(f, task.q, None, 1))[0] for f in "ABCD"])
            return refs
        if task.cls == "verify":
            return {t: ref.hermiticity_defect(task.family, task.q, task.p, task.size, t) for t in "XP"}
        return ref.gap_signs(task.family, scan_grid(task.lo, task.hi), task.size, task.m)

    def compare(self, chk, task, out, refs):
        code, stdout, stderr = out
        if not chk.require(code == 0, f"exit code {code}: {stderr.strip()[-200:]}"):
            return
        try:
            if task.cls == "verify":
                self._verify(chk, task, strict_json(stdout), refs)
            elif task.cls == "degeneracy":
                roots = self._table(chk, task, stdout, ["n", "m", "q_star", "residual", "q_lo", "q_hi"])
                check_roots(chk, task.family, task.size, task.m, task.lo, task.hi, task.tol, roots, refs)
            else:
                self._tables(chk, task, stdout, stderr, refs)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            chk.require(False, f"unparsable output: {exc!r}")

    def _table(self, chk, task, stdout, header) -> list[tuple]:
        if task.fmt == "json":
            data = strict_json(stdout)
            if task.cls == "degeneracy":
                return [(r["n"], r["m"], r["q_star"], r["residual"], *r["bracket"]) for r in data["roots"]]
            chk.require(data["columns"] == header, f"columns {data['columns']}")
            return [tuple(row) for row in data["rows"]]
        lines = stdout.split("\n")
        chk.require(lines[0] == ",".join(header) and lines[-1] == "", "csv header or final newline")
        return [tuple(int(c) if c.lstrip("-").isdigit() else float(c) for c in line.split(","))
                for line in lines[1:-1]]

    def _tables(self, chk, task, stdout, stderr, refs):
        if task.cls == "fig1":
            header, columns, n_max = ["n", "SF1", "SF2", "SF3"], refs, FIG1[1]
        elif task.cls == "dsf":
            header, columns, n_max = ["n", "phi"], refs, task.size
        else:
            header, columns, n_max = ["n", "E"], refs[:1], task.size
        rows = self._table(chk, task, stdout, header)
        chk.require(len(rows) == n_max + 1, f"{len(rows)} rows")
        for n, row in enumerate(rows[: n_max + 1]):
            chk.require(row[0] == n and len(row) == len(header), f"row {n}: {row[:2]}")
            for value, column in zip(row[1:], columns):
                chk.close(value, column[n], f"{header[1]}({n})")
        if task.cls == "spectrum" and task.p is None:
            if task.fmt == "json":
                ground = strict_json(stdout)["ground_state"]
                values = [ground[f"E{j}"] for j in range(1, 5)]
            else:
                values = [float(v) for v in re.findall(r"E\d\(0\) = (\S+?)(?:,|$)", stderr.strip())]
            chk.require(len(values) == 4, "ground-state values")
            for j, (value, expect) in enumerate(zip(values, refs[1]), start=1):
                chk.close(value, expect, f"E{j}(0)")

    def _verify(self, chk, task, report, refs):
        meta = report["meta"]
        chk.require((meta["family"], meta["q"], meta["p"], meta["dim"], meta["trusted"])
                    == (task.family, task.q, task.p, task.size, task.size - 1), f"meta {meta}")
        for name, value in report["residuals"].items():
            chk.small(value, RESIDUAL_TOL, f"{name} residual")
        for name, value in report["boundary"].items():
            chk.small(value, math.inf, f"{name} boundary")
        chk.require(set(report["residuals"]) == {"heisenberg", "gh_relation", "ladder", "ratio_recursions"},
                    "residual keys")
        for target in "XP":
            check_defect(chk, report["hermiticity_defect"][target], *refs[target],
                         f"hermiticity_defect {target}")
        chk.require(report["passed"] is True, "passed is not true")


WORKLOADS = {"tables": Tables, "roots": Roots, "verify": Verify, "cli": Cli}
