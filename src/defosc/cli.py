"""Command-line front end: scriptable tables and verification reports.

Subcommands
-----------
dsf         structure-function table (n, phi(n)); --fig1 emits the three-way
            comparison dataset at q = 1.015 (columns n, SF1, SF2, SF3)
spectrum    energy table (n, E(n)) plus ground-state closed forms
verify      residuals of the defining algebra identities (JSON report)
degeneracy  solved parameter values q* with E(n) = E(m) in a q interval

Exit codes: 0 success, 1 verification failure, 2 usage or domain error
(including a value that leaves the double-precision range, a negative
--n-max and a NaN, non-positive or infinite --tol).
Only `verify` imports the Fock layer (`fock`, `symmetry`) and with it numpy;
the other subcommands run on the numpy-free scalar modules.
Output is deterministic: floats are printed with 17 significant digits, CSV
uses LF endings, JSON keys keep a fixed order.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dsf import DeformationParams, FamilyId, _check_level, _check_tol, _phi_table, phi_closed
from .errors import DomainError
from .families import coefficients, verify_ratio_recursions
from .spectra import find_degeneracy, ground_state_table, spectrum

FIG1_Q = 1.015
FIG1_N_MAX = 100
FIG1_FAMILIES = ("A", "B", "C")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _params(args: argparse.Namespace) -> DeformationParams:
    if args.q is None:
        raise DomainError("--q is required for this command")
    return DeformationParams(q=args.q, p=args.p)


def _family(args: argparse.Namespace) -> FamilyId:
    if args.family is None:
        raise DomainError("--family is required for this command")
    return FamilyId.parse(args.family)


def _write(args: argparse.Namespace, text: str) -> None:
    if args.output_path:
        with open(args.output_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def _meta(family: FamilyId | None, args: argparse.Namespace, **extra) -> dict:
    meta = {
        "family": family.tag.value if family else None,
        "q": args.q,
        "p": args.p,
    }
    meta.update(extra)
    return meta


def _table_output(args: argparse.Namespace, family: FamilyId | None, header: list[str],
                  rows: list[list], extra: dict | None = None, **meta_extra) -> None:
    """Write `rows` as CSV, or as JSON {meta, columns, rows} followed by the keys of `extra`."""
    if args.output_format == "json":
        payload = {
            "meta": _meta(family, args, **meta_extra),
            "columns": header,
            "rows": [[row[0]] + [float(cell) for cell in row[1:]] for row in rows],
            **(extra or {}),
        }
        _write(args, _json_text(payload))
    else:
        _write(args, _csv(header, rows))


def cmd_dsf(args: argparse.Namespace) -> int:
    if args.fig1:
        params = DeformationParams(q=FIG1_Q)
        columns = [_phi_table(FamilyId.parse(fam), params, FIG1_N_MAX + 1) for fam in FIG1_FAMILIES]
        rows = [[n, *values] for n, values in enumerate(zip(*columns))]
        _table_output(args, None, ["n", "SF1", "SF2", "SF3"], rows,
                      q=FIG1_Q, n_max=FIG1_N_MAX)
        return 0
    family = _family(args)
    params = _params(args)
    _check_level(args.n_max, "n_max")
    rows = [[n, phi] for n, phi in enumerate(_phi_table(family, params, args.n_max + 1))]
    _table_output(args, family, ["n", "phi"], rows, n_max=args.n_max)
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    family = _family(args)
    params = _params(args)
    rows = spectrum(family, params, args.n_max).energies
    extra = {}
    if not params.two_parameter:
        e1, e2, e3, e4 = ground_state_table(params)
        extra["ground_state"] = {"E1": e1, "E2": e2, "E3": e3, "E4": e4}
    _table_output(args, family, ["n", "E"], rows, extra, n_max=args.n_max)
    if extra and args.output_format == "csv":
        note = ", ".join(f"{k}(0) = {_fmt(v)}" for k, v in extra["ground_state"].items())
        print(f"ground-state closed forms: {note}", file=sys.stderr)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    # the Fock layer needs numpy; importing it here keeps the other commands numpy-free
    from .fock import build_rep, verify_gh_relation, verify_heisenberg, verify_ladder
    from .symmetry import hermiticity_defect

    family = _family(args)
    params = _params(args)
    _check_tol(args.tol)
    phi = None
    if args.perturb:
        eps = args.perturb

        def phi(n, _f=family, _p=params, _e=eps):  # noqa: E731
            return phi_closed(_f, _p, n) * (1.0 + _e) if n else 0.0

    rep = build_rep(family, params, args.dim, phi=phi)
    checks = [
        verify_heisenberg(rep, args.tol),
        verify_gh_relation(rep, tol=args.tol),
        verify_ladder(rep, args.tol),
    ]
    recursion = verify_ratio_recursions(coefficients(family, params), params, args.dim)
    residuals = {check.name: check.residual for check in checks}
    residuals["ratio_recursions"] = recursion
    passed = all(value <= args.tol for value in residuals.values())
    report = {
        "meta": _meta(family, args, dim=args.dim, trusted=rep.trusted, tol=args.tol),
        "residuals": residuals,
        "boundary": {check.name: check.boundary for check in checks},
        "hermiticity_defect": {
            "X": hermiticity_defect(rep, "X"),
            "P": hermiticity_defect(rep, "P"),
        },
        "passed": passed,
    }
    _write(args, _json_text(report))
    if passed:
        return 0
    failing = sorted(name for name, value in residuals.items() if value > args.tol)
    print(f"verification failed: {', '.join(failing)}", file=sys.stderr)
    return 1


def cmd_degeneracy(args: argparse.Namespace) -> int:
    family = _family(args)
    if args.n is None or args.m is None:
        raise DomainError("--n and --m are required for degeneracy searches")
    if args.q_range is None:
        raise DomainError("--q-range lo:hi is required for degeneracy searches")
    roots = find_degeneracy(family, args.n, args.m, args.q_range, args.tol)
    if args.output_format == "json":
        payload = {
            "meta": _meta(family, args, n=args.n, m=args.m,
                          q_range=list(args.q_range), tol=args.tol),
            "roots": [
                {
                    "n": root.n,
                    "m": root.m,
                    "q_star": root.q_star,
                    "residual": root.residual,
                    "bracket": list(root.bracket),
                }
                for root in roots
            ],
        }
        _write(args, _json_text(payload))
    else:
        rows = [[str(root.n), str(root.m), root.q_star, root.residual, *root.bracket]
                for root in roots]
        _write(args, _csv(["n", "m", "q_star", "residual", "q_lo", "q_hi"], rows))
    return 0


def _parse_q_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defosc",
        description="Deformed-oscillator structure functions, spectra and algebra checks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--family", help="family tag: A, B, C, D, At, Bt, Ct, Dt")
    common.add_argument("--q", type=float, help="deformation parameter q > 0")
    common.add_argument("--p", type=float, help="second deformation parameter (two-parameter families)")
    common.add_argument("--n-max", type=int, default=100, help="highest level in tables (default 100)")
    common.add_argument("--dim", type=int, default=30, help="Fock truncation dimension (default 30)")
    common.add_argument("--tol", type=float, default=1e-10, help="residual/root tolerance (default 1e-10)")
    common.add_argument("--format", choices=("csv", "json"), default="csv", dest="output_format")
    common.add_argument("--out", dest="output_path", help="write output to this file instead of stdout")

    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_dsf = sub.add_parser("dsf", parents=[common], help="structure-function table")
    p_dsf.add_argument("--fig1", action="store_true",
                       help="emit the three-family comparison dataset at q = 1.015")

    sub.add_parser("spectrum", parents=[common], help="energy table")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="verify the defining algebra identities (JSON report)")
    p_verify.add_argument("--perturb", type=float, default=0.0,
                          help="corrupt phi by a relative factor (sensitivity test hook)")

    p_deg = sub.add_parser("degeneracy", parents=[common], help="solve E(n) = E(m) for q")
    p_deg.add_argument("--n", type=int, help="first level")
    p_deg.add_argument("--m", type=int, help="second level")
    p_deg.add_argument("--q-range", type=_parse_q_range, dest="q_range",
                       help="search interval lo:hi")
    return parser


_DISPATCH = {
    "dsf": cmd_dsf,
    "spectrum": cmd_spectrum,
    "verify": cmd_verify,
    "degeneracy": cmd_degeneracy,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.subcommand](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
