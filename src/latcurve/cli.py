"""Command-line front end.

    latcurve <invariants|table|homology|spectral|motivic|classify|catalog>
             [--germ FILE | --builtin NAME[,param,...]]
             [--bound L1,..,Lr] [--format table|json] [--depth D]
             [--e1 l1,..,lr,k,n]... [--mincycle k,n]...

One parser serves every command, and its options may come before or
after the command.  A command refuses, as a parse error, an option it
does not read: ``--e1`` and ``--mincycle`` are spectral-only,
``--depth`` is motivic-only, and ``catalog`` takes no ``--germ`` or
``--bound``.  Without ``--format`` a command prints its table;
``catalog --builtin`` prints its descriptor JSON and refuses
``--format table``.

Reports are deterministic for a fixed input: JSON output carries no
timestamps and sorts its keys, so golden files diff cleanly.  Exit
codes: 0 success; 1 invalid input that no grid bound mends, such as germ
data that is no germ or a grid past ``lattice.MAX_GRID_POINTS``; 2 parse
error (a malformed descriptor or argument, a negative ``--depth`` or
``--e1`` point); 3 margin/bound error; 4 route disagreement.  Every
failure prints one ``error: `` line (a margin error adds a hint line) to
stderr and nothing to stdout; an outside value it echoes is cut
(``errors.cut``).  ``table`` reads w and the semigroup table on R(0, c)
as two arrays.

Each command handler imports the reading layer it reads, so a process
loads only what its command needs on top of the model layer (``errors``,
``lattice``, ``germ``) and ``classify``: ``table`` and ``catalog`` load
no reading layer, ``invariants`` and ``homology`` load ``homology``
(and ``snf`` only for a torsion fallback), ``spectral`` loads
``spectral`` (with ``snf``), ``motivic`` loads ``motivic``, and
``classify`` loads ``motivic`` and ``spectral``.  The source decides
the rest: ``--builtin`` and the ``catalog`` command load ``catalog``
(with ``series``), a ``poincare`` file loads ``series``, and a
``semigroup`` or ``hilbert`` file neither.

``run`` is the process entry (the ``latcurve`` console script and
``python -m latcurve.cli``): it calls ``main``, then ``gc.freeze()``,
then ``sys.exit``.  Interpreter teardown runs full collections over
every tracked object, about 22k after a command, most of them numpy's;
frozen objects sit in the permanent generation, which those
collections skip.  The exit of ``table --builtin D,5`` took 38 ms
without the freeze and 9 ms with it (median of 11 fresh processes on a
2-vCPU x86_64 VM).  ``main`` itself never freezes, so a caller that
runs it inside its own process keeps a heap it can collect.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import sys
from dataclasses import replace

import numpy as np

from .classify import certified_omega, classify
from .errors import (
    ECHO_CHARS,
    DescriptorError,
    LatcurveError,
    MarginTooSmall,
    RouteDisagreement,
    cut,
)
from .germ import GermDescriptor, build_model, descriptor_from_json
from .lattice import conductor_values, ones, scale

EXIT_OK, EXIT_INVALID, EXIT_PARSE, EXIT_MARGIN, EXIT_ROUTES = 0, 1, 2, 3, 4


# the outside text that an argparse message echoes whole: a refused value
# (its repr, before the choices where it has them) or the arguments left
# over; compiled on the first error, not at import (about 0.25 ms)
_ECHOED = (
    r"(?s)((?:invalid choice|invalid int value|unrecognized arguments): )(.*?)"
    r"( \(choose from [^()]*\))?$"
)


class _Parser(argparse.ArgumentParser):
    """An argument error is a DescriptorError, reported like any other,
    with the outside text it echoes cut (``errors.cut``)."""

    def error(self, message):
        raise DescriptorError(
            re.sub(_ECHOED, lambda m: m[1] + cut(m[2]) + (m[3] or ""), message)
        )


def _parse_point(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise DescriptorError(f"expected a comma-separated integer tuple, got {cut(repr(text))}")


def _builtin(spec) -> GermDescriptor:
    from .catalog import get

    name, *params = spec.split(",")
    try:
        values = [int(p) for p in params]
    except ValueError:
        raise DescriptorError(f"builtin parameters must be integers, got {cut(repr(spec))}")
    return get(name, *values)


def _load_descriptor(args) -> GermDescriptor:
    # an empty value is given, not absent
    if (args.germ is None) == (args.builtin is None):
        raise DescriptorError("exactly one of --germ FILE or --builtin NAME required")
    if args.germ is not None:
        try:
            with open(args.germ, "r", encoding="utf-8") as fh:
                desc = descriptor_from_json(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            # the reason may name the path again: room for three echoes
            raise DescriptorError(cut(f"cannot read {args.germ}: {exc}", 3 * ECHO_CHARS))
    else:
        desc = _builtin(args.builtin)
    if args.bound is not None:
        desc = replace(desc, bound=_parse_point(args.bound))
    return desc


def _emit(report: dict, args, render_table) -> None:
    if args.format == "json":
        sys.stdout.write(
            json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
        )
    else:
        render_table(report)


def _basic_header(model):
    return {
        "version": 1,
        "germ": model.name,
        "r": model.r,
        "bound": list(model.bound),
    }


def cmd_invariants(model, args):
    from .homology import euler_characteristic, lattice_homology

    report = _basic_header(model)
    hom = lattice_homology(model.weight)
    report["invariants"] = {
        "multiplicity": list(model.multiplicity),
        "conductor": list(model.conductor),
        "delta": model.delta,
        "min_w": model.min_w,
        "gorenstein": model.is_gorenstein,
        "euler_characteristic": euler_characteristic(hom, model.weight),
    }

    def render(rep):
        inv = rep["invariants"]
        print(f"germ          {rep['germ']}")
        print(f"branches r    {rep['r']}")
        print(f"multiplicity  {tuple(inv['multiplicity'])}")
        print(f"conductor     {tuple(inv['conductor'])}")
        print(f"delta         {inv['delta']}")
        print(f"min w         {inv['min_w']}")
        print(f"gorenstein    {inv['gorenstein']}")
        print(f"euler char    {inv['euler_characteristic']}")

    _emit(report, args, render)


def render_weight_table(model) -> list[str]:
    """The lines of w on R(0, c) as the reference tables lay it out, read
    off two arrays on R(0, c) (``lattice.conductor_values`` and the
    table's mask): rows l2 descending, columns l1 ascending, for r >= 3
    one block per (l3, .., lr); members starred, the conductor bracketed."""
    w = conductor_values(model.weight)
    values = w.ravel().tolist()
    members = model.semigroup.mask.ravel().tolist()
    cells = [f"{v}*" if s else str(v) for v, s in zip(values, members)]
    cells[-1] = f"[{values[-1]}]"  # c, the last point of R(0, c)
    if model.r == 1:
        width = max(map(len, cells))
        return [
            "l:  " + " ".join(str(x).rjust(width) for x in range(len(cells))),
            "w:  " + " ".join(t.rjust(width) for t in cells),
        ]
    grid = np.array(cells).reshape(w.shape).transpose(*range(2, model.r), 1, 0)
    lines = []
    for rest in np.ndindex(grid.shape[:-2]):  # (l3, .., lr) in row-major order
        if rest:
            lines.append("[" + ",".join(f"l{i + 3}={v}" for i, v in enumerate(rest)) + "]")
        rows = grid[rest].tolist()  # rows[l2][l1]
        width = max(len(t) for row in rows for t in row)
        for y in reversed(range(len(rows))):
            lines.append(f"l2={y}: " + " ".join(t.rjust(width) for t in rows[y]))
        lines.append("")
    return lines


def cmd_table(model, args):
    report = _basic_header(model)
    report["table"] = render_weight_table(model)

    def render(rep):
        for line in rep["table"]:
            print(line)

    _emit(report, args, render)


def cmd_homology(model, args):
    from .homology import euler_characteristic, lattice_homology

    report = _basic_header(model)
    hom = lattice_homology(model.weight)
    rows = []
    for n in range(hom.n_min, hom.n_top + 1):
        for k in range(model.r):
            rank, torsion = hom.table[n][k]
            if rank == 0 and not torsion and k > 0:
                continue
            rows.append(
                {
                    "k": k,
                    "n": n,
                    "rank": rank,
                    "torsion": list(torsion),
                    "u_rank": hom.u_rank(k, n),
                }
            )
    report["homology"] = rows
    report["euler_characteristic"] = euler_characteristic(hom, model.weight)

    def render(rep):
        print("  k    n  rank  torsion  U-rank")
        for row in rep["homology"]:
            print(
                f"{row['k']:3d} {row['n']:4d} {row['rank']:5d}  "
                f"{row['torsion'] or '-'!s:>7}  {row['u_rank']:5d}"
            )
        print(f"euler characteristic = {rep['euler_characteristic']}")

    _emit(report, args, render)


def cmd_spectral(model, args):
    from .spectral import e1_refined, minimal_spectral_cycles, pe_series

    report = _basic_header(model)
    queries = []
    for spec in args.e1 or []:
        vals = _parse_point(spec)
        if len(vals) != model.r + 2:
            raise DescriptorError(f"--e1 needs l1..l{model.r},k,n")
        ell, k, n = vals[: model.r], vals[model.r], vals[model.r + 1]
        if min(ell) < 0:
            raise DescriptorError(f"--e1 point {ell} has a negative coordinate")
        entry = e1_refined(model.weight, ell, k, n)
        queries.append(
            {"ell": list(ell), "k": k, "n": n, "rank": entry.rank, "kind": "e1"}
        )
    for spec in args.mincycle or []:
        vals = _parse_point(spec)
        if len(vals) != 2:
            raise DescriptorError("--mincycle needs k,n")
        k, n = vals
        group = minimal_spectral_cycles(model.weight, k, n)
        queries.append(
            {
                "k": k,
                "n": n,
                "j": group.j,
                "rank": group.rank,
                "kind": "mincycle",
            }
        )
    if not queries:
        table = pe_series(model.weight, model.conductor)
        for (ell, n, k), rank in sorted(table.items()):
            queries.append(
                {"ell": list(ell), "k": k, "n": n, "rank": rank, "kind": "e1"}
            )
    report["spectral"] = queries

    def render(rep):
        for q in rep["spectral"]:
            if q["kind"] == "mincycle":
                print(f"M(k={q['k']}, n={q['n']})  j={q['j']}  rank {q['rank']}")
            else:
                print(
                    f"E1 at l={tuple(q['ell'])}  k={q['k']}  n={q['n']}  rank {q['rank']}"
                )

    _emit(report, args, render)


def cmd_motivic(model, args):
    from .motivic import univariate_levels

    depth = args.depth if args.depth is not None else 3
    report = _basic_header(model)
    model = model.ensure_bound(scale(depth + 1, ones(model.r)))
    levels = [
        {"d": d, "coeffs": {str(e): c for e, c in p.coeffs}}
        for d, p in enumerate(univariate_levels(model.hilbert, depth))
    ]
    series, _ = certified_omega(model, depth)
    report["motivic"] = {
        "levels": levels,
        "omega_order": series.order,
        "omega_coeffs": list(series.coeffs),
        "depth": depth,
    }

    def render(rep):
        for level in rep["motivic"]["levels"]:
            terms = ", ".join(
                f"{c}*q^{e}" for e, c in sorted(
                    ((int(e), c) for e, c in level["coeffs"].items())
                )
            ) or "0"
            print(f"p_{level['d']}(q) = {terms}")
        om = rep["motivic"]
        print(
            f"f(omega): order {om['omega_order']}, coefficients "
            f"{om['omega_coeffs']} (through omega^{om['depth']})"
        )

    _emit(report, args, render)


def cmd_classify(model, args):
    verdict = classify(model)
    report = _basic_header(verdict.model)
    report["verdict"] = {
        "cmtype": verdict.cmtype,
        "subtype": verdict.subtype,
        "growth": verdict.growth,
        "family": verdict.family,
        "agreement": verdict.agreement,
        "routes": verdict.routes,
    }

    def render(rep):
        v = rep["verdict"]
        line = f"CM type: {v['cmtype']}"
        if v["subtype"]:
            line += f" ({v['subtype']})"
        if v["growth"]:
            line += f", {v['growth']} growth"
        if v["family"]:
            line += f", plane unimodal family: {v['family']}"
        print(line)
        print(f"routes agree: {v['agreement']} (3/3)")
        for name, ev in v["routes"].items():
            print(f"  [{name}] {json.dumps(ev, sort_keys=True, default=str)}")

    _emit(report, args, render)


def cmd_catalog(args):
    from .catalog import list_entries

    if args.builtin is not None:
        desc = _builtin(args.builtin)
        sys.stdout.write(desc.to_json())
        return
    listing = list_entries()
    if args.format == "json":
        doc = {"version": 1, "entries": [{"name": n, "params": d} for n, d in listing]}
        sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        for name, detail in listing:
            print(f"{name:6s} {detail}")


# command -> handler of a model; ``catalog`` reads no model
_HANDLERS = {
    "invariants": cmd_invariants,
    "table": cmd_table,
    "homology": cmd_homology,
    "spectral": cmd_spectral,
    "motivic": cmd_motivic,
    "classify": cmd_classify,
}

# option -> the one command that reads it
_OWNER = {"--depth": "motivic", "--e1": "spectral", "--mincycle": "spectral"}


def make_parser():
    """One parser for every command, each option declared once."""
    parser = _Parser(
        prog="latcurve",
        description="lattice, spectral, and motivic invariants of curve germs",
    )
    parser.add_argument("command", choices=(*_HANDLERS, "catalog"))
    parser.add_argument("--germ", help="descriptor JSON file")
    parser.add_argument("--builtin", help="catalog germ, e.g. D,5 or T,4,4 or E12")
    parser.add_argument("--bound", help="grid bound override L1,..,Lr")
    parser.add_argument(
        "--format",
        choices=("table", "json"),
        help="table when not given; catalog --builtin prints JSON only",
    )
    parser.add_argument("--depth", type=int, default=None, help="motivic only: truncation depth")
    parser.add_argument(
        "--e1", action="append", help="spectral only: refined query l1,..,lr,k,n"
    )
    parser.add_argument("--mincycle", action="append", help="spectral only: query k,n")
    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        if args.depth is not None and args.depth < 0:
            raise DescriptorError(f"--depth must be >= 0, got {args.depth}")
        for option, owner in _OWNER.items():
            if getattr(args, option[2:]) is not None and args.command != owner:
                raise DescriptorError(
                    f"argument {option}: only the {owner} command takes it"
                )
        if args.command == "catalog":
            for option in ("--germ", "--bound"):
                if getattr(args, option[2:]) is not None:
                    raise DescriptorError(
                        f"argument {option}: the catalog command does not take it"
                    )
            if args.builtin is not None and args.format == "table":
                raise DescriptorError(
                    "argument --format: catalog --builtin prints JSON only"
                )
            cmd_catalog(args)
            return EXIT_OK
        model = build_model(_load_descriptor(args))
        _HANDLERS[args.command](model, args)
        return EXIT_OK
    except DescriptorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MarginTooSmall as exc:
        print(
            f"error: {exc}\nhint: enlarge the grid with --bound", file=sys.stderr
        )
        return EXIT_MARGIN
    except RouteDisagreement as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ROUTES
    except LatcurveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def run() -> None:
    """The process entry: ``main`` on ``sys.argv``, then ``gc.freeze()``
    so that teardown collects none of the objects made so far, then
    ``sys.exit`` with its code (stdout is flushed, atexit handlers run)."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
