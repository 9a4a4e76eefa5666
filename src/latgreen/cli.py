"""Command line driver.

Three command groups: `coeffs` (tables, with an on-disk cache), `ode`
(operator verification, fitting, Frobenius/Yukawa/Wronskian reports) and
`eval` (numeric evaluation).  Reports are JSON on stdout with sorted
keys; every big integer and every float travels as a decimal string so
nothing is rounded by the transport.  Exit codes: 0 success, 2 a
verification or tolerance failure, 3 a resource limit, 4 a usage error.

Each `cmd_*` function maps parsed arguments to a report holding `passed`
and its results; `main` is the one runner that times it, adds `command`
and `inputs`, picks the exit code and prints the document, including the
error document of a failed command.

Cache files: one per lattice, `<dir>/<family>-<dim>.txt`, a header line
`lgf-cache v1 <family> <dim> <count>` then one decimal integer per line.
Writes go through a temp file and rename, so a reader never sees a
half-written table.

A process loads only the layers its command runs: `coeffs` needs the
lattice, constant-term and series modules imported here; the `ode`
handlers import `latgreen.ode`, and the `eval` handlers `latgreen.analytic`
and mpmath, when they are called.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .constant_term import ct_series, kernel
from .errors import (
    DivergentRequest,
    DomainError,
    FitFailure,
    InsufficientTerms,
    LatticeGFError,
    ResourceLimit,
    UnknownOperator,
    UnsupportedLattice,
    UnsupportedTerm,
)
from .lattices import LatticeSpec, coeffs, cosine_integer_table, parse_lattice
from .series import PowerSeries

OK, FAIL, LIMIT, USAGE = 0, 2, 3, 4

CACHE_MAGIC = "lgf-cache v1"


class UsageExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the exit-code contract wants 4
    def error(self, message):
        raise UsageExit(message)


def _at_least(lo: int):
    """argparse type: an integer >= lo."""
    def parse(text: str) -> int:
        v = int(text)
        if v < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {v}")
        return v
    parse.__name__ = "int"  # argparse names the type in its error message
    return parse


def _default_prec() -> int:
    """The `--prec` default: LGF_PREC, held to the same rule as the flag."""
    raw = os.environ.get("LGF_PREC", "")
    try:
        return _at_least(1)(raw) if raw else 30
    except (ValueError, argparse.ArgumentTypeError):
        raise UsageExit(f"LGF_PREC must be an integer >= 1, got {raw!r}") from None


def _real(text: str) -> str:
    """argparse type: a finite real, kept as text so it converts at the
    command's working precision."""
    import mpmath as mp

    try:
        if mp.isfinite(mp.mpf(text)):
            return text
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a finite real: {text!r}")


def _fstr(v, prec: int) -> str:
    # an mpf keeps its own precision; anything else converts at prec digits
    import mpmath as mp

    with mp.workdps(prec):
        return mp.nstr(mp.mpmathify(v), prec)


def _conditions(reports) -> dict:
    return {"conditions": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                           for r in reports],
            "passed": all(r.passed for r in reports)}


# -- cache persistence --------------------------------------------------------

def _cache_path(cache_dir: str, family: str, dim: int) -> str:
    return os.path.join(cache_dir, f"{family}-{dim}.txt")


def read_cache(path: str) -> tuple[str, int, list[int]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("empty cache file")
    head = lines[0].split()
    if len(head) != 5 or f"{head[0]} {head[1]}" != CACHE_MAGIC:
        raise ValueError(f"bad cache header {lines[0]!r}")
    family, dim, count = head[2], int(head[3]), int(head[4])
    values = [int(s) for s in lines[1:] if s.strip()]
    if len(values) != count:
        raise ValueError(f"header count {count} != {len(values)} entries")
    return family, dim, values


def write_cache(path: str, family: str, dim: int, values: list[int]) -> None:
    import tempfile

    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".lgf-tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(f"{CACHE_MAGIC} {family} {dim} {len(values)}\n")
            for v in values:
                fh.write(f"{v}\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- coeffs -------------------------------------------------------------------

# route name -> table builder(spec, n_max); the builders look their
# engines up by name when they are called
ROUTES = {
    "formula": lambda spec, n_max: list(coeffs(spec, n_max).values),
    "ct": lambda spec, n_max: ct_series(kernel(spec.family, spec.dim), n_max),
    "cosine": lambda spec, n_max: cosine_integer_table(
        spec.name, n_max * spec.powers_per_index)[::spec.powers_per_index],
}


def cmd_coeffs(args) -> dict:
    spec = LatticeSpec(args.family, args.dim)
    count = args.terms

    cpath = _cache_path(args.cache_dir, spec.family, spec.dim) if args.cache_dir else None
    cached: list[int] | None = None
    cache_problem = ""
    if cpath and os.path.exists(cpath):
        try:
            cfam, cdim, cached = read_cache(cpath)
            if (cfam, cdim) != (spec.family, spec.dim):
                raise ValueError(f"cache is for {cfam}-{cdim}")
        except ValueError as exc:
            cached, cache_problem = None, str(exc)

    doc = {"passed": True}
    if args.method == "all":
        # cosine first: it refuses a runaway size before the other routes run
        tables = {m: build(spec, count - 1) for m, build in reversed(ROUTES.items())}
        table = tables.pop("formula")
        checks = {f"formula-vs-{m}": t == table for m, t in tables.items()}
        if cache_problem:
            checks["cache-readable"] = False
        elif cached is not None:
            k = min(len(cached), count)
            checks["cache-vs-formula"] = cached[:k] == table[:k]
        doc = {"routes": list(ROUTES), "checks": checks, "passed": all(checks.values())}
        if not doc["passed"]:
            doc["detail"] = cache_problem or "route disagreement"
            return doc
        if cpath and (cached is None or len(cached) < count):
            write_cache(cpath, spec.family, spec.dim, table)
    elif cached is not None and len(cached) >= count:
        table = cached[:count]
    else:
        table = ROUTES[args.method](spec, count - 1)
        if cpath:
            write_cache(cpath, spec.family, spec.dim, table)
    doc["table"] = [str(v) for v in table]
    return doc


# -- ode ----------------------------------------------------------------------

def _load_operator(args):
    from .ode import parse_operator, registry, registry_names

    if args.op_file:
        with open(args.op_file) as fh:
            text = fh.read()
        try:
            return parse_operator(text)
        except ValueError as exc:
            raise UsageExit(f"--op-file {args.op_file}: {exc}") from None
    if args.name:
        return registry(args.name)
    raise UsageExit("give an operator name or --op-file; names: "
                    + ", ".join(registry_names()))


def _named_lattice(name: str | None) -> LatticeSpec | None:
    """The lattice an operator name names: parse_lattice's, or bcc-d for
    iwan<d> with d >= 2, whose series C(2n,n)^d is the bcc d table."""
    if not name:
        return None
    if name.startswith("iwan") and name[4:].isdigit() and int(name[4:]) >= 2:
        return LatticeSpec("bcc", int(name[4:]))
    return parse_lattice(name)


def _series_for(args, op, n_max: int) -> tuple[PowerSeries, str]:
    """The series an `ode` command checks or fits, and its source: the
    --series-cache file, else the table of the lattice that --family/--dim
    or the operator name names (bcc-d for iwan<d>), else the operator's
    own recurrence.  A cache must hold the named lattice."""
    name = getattr(args, "name", None)
    spec = LatticeSpec(args.family, args.dim) if args.family else _named_lattice(name)
    if args.series_cache:
        try:
            cfam, cdim, values = read_cache(args.series_cache)
            if spec is not None and (cfam, cdim) != (spec.family, spec.dim):
                raise ValueError(f"cache is for {cfam}-{cdim}")
        except ValueError as exc:
            raise UsageExit(f"--series-cache {args.series_cache}: {exc}") from None
        if len(values) < n_max + 1:
            raise UsageExit(f"cache holds {len(values)} terms, need {n_max + 1}")
        return PowerSeries(values[: n_max + 1]), "cache"
    if spec is not None:
        return PowerSeries(list(coeffs(spec, n_max).values)), "table"
    # triple operators and file operators: the recurrence's own solution
    return op.series_solution(n_max), "recurrence"


def cmd_ode_verify(args) -> dict:
    op = _load_operator(args)
    series, source = _series_for(args, op, args.terms)
    rep = op.annihilates(series)
    return {"series_source": source, "order": op.order, "degree": op.degree,
            "passed": rep.passed, "detail": rep.note}


def cmd_ode_fit(args) -> dict:
    from .ode import fit_minimal_degree, fit_ode, write_operator

    if not (args.family or args.series_cache):
        raise UsageExit("ode fit needs a series: give --family/--dim or --series-cache")
    series, source = _series_for(args, None, args.terms)
    if args.degree is not None:
        op = fit_ode(series, args.order, args.degree)
        if op is None:
            raise FitFailure(f"no order-{args.order} degree-{args.degree} annihilator")
    else:
        op = fit_minimal_degree(series, args.order, args.max_degree)
    text = write_operator(op)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return {"series_source": source, "order": op.order, "degree": op.degree,
            "operator": text.splitlines(), "passed": True}


def cmd_ode_frobenius(args) -> dict:
    from .ode import frobenius

    basis = frobenius(_load_operator(args), args.terms)
    sols = [{"log_degree": y.log_degree,
             "parts": [list(map(str, p.coeffs)) for p in y.parts]}
            for y in basis]
    return {"solutions": sols, "passed": True}


def cmd_ode_yukawa(args) -> dict:
    from .ode import yukawa

    yk = yukawa(_load_operator(args), args.terms, depth=args.depth)
    return {"K_coeffs": list(map(str, yk.K_coeffs)),
            "instantons": list(map(str, yk.instantons)),
            "scaled_instantons": [str(yk.s * v) for v in yk.instantons],
            "s": yk.s, "passed": True}


def cmd_ode_cy_report(args) -> dict:
    from .ode import cy_conditions_report

    return _conditions(cy_conditions_report(_load_operator(args), args.terms))


def cmd_ode_wronskian(args) -> dict:
    from .ode import wronskian_cy_check

    rep = wronskian_cy_check(_load_operator(args), args.terms)
    return {"passed": rep.passed, "detail": rep.note}


def cmd_ode_symsq(args) -> dict:
    from .ode import symmetric_square_check

    op = _load_operator(args)
    try:
        P, Qf, rep = symmetric_square_check(op)
    except ValueError as exc:
        raise UsageExit(str(exc)) from None
    return {"P": repr(P), "Q": repr(Qf), "passed": rep.passed, "detail": rep.note}


# -- eval ---------------------------------------------------------------------

def cmd_eval_lgf(args) -> dict:
    from . import analytic

    spec = LatticeSpec(args.family, args.dim)
    tail = "power-law-corrected" if args.tail == "corrected" else "none"
    r = analytic.lgf_series_eval(spec, args.z, args.prec, terms=args.terms, tail=tail)
    return {"value": _fstr(r.value, args.prec), "error_bound": _fstr(r.error, 3),
            "terms_used": r.terms_used, "note": r.note, "passed": True}


def cmd_eval_watson(args) -> dict:
    from . import analytic

    return {"value": _fstr(analytic.watson(args.lattice, args.prec), args.prec),
            "passed": True}


def cmd_eval_ramanujan(args) -> dict:
    from . import analytic

    partial, target, err = analytic.ramanujan_eval(args.id, args.terms, args.prec)
    return {"partial_sum": _fstr(partial, args.prec),
            "target": _fstr(target, args.prec),
            "abs_error": _fstr(err, 3), "passed": True}


def cmd_eval_bessel(args) -> dict:
    from . import analytic

    if args.check == "abel":
        return _conditions(analytic.abel_forward_check(args.d, args.z, args.prec))
    fn = {"sc": analytic.bessel_sc_check,
          "diamond": analytic.bessel_diamond_check,
          "connection": analytic.bessel_connection_check}[args.check]
    c = fn(args.d, args.z, args.prec)
    return {"lhs": _fstr(c.lhs, args.prec), "rhs": _fstr(c.rhs, args.prec),
            "tolerance": _fstr(c.error, 3), "passed": bool(c)}


def cmd_eval_mahler(args) -> dict:
    import mpmath as mp

    from . import analytic

    try:
        raw = json.loads(args.coeffs)
        F = {tuple(int(p) for p in k.split(",")): v for k, v in raw.items()}
        for v in F.values():
            if not mp.isfinite(mp.mpf(v)):
                raise ValueError(f"coefficient {v!r} is not finite")
    except (ValueError, TypeError, AttributeError) as exc:
        raise UsageExit(f"--coeffs wants JSON like '{{\"1,0\": 1}}': {exc}") from None
    v, err = analytic.log_mahler_measure(F, args.prec)
    return {"value": _fstr(v, args.prec), "error_bound": _fstr(err, 3), "passed": True}


def cmd_eval_maps(args) -> dict:
    import mpmath as mp

    from . import analytic

    z, v = analytic.honeycomb_map_eval(args.target, args.xi, args.prec)
    return {"z": {"re": _fstr(mp.re(z), args.prec), "im": _fstr(mp.im(z), args.prec)},
            "value": _fstr(v, args.prec), "passed": True}


def cmd_eval_return_prob(args) -> dict:
    from . import analytic

    v = analytic.return_probability(LatticeSpec(args.family, args.dim), args.prec)
    return {"value": _fstr(v, args.prec), "passed": True}


# -- wiring -------------------------------------------------------------------

def _add_op_args(p, terms_default=40):
    p.add_argument("name", nargs="?", help="registry operator name")
    p.add_argument("--op-file", help="operator exchange file")
    p.add_argument("--terms", type=_at_least(1), default=terms_default)


def _add_series_args(p):
    p.add_argument("--family")
    p.add_argument("--dim", type=int, default=0)
    p.add_argument("--series-cache", help="cache file supplying the series")


def build_parser() -> _Parser:
    prec = _default_prec()
    natural, positive = _at_least(0), _at_least(1)
    top = _Parser(prog="lgf", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="group", required=True)

    pc = sub.add_parser("coeffs", help="walk-count tables")
    pc.add_argument("--family", required=True)
    pc.add_argument("--dim", type=int, required=True)
    pc.add_argument("--terms", type=positive, default=10)
    pc.add_argument("--method", choices=[*ROUTES, "all"], default="formula")
    pc.add_argument("--format", choices=["json", "csv"], default="json")
    pc.add_argument("--cache-dir")
    pc.set_defaults(func=cmd_coeffs)

    po = sub.add_parser("ode", help="operator checks and fits")
    osub = po.add_subparsers(dest="action", required=True)
    pv = osub.add_parser("verify")
    _add_op_args(pv)
    _add_series_args(pv)
    pv.set_defaults(func=cmd_ode_verify)
    pf = osub.add_parser("fit")
    _add_series_args(pf)
    pf.add_argument("--terms", type=positive, default=60)
    pf.add_argument("--order", type=positive, required=True)
    pf.add_argument("--degree", type=natural)
    pf.add_argument("--max-degree", type=positive, default=8)
    pf.add_argument("--out", help="write the operator exchange file here")
    pf.set_defaults(func=cmd_ode_fit)
    pb = osub.add_parser("frobenius")
    _add_op_args(pb, terms_default=12)
    pb.set_defaults(func=cmd_ode_frobenius)
    py = osub.add_parser("yukawa")
    _add_op_args(py, terms_default=30)
    py.add_argument("--depth", type=positive, default=6)
    py.set_defaults(func=cmd_ode_yukawa)
    pr = osub.add_parser("cy-report")
    _add_op_args(pr, terms_default=32)
    pr.set_defaults(func=cmd_ode_cy_report)
    pw = osub.add_parser("wronskian")
    _add_op_args(pw, terms_default=25)
    pw.set_defaults(func=cmd_ode_wronskian)
    ps = osub.add_parser("symsq")
    _add_op_args(ps)
    ps.set_defaults(func=cmd_ode_symsq)

    pe = sub.add_parser("eval", help="numeric evaluation")
    esub = pe.add_subparsers(dest="action", required=True)
    el = esub.add_parser("lgf")
    el.add_argument("--family", required=True)
    el.add_argument("--dim", type=int, required=True)
    el.add_argument("--z", type=_real, required=True)
    el.add_argument("--tail", choices=["none", "corrected"], default="none")
    el.add_argument("--terms", type=positive)
    el.add_argument("--prec", type=positive, default=prec)
    el.set_defaults(func=cmd_eval_lgf)
    ew = esub.add_parser("watson")
    ew.add_argument("--lattice", required=True)
    ew.add_argument("--prec", type=positive, default=prec)
    ew.set_defaults(func=cmd_eval_watson)
    er = esub.add_parser("ramanujan")
    er.add_argument("--id", required=True)
    er.add_argument("--terms", type=positive, default=50)
    er.add_argument("--prec", type=positive, default=prec)
    er.set_defaults(func=cmd_eval_ramanujan)
    eb = esub.add_parser("bessel")
    eb.add_argument("--check", choices=["sc", "diamond", "connection", "abel"],
                    required=True)
    eb.add_argument("--d", type=_at_least(2), default=3)
    eb.add_argument("--z", type=_real, required=True)
    eb.add_argument("--prec", type=positive, default=min(prec, 16))
    eb.set_defaults(func=cmd_eval_bessel)
    em = esub.add_parser("mahler")
    em.add_argument("--coeffs", required=True,
                    help='JSON exponent->coeff map, e.g. \'{"1,0": 1, "-1,0": 1}\'')
    em.add_argument("--prec", type=positive, default=min(prec, 20))
    em.set_defaults(func=cmd_eval_mahler)
    ep = esub.add_parser("maps")
    ep.add_argument("--target", required=True)
    ep.add_argument("--xi", type=_real, required=True)
    ep.add_argument("--prec", type=positive, default=prec)
    ep.set_defaults(func=cmd_eval_maps)
    eq = esub.add_parser("return-prob")
    eq.add_argument("--family", required=True)
    eq.add_argument("--dim", type=int, required=True)
    eq.add_argument("--prec", type=positive, default=prec)
    eq.set_defaults(func=cmd_eval_return_prob)

    return top


# Exception class -> (exit code, stderr label; None labels with the class
# name).  The first match wins; an exception matching no row is a bug and
# propagates with its traceback.
EXIT_CODES = (
    (UsageExit, USAGE, "usage error"),
    (ResourceLimit, LIMIT, "resource limit"),
    ((UnsupportedLattice, UnsupportedTerm, UnknownOperator, DomainError,
      DivergentRequest, InsufficientTerms), USAGE, None),
    (OSError, USAGE, "io error"),
    (LatticeGFError, FAIL, None),
)


def main(argv=None) -> int:
    started = time.monotonic()
    if hasattr(sys, "set_int_max_str_digits"):
        # every big integer crosses the cache and the JSON document as a
        # decimal string, and tables pass the default 4300-digit limit on
        # int <-> str conversion (bcc d = 10 entries do before n = 730)
        sys.set_int_max_str_digits(0)
    doc: dict = {}
    try:
        args = build_parser().parse_args(argv)
        doc["command"] = "-".join(filter(None, (args.group, getattr(args, "action", None))))
        doc["inputs"] = {k: v for k, v in vars(args).items()
                         if k not in ("func", "group", "action")}
        doc.update(args.func(args))
        code = OK if doc["passed"] else FAIL
    except Exception as exc:
        for classes, code, label in EXIT_CODES:
            if isinstance(exc, classes):
                break
        else:
            raise
        print(f"{label or type(exc).__name__}: {exc}", file=sys.stderr)
        doc.update(passed=False, error={"type": type(exc).__name__, "message": str(exc)})
    if code == OK and doc["inputs"].get("format") == "csv":
        print("n,a_n")
        for n, v in enumerate(doc["table"]):
            print(f"{n},{v}")
        return code
    doc["timing_ms"] = int((time.monotonic() - started) * 1000)
    print(json.dumps(doc, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
