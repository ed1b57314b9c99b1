"""Command-line front end.

JSON reports go to stdout; a short human-readable summary goes to stderr, so
pipelines can consume the JSON directly.  Exit codes: 0 success, 2 usage
error, 3 numerical/contract failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from fractions import Fraction

from . import extremality as ext
from . import krawtchouk as kw
from . import maps as mp
from . import serialize as ser
from . import states as st
from .linalg import NumericalError, kernel_basis

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_PI_EXPR = re.compile(
    r"^(?P<sign>[+-]?)\s*(?:(?P<num>\d+(?:\.\d+)?)\s*\*?\s*)?pi\s*(?:/\s*(?P<den>\d+))?$"
)


def parse_theta(text: str) -> float:
    """Parse an angle: a decimal, or an exact multiple of pi such as 'pi',
    '-pi/3', '2*pi/3', '5pi/12'.  Multiples of pi are computed symbolically
    before the final float conversion so boundary angles stay detectable."""
    s = text.strip().lower()
    m = _PI_EXPR.match(s)
    if m:
        num = m.group("num") or "1"
        den = m.group("den") or "1"
        if int(den) == 0:
            raise argparse.ArgumentTypeError(f"angle {text!r} divides by zero")
        frac = Fraction(num) / Fraction(den)
        val = float(frac) * math.pi
        return -val if m.group("sign") == "-" else val
    try:
        return float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}") from None


def format_theta(theta: float) -> str:
    """Shortest form accepted back by parse_theta."""
    frac = Fraction(theta / math.pi).limit_denominator(10**6)
    # Display only, outside the CUTOFF/ROUNDOFF policy: print pi fractions exactly.
    if abs(float(frac) * math.pi - theta) <= 1e-15 * max(1.0, abs(theta)):
        if frac == 0:
            return "0"
        sign = "-" if frac < 0 else ""
        frac = abs(frac)
        num = "" if frac.numerator == 1 else f"{frac.numerator}*"
        den = "" if frac.denominator == 1 else f"/{frac.denominator}"
        return f"{sign}{num}pi{den}"
    return repr(theta)


def default_seed() -> int:
    """PPTGEO_SEED as an integer, 0 when unset."""
    text = os.environ.get("PPTGEO_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"PPTGEO_SEED must be an integer, got {text!r}") from None


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _emit(obj, out_path=None):
    text = json.dumps(obj) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _note(msg: str):
    sys.stderr.write(msg + "\n")


def _load_json(source: str, inline: bool = False):
    """The JSON in the file `source` or, with inline=True and no such file, in
    `source` itself.  Every parse failure, also an integer past Python's digit
    limit (a plain ValueError), raises serialize.FormatError."""
    if inline and not os.path.isfile(source):
        text, what = source, "inline JSON (and not a file)"
    else:
        with open(source, encoding="utf-8") as fh:
            text, what = fh.read(), source
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ser.FormatError(f"{what}: {exc}") from None


def _construct(family: str, b: float, theta: float) -> st.BipartiteMatrix:
    if family == "rho":
        return st.rho(b, theta)
    if family == "sigma":
        return st.sigma(b, theta)
    raise ValueError(f"unknown family {family!r}")


def _state_from_args(args) -> tuple[st.BipartiteMatrix, float | None]:
    """Resolve a state plus (when known) its theta from --in or family flags."""
    if getattr(args, "infile", None):
        return ser.bipartite_from_json(_load_json(args.infile)), None
    missing = [f"--{name}" for name in ("family", "b", "theta") if getattr(args, name) is None]
    if missing:
        _note(f"usage error: give --in FILE, or --family, --b and --theta (missing {', '.join(missing)})")
        raise SystemExit(EXIT_USAGE)
    return _construct(args.family, args.b, args.theta), args.theta


def _classification(X: st.BipartiteMatrix, theta: float | None) -> dict:
    ppt = st.is_ppt(X)
    ty = st.state_type(X)
    return {
        "ppt": ppt,
        "type": [ty.p, ty.q],
        "arc": st.arc_of(theta).value if theta is not None else None,
        "interior_T": st.is_interior_of_T(X) if ppt else False,
        "interior_S_sufficient": st.is_interior_of_S_sufficient(X),
    }


def cmd_state(args) -> int:
    if args.state_cmd == "construct":
        X = _construct(args.family, args.b, args.theta)
        if args.normalize:
            X = st.normalize(X)
        _emit(ser.bipartite_to_json(X), args.out)
        _note(f"{args.family}(b={args.b}, theta={format_theta(args.theta)})"
              f"{' normalized' if args.normalize else ''}")
        return EXIT_OK
    if args.state_cmd == "classify":
        X, theta = _state_from_args(args)
        report = _classification(X, theta)
        _emit(report)
        _note(f"ppt={report['ppt']} type={tuple(report['type'])} arc={report['arc']}")
        return EXIT_OK
    if args.state_cmd == "kernel":
        X, theta = _state_from_args(args)
        K = kernel_basis(X.data)
        _emit({"dim": K.shape[1], "basis": [ser.vector_to_json(K[:, i]) for i in range(K.shape[1])]})
        _note(f"kernel dimension {K.shape[1]}")
        return EXIT_OK
    raise SystemExit(EXIT_USAGE)


def cmd_extremality(args) -> int:
    if args.verify_appendix and (args.infile or args.family != "rho"):
        _note("usage error: --verify-appendix needs --family rho with --b and --theta, not --in")
        return EXIT_USAGE
    X, theta = _state_from_args(args)
    rep = ext.is_extreme_in_T(X)
    out = ser.report_to_json(rep)
    if args.verify_appendix:
        out["appendix"] = dataclasses.asdict(ext.verify_appendix(args.b, theta))
    _emit(out)
    _note(f"extreme={rep.is_extreme} dims=({rep.dim_ker_D},{rep.dim_ker_E},{rep.dim_intersection})")
    return EXIT_OK


def _spec_entry(i: int, s: dict) -> tuple[str, float, float, float]:
    """(family, b, theta, weight) of the i-th --spec entry."""
    missing = [key for key in ("family", "b", "theta", "weight") if key not in s]
    if missing:
        raise argparse.ArgumentTypeError(f"--spec entry {i}: missing key(s) {', '.join(missing)}")
    if s["family"] not in ("rho", "sigma"):
        raise argparse.ArgumentTypeError(f"--spec entry {i}: unknown family {s['family']!r}")
    try:
        b, weight = float(s["b"]), float(s["weight"])
    except (TypeError, ValueError, OverflowError):
        raise argparse.ArgumentTypeError(
            f"--spec entry {i}: b and weight must be numbers, got {s['b']!r} and {s['weight']!r}"
        ) from None
    return s["family"], b, parse_theta(str(s["theta"])), weight


def cmd_combine(args) -> int:
    spec = _load_json(args.spec, inline=True)
    if not spec or not isinstance(spec, list) or not all(isinstance(s, dict) for s in spec):
        raise argparse.ArgumentTypeError("--spec must be a non-empty JSON list of objects")
    entries = [_spec_entry(i, s) for i, s in enumerate(spec)]
    X = st.combine([_construct(family, b, theta) for family, b, theta, _ in entries],
                   [weight for *_, weight in entries])
    thetas = {theta for _, _, theta, _ in entries}
    theta = thetas.pop() if len(thetas) == 1 else None
    out = {
        "state": ser.bipartite_to_json(X),
        "classification": _classification(X, theta),
    }
    _emit(out)
    cl = out["classification"]
    _note(f"ppt={cl['ppt']} interior_T={cl['interior_T']} "
          f"interior_S_sufficient={cl['interior_S_sufficient']}")
    return EXIT_OK


def cmd_map(args) -> int:
    if args.map_cmd == "phi-theta":
        phi = mp.phi_theta_t(args.theta, args.t)
        _emit(ser.choi_to_json(phi))
        _note(f"phi(theta={format_theta(args.theta)}, t={args.t})")
        return EXIT_OK
    if args.map_cmd == "antipodal-sum":
        phi = mp.antipodal_sum_choi(args.theta, args.t, args.s)
        out = ser.choi_to_json(phi)
        out["interior_P_sufficient"] = mp.is_interior_of_P_sufficient(phi)
        _emit(out)
        _note(f"diagonal Choi, interior_P_sufficient={out['interior_P_sufficient']}")
        return EXIT_OK
    if args.map_cmd == "trace-decomp":
        if args.m == 2:
            if args.mu is None:
                raise argparse.ArgumentTypeError("--m 2 requires --mu")
            spec = mp.trace_map_decomposition_2n(args.mu)
        elif args.m == 3:
            spec = mp.trace_map_decomposition_33()
        else:
            raise argparse.ArgumentTypeError(f"--m must be 2 or 3, got {args.m}")
        out = ser.spec_to_json(spec)
        out["choi"] = ser.choi_to_json(mp.decomposable_map(spec))
        _emit(out)
        _note(f"(k,l)=({len(spec.Vs)},{len(spec.Ws)})")
        return EXIT_OK
    if args.map_cmd == "pair":
        rho = ser.bipartite_from_json(_load_json(args.state))
        phi = ser.choi_from_json(_load_json(args.map))
        val = mp.pairing(rho, phi)
        _emit({"pairing": val})
        _note(f"pairing = {val:.12g}")
        return EXIT_OK
    if args.map_cmd == "boundary-witness":
        spec = ser.spec_from_json(_load_json(args.spec))
        found = mp.boundary_witness_search(spec, restarts=args.restarts, seed=args.seed)
        if found is None:
            _emit({"found": False})
            _note("no witness found (inconclusive)")
        else:
            xi, eta, res = found
            _emit({
                "found": True,
                "xi": ser.vector_to_json(xi),
                "eta": ser.vector_to_json(eta),
                "residual": res,
            })
            _note(f"boundary witness with residual {res:.3e}")
        return EXIT_OK
    raise SystemExit(EXIT_USAGE)


def cmd_krawtchouk(args) -> int:
    if args.m < 2 or args.n < 2:
        raise argparse.ArgumentTypeError(f"--m and --n must be at least 2, got {args.m}, {args.n}")
    if args.kraw_cmd == "solve":
        sols = kw.solve(args.m, args.n)
        _emit({"m": args.m, "n": args.n, "solutions": [[s.k, s.l] for s in sols]})
        _note(f"{len(sols)} solution(s)")
        return EXIT_OK
    if args.kraw_cmd == "nu":
        _emit(kw.nu_summary(args.m, args.n))
        _note("nu summary")
        return EXIT_OK
    raise SystemExit(EXIT_USAGE)


def _add_state_source(p, require=False):
    p.add_argument("--in", dest="infile", metavar="FILE", help="state JSON file")
    p.add_argument("--family", choices=["rho", "sigma"])
    p.add_argument("--b", type=float)
    p.add_argument("--theta", type=parse_theta)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pptgeo", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("state", help="construct and classify bipartite states")
    ssub = p.add_subparsers(dest="state_cmd", required=True)
    pc = ssub.add_parser("construct")
    pc.add_argument("--family", choices=["rho", "sigma"], required=True)
    pc.add_argument("--b", type=float, required=True)
    pc.add_argument("--theta", type=parse_theta, required=True)
    pc.add_argument("--normalize", action="store_true")
    pc.add_argument("--out", metavar="FILE")
    for name in ("classify", "kernel"):
        sp = ssub.add_parser(name)
        _add_state_source(sp)
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("extremality", help="extreme-point test in the PPT body")
    _add_state_source(p)
    p.add_argument("--verify-appendix", action="store_true")
    p.set_defaults(func=cmd_extremality)

    p = sub.add_parser("combine", help="convex combinations of family states")
    p.add_argument("--spec", required=True,
                   help="JSON list [{family,b,theta,weight}] inline or a file path")
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("map", help="positive/decomposable map constructions")
    msub = p.add_subparsers(dest="map_cmd", required=True)
    pm = msub.add_parser("phi-theta")
    pm.add_argument("--theta", type=parse_theta, required=True)
    pm.add_argument("--t", type=float, required=True)
    pm = msub.add_parser("antipodal-sum")
    pm.add_argument("--theta", type=parse_theta, required=True)
    pm.add_argument("--t", type=float, required=True)
    pm.add_argument("--s", type=float, required=True)
    pm = msub.add_parser("trace-decomp")
    pm.add_argument("--m", type=int, required=True)
    pm.add_argument("--mu", type=_positive_int)
    pm = msub.add_parser("pair")
    pm.add_argument("--state", required=True, metavar="FILE")
    pm.add_argument("--map", required=True, metavar="FILE")
    pm = msub.add_parser("boundary-witness")
    pm.add_argument("--spec", required=True, metavar="FILE")
    pm.add_argument("--restarts", type=_positive_int, default=1000)
    pm.add_argument("--seed", type=int, default=default_seed())
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("krawtchouk", help="alternating binomial sum diagnostics")
    ksub = p.add_subparsers(dest="kraw_cmd", required=True)
    for name in ("solve", "nu"):
        kp = ksub.add_parser(name)
        kp.add_argument("--m", type=int, required=True)
        kp.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_krawtchouk)
    return ap


def main(argv=None) -> int:
    try:
        ap = build_parser()
    except argparse.ArgumentTypeError as exc:
        _note(f"usage error: {exc}")
        return EXIT_USAGE
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (OSError, UnicodeDecodeError, ser.FormatError, argparse.ArgumentTypeError) as exc:
        _note(f"input error: {exc}")
        return EXIT_USAGE
    except (ValueError, NumericalError) as exc:
        _note(f"error: {exc}")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
