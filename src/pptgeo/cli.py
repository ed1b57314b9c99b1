"""Command-line front end.

JSON reports go to stdout; a short human-readable summary goes to stderr, so
pipelines can consume the JSON directly.  Exit codes: 0 success; 2 input
error (a flag argparse rejects, a missing or conflicting flag, a file or JSON
document without its documented layout); 3 a well-formed value outside a
function's domain, a numerical failure, or a result too large for memory.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from fractions import Fraction

from . import extremality as ext
from . import krawtchouk as kw
from . import maps as mp
from . import serialize as ser
from . import states as st
from .linalg import NumericalError, range_mask, spectrum_is_clean

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def parse_theta(text: str) -> float:
    """argparse type for an angle, in the grammar of serialize.angle_from_text:
    a decimal or an exact multiple of pi such as 'pi', '-pi/3', '5pi/12'."""
    try:
        return ser.angle_from_text(text)
    except ser.FormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def format_theta(theta: float) -> str:
    """Shortest form that parse_theta reads back as theta exactly: k*pi/d
    when parse_theta computes theta itself from that text, else repr."""
    frac = Fraction(theta / math.pi).limit_denominator(10**6)
    if abs(float(frac)) * math.pi == abs(theta):
        if frac == 0:
            return "0"
        sign = "-" if frac < 0 else ""
        frac = abs(frac)
        num = "" if frac.numerator == 1 else f"{frac.numerator}*"
        den = "" if frac.denominator == 1 else f"/{frac.denominator}"
        return f"{sign}{num}pi{den}"
    return repr(theta)


def _finite_float(text: str) -> float:
    """argparse type for a finite decimal; inf, nan and values past the
    floating-point range are input errors, as they are in a JSON document."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _int_at_least(low: int):
    """argparse type for an integer of at least `low`."""
    kind = "a positive integer" if low == 1 else f"an integer, which must be at least {low}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"expected {kind}, got {value}")
        return value
    return parse


def _state_from_args(args) -> tuple[st.BipartiteMatrix, float | None]:
    """Resolve a state plus (when known) its theta from --in or family flags."""
    if args.infile is not None:
        given = [f"--{name}" for name in ("family", "b", "theta") if getattr(args, name) is not None]
        if given:
            raise argparse.ArgumentTypeError(
                f"give --in FILE or the family flags, not both (--in with {', '.join(given)})")
        return ser.bipartite_from_json(ser.load_json(args.infile)), None
    missing = [f"--{name}" for name in ("family", "b", "theta") if getattr(args, name) is None]
    if missing:
        raise argparse.ArgumentTypeError(
            f"give --in FILE, or --family, --b and --theta (missing {', '.join(missing)})")
    return st.FAMILIES[args.family](args.b, args.theta), args.theta


def _classification(X: st.BipartiteMatrix, theta: float | None) -> dict:
    """The classification block of a state; NumericalError when an
    eigenvalue of X or X^Gamma lies between the ROUNDOFF and CUTOFF levels,
    where rounding could move the type read off the cached spectra."""
    if not all(spectrum_is_clean(Y.spectrum[0]) for Y in (X, st.partial_transpose(X))):
        raise NumericalError("the type is undecided: an eigenvalue of the state or of its partial "
                             "transpose lies between rounding and the rank cutoff")
    ppt = st.is_ppt(X)
    ty = st.state_type(X)
    return {
        "ppt": ppt,
        "type": [ty.p, ty.q],
        "arc": st.arc_of(theta).value if theta is not None else None,
        "interior_T": st.is_interior_of_T(X) if ppt else False,
        "interior_S_sufficient": st.is_interior_of_S_sufficient(X),
    }


# Each command returns its JSON report and a one-line summary; main prints them.
def cmd_construct(args) -> tuple[dict, str]:
    X = st.FAMILIES[args.family](args.b, args.theta)
    if args.normalize:
        X = st.normalize(X)
    return ser.bipartite_to_json(X), (f"{args.family}(b={args.b}, theta={format_theta(args.theta)})"
                                      f"{' normalized' if args.normalize else ''}")


def cmd_classify(args) -> tuple[dict, str]:
    report = _classification(*_state_from_args(args))
    return report, f"ppt={report['ppt']} type={tuple(report['type'])} arc={report['arc']}"


def cmd_kernel(args) -> tuple[dict, str]:
    X = _state_from_args(args)[0]
    w, V = X.spectrum
    K = V[:, ~range_mask(w)]
    return ({"dim": K.shape[1], "basis": [ser.vector_to_json(K[:, i]) for i in range(K.shape[1])]},
            f"kernel dimension {K.shape[1]}")


def cmd_extremality(args) -> tuple[dict, str]:
    if args.verify_appendix and (args.infile or args.family != "rho"):
        raise argparse.ArgumentTypeError(
            "--verify-appendix needs --family rho with --b and --theta, not --in")
    X, theta = _state_from_args(args)
    rep = ext.is_extreme_in_T(X)
    out = ser.report_to_json(rep)
    if args.verify_appendix:
        out["appendix"] = dataclasses.asdict(ext.verify_appendix(args.b, theta))
    return out, f"extreme={rep.is_extreme} dims=({rep.dim_ker_D},{rep.dim_ker_E},{rep.dim_intersection})"


def cmd_combine(args) -> tuple[dict, str]:
    entries = ser.combination_from_json(ser.load_json(args.spec, inline=True))
    X = st.combine([st.FAMILIES[family](b, theta) for family, b, theta, _ in entries],
                   [weight for *_, weight in entries])
    thetas = {theta for _, _, theta, _ in entries}
    cl = _classification(X, thetas.pop() if len(thetas) == 1 else None)
    return ({"state": ser.bipartite_to_json(X), "classification": cl},
            f"ppt={cl['ppt']} interior_T={cl['interior_T']} "
            f"interior_S_sufficient={cl['interior_S_sufficient']}")


def cmd_phi_theta(args) -> tuple[dict, str]:
    phi = mp.phi_theta_t(args.theta, args.t)
    return ser.choi_to_json(phi), f"phi(theta={format_theta(args.theta)}, t={args.t})"


def cmd_antipodal_sum(args) -> tuple[dict, str]:
    phi = mp.antipodal_sum_choi(args.theta, args.t, args.s)
    out = ser.choi_to_json(phi)
    out["interior_P_sufficient"] = st.is_interior_of_S_sufficient(phi.choi)
    return out, f"diagonal Choi, interior_P_sufficient={out['interior_P_sufficient']}"


def cmd_trace_decomp(args) -> tuple[dict, str]:
    if args.m == 2:
        if args.mu is None:
            raise argparse.ArgumentTypeError("--m 2 requires --mu")
        spec = mp.trace_map_decomposition_2n(args.mu)
    else:
        if args.mu is not None:
            raise argparse.ArgumentTypeError("--m 3 takes no --mu")
        spec = mp.trace_map_decomposition_33()
    out = ser.spec_to_json(spec)
    out["choi"] = ser.choi_to_json(mp.decomposable_map(spec))
    return out, f"(k,l)=({len(spec.Vs)},{len(spec.Ws)})"


def cmd_pair(args) -> tuple[dict, str]:
    val = mp.pairing(ser.bipartite_from_json(ser.load_json(args.state)),
                     ser.choi_from_json(ser.load_json(args.map)))
    return {"pairing": val}, f"pairing = {val:.12g}"


def cmd_boundary_witness(args) -> tuple[dict, str]:
    spec = ser.spec_from_json(ser.load_json(args.spec))
    found = mp.boundary_witness_search(spec, restarts=args.restarts, seed=args.seed)
    if found is None:
        return {"found": False}, "no witness found (inconclusive)"
    xi, eta, res = found
    return ({"found": True, "xi": ser.vector_to_json(xi), "eta": ser.vector_to_json(eta),
             "residual": res}, f"boundary witness with residual {res:.3e}")


def cmd_solve(args) -> tuple[dict, str]:
    sols = kw.solve(args.m, args.n)
    return {"m": args.m, "n": args.n, "solutions": [[s.k, s.l] for s in sols]}, f"{len(sols)} solution(s)"


def cmd_nu(args) -> tuple[dict, str]:
    return kw.nu_summary(args.m, args.n), "nu summary"


# --family, --b and --theta of the commands that build a family state.
FAMILY_FLAGS = (("--family", {"choices": st.FAMILIES}), ("--b", {"type": _finite_float}),
                ("--theta", {"type": parse_theta}))


def _add_state_source(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """p with a state given by --in FILE or by the family flags."""
    p.add_argument("--in", dest="infile", metavar="FILE", help="state JSON file")
    for flag, kwargs in FAMILY_FLAGS:
        p.add_argument(flag, **kwargs)
    return p


def build_parser() -> argparse.ArgumentParser:
    """The pptgeo parser; each leaf command sets its handler as `func`."""
    ap = argparse.ArgumentParser(prog="pptgeo", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    ssub = sub.add_parser("state", help="construct and classify bipartite states").add_subparsers(
        dest="state_cmd", required=True)
    pc = ssub.add_parser("construct")
    for flag, kwargs in FAMILY_FLAGS:
        pc.add_argument(flag, required=True, **kwargs)
    pc.add_argument("--normalize", action="store_true")
    pc.add_argument("--out", metavar="FILE")
    pc.set_defaults(func=cmd_construct)
    for name, func in (("classify", cmd_classify), ("kernel", cmd_kernel)):
        _add_state_source(ssub.add_parser(name)).set_defaults(func=func)
    p = _add_state_source(sub.add_parser("extremality", help="extreme-point test in the PPT body"))
    p.add_argument("--verify-appendix", action="store_true")
    p.set_defaults(func=cmd_extremality)

    p = sub.add_parser("combine", help="convex combinations of family states")
    p.add_argument("--spec", required=True,
                   help="JSON list [{family,b,theta,weight}] inline or a file path")
    p.set_defaults(func=cmd_combine)

    msub = sub.add_parser("map", help="positive/decomposable map constructions").add_subparsers(
        dest="map_cmd", required=True)
    pm = msub.add_parser("phi-theta")
    pm.add_argument("--theta", type=parse_theta, required=True)
    pm.add_argument("--t", type=_finite_float, required=True)
    pm.set_defaults(func=cmd_phi_theta)
    pm = msub.add_parser("antipodal-sum")
    pm.add_argument("--theta", type=parse_theta, required=True)
    pm.add_argument("--t", type=_finite_float, required=True)
    pm.add_argument("--s", type=_finite_float, required=True)
    pm.set_defaults(func=cmd_antipodal_sum)
    pm = msub.add_parser("trace-decomp")
    pm.add_argument("--m", type=int, choices=(2, 3), required=True)
    pm.add_argument("--mu", type=_int_at_least(1))
    pm.set_defaults(func=cmd_trace_decomp)
    pm = msub.add_parser("pair")
    pm.add_argument("--state", required=True, metavar="FILE")
    pm.add_argument("--map", required=True, metavar="FILE")
    pm.set_defaults(func=cmd_pair)
    pm = msub.add_parser("boundary-witness")
    pm.add_argument("--spec", required=True, metavar="FILE")
    pm.add_argument("--restarts", type=_int_at_least(1), default=1000)
    pm.add_argument("--seed", type=_int_at_least(0), default=0)
    pm.set_defaults(func=cmd_boundary_witness)

    ksub = sub.add_parser("krawtchouk", help="alternating binomial sum diagnostics").add_subparsers(
        dest="kraw_cmd", required=True)
    for name, func in (("solve", cmd_solve), ("nu", cmd_nu)):
        kp = ksub.add_parser(name)
        kp.add_argument("--m", type=_int_at_least(2), required=True)
        kp.add_argument("--n", type=_int_at_least(2), required=True)
        kp.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        report, summary = args.func(args)
        text = json.dumps(report) + "\n"
        if getattr(args, "out", None):
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        sys.stderr.write(summary + "\n")
        return EXIT_OK
    except SystemExit as exc:  # argparse has reported a rejected flag (2) or printed --help (0)
        return exc.code
    except (argparse.ArgumentTypeError, ser.FormatError, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_USAGE
    except (ValueError, NumericalError, MemoryError) as exc:
        sys.stderr.write(f"error: {str(exc) or type(exc).__name__}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
