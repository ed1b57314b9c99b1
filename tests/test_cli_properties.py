"""Property tests over the CLI input boundary.

Every generated argv and JSON file must exit 0, 2 or 3 without a traceback,
and the classification and extremality verdicts of a state must not change
when it is rescaled by a positive factor or complex-conjugated.  The CLI runs
in-process, so an uncaught exception fails the test directly.
"""
import argparse
import contextlib
import io
import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from pptgeo.cli import main, parse_theta
from pptgeo.serialize import bipartite_to_json
from pptgeo.states import BipartiteMatrix, rho, sigma

# derandomize: the same examples on every run, and no example database.
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True)

numbers = hs.one_of(hs.floats(), hs.integers(-10**30, 10**30), hs.just(10**400))
scalars = hs.one_of(hs.none(), hs.booleans(), numbers, hs.text(max_size=3))
# A matrix entry: a pair that may not be finite, a list of the wrong length
# or types, or no list at all.
entries = hs.one_of(hs.tuples(numbers, numbers).map(list), hs.lists(scalars, max_size=4), scalars)
b_texts = hs.one_of(hs.floats().map(repr), hs.sampled_from(["x", "", "1e400", "2"]))
theta_texts = hs.one_of(hs.floats(-10, 10).map(repr),
                        hs.sampled_from(["pi/6", "-2*pi/3", "5pi/12", "pi/0", "x", "inf", "nan"]))
STATE_COMMANDS = (["state", "classify"], ["state", "kernel"], ["extremality"])


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv):
    code, out, err = call(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if code == 2:
        assert err.strip(), argv
    return code, out


@hs.composite
def state_documents(draw):
    """The JSON of a family state, valid or with one part broken."""
    X = draw(hs.sampled_from([rho, sigma]))(draw(hs.floats(0.1, 10)), draw(hs.floats(-4, 4)))
    obj = bipartite_to_json(X)
    kind = draw(hs.sampled_from(["valid", "entry", "size", "missing", "not_object"]))
    if kind == "entry":
        obj["matrix"]["entries"][draw(hs.integers(0, 80))] = draw(entries)
    elif kind == "size":
        target, key = draw(hs.sampled_from([(obj, "m"), (obj, "n"),
                                            (obj["matrix"], "rows"), (obj["matrix"], "cols")]))
        target[key] = draw(hs.one_of(scalars, hs.integers(-2, 12)))
    elif kind == "missing":
        del obj[draw(hs.sampled_from(["m", "n", "matrix"]))]
    elif kind == "not_object":
        obj = draw(hs.one_of(scalars, hs.lists(scalars, max_size=3)))
    return json.dumps(obj)


@PROPERTY
@given(doc=state_documents(), command=hs.sampled_from(STATE_COMMANDS))
def test_state_file_exit_contract(tmp_path_factory, doc, command):
    path = tmp_path_factory.mktemp("state") / "state.json"
    path.write_text(doc)
    assert_contract([*command, "--in", str(path)])


@PROPERTY
@given(command=hs.sampled_from(STATE_COMMANDS + (["extremality", "--verify-appendix"],)),
       flags=hs.fixed_dictionaries({"--family": hs.sampled_from(["rho", "sigma", "tau"]),
                                    "--b": b_texts, "--theta": theta_texts}),
       keep=hs.lists(hs.sampled_from(["--family", "--b", "--theta"]), unique=True))
def test_family_flags_exit_contract(command, flags, keep):
    assert_contract([*command, *(x for flag in keep for x in (flag, flags[flag]))])


@PROPERTY
@given(spec=hs.one_of(
    hs.lists(hs.fixed_dictionaries({
        "family": hs.one_of(hs.sampled_from(["rho", "sigma"]), scalars),
        "b": hs.one_of(numbers, scalars),
        "theta": hs.one_of(theta_texts, scalars),
        "weight": hs.one_of(hs.just(1), numbers, scalars),
    }), min_size=1, max_size=3),
    scalars,
))
@example(spec=[{"family": "rho", "b": 2, "theta": "nan", "weight": 1}])
def test_combine_spec_exit_contract(spec):
    code, _ = assert_contract(["combine", "--spec", json.dumps(spec)])
    if isinstance(spec, list) and not all(
            finite_number(s["b"]) and finite_number(s["weight"]) and finite_angle(s["theta"])
            for s in spec):
        assert code == 2, spec


def finite_number(x) -> bool:
    """Whether x is a JSON number (not a bool) that is finite as a float."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(float(x))
    except OverflowError:
        return False


def finite_angle(x) -> bool:
    """Whether x is a finite JSON number or an angle string that --theta
    accepts as a finite value."""
    if not isinstance(x, str):
        return finite_number(x)
    try:
        return math.isfinite(parse_theta(x))
    except argparse.ArgumentTypeError:
        return False


@hs.composite
def states(draw):
    """A family state, a random separable state of rank 1-9, or a Werner-type
    mixture of the maximally entangled state (PPT only for weight <= 1/4)."""
    kind = draw(hs.sampled_from(["family", "separable", "werner"]))
    if kind == "family":
        theta = draw(hs.one_of(hs.integers(0, 23).map(lambda k: k * math.pi / 12), hs.floats(-4, 4)))
        return draw(hs.sampled_from([rho, sigma]))(draw(hs.floats(0.1, 10)), theta)
    if kind == "separable":
        rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
        X = np.zeros((9, 9), dtype=complex)
        for _ in range(draw(hs.integers(1, 9))):
            v = np.kron(*(rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))))
            X += np.outer(v, v.conj())
        return BipartiteMatrix(3, 3, X)
    v = np.eye(9)[[0, 4, 8]].sum(axis=0) / math.sqrt(3)
    p = draw(hs.floats(0, 1))
    return BipartiteMatrix(3, 3, p * np.outer(v, v) + (1 - p) * np.eye(9) / 9)


def verdicts(tmp_path, X):
    """(exit code, classification) and (exit code, extremality dims) from the CLI."""
    path = tmp_path / "state.json"
    path.write_text(json.dumps(bipartite_to_json(X)))
    code, out = assert_contract(["state", "classify", "--in", str(path)])
    classify = (code, json.loads(out) if code == 0 else None)
    code, out = assert_contract(["extremality", "--in", str(path)])
    rep = json.loads(out) if code == 0 else {}
    return classify, (code, [rep.get(k) for k in ("dim_ker_D", "dim_ker_E", "dim_intersection", "is_extreme")])


@PROPERTY
@given(X=states(), exponent=hs.floats(-12, 12))
def test_verdicts_invariant_under_rescaling_and_conjugation(tmp_path_factory, X, exponent):
    tmp_path = tmp_path_factory.mktemp("invariance")
    want = verdicts(tmp_path, X)
    assert verdicts(tmp_path, BipartiteMatrix(X.m, X.n, X.data * 10.0**exponent)) == want
    assert verdicts(tmp_path, BipartiteMatrix(X.m, X.n, X.data.conj())) == want
