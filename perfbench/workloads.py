"""Workload inputs, operations and output checks for the pptgeo benchmark.

An *op* is one item of a workload's input list: a callable that runs the
program on inputs generated from the benchmark seed, and a check that
compares the op's verdict with the paper's invariants or with the outputs
recorded from the code at the commit that introduced this benchmark
(``reference.json``).  Floats are compared with tolerances, never bit-exactly.

The program is always reached through module attributes (``st.rho``,
``ext.is_extreme_in_T``, ...) at call time, so the traced run's wrappers see
every call.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import pptgeo.cli as cli
import pptgeo.extremality as ext
import pptgeo.krawtchouk as kw
import pptgeo.maps as mp
import pptgeo.serialize as ser
import pptgeo.states as st

B_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
K_GRID = tuple(range(24))                 # theta = k * pi / 12, as in the paper's grid
OFF_BOUNDARY = tuple(k for k in K_GRID if k % 4)
CENTRAL_ARC = (1, 2, 3, 21, 22, 23)       # (-pi/3, pi/3), where the appendix identity holds
PLUS_ARC = (5, 6, 7, 9, 10, 11)           # (pi/3, pi) without the boundary 2*pi/3

REFERENCE_FILE = Path(__file__).with_name("reference.json")


@functools.cache
def reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


class CheckError(Exception):
    """An op's output disagrees with the reference."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    argv: list[str] | None = None       # CLI ops only


def theta_of(k: int) -> float:
    return k * math.pi / 12


def theta_text(k: int) -> str:
    """The CLI spelling of theta_of(k), parsed back exactly by pptgeo."""
    return "0" if k == 0 else f"{k}*pi/12"


# ---------------------------------------------------------------- references

def grid_reference(family: str, b: float, k: int) -> dict:
    """Verdicts at one grid point: the paper's type table and extremality
    dimensions where the paper states them, else the recorded outputs."""
    rec = dict(zip(reference()["grid_fields"], reference()["grid"][family][repr(b)][k]))
    boundary = k % 4 == 0
    if family == "rho":
        paper_type = (4, 4) if boundary and (k // 4) % 2 else (5, 5)
    else:
        paper_type = (7, 6) if boundary and (k // 4) % 2 else (8, 6)
    if (rec["p"], rec["q"]) != paper_type:
        raise CheckError(f"reference.json contradicts the paper's type table at {family}({b}, {k}pi/12)")
    if family == "rho" and not boundary and (rec["dim_D"], rec["dim_E"], rec["dim_int"]) != (25, 25, 1):
        raise CheckError(f"reference.json contradicts (25,25,1) at rho({b}, {k}pi/12)")
    return rec


def krawtchouk_reference(m: int, n: int) -> list[list[int]]:
    """Paper criterion 11: for m = 2 the only zero is (n/2, n/2) at even n;
    for m = 3 solutions exist exactly at n in {3, 8, 15, 24, 35, 48} (n <= 48)."""
    if m == 2:
        return [[n // 2, n // 2]] if n % 2 == 0 else []
    solvable = n in {3, 8, 15, 24, 35, 48}
    return reference()["krawtchouk_m3"][str(n)] if solvable else []


def check_identity_choi(C: np.ndarray, what: str) -> None:
    """Paper criterion 10: trace-map decompositions give the identity Choi."""
    expect(np.max(np.abs(C - np.eye(C.shape[0]))) <= 1e-12, f"{what}: Choi is not the identity")


def witness_residual(spec, xi, eta) -> float:
    """sum |<xi|V|eta_bar>|^2 + |<xi_bar|W|eta_bar>|^2, computed independently."""
    xi, eta = np.asarray(xi).ravel(), np.asarray(eta).ravel()
    r = sum(abs(xi.conj() @ V @ eta.conj()) ** 2 for V in spec.Vs)
    r += sum(abs(xi @ W @ eta.conj()) ** 2 for W in spec.Ws)
    return float(r / (np.linalg.norm(xi) * np.linalg.norm(eta)) ** 2)


# ---------------------------------------------------------------- paper_grid

def _grid_op(family: str, b: float, k: int) -> Op:
    theta = theta_of(k)

    def run():
        X = getattr(st, family)(b, theta)
        ppt = st.is_ppt(X)
        ty = st.state_type(X)
        face = ext.face_of(X)
        rep = ext.is_extreme_in_T(X)
        return ppt, ty, face, rep

    def check(out):
        ppt, ty, face, rep = out
        ref = grid_reference(family, b, k)
        got = (bool(ppt), ty.p, ty.q, face.D.shape[1], face.E.shape[1],
               rep.dim_ker_D, rep.dim_ker_E, rep.dim_intersection, bool(rep.is_extreme))
        want = (ref["ppt"], ref["p"], ref["q"], ref["p"], ref["q"],
                ref["dim_D"], ref["dim_E"], ref["dim_int"], ref["extreme"])
        expect(got == want, f"{family}({b}, {k}pi/12): got {got}, want {want}")
        expect((rep.generator is not None) == rep.is_extreme, "generator presence")

    return Op("grid", run, check)


def _appendix_op(b: float, k: int) -> Op:
    theta = theta_of(k)

    def run():
        xs = ext.appendix_basis_X(b, theta)
        ys = ext.appendix_basis_Y(b, theta)
        return ext.basis_span_rank(xs), ext.basis_span_rank(ys), ext.verify_combination_identity(b, theta)

    def check(out):
        x_rank, y_rank, ident = out
        expect(x_rank == 25, f"appendix X span {x_rank} at ({b}, {k}pi/12)")
        expect(y_rank == reference()["appendix_y_span"], f"appendix Y span {y_rank}")
        expect(ident.x_residual <= 1e-10, f"combination residual {ident.x_residual:.2e}")

    return Op("appendix", run, check)


def _trace_map_op(mu: int | None) -> Op:
    def run():
        spec = mp.trace_map_decomposition_33() if mu is None else mp.trace_map_decomposition_2n(mu)
        return mp.decomposable_map(spec).choi.data

    return Op("decomposable_map", run, lambda C: check_identity_choi(C, f"trace map mu={mu}"))


def _krawtchouk_op(m: int, n_max: int) -> Op:
    def run():
        return [[[s.k, s.l] for s in kw.solve(m, n)] for n in range(2, n_max + 1)]

    def check(out):
        for n, sols in zip(range(2, n_max + 1), out):
            expect(sols == krawtchouk_reference(m, n), f"krawtchouk solve({m}, {n}) = {sols}")

    return Op("krawtchouk_scan", run, check)


def paper_grid_ops(seed: int) -> list[Op]:
    """One sweep: every (b, theta, family) grid op, the criterion-4 appendix
    check at one central-arc angle per b, the five trace-map Chois and both
    Krawtchouk scans, in a seeded order."""
    rng = np.random.default_rng(seed)
    ops = [_grid_op(f, b, k) for b in B_GRID for k in K_GRID for f in ("rho", "sigma")]
    ops += [_appendix_op(b, int(rng.choice(CENTRAL_ARC))) for b in B_GRID]
    ops += [_trace_map_op(mu) for mu in (None, 1, 2, 3, 4)]
    ops += [_krawtchouk_op(2, 40), _krawtchouk_op(3, 48)]
    return [ops[i] for i in rng.permutation(len(ops))]


# ------------------------------------------------------------ certify_search

# Sizes chosen so that product-vector searches, witness searches and block
# positivity sampling each take about a third of the run, with early-exit
# and exhaustive searches mixed.  Per block of 30 ops, 13 ops are fast (8
# range searches and 4 generic witnesses under 7 ms, plus the b = 1 rho
# kernel), 6 sigma-kernel searches cost 5-7 ms each and 11 ops are slower.
# The median op so falls inside the tight sigma-kernel cluster, and the 95th
# percentile inside the slowest group, not in a gap between clusters where a
# small change in the mix would move them a lot.
RANGE_RESTARTS = 100
RHO_KERNEL_RESTARTS = 6
SIGMA_KERNEL_RESTARTS = 50
GENERIC_WITNESS_RESTARTS = 100
TRACE_WITNESS_RESTARTS = 100
POSITIVITY_SAMPLES = 600
BLOCKS = 24
GENERIC_BASES = 24


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _subspace(X: np.ndarray, kernel: bool, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal basis of the range or kernel of X, moved by a random local
    unitary (which preserves whether the subspace holds product vectors)."""
    w, V = np.linalg.eigh(X)
    keep = np.abs(w) <= 1e-9 * np.max(np.abs(w))
    B = V[:, keep if kernel else ~keep]
    return np.kron(_unitary(rng, 3), _unitary(rng, 3)) @ B


def _product_vector_op(kind: str, D: np.ndarray, restarts: int, seed: int) -> Op:
    def run():
        return st.search_product_vector_in_subspace(D, 3, 3, restarts=restarts, seed=seed)

    def check(out):
        found = reference()["search_found"][kind]
        expect((out is not None) == found, f"{kind}: found={out is not None}, want {found}")
        if out is not None:
            v = np.kron(*out)
            v = v / np.linalg.norm(v)
            res = np.linalg.norm(v - D @ (D.conj().T @ v))
            expect(res <= 1e-6, f"{kind}: product vector leaves the subspace by {res:.2e}")

    return Op(kind, run, check)


def _witness_op(kind: str, spec, restarts: int, seed: int) -> Op:
    def run():
        return mp.boundary_witness_search(spec, restarts=restarts, seed=seed)

    def check(out):
        found = reference()["search_found"][kind]
        expect((out is not None) == found, f"{kind}: found={out is not None}, want {found}")
        if out is not None:
            res = witness_residual(spec, out[0], out[1])
            expect(res <= 1e-10, f"{kind}: witness residual {res:.2e}")

    return Op(kind, run, check)


def _positivity_op(theta: float, t: float, seed: int) -> Op:
    def run():
        return mp.block_positivity_sample(mp.phi_theta_t(theta, t), samples=POSITIVITY_SAMPLES, seed=seed)

    def check(v):
        # phi_theta_t is a positive map: no product vector may certify otherwise.
        expect(v >= -1e-9, f"block positivity {v:.3e} < 0 for theta={theta}, t={t}")

    return Op("block_positivity", run, check)


def generic_spec(rng: np.random.Generator):
    """A random 1V + 2W decomposable map on M_3; its boundary-witness
    equations (three in four unknowns) always have a solution."""
    g = lambda: rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))  # noqa: E731
    return mp.DecomposableSpec((g(),), (g(), g()))


def rotate_spec(spec, rng: np.random.Generator):
    """The spec moved by random unitaries A, B: V -> A V B, W -> conj(A) W B.
    The map becomes X -> B* phi(A* X A) B, so whether a witness exists, and
    how hard it is to find from random starts, do not change."""
    m, n = spec.shape
    A, B = _unitary(rng, m), _unitary(rng, n)
    return mp.DecomposableSpec(tuple(A @ V @ B for V in spec.Vs),
                               tuple(A.conj() @ W @ B for W in spec.Ws))


def _seed(rng: np.random.Generator) -> int:
    """A search seed for the program, drawn from the benchmark seed."""
    return int(rng.integers(2**31))


def certify_search_ops(seed: int) -> list[Op]:
    """BLOCKS blocks of 30 searches.  Which grid points, base specs and
    (theta, t) appear is fixed, so every seed asks for the same work; the
    seed moves each subspace and spec by random local unitaries and draws the
    search seeds and the op order."""
    rng = np.random.default_rng(seed)
    fixed = np.random.default_rng(0)
    bases = [generic_spec(fixed) for _ in range(GENERIC_BASES)]
    traces = (mp.trace_map_decomposition_33(), mp.trace_map_decomposition_2n(2))

    def point():
        return float(fixed.choice(B_GRID)), theta_of(int(fixed.choice(OFF_BOUNDARY)))

    ops = []
    for j in range(BLOCKS):
        for family in ("rho", "sigma") * 4:
            X = getattr(st, family)(*point())
            ops.append(_product_vector_op("range_search", _subspace(X.data, False, rng),
                                          RANGE_RESTARTS, _seed(rng)))
        for b in B_GRID:
            X = st.rho(b, point()[1])
            ops.append(_product_vector_op("rho_kernel_search", _subspace(X.data, True, rng),
                                          RHO_KERNEL_RESTARTS, _seed(rng)))
        for _ in range(6):
            X = st.sigma(*point())
            ops.append(_product_vector_op("sigma_kernel_search", _subspace(X.data, True, rng),
                                          SIGMA_KERNEL_RESTARTS, _seed(rng)))
        for i in range(4):
            ops.append(_witness_op("generic_witness", rotate_spec(bases[(4 * j + i) % GENERIC_BASES], rng),
                                   GENERIC_WITNESS_RESTARTS, _seed(rng)))
        for i in range(3):
            ops.append(_witness_op("trace_witness", rotate_spec(traces[(3 * j + i) % 2], rng),
                                   TRACE_WITNESS_RESTARTS, _seed(rng)))
        for _ in range(4):
            theta, t = float(fixed.uniform(-math.pi, math.pi)), float(fixed.uniform(0.5, 2.0))
            ops.append(_positivity_op(theta, t, _seed(rng)))
    return [ops[i] for i in rng.permutation(len(ops))]


# ------------------------------------------------------------------ cli_cold

def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cli_op(kind: str, argv: list[str], check: Callable[[dict], None], root: Path) -> Op:
    """Run ``python -m pptgeo.cli argv`` in a fresh interpreter."""
    env = cli_env(root)

    def run():
        proc = subprocess.run([sys.executable, "-m", "pptgeo.cli", *argv], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def check_proc(out):
        code, stdout, stderr = out
        expect(code == 0, f"{kind}: exit {code}: {stderr.strip()[-200:]}")
        check(json.loads(stdout))

    return Op(kind, run, check_proc, argv)


def _classify_check(family, b, k):
    def check(rep):
        ref = grid_reference(family, b, k)
        expect(rep["ppt"] == ref["ppt"] and rep["type"] == [ref["p"], ref["q"]], f"classify {rep}")
    return check


def _extremality_check(family, b, k):
    def check(rep):
        ref = grid_reference(family, b, k)
        got = [rep["dim_ker_D"], rep["dim_ker_E"], rep["dim_intersection"], rep["is_extreme"]]
        expect(got == [ref["dim_D"], ref["dim_E"], ref["dim_int"], ref["extreme"]], f"extremality {got}")
    return check


def _appendix_check(rep):
    app = rep["appendix"]
    expect(app["x_span_rank"] == 25 and app["y_span_rank"] == reference()["appendix_y_span"], "appendix spans")
    expect(max(app["x_membership_max_residual"], app["y_membership_max_residual"]) <= 1e-9, "appendix membership")
    expect(app["x_combination_residual"] <= 1e-10, "appendix combination identity")


def _combine_check(rep):
    # Paper criterion 5: a cross-arc mixture of two rho states is interior, type (9, 9).
    cl = rep["classification"]
    expect(cl["ppt"] and cl["type"] == [9, 9] and cl["interior_T"], f"combine {cl}")


def _trace_decomp_check(rep):
    mat = rep["choi"]["choi"]["matrix"]
    C = np.array([complex(re, im) for re, im in mat["entries"]]).reshape(mat["rows"], mat["cols"])
    check_identity_choi(C, "trace-decomp")


def _witness_check(rep):
    expect(rep["found"] is True and rep["residual"] <= 1e-12, f"boundary-witness {rep.get('residual')}")


def _krawtchouk_check(m, n):
    def check(rep):
        expect(rep["solutions"] == krawtchouk_reference(m, n), f"krawtchouk {m} {n}")
    return check


CYCLES = 4


def cli_cold_ops(seed: int, workdir: Path, root: Path) -> list[Op]:
    """CYCLES cycles of the seven commands, arguments and spec files drawn
    from the seed; the files go to workdir."""
    rng = np.random.default_rng(seed)
    ops = []
    for c in range(CYCLES):
        family = ("rho", "sigma")[c % 2]
        b, k = float(rng.choice(B_GRID)), int(rng.choice(K_GRID))
        grid_args = ["--family", family, "--b", repr(b), "--theta", theta_text(k)]
        ops.append(_cli_op("state_classify", ["state", "classify", *grid_args], _classify_check(family, b, k), root))
        b, k = float(rng.choice(B_GRID)), int(rng.choice(K_GRID))
        grid_args = ["--family", family, "--b", repr(b), "--theta", theta_text(k)]
        ops.append(_cli_op("extremality", ["extremality", *grid_args], _extremality_check(family, b, k), root))
        b, k = float(rng.choice(B_GRID)), int(rng.choice(CENTRAL_ARC))
        ops.append(_cli_op("extremality_appendix",
                           ["extremality", "--family", "rho", "--b", repr(b), "--theta", theta_text(k),
                            "--verify-appendix"], _appendix_check, root))
        w = float(rng.uniform(0.3, 0.7))
        mix = [{"family": "rho", "b": float(rng.choice(B_GRID)), "theta": theta_text(int(rng.choice(CENTRAL_ARC))),
                "weight": w},
               {"family": "rho", "b": float(rng.choice(B_GRID)), "theta": theta_text(int(rng.choice(PLUS_ARC))),
                "weight": 1.0 - w}]
        path = workdir / f"combine-{c}.json"
        path.write_text(json.dumps(mix))
        ops.append(_cli_op("combine", ["combine", "--spec", str(path)], _combine_check, root))
        mu = int(rng.integers(1, 5))
        argv = ["map", "trace-decomp", "--m", "3"] if c % 2 == 0 else ["map", "trace-decomp", "--m", "2", "--mu", str(mu)]
        ops.append(_cli_op("trace_decomp", argv, _trace_decomp_check, root))
        path = workdir / f"witness-{c}.json"
        path.write_text(json.dumps(ser.spec_to_json(generic_spec(rng))))
        ops.append(_cli_op("boundary_witness", ["map", "boundary-witness", "--spec", str(path), "--restarts",
                                                str(GENERIC_WITNESS_RESTARTS), "--seed",
                                                str(_seed(rng))], _witness_check, root))
        m = 2 + c % 2
        n = int(rng.integers(2, 41 if m == 2 else 49))
        ops.append(_cli_op("krawtchouk_solve", ["krawtchouk", "solve", "--m", str(m), "--n", str(n)],
                           _krawtchouk_check(m, n), root))
    return ops


def in_process(op: Op) -> Op:
    """The same CLI op through ``cli.main(argv)`` in this process, stdout
    captured: the traced run's view of a cold CLI call."""

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
        return code, out.getvalue(), err.getvalue()

    return Op(op.kind, run, op.check, op.argv)


WORKLOADS = {
    "paper_grid": lambda seed, workdir, root: paper_grid_ops(seed),
    "certify_search": lambda seed, workdir, root: certify_search_ops(seed),
    "cli_cold": cli_cold_ops,
}
