import argparse
import json
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pptgeo.maps as maps
from oracles import eigh_oracle, json_vector, trace_map
from pptgeo.cli import build_parser, format_theta, main, parse_theta
from pptgeo.serialize import (
    bipartite_from_json,
    bipartite_to_json,
    choi_to_json,
    matrix_from_json,
    matrix_to_json,
    spec_to_json,
    vector_to_json,
)
from pptgeo.extremality import appendix_basis_X, appendix_basis_Y, basis_span_rank
from pptgeo.maps import ChoiMap, DecomposableSpec, trace_map_decomposition_2n, trace_map_decomposition_33
from pptgeo.states import BipartiteMatrix, normalize, rho
from test_extremality import oracle_states


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseTheta:
    @pytest.mark.parametrize("text,value", [
        ("pi", math.pi),
        ("-pi/3", -math.pi / 3),
        ("2*pi/3", 2 * math.pi / 3),
        ("5pi/12", 5 * math.pi / 12),
        ("0.5", 0.5),
        ("-1.25", -1.25),
        ("0", 0.0),
    ])
    def test_parse(self, text, value):
        assert parse_theta(text) == pytest.approx(value, abs=1e-15)

    def test_round_trip_through_format(self):
        # exact, and angles next to a multiple of pi print as themselves
        near = [1e-300, 5e-16, math.nextafter(parse_theta("pi/6"), 1), -0.0]
        grid = [parse_theta(f"{k}pi/12") for k in range(-24, 25)]
        for th in [0.0, math.pi, -math.pi / 3, 5 * math.pi / 12, 0.123456] + near + grid:
            assert parse_theta(format_theta(th)) == th

    def test_construct_reports_a_tiny_theta(self, capsys):
        code, _, err = run(capsys, "state", "construct",
                           "--family", "rho", "--b", "2", "--theta", "1e-300")
        assert code == 0
        assert "theta=1e-300" in err

    def test_rejects_garbage(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_theta("two pies")

    def test_rejects_zero_denominator(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_theta("pi/0")

    def test_out_of_float_range_is_usage(self, capsys):
        code, out, err = run(capsys, "state", "classify", "--family", "rho",
                             "--b", "1", "--theta", "1" * 400 + "pi")
        assert code == 2
        assert out == "" and "floating-point range" in err

    def test_zero_denominator_is_usage(self, capsys):
        code, out, err = run(capsys, "state", "classify", "--family", "rho",
                             "--b", "1", "--theta", "pi/0")
        assert code == 2
        assert out == "" and "divides by zero" in err


class TestSerialize:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(1)
        M = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        assert np.array_equal(matrix_from_json(matrix_to_json(M)), M)

    def test_vector_round_trip(self):
        v = np.array([1 + 2j, -0.5, 3j])
        assert np.array_equal(json_vector(vector_to_json(v)), v)

    def test_bipartite_round_trip(self):
        X = rho(2, math.pi / 6)
        Y = bipartite_from_json(bipartite_to_json(X))
        assert (Y.m, Y.n) == (3, 3)
        assert np.array_equal(Y.data, X.data)

    def test_matrix_of_one_dimension_rejected(self):
        with pytest.raises(ValueError, match="expected a 2-D matrix"):
            matrix_to_json(np.ones(3))

    def test_entry_count_check(self):
        obj = matrix_to_json(np.eye(2))
        obj["entries"] = obj["entries"][:-1]
        with pytest.raises(ValueError):
            matrix_from_json(obj)


class TestStateCommands:
    def test_construct_json(self, capsys):
        code, out, err = run(capsys, "state", "construct",
                             "--family", "rho", "--b", "2", "--theta", "pi/6")
        assert code == 0
        X = bipartite_from_json(json.loads(out))
        assert np.array_equal(X.data, rho(2, math.pi / 6).data)
        assert "rho" in err

    def test_construct_normalized(self, capsys):
        code, out, _ = run(capsys, "state", "construct", "--normalize",
                           "--family", "rho", "--b", "2", "--theta", "pi/6")
        assert code == 0
        X = bipartite_from_json(json.loads(out))
        assert np.trace(X.data).real == pytest.approx(1.0, abs=1e-15)
        assert np.array_equal(X.data, normalize(rho(2, math.pi / 6)).data)

    def test_classify(self, capsys):
        code, out, _ = run(capsys, "state", "classify",
                           "--family", "sigma", "--b", "1", "--theta", "pi/6")
        rep = json.loads(out)
        assert code == 0
        assert rep["ppt"] is True
        assert rep["type"] == [8, 6]
        assert rep["arc"] == "zero"

    def test_classify_boundary(self, capsys):
        code, out, _ = run(capsys, "state", "classify",
                           "--family", "rho", "--b", "1", "--theta", "pi")
        rep = json.loads(out)
        assert rep["type"] == [4, 4]
        assert rep["arc"] == "boundary"

    def test_classify_large_angle(self, capsys):
        # theta is reduced by an exact 2 pi, as its phases are
        code, out, _ = run(capsys, "state", "classify",
                           "--family", "rho", "--b", "1", "--theta", "1e13")
        assert code == 0
        assert json.loads(out)["type"] == [5, 5]

    def test_kernel(self, capsys):
        code, out, _ = run(capsys, "state", "kernel",
                           "--family", "rho", "--b", "2", "--theta", "pi/6")
        rep = json.loads(out)
        assert code == 0
        assert rep["dim"] == 4
        R = rho(2, math.pi / 6).data
        for entry in rep["basis"]:
            v = json_vector(entry)
            assert np.linalg.norm(R @ v) <= 1e-8

    def test_kernel_from_file_matches_oracle(self, capsys, tmp_path):
        # an --in state may be indefinite: its kernel eigenvalues then sit
        # between the positive and the negative ones of the descending
        # spectrum, not at its end (U diag(...) U^dagger, U seeded unitary)
        rng = np.random.default_rng(11)

        def rotated(m, n, diag):
            U = np.linalg.qr(rng.normal(size=(m * n, m * n, 2)).view(complex)[..., 0])[0]
            return BipartiteMatrix(m, n, U @ np.diag(diag) @ U.conj().T)

        Z = rotated(3, 3, [5.0, 2.0, 1.0, 0.0, 0.0, 0.0, -1.0, -3.0, -4.0]).data
        indefinite = [rotated(2, 2, [3.0, 0.0, 0.0, -2.0])]
        indefinite += [BipartiteMatrix(3, 3, Z * scale) for scale in (1e6, 1e-6)]
        path = tmp_path / "state.json"
        for X in oracle_states() + indefinite:
            path.write_text(json.dumps(bipartite_to_json(X)))
            code, out, _ = run(capsys, "state", "kernel", "--in", str(path))
            rep = json.loads(out)
            assert code == 0
            K = np.array([json_vector(v) for v in rep["basis"]]).reshape(rep["dim"], X.m * X.n).T
            assert_allclose(K.conj().T @ K, np.eye(rep["dim"]), atol=1e-12)
            assert_allclose(K @ K.conj().T, eigh_oracle(X.data)[4], atol=1e-10)

    def test_construct_file_round_trip(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        code, _, _ = run(capsys, "state", "construct", "--family", "rho",
                         "--b", "1.5", "--theta", "0.7", "--out", str(path))
        assert code == 0
        code, out, _ = run(capsys, "state", "classify", "--in", str(path))
        rep = json.loads(out)
        assert rep["type"] == [5, 5]

    def test_bad_b_is_numerical_exit(self, capsys):
        code, _, _ = run(capsys, "state", "construct",
                         "--family", "rho", "--b", "-1", "--theta", "0")
        assert code == 3

    def test_failed_eigendecomposition_is_numerical_exit(self, capsys, monkeypatch):
        def fail(H):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        code, out, err = run(capsys, "state", "classify", "--family", "rho", "--b", "2", "--theta", "0.5")
        assert code == 3
        assert out == "" and "eigendecomposition failed" in err

    def test_missing_source_is_usage(self, capsys):
        code, _, _ = run(capsys, "state", "classify", "--family", "rho")
        assert code == 2

    @pytest.mark.parametrize("command", [["state", "classify"], ["state", "kernel"], ["extremality"]])
    @pytest.mark.parametrize("flags", [["--family", "sigma", "--b", "1", "--theta", "1"], ["--b", "2"],
                                       ["--theta", "pi/6"]], ids=["all three", "b", "theta"])
    def test_file_with_family_flags_is_usage(self, capsys, tmp_path, command, flags):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(bipartite_to_json(rho(2, math.pi / 6))))
        code, out, err = run(capsys, *command, "--in", str(path), *flags)
        assert code == 2
        assert out == "" and err.startswith("input error:") and "not both" in err

    def test_empty_file_name_is_not_ignored(self, capsys):
        code, out, err = run(capsys, "state", "classify", "--in", "", "--family", "rho", "--b", "2",
                             "--theta", "pi/6")
        assert code == 2
        assert out == "" and "not both" in err
        assert run(capsys, "state", "classify", "--in", "")[0] == 2

    @pytest.mark.parametrize("missing", ["--family", "--b", "--theta"])
    def test_missing_flag_is_named(self, capsys, missing):
        flags = {"--family": "rho", "--b": "2", "--theta": "pi/6"}
        del flags[missing]
        code, out, err = run(capsys, "state", "classify", *(x for kv in flags.items() for x in kv))
        assert code == 2
        assert out == "" and f"missing {missing}" in err

    @pytest.mark.parametrize("entry,message", [
        (["a", 1], "expected a number"),
        ([1, 2, 3], "not a [re, im] pair"),
        ([math.nan, 0], "finite"),
    ])
    def test_bad_json_entry_is_usage(self, capsys, tmp_path, entry, message):
        obj = bipartite_to_json(rho(2, math.pi / 6))
        obj["matrix"]["entries"][0] = entry
        path = tmp_path / "state.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "state", "classify", "--in", str(path))
        assert code == 2
        assert out == "" and message in err

    def test_entries_near_the_float_limit(self, capsys, tmp_path):
        obj = {"m": 1, "n": 2, "matrix": matrix_to_json(np.array([[1e308, 5e307], [5e307, 1e308]]))}
        path = tmp_path / "state.json"
        path.write_text(json.dumps(obj))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, "state", "classify", "--in", str(path))
        assert code == 0
        assert json.loads(out)["type"] == [2, 2]

    @pytest.mark.parametrize("text,message", [
        ('{"m": ' + "1" * 5000 + "}", "4300 digits"),
        (json.dumps({**bipartite_to_json(rho(2, 0.5)), "m": 0}), "must be positive, got m=0"),
        (json.dumps({"m": 2, "n": 2, "matrix": matrix_to_json(np.eye(9))}), "data must be 4x4"),
        (json.dumps({"m": 3, "n": 3, "matrix": {"rows": 9, "cols": 9}}), "with the key 'entries'"),
        (json.dumps({"m": 3, "matrix": matrix_to_json(np.eye(9))}), "with the key 'n'"),
        (json.dumps({"m": 1, "n": 2, "matrix": matrix_to_json(np.triu(np.ones((2, 2))))}),
         "not hermitian"),
        (json.dumps({**bipartite_to_json(rho(2, 0.5)), "m": -1}),
         "'m' must be a nonnegative integer"),
        (json.dumps({"m": 1, "n": 1, "matrix": {"rows": 1, "cols": 1, "entries": 5}}),
         "entries must be a JSON list"),
    ], ids=["long integer", "m zero", "size mismatch", "no entries", "no n", "not hermitian",
            "m negative", "entries not a list"])
    def test_bad_state_file_is_usage(self, capsys, tmp_path, text, message):
        path = tmp_path / "state.json"
        path.write_text(text)
        code, out, err = run(capsys, "state", "classify", "--in", str(path))
        assert code == 2
        assert out == "" and message in err


class TestNonFiniteFlags:
    """A non-finite flag value is an input error, as a non-finite JSON number is."""

    @pytest.mark.parametrize("argv", [
        ["state", "classify", "--family", "rho", "--b", "inf", "--theta", "0"],
        ["state", "classify", "--family", "rho", "--b", "nan", "--theta", "0"],
        ["state", "construct", "--family", "sigma", "--b=-inf", "--theta", "0"],
        ["state", "classify", "--family", "rho", "--b", "1", "--theta", "inf"],
        ["extremality", "--family", "rho", "--b", "1", "--theta", "nan"],
        ["state", "kernel", "--family", "rho", "--b", "1", "--theta", "1e400"],
        ["map", "phi-theta", "--theta", "0", "--t", "nan"],
        ["map", "phi-theta", "--theta", "inf", "--t", "1"],
        ["map", "antipodal-sum", "--theta", "0", "--t", "1", "--s", "inf"],
        ["map", "antipodal-sum", "--theta", "0", "--t", "1e400", "--s", "1"],
    ], ids=["b inf", "b nan", "b -inf", "theta inf", "theta nan", "theta 1e400",
            "t nan", "phi theta inf", "s inf", "t 1e400"])
    def test_flag_is_usage(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and "finite" in err

    @pytest.mark.parametrize("theta", ["inf", "-inf", "nan", "1e400"])
    def test_spec_theta_string_is_usage(self, capsys, theta):
        spec = json.dumps([{"family": "rho", "b": 2, "theta": theta, "weight": 1}])
        code, out, err = run(capsys, "combine", "--spec", spec)
        assert code == 2
        assert out == "" and "entry 0: theta" in err and "not finite" in err


class TestExtremalityCommand:
    def test_extreme_with_appendix(self, capsys):
        code, out, err = run(capsys, "extremality", "--family", "rho",
                             "--b", "2", "--theta", "pi/6", "--verify-appendix")
        rep = json.loads(out)
        assert code == 0
        assert rep["is_extreme"] is True
        assert (rep["dim_ker_D"], rep["dim_ker_E"], rep["dim_intersection"]) == (25, 25, 1)
        ax = rep["appendix"]
        assert ax["x_span_rank"] == 25
        assert ax["y_span_rank"] == 25
        assert ax["x_membership_max_residual"] <= 1e-9
        assert ax["y_membership_max_residual"] <= 1e-9
        assert ax["x_combination_residual"] <= 1e-10
        assert ax["y_combination_residual_last_y7"] <= 1e-10
        assert ax["y_combination_residual_last_x7"] > 1e-2
        assert "extreme=True" in err

    @pytest.mark.parametrize("b", ["1.3407807929942597e+154", "2.4538424900209123e-217"])
    def test_verify_appendix_out_of_float_range(self, capsys, b):
        # b^2 or 1/b^2, which the bases hold, leaves the floating-point range
        code, out, err = run(capsys, "extremality", "--family", "rho", "--b", b,
                             "--theta", "0", "--verify-appendix")
        assert code == 3
        assert out == ""
        assert "floating-point range" in err

    @pytest.mark.parametrize("b", ["3.338330822182424e+84"])
    def test_verify_appendix_in_range(self, capsys, b):
        # b^4 overflows, but the residuals' norms are taken unit-scaled
        code, out, _ = run(capsys, "extremality", "--family", "rho", "--b", b,
                           "--theta", "0", "--verify-appendix")
        assert code == 0
        ax = json.loads(out)["appendix"]
        assert all(math.isfinite(v) for v in ax.values())
        assert (ax["x_span_rank"], ax["y_span_rank"]) == tuple(
            basis_span_rank(basis(float(b), 0.0)) for basis in (appendix_basis_X, appendix_basis_Y))

    def test_verify_appendix_usage_errors(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(bipartite_to_json(rho(2, math.pi / 6))))
        for source in (["--in", str(path)],
                       ["--family", "sigma", "--b", "2", "--theta", "pi/6"]):
            code, out, err = run(capsys, "extremality", *source, "--verify-appendix")
            assert code == 2
            assert out == ""
            assert "--verify-appendix" in err

    def test_subnormal_state(self, capsys, tmp_path):
        X = rho(2, math.pi / 6)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(bipartite_to_json(BipartiteMatrix(3, 3, X.data * 1e-310))))
        code, out, _ = run(capsys, "extremality", "--in", str(path))
        rep = json.loads(out)
        assert code == 0
        assert (rep["dim_ker_D"], rep["dim_ker_E"], rep["dim_intersection"]) == (25, 25, 1)
        G = bipartite_from_json(rep["generator"]).data
        assert np.max(np.abs(G - X.data / np.trace(X.data).real)) <= 1e-12

    def test_sigma_not_extreme(self, capsys):
        code, out, _ = run(capsys, "extremality", "--family", "sigma",
                           "--b", "2", "--theta", "pi/6")
        rep = json.loads(out)
        assert code == 0
        assert rep["is_extreme"] is False
        assert rep["generator"] is None


class TestCombineCommand:
    def test_interior_mixture(self, capsys):
        spec = json.dumps([
            {"family": "rho", "b": 2, "theta": "pi/6", "weight": 0.5},
            {"family": "rho", "b": 1, "theta": "5*pi/6", "weight": 0.5},
        ])
        code, out, _ = run(capsys, "combine", "--spec", spec)
        rep = json.loads(out)
        assert code == 0
        assert rep["classification"]["interior_T"] is True

    def test_spec_file(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps([
            {"family": "rho", "b": 2, "theta": "pi/6", "weight": 1.0},
        ]))
        code, out, _ = run(capsys, "combine", "--spec", str(path))
        rep = json.loads(out)
        assert code == 0
        assert rep["classification"]["type"] == [5, 5]
        assert rep["classification"]["arc"] == "zero"

    @pytest.mark.parametrize("spec", ['{"a": 1}', '[1, 2]', '"rho"', '[]'])
    def test_spec_not_a_list_of_objects_is_usage(self, capsys, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(spec)
        code, out, err = run(capsys, "combine", "--spec", str(path))
        assert code == 2
        assert out == "" and "list of objects" in err

    def test_long_integer_inline_is_usage(self, capsys):
        spec = '[{"family": "rho", "b": ' + "1" * 5000 + ', "theta": "0", "weight": 1}]'
        code, out, err = run(capsys, "combine", "--spec", spec)
        assert code == 2
        assert out == "" and "4300 digits" in err

    def test_missing_key_is_named(self, capsys):
        spec = json.dumps([{"family": "rho", "b": 1, "weight": 1}])
        code, out, err = run(capsys, "combine", "--spec", spec)
        assert code == 2
        assert out == "" and "entry 0: missing key(s) theta" in err

    def test_bad_weights(self, capsys):
        spec = json.dumps([{"family": "rho", "b": 1, "theta": "0", "weight": 2.0}])
        code, _, _ = run(capsys, "combine", "--spec", spec)
        assert code == 3

    @pytest.mark.parametrize("field,value", [("b", "x"), ("weight", "heavy"), ("b", None)])
    def test_non_numeric_b_or_weight_is_usage(self, capsys, field, value):
        entry = {"family": "rho", "b": 1, "theta": "0", "weight": 1}
        entry[field] = value
        code, out, err = run(capsys, "combine", "--spec", json.dumps([entry]))
        assert code == 2
        assert out == "" and "must be numbers" in err

    @pytest.mark.parametrize("field,text", [
        ("b", "true"), ("b", '"2"'), ("b", "1e400"), ("weight", "NaN"), ("theta", "1e400"),
    ])
    def test_non_finite_or_non_numeric_entry_is_usage(self, capsys, field, text):
        entry = {"family": '"rho"', "b": "2", "theta": '"pi/6"', "weight": "1"}
        entry[field] = text
        spec = '[{"family": "sigma", "b": 1, "theta": "0", "weight": 0}, {'
        spec += ", ".join(f'"{key}": {value}' for key, value in entry.items()) + "}]"
        code, out, err = run(capsys, "combine", "--spec", spec)
        assert code == 2
        assert out == "" and "entry 1" in err and field in err


class TestMapCommands:
    def test_phi_theta(self, capsys):
        code, out, _ = run(capsys, "map", "phi-theta", "--theta", "pi/6", "--t", "1")
        rep = json.loads(out)
        assert code == 0
        C = matrix_from_json(rep["choi"]["matrix"])
        a = 2 - math.sqrt(3)
        assert C[0, 0].real == pytest.approx(a, abs=1e-12)

    def test_antipodal_sum(self, capsys):
        code, out, _ = run(capsys, "map", "antipodal-sum",
                           "--theta", "pi/6", "--t", "1", "--s", "1")
        rep = json.loads(out)
        assert code == 0
        assert rep["interior_P_sufficient"] is True

    def test_antipodal_sum_not_interior_is_numerical(self, capsys):
        code, out, err = run(capsys, "map", "antipodal-sum",
                             "--theta", "pi/3", "--t", "1", "--s", "1e6")
        assert code == 3
        assert out == "" and "not diagonal with a positive diagonal" in err

    def test_trace_decomp_33(self, capsys):
        code, out, err = run(capsys, "map", "trace-decomp", "--m", "3")
        rep = json.loads(out)
        assert code == 0
        assert len(rep["Vs"]) == 1 and len(rep["Ws"]) == 3
        C = matrix_from_json(rep["choi"]["choi"]["matrix"])
        assert np.array_equal(C, np.eye(9).astype(complex))
        assert "(1,3)" in err

    @pytest.mark.parametrize("exc,message", [
        (MemoryError("Unable to allocate 1.00 TiB for an array"), "error: Unable to allocate"),
        (MemoryError(), "error: MemoryError"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_is_numerical(self, capsys, monkeypatch, exc, message):
        def exhausted(mu):
            raise exc

        monkeypatch.setattr(maps, "trace_map_decomposition_2n", exhausted)
        code, out, err = run(capsys, "map", "trace-decomp", "--m", "2", "--mu", "2000")
        assert code == 3
        assert out == "" and err.startswith(message) and "Traceback" not in err

    def test_trace_decomp_past_the_size_budget_is_numerical(self, capsys):
        # its Choi matrix would have (4 mu)^2 entries; the size is named, not allocated
        code, out, err = run(capsys, "map", "trace-decomp", "--m", "2", "--mu", "100000")
        assert code == 3
        assert out == "" and err == ("error: the Choi matrix at mu=100000 has 160000000000 entries, "
                                     "more than the dense-size budget of 2097152\n")

    def test_phi_theta_at_huge_t(self, capsys):
        # t * t overflows past about 1.34e154; the coefficients stay finite
        code, out, _ = run(capsys, "map", "phi-theta", "--theta", "1", "--t", "1e160")
        assert code == 0
        C = matrix_from_json(json.loads(out)["choi"]["matrix"])
        assert np.isfinite(C).all() and C[0, 0].real == 1.0

    def test_trace_decomp_2n_requires_mu(self, capsys):
        code, _, err = run(capsys, "map", "trace-decomp", "--m", "2")
        assert code == 2
        assert "requires --mu" in err
        code, out, _ = run(capsys, "map", "trace-decomp", "--m", "2", "--mu", "2")
        assert code == 0
        rep = json.loads(out)
        assert len(rep["Vs"]) == 2 and len(rep["Ws"]) == 2

    @pytest.mark.parametrize("argv,message", [
        (["--m", "5"], "invalid choice"),
        (["--m", "2", "--mu", "0"], "positive integer"),
        (["--m", "3", "--mu", "2"], "--m 3 takes no --mu"),
    ], ids=["m 5", "mu 0", "m 3 with mu"])
    def test_trace_decomp_bad_sizes_are_usage(self, capsys, argv, message):
        code, out, err = run(capsys, "map", "trace-decomp", *argv)
        assert code == 2
        assert out == "" and message in err

    @pytest.mark.parametrize("spec,message", [
        ({"Vs": [], "Ws": []}, "at least one generating matrix"),
        ({"Vs": [matrix_to_json(np.eye(3))], "Ws": [matrix_to_json(np.eye(2))]},
         "share one m x n shape"),
        ({"Vs": [{"rows": 1, "cols": 1}]}, "with the key 'entries'"),
        ({"Vs": [{"rows": 0, "cols": 0, "entries": []}]}, "at least 1 x 1"),
        ({"Ws": [{"rows": 2, "cols": 0, "entries": []}]}, "at least 1 x 1"),
        ({"Vs": 3}, "'Vs' and 'Ws' must be JSON lists of matrices"),
        ([1, 2], "a spec must be a JSON object"),
    ], ids=["no generators", "mixed shapes", "no entries", "0 x 0", "2 x 0", "Vs not a list",
            "not an object"])
    def test_bad_spec_file_is_usage(self, capsys, tmp_path, spec, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "map", "boundary-witness", "--spec", str(path))
        assert code == 2
        assert out == "" and message in err

    def test_pair(self, capsys, tmp_path):
        sp = tmp_path / "state.json"
        mp_ = tmp_path / "map.json"
        X = rho(2, math.pi / 6)
        sp.write_text(json.dumps(bipartite_to_json(X)))
        mp_.write_text(json.dumps(choi_to_json(trace_map(3, 3))))
        code, out, _ = run(capsys, "map", "pair", "--state", str(sp), "--map", str(mp_))
        rep = json.loads(out)
        assert code == 0
        assert rep["pairing"] == pytest.approx(np.trace(X.data).real, abs=1e-9)

    def test_pair_out_of_range_is_numerical(self, capsys, tmp_path):
        # Tr(X C^t) = 2e400 overflows: an error, not {"pairing": Infinity}
        sp = tmp_path / "state.json"
        mp_ = tmp_path / "map.json"
        sp.write_text(json.dumps(bipartite_to_json(BipartiteMatrix(1, 2, 1e200 * np.eye(2)))))
        mp_.write_text(json.dumps(choi_to_json(ChoiMap(BipartiteMatrix(1, 2, 1e200 * np.eye(2))))))
        code, out, err = run(capsys, "map", "pair", "--state", str(sp), "--map", str(mp_))
        assert code == 3
        assert out == "" and "floating-point range" in err

    def test_pair_map_dimensions_disagree_is_usage(self, capsys, tmp_path):
        # the map document's m and n must be those of its Choi matrix
        sp = tmp_path / "state.json"
        mp_ = tmp_path / "map.json"
        sp.write_text(json.dumps(bipartite_to_json(BipartiteMatrix(1, 2, np.eye(2)))))
        doc = choi_to_json(ChoiMap(BipartiteMatrix(1, 2, np.eye(2))))
        doc["m"], doc["n"] = 2, 1
        mp_.write_text(json.dumps(doc))
        code, out, err = run(capsys, "map", "pair", "--state", str(sp), "--map", str(mp_))
        assert code == 2
        assert out == "" and "dimensions disagree" in err

    def test_boundary_witness(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        spec = DecomposableSpec(
            (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)),),
            (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)),),
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_to_json(spec)))
        code, out, _ = run(capsys, "map", "boundary-witness",
                           "--spec", str(path), "--restarts", "100")
        rep = json.loads(out)
        assert code == 0
        assert rep["found"] is True
        assert rep["residual"] <= 1e-12

    def test_boundary_witness_far_from_unit_scale(self, capsys, tmp_path):
        # the 2 (x) 2 trace map at 1e200 is still interior: its pairing form
        # would overflow unless the generators are scaled first
        spec = trace_map_decomposition_2n(1)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_to_json(DecomposableSpec(
            tuple(1e200 * V for V in spec.Vs), tuple(1e200 * W for W in spec.Ws)))))
        code, out, _ = run(capsys, "map", "boundary-witness", "--spec", str(path), "--restarts", "20")
        assert code == 0
        assert json.loads(out) == {"found": False}

    def test_boundary_witness_restarts_past_the_size_budget(self, capsys, tmp_path, monkeypatch):
        # the later restarts' forms would have (restarts - 1) 81 entries on
        # 3 (x) 3; the size is named, and no start is drawn
        monkeypatch.setattr(maps.seesaw, "starts", lambda *args: pytest.fail("a start was drawn"))
        rng = np.random.default_rng(0)
        g = lambda: rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))  # noqa: E731
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_to_json(DecomposableSpec((g(),), (g(), g())))))
        code, out, err = run(capsys, "map", "boundary-witness", "--spec", str(path), "--restarts", "25892")
        assert code == 3
        assert out == "" and err == ("error: the form stack of 25891 later restarts has 2097171 entries, "
                                     "more than the dense-size budget of 2097152\n")

    @pytest.mark.parametrize("restarts", ["0", "-3", "many"])
    def test_boundary_witness_bad_restarts_is_usage(self, capsys, tmp_path, restarts):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_to_json(trace_map_decomposition_33())))
        code, out, err = run(capsys, "map", "boundary-witness",
                             "--spec", str(path), "--restarts", restarts)
        assert code == 2
        assert out == "" and "positive integer" in err

    def test_missing_file_is_usage(self, capsys, tmp_path):
        code, _, _ = run(capsys, "map", "pair",
                         "--state", str(tmp_path / "no.json"),
                         "--map", str(tmp_path / "no2.json"))
        assert code == 2


class TestKrawtchoukCommands:
    def test_solve(self, capsys):
        code, out, _ = run(capsys, "krawtchouk", "solve", "--m", "3", "--n", "3")
        rep = json.loads(out)
        assert code == 0
        assert rep["solutions"] == [[1, 3], [3, 1]]

    def test_nu(self, capsys):
        code, out, _ = run(capsys, "krawtchouk", "nu", "--m", "3", "--n", "3")
        rep = json.loads(out)
        assert code == 0
        assert rep["D"]["value"] == 4

    def test_invalid_dims_usage(self, capsys):
        for argv in (["solve", "--m", "1", "--n", "3"], ["nu", "--m", "2", "--n", "1"]):
            code, out, err = run(capsys, "krawtchouk", *argv)
            assert code == 2
            assert out == "" and "must be at least 2" in err

    def test_negative_seed_flag_is_usage(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_to_json(trace_map_decomposition_33())))
        code, out, err = run(capsys, "map", "boundary-witness", "--spec", str(path), "--seed", "-1")
        assert code == 2
        assert out == "" and "--seed" in err

    def test_seed_defaults_to_zero(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        g = lambda: rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))  # noqa: E731
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_to_json(DecomposableSpec((g(),), (g(), g())))))
        argv = ("map", "boundary-witness", "--spec", str(path), "--restarts", "20")
        by_flag = run(capsys, *argv, "--seed", "0")
        assert by_flag[0] == 0 and json.loads(by_flag[1])["found"]
        assert run(capsys, *argv) == by_flag
        # the seed is an input: another one gives another witness
        assert run(capsys, *argv, "--seed", "7")[1] != by_flag[1]


def test_no_subcommand_is_usage(capsys):
    assert run(capsys, )[0] == 2


def _leaf_parsers(parser, path=()):
    """(command path, parser) of every command that takes no further subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaf_parsers(child, path + (name,))


def test_every_leaf_command_has_a_handler():
    leaves = dict(_leaf_parsers(build_parser()))
    assert sorted(" ".join(path) for path in leaves) == [
        "combine", "extremality", "krawtchouk nu", "krawtchouk solve", "map antipodal-sum",
        "map boundary-witness", "map pair", "map phi-theta", "map trace-decomp",
        "state classify", "state construct", "state kernel",
    ]
    for path, parser in leaves.items():
        assert callable(parser.get_default("func")), path
