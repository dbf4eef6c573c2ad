import json

import numpy as np
import pytest

from alphaz.matrixio import (
    SpecError,
    dump_matrix,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    parse_state_spec,
    resolve_state_spec,
)
from alphaz.states import commuting_pair, example1_pair, random_density

from conftest import max_abs, rand_hermitian


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_exact_round_trip(self, tmp_path, seed):
        a = rand_hermitian(5, seed)
        path = tmp_path / "m.json"
        dump_matrix(a, path)
        back = load_matrix(path)
        assert max_abs(back - a) <= 1e-15

    def test_json_schema(self):
        doc = matrix_to_json(np.diag([1.0, 2.0]))
        assert doc["dim"] == 2
        assert doc["entries"][0][0] == [1.0, 0.0]
        assert doc["entries"][0][1] == [0.0, 0.0]


class TestLoadValidation:
    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SpecError, match="JSON"):
            load_matrix(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="read"):
            load_matrix(tmp_path / "nope.json")

    def test_shape_mismatch(self):
        with pytest.raises(SpecError, match="shape"):
            matrix_from_json({"dim": 3, "entries": [[[1.0, 0.0]]]})

    def test_non_hermitian_rejected(self):
        doc = {"dim": 2, "entries": [[[0.0, 0.0], [1.0, 0.0]],
                                     [[0.0, 0.0], [0.0, 0.0]]]}
        with pytest.raises(SpecError, match="Hermitian"):
            matrix_from_json(doc)

    def test_non_finite_rejected(self):
        doc = {"dim": 1, "entries": [[[float("nan"), 0.0]]]}
        with pytest.raises(SpecError, match="finite"):
            matrix_from_json(doc)

    def test_entries_beyond_double_range_rejected(self):
        # finite, but the symmetrized A + A† would overflow to inf
        doc = {"dim": 2, "entries": [[[0.5, 0.0], [1e308, 1e308]],
                                     [[1e308, -1e308], [0.5, 0.0]]]}
        with pytest.raises(SpecError, match="beyond double range"):
            matrix_from_json(doc)

    @pytest.mark.parametrize("entry, message", [
        (["1", "0"], "string"), ([1.0, "0"], "string"), ([True, False], "true or false"),
        ([0.5, False], "true or false"), ([1.0, None], "NoneType"), ([10**400, 0], "too large"),
    ], ids=["string", "string-im", "bool", "bool-im", "null", "huge-integer"])
    def test_entries_must_be_json_numbers(self, tmp_path, entry, message):
        # through a file, as the CLI reads a matrix
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"dim": 1, "entries": [[entry]]}))
        with pytest.raises(SpecError, match=f"malformed matrix document: .*{message}"):
            load_matrix(path)

    @pytest.mark.parametrize("dim", [True, 1.9, "1", 1.0, None],
                             ids=["bool", "fraction", "string", "integral-float", "null"])
    def test_dim_must_be_json_integer(self, tmp_path, dim):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"dim": dim, "entries": [[[1, 0]]]}))
        with pytest.raises(SpecError, match="malformed matrix document: .*'dim' must be an "
                                            "integer"):
            load_matrix(path)

    @pytest.mark.parametrize("doc", [[1, 2], "m", 5, {"entries": [[[1, 0]]]}],
                             ids=["list", "string", "number", "no-dim"])
    def test_document_without_integer_dim_field(self, doc):
        with pytest.raises(SpecError, match="malformed matrix document"):
            matrix_from_json(doc)

    def test_small_defect_symmetrized_with_warning(self):
        doc = {"dim": 2, "entries": [[[1.0, 0.0], [0.5, 1e-10]],
                                     [[0.5, 1e-10], [1.0, 0.0]]]}
        with pytest.warns(UserWarning, match="defect"):
            got = matrix_from_json(doc)
        assert max_abs(got - got.conj().T) == 0.0


class TestStateSpecs:
    def test_parse_inline_vs_path(self):
        assert parse_state_spec('{"file": "x.json"}') == {"file": "x.json"}
        assert parse_state_spec("x.json") == {"file": "x.json"}
        with pytest.raises(SpecError):
            parse_state_spec("{broken")

    def test_file_variant(self, tmp_path):
        a = random_density(3, 5)
        path = tmp_path / "rho.json"
        dump_matrix(a, path)
        got = resolve_state_spec({"file": str(path)}, "rho")
        assert max_abs(got - a) <= 1e-15

    def test_generator_density(self):
        got = resolve_state_spec({"generator": "density", "seed": 7, "dim": 4}, "rho")
        assert max_abs(got - random_density(4, 7)) == 0.0

    def test_generator_reference_flags(self):
        spec = {"generator": "reference", "seed": 7, "dim": 4,
                "full_rank": False, "rank": 2}
        got = resolve_state_spec(spec, "sigma")
        values = np.linalg.eigvalsh(got)
        assert np.sum(values > 1e-10) == 2

    def test_generator_commuting_roles(self):
        rho = resolve_state_spec({"generator": "commuting", "seed": 9, "dim": 3}, "rho")
        sigma = resolve_state_spec({"generator": "commuting", "seed": 9, "dim": 3},
                                   "sigma")
        want_rho, want_sigma, _, _ = commuting_pair(3, 9)
        assert max_abs(rho - want_rho) == 0.0
        assert max_abs(sigma - want_sigma) == 0.0

    def test_example1_roles(self):
        spec = {"example1": {"p": 0.25}}
        rho = resolve_state_spec(spec, "rho")
        sigma = resolve_state_spec(spec, "sigma")
        want_rho, want_sigma = example1_pair(0.25)
        assert max_abs(rho - want_rho) == 0.0
        assert max_abs(sigma - want_sigma) == 0.0

    @pytest.mark.parametrize("p", [True, "0.25", None, 10**400],
                             ids=["bool", "string", "null", "huge-integer"])
    def test_example1_p_must_be_a_json_number(self, p):
        spec = json.dumps({"example1": {"p": p}})
        with pytest.raises(SpecError, match="'p'"):
            resolve_state_spec(spec, "rho")

    def test_generator_support_pair(self):
        from alphaz.divergences import prepare
        from alphaz.states import random_support_pair

        spec = {"generator": "support_pair", "seed": 13, "dim": 4,
                "rank": 3, "branch": "violating"}
        rho = resolve_state_spec(spec, "rho")
        sigma = resolve_state_spec(spec, "sigma")
        want_rho, want_sigma = random_support_pair(4, 13, rank=3, branch="violating")
        assert max_abs(rho - want_rho) == 0.0
        assert max_abs(sigma - want_sigma) == 0.0
        assert not prepare(rho, sigma).dominated

    @pytest.mark.parametrize("field, value", [
        ("full_rank", "false"), ("full_rank", 0), ("full_rank", None),
        ("dim", True), ("dim", 4.0), ("dim", "4"),
        ("seed", 7.9), ("seed", False), ("seed", "7"),
        ("rank", 2.0), ("rank", True), ("rank", None),
    ])
    def test_generator_field_types(self, field, value):
        # through the JSON text, as the CLI reads a spec
        spec = {"generator": "reference", "seed": 7, "dim": 4,
                "full_rank": False, "rank": 2, field: value}
        with pytest.raises(SpecError, match=f"'{field}' must be"):
            resolve_state_spec(json.dumps(spec), "sigma")

    @pytest.mark.parametrize("rank", [3.0, True, "3"])
    def test_support_pair_rank_type(self, rank):
        spec = {"generator": "support_pair", "seed": 13, "dim": 4, "rank": rank}
        with pytest.raises(SpecError, match="'rank' must be an integer"):
            resolve_state_spec(spec, "rho")

    def test_exactly_one_variant(self):
        with pytest.raises(SpecError, match="exactly one"):
            resolve_state_spec({"file": "x", "example1": {"p": 0.2}}, "rho")
        with pytest.raises(SpecError, match="exactly one"):
            resolve_state_spec({}, "rho")

    def test_unknown_generator(self):
        with pytest.raises(SpecError, match="unknown generator"):
            resolve_state_spec({"generator": "ghz", "seed": 1, "dim": 2}, "rho")

    def test_bad_role(self):
        with pytest.raises(ValueError, match="role"):
            resolve_state_spec({"example1": {"p": 0.25}}, "tau")
