"""Every certification check picks its worst residual and row by one rule,
`analysis._worst`, under which a NaN counts as the largest residual.

Each test plants one NaN in the kernel values that one check reads and
runs the check's suite: that check fails, and reports the NaN as its
residual and, where it lists one, as its worst row; every other report of
the suite is as in a run without the NaN.
"""

import json
import math
import types

import numpy as np
import pytest

from alphaz import divergences as dv, suites
from alphaz.analysis import DZ_TRACE_OFFSETS, FAMILIES, LIMIT_OFFSETS, _worst
from alphaz.states import commuting_pair

N_SEEDS = 3
N_RUNGS = 2 * len(LIMIT_OFFSETS)  # every limit ladder, both sides of alpha = 1


class TestWorst:
    def test_ties_take_the_first_in_row_major_order(self):
        assert _worst([1.0, 3.0, 2.0, 3.0]) == (3.0, 1)
        assert _worst([[0.0, 2.0], [2.0, 1.0]]) == (2.0, 1)
        assert _worst([[0.5]]) == (0.5, 0)

    def test_nan_counts_as_the_largest(self):
        for residuals, at in (([1.0, math.nan, 5.0, math.nan], 1),
                              ([math.inf, 0.0, math.nan], 2),
                              ([[0.0, 1.0], [math.nan, 2.0]], 2)):
            value, i = _worst(residuals)
            assert math.isnan(value) and i == at

    def test_returns_python_numbers(self):
        value, i = _worst(np.array([0.25, 0.75]))
        assert type(value) is float and type(i) is int


def _run(name):
    return [r.to_dict() for r in suites.run_suites([name], N_SEEDS)]


@pytest.fixture(scope="module")
def clean():
    """Each suite's reports without a NaN, every check passing."""
    runs = {name: _run(name) for name in suites.SUITE_NAMES[1:]}
    assert all(r["passed"] for reports in runs.values() for r in reports)
    return runs


def _plant(monkeypatch, read, shape, at):
    """Let the kernel request read `read` of `divergences._Request`
    ("evaluate", whose D it plants in, "traces" or "mosonyi_ogawa") return a
    NaN at index `at` in the one request of the suite whose values have this
    shape."""
    original = getattr(dv._Request, read)

    def planted(request):
        out = original(request)
        values = out[0] if read == "evaluate" else out
        if values.shape == shape:
            values[at] = math.nan
        return out

    monkeypatch.setattr(dv._Request, read, planted)


def _only_failure(reports, clean_reports, index):
    """Report `index` fails with a NaN residual; every other report is as
    in the clean run. Returns the failing report."""
    assert len(reports) == len(clean_reports)
    for k, (got, want) in enumerate(zip(reports, clean_reports)):
        if k != index:
            assert got == want, got["name"]
    failed = reports[index]
    assert failed["name"] == clean_reports[index]["name"]
    assert failed["passed"] is False and math.isnan(failed["max_residual"])
    return failed


def _nan_row(row, expected):
    """The row has the fields of `expected` and one more, which is NaN."""
    [other] = set(row) - set(expected)
    assert math.isnan(row[other]) and {k: row[k] for k in expected} == expected


def _points(alphas, zs):
    return [(alpha, z) for alpha in alphas for z in zs + (alpha,)]


@pytest.mark.parametrize("pair, point", [(0, 0), (3, 17), (2 * N_SEEDS - 1, 29)])
def test_classical_renyi_nan(monkeypatch, clean, pair, point):
    points = _points(suites.CLASSICAL_ALPHAS, suites.CLASSICAL_ZS)
    _plant(monkeypatch, "evaluate", (2 * N_SEEDS, len(points)), (pair, point))
    failed = _only_failure(_run("classical"), clean["classical"], 0)
    alpha, z = points[point]
    dim = suites.COMMUTING_DIMS[pair % len(suites.COMMUTING_DIMS)]
    [row] = failed["rows"]
    _nan_row(row, {"pair": pair, "dim": dim, "alpha": alpha, "z": z})


@pytest.mark.parametrize("pair", [0, 4])
def test_classical_kl_nan(monkeypatch, clean, pair):
    dim = suites.COMMUTING_DIMS[pair]
    p = commuting_pair(dim, suites.BASE_SEED + 1000 + pair)[2]
    original = dv.ClassicalPair.kl

    def kl(self):
        if self.p.shape == p.shape and np.array_equal(self.p, p):
            return types.SimpleNamespace(value=math.nan)
        return original(self)

    monkeypatch.setattr(dv.ClassicalPair, "kl", kl)
    failed = _only_failure(_run("classical"), clean["classical"], 1)
    [row] = failed["rows"]
    _nan_row(row, {"pair": pair, "dim": dim})


@pytest.mark.parametrize("variant", [1, 2, 3])  # rotated, rescaled, (rho, rho)
@pytest.mark.parametrize("pair, point", [(0, 0), (N_SEEDS - 1, 13)])
def test_invariants_nan(monkeypatch, clean, variant, pair, point):
    points = _points(suites.INVARIANT_ALPHAS, suites.INVARIANT_ZS)
    _plant(monkeypatch, "evaluate", (4 * N_SEEDS, len(points)),
           (4 * pair + variant, point))
    failed = _only_failure(_run("invariants"), clean["invariants"], variant - 1)
    rho, _, label = suites.seeded_pairs(N_SEEDS)[pair]
    alpha, z = points[point]
    [row] = failed["rows"]
    _nan_row(row, {"pair": label, "dim": rho.shape[0], "alpha": alpha, "z": z})


@pytest.mark.parametrize("pair, point", [(0, 0), (1, 40), (2, 74)])
def test_example1_grid_nan(monkeypatch, clean, pair, point):
    points = [(alpha, z) for alpha in suites.EXAMPLE1_GRID_ALPHAS
              for z in (0.5, 1.0, alpha, 2.0, 5.0)]
    _plant(monkeypatch, "evaluate", (len(suites.EXAMPLE1_PS), len(points)),
           (pair, point))
    failed = _only_failure(_run("example1"), clean["example1"], len(suites.EXAMPLE1_PS))
    alpha, z = points[point]
    [row] = failed["rows"]
    _nan_row(row, {"p": suites.EXAMPLE1_PS[pair], "alpha": alpha, "z": z})


@pytest.mark.parametrize("alpha", range(len(suites.DPI_ALPHAS)))
@pytest.mark.parametrize("row, pinched", [(0, True), (N_SEEDS - 1, False)])
def test_dpi_nan(monkeypatch, clean, alpha, row, pinched):
    _plant(monkeypatch, "mosonyi_ogawa", (2 * N_SEEDS, len(suites.DPI_ALPHAS)),
           (row + N_SEEDS * pinched, alpha))
    failed = _only_failure(_run("dpi"), clean["dpi"], alpha)
    want = clean["dpi"][alpha]["rows"]
    for k, (got, expected) in enumerate(zip(failed["rows"], want, strict=True)):
        if k != row:
            assert got == expected
    assert math.isnan(failed["rows"][row]["violation"])


@pytest.mark.parametrize("alpha", range(len(suites.MONOTONICITY_ALPHAS)))
def test_z_monotonicity_nan(monkeypatch, clean, alpha):
    shape = (N_SEEDS, len(suites.MONOTONICITY_ALPHAS), len(suites.MONOTONICITY_ZS))
    pair, z = alpha % N_SEEDS, (2 * alpha) % len(suites.MONOTONICITY_ZS)
    _plant(monkeypatch, "evaluate", shape, (pair, alpha, z))
    failed = _only_failure(_run("monotonicity"), clean["monotonicity"], alpha)
    label = suites.seeded_pairs(N_SEEDS)[pair][2]
    assert failed["notes"].endswith(f"[{label}]")
    member = failed["rows"][pair]
    assert member["passed"] is False and math.isnan(member["max_residual"])


@pytest.mark.parametrize("rung", range(N_RUNGS))
def test_limit_nan_at_any_rung(monkeypatch, clean, rung):
    curve, pair = rung % len(suites.LIMIT_CURVES), rung % N_SEEDS
    shape = (N_SEEDS, len(suites.LIMIT_CURVES), N_RUNGS)
    _plant(monkeypatch, "evaluate", shape, (pair, curve, rung))
    failed = _only_failure(_run("limits"), clean["limits"], curve)
    label = suites.seeded_pairs(N_SEEDS)[pair][2]
    assert failed["notes"].endswith(f"[{label}]")


# the finite-difference checks judge their samples on arrays as every other
# check does: a NaN sample fails its own check, and no check raises


def _nan_member(failed, pair):
    """The aggregate names `pair` as its worst member, which fails with a
    NaN residual."""
    label = suites.seeded_pairs(N_SEEDS)[pair][2]
    assert failed["notes"].endswith(f"[{label}]")
    member = failed["rows"][pair]
    assert member["passed"] is False and math.isnan(member["max_residual"])


@pytest.mark.parametrize("pair, side, family", [(0, 0, 0), (1, 1, 1), (N_SEEDS - 1, 0, 1)])
def test_slope_at_one_nan(monkeypatch, clean, pair, side, family):
    # the samples at alpha = 1 + h and 1 - h of the z=1 and z=alpha families
    _plant(monkeypatch, "evaluate", (N_SEEDS, 2, len(FAMILIES)), (pair, side, family))
    _nan_member(_only_failure(_run("derivatives"), clean["derivatives"], 0), pair)


# every column of the dT/dz request but the tightest offsets and alpha = 1
DZ_LOOSE_RUNGS = [k + side * len(DZ_TRACE_OFFSETS)
                  for side in (0, 1) for k in range(len(DZ_TRACE_OFFSETS) - 1)]


@pytest.mark.parametrize("z0", range(len(suites.DZ_TRACE_Z0S)))
@pytest.mark.parametrize("rung", DZ_LOOSE_RUNGS)
def test_dz_trace_nan_at_a_loose_rung(monkeypatch, clean, z0, rung):
    # T at z0 + h and z0 - h at every offset of alpha on both sides, then 1
    shape = (N_SEEDS, 2, len(suites.DZ_TRACE_Z0S), 2 * len(DZ_TRACE_OFFSETS) + 1)
    pair, side = rung % N_SEEDS, rung % 2
    _plant(monkeypatch, "traces", shape, (pair, side, z0, rung))
    _nan_member(_only_failure(_run("derivatives"), clean["derivatives"], 1 + z0), pair)


@pytest.mark.parametrize("p, point, family", [(0, 0, 0), (1, 1, 1), (2, 2, 0)])
def test_example1_stencil_nan(monkeypatch, clean, p, point, family):
    # D at alpha = 1 + h, 1 and 1 - h of each family, for each p
    _plant(monkeypatch, "evaluate", (len(suites.EXAMPLE1_PS), 3, len(FAMILIES)),
           (p, point, family))
    failed = _only_failure(_run("example1"), clean["example1"], p)
    for k, (got, want) in enumerate(zip(failed["rows"], clean["example1"][p]["rows"],
                                        strict=True)):
        if k != family:
            assert got == want
    row = failed["rows"][family]
    assert math.isnan(row["second_derivative_matrix"]) and math.isnan(row["max_stencil_gap"])
    assert row["second_derivative_closed_form"] == \
        clean["example1"][p]["rows"][family]["second_derivative_closed_form"]
    assert failed["notes"].endswith("stencil agreement nan")


@pytest.mark.parametrize("n_seeds", [1, 3, 10])
def test_all_equals_each_suite_alone(n_seeds):
    # the run evaluates every family in one kernel pass; each family's
    # values, and so its reports, are those of its suite run alone
    alone = [r.to_dict() for name in suites.SUITE_NAMES[1:]
             for r in suites.run_suites([name], n_seeds)]
    together = [r.to_dict() for r in suites.run_suites(["all"], n_seeds)]
    assert json.dumps(together) == json.dumps(alone)


class TestFamilies:
    """Each suite draws its family one stack per dimension; every member
    equals the per-seed public generators' state bit for bit, as the
    families were once drawn."""

    @pytest.fixture
    def prepared(self, monkeypatch):
        """The pair lists that each plan hands to `_prepare_pairs`, in call
        order."""
        calls, original = [], dv._prepare_pairs

        def recorded(pairs):
            calls.append(list(pairs))
            return original(calls[-1])

        monkeypatch.setattr(dv, "_prepare_pairs", recorded)
        return calls

    @staticmethod
    def _same(got, want):
        assert len(got) == len(want)
        for (rho, sigma), (rho_want, sigma_want) in zip(got, want):
            assert rho.tobytes() == rho_want.tobytes()
            assert sigma.tobytes() == sigma_want.tobytes()

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_members_equal_per_seed_generators(self, prepared, n):
        from alphaz.states import random_support_pair, random_unitary

        seeded = suites._prepare_seeded(n)
        suites._plan_invariants(dv._Pass(), seeded)
        suites._plan_dpi(dv._Pass(), seeded)
        suites._plan_classical(dv._Pass(), 2 * n)
        _, variants, tags, pinched, commuting = prepared
        want = []
        for k, (rho, sigma) in enumerate(seeded.states):
            u = random_unitary(rho.shape[0], suites.BASE_SEED + 5000 + k)
            want += [(u @ rho @ u.conj().T, u @ sigma @ u.conj().T),
                     (rho, (0.25 + 1.5 * (k % 4)) * sigma), (rho, rho)]
        self._same(variants, want)
        want = []
        for k in range(max(2, n // 2)):
            dim = 3 + k % 3
            want += [random_support_pair(dim, suites.BASE_SEED + 7000 + k, rank=dim - 1,
                                         branch="violating"),
                     random_support_pair(dim, suites.BASE_SEED + 8000 + k, rank=dim - 2,
                                         branch="orthogonal")]
        self._same(tags, want)
        self._same(pinched, [(pair.sigma.pinch(rho), pair.sigma.pinch(sigma))
                             for pair, (rho, sigma) in zip(seeded.pairs, seeded.states)])
        self._same(commuting, [
            commuting_pair(suites.COMMUTING_DIMS[k % len(suites.COMMUTING_DIMS)],
                           suites.BASE_SEED + 1000 + k)[:2] for k in range(2 * n)])
