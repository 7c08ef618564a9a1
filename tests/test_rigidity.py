import math

import numpy as np
import pytest

from rigidkit.errors import ValidationError
from rigidkit.poly import MultiPoly, derivatives_of_order, eval_poly
from rigidkit.rigidity import FORMULAS, remez_bound_topological, rigidity_1d_bound, rigidity_1d_floor, rigidity_report


class TestRigidity1D:
    def test_two_zeros_right_witness(self):
        assert rigidity_1d_bound([-1.0, 0.0], 1.0, 1) == pytest.approx(1.0)

    def test_witness_between_zeros(self):
        assert rigidity_1d_bound([-1.0, 1.0], 0.0, 1) == pytest.approx(2.0)

    def test_floor_on_random_configurations(self):
        # the floor that rigidity-1d reports, for every supported degree
        assert [rigidity_1d_floor(d) for d in range(19)] == [math.factorial(d + 1) / 2 ** (d + 1) for d in range(19)]
        rng = np.random.default_rng(41)
        for d in range(1, 5):
            floor = rigidity_1d_floor(d)
            for _ in range(50):
                nodes = np.sort(rng.uniform(-1.0, 1.0, size=d + 2))
                while np.min(np.diff(nodes)) < 1e-3:
                    nodes = np.sort(rng.uniform(-1.0, 1.0, size=d + 2))
                which = rng.integers(0, d + 2)
                z0 = nodes[which]
                xs = np.delete(nodes, which)
                assert rigidity_1d_bound(xs, z0, d) >= floor - 1e-12

    def test_sound_against_exact_derivative(self):
        # f = degree-(d+1) polynomial vanishing on xs, sup-normalized on [-1,1]
        rng = np.random.default_rng(43)
        grid = np.linspace(-1.0, 1.0, 4001)
        for d in range(1, 4):
            for _ in range(20):
                xs = np.sort(rng.uniform(-0.95, 0.95, size=d + 1))
                if np.min(np.diff(xs)) < 5e-2:
                    continue
                lead = float(rng.uniform(0.5, 2.0)) * (1 if rng.uniform() < 0.5 else -1)
                f = MultiPoly.constant(1, lead)
                for x in xs:
                    f = f * MultiPoly(1, {(1,): 1.0, (0,): -float(x)})
                sup = float(np.max(np.abs(eval_poly(f, [grid]))))
                f = f * (1.0 / sup)
                idx = int(np.argmax(np.abs(eval_poly(f, [grid]))))
                z0 = float(grid[idx])
                if np.min(np.abs(xs - z0)) < 1e-9:
                    continue
                bound = rigidity_1d_bound(xs, z0, d)  # |f(z0)| = 1 up to rounding
                [(_, deriv)] = derivatives_of_order(f, d + 1)
                exact = float(np.max(np.abs(eval_poly(deriv, [grid])))) if not deriv.is_zero() else 0.0
                assert bound <= exact + 1e-9

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", ["zero", "z0"])
    def test_non_finite_input_checked(self, slot, bad):
        args = {"zero": ([bad, 0.0], 1.0), "z0": ([-1.0, 0.0], bad)}[slot]
        with pytest.raises(ValidationError, match=r"zeros and witness point must be finite and lie in \[-1, 1\]"):
            rigidity_1d_bound(*args, 1)

    @pytest.mark.parametrize("xs, z0", [([-3.0, 3.0], 0.5), ([-0.5, 0.5], 4.0), ([-1.0, 1.0 + 1e-6], 0.0)])
    def test_nodes_outside_interval_rejected(self, xs, z0):
        # the (d+1)!/2^(d+1) floor holds only for nodes in [-1, 1]
        with pytest.raises(ValidationError, match=r"zeros and witness point must be finite and lie in \[-1, 1\]"):
            rigidity_1d_bound(xs, z0, 1)

    def test_node_count_checked(self):
        with pytest.raises(ValidationError, match=r"need exactly d\+1 = 2 zeros, got 3"):
            rigidity_1d_bound([-1.0, 0.0, 1.0], 0.5, 1)

    def test_witness_collision_checked(self):
        with pytest.raises(ValidationError, match=r"witness point 0.0 coincides with a zero"):
            rigidity_1d_bound([-1.0, 0.0], 0.0, 1)


def entries(rep) -> dict:
    """The report's bound entries by formula name."""
    return {e["formula"]: e for e in rep["bounds"]}


def row_value(formula: str, d: int, mu_value: float = 1.0, inv_remez=None) -> float:
    """The value ``rigidity_report`` gives in its ``formula`` row."""
    return entries(rigidity_report(d, mu_value=mu_value, oval_count=0, inv_remez=inv_remez))[formula]["value"]


class TestClosedFormBounds:
    def test_from_remez(self):
        assert row_value("from_remez", 3, inv_remez=0.0) == 0.0
        assert row_value("from_remez", 1, inv_remez=1.0) == pytest.approx(1.0)
        assert row_value("from_remez", 2, inv_remez=1.0 / 17.0) == pytest.approx(3.0 / 17.0)

    def test_from_remez_linear_scaling(self):
        base = row_value("from_remez", 3, inv_remez=0.25)
        assert row_value("from_remez", 3, inv_remez=0.5) == pytest.approx(2.0 * base)

    def test_from_remez_range_check(self):
        with pytest.raises(ValidationError, match=r"^inverse Remez constant must be in \[0, 1\], got 1.5$"):
            rigidity_report(2, mu_value=1.0, oval_count=0, inv_remez=1.5)

    def test_literal(self):
        assert row_value("topological_literal", 1, mu_value=8.0) == pytest.approx(0.5)
        assert row_value("topological_literal", 2, mu_value=4.0) == pytest.approx(2.0 / 3.0)
        assert row_value("topological_literal", 6, mu_value=1.0) == pytest.approx(8.0**6 / 5040.0)

    def test_composed(self):
        assert row_value("topological_composed", 1, mu_value=8.0) == pytest.approx(1.0)
        assert row_value("topological_composed", 2, mu_value=8.0) == pytest.approx(3.0)
        assert row_value("topological_composed", 2, mu_value=4.0) == pytest.approx(0.75)

    def test_shapes_disagree_as_mu_shrinks(self):
        # the two printed forms move in opposite directions; both are reported
        lit = [row_value("topological_literal", 2, mu_value=m) for m in (1.0, 0.5, 0.25)]
        comp = [row_value("topological_composed", 2, mu_value=m) for m in (1.0, 0.5, 0.25)]
        assert lit[0] < lit[1] < lit[2]
        assert comp[0] > comp[1] > comp[2]


class TestReport:
    def test_always_carries_both_topological_entries(self):
        rep = rigidity_report(2, mu_value=4.0, oval_count=10)
        lit, comp = entries(rep)["topological_literal"], entries(rep)["topological_composed"]
        assert lit["value"] == pytest.approx(2.0 / 3.0)
        assert comp["value"] == pytest.approx(0.75)
        assert lit["provenance"] == FORMULAS["topological_literal"]
        assert comp["provenance"] == FORMULAS["topological_composed"]
        assert lit["hypothesis_ok"] and comp["hypothesis_ok"]  # 10 >= (2-1)^2+1

    def test_hypothesis_flag_when_too_few_ovals(self):
        # degree 6 needs (6-1)^2 + 1 = 26 ovals; both topological rows carry the Remez row's verdict
        for count, ok, note in ((25, False, "oval count 25 below required 26"), (26, True, "")):
            assert remez_bound_topological(1.0, 6, count)["hypothesis_ok"] is ok
            rep = entries(rigidity_report(6, mu_value=1.0, oval_count=count))
            for row in (rep["topological_literal"], rep["topological_composed"]):
                assert (row["hypothesis_ok"], row["note"]) == (ok, note)

    @pytest.mark.parametrize("mu_value", [0.0, -1.0])
    def test_nonpositive_mu_refused(self, mu_value):
        with pytest.raises(ValidationError, match=f"^minimal domain area must be positive, got {mu_value}$"):
            rigidity_report(2, mu_value=mu_value, oval_count=5)

    def test_from_remez_entry(self):
        rep = rigidity_report(2, mu_value=1.0, oval_count=5, inv_remez=1.0 / 17.0)
        assert entries(rep)["from_remez"]["value"] == pytest.approx(3.0 / 17.0)

    @pytest.mark.parametrize("missing", ["mu_value", "oval_count"])
    def test_mu_and_oval_count_required(self, missing):
        kwargs = {"mu_value": 1.0, "oval_count": 5}
        del kwargs[missing]
        with pytest.raises(TypeError, match=missing):
            rigidity_report(2, **kwargs)

    def test_json_shape(self):
        data = rigidity_report(2, mu_value=1.0, oval_count=5)
        assert data["degree"] == 2
        assert all({"formula", "value", "hypothesis_ok", "provenance"} <= set(e) for e in data["bounds"])
