from fractions import Fraction

import numpy as np
import pytest

from fpu5 import (DomainError, ModelParams, fuchs_indices, leading_balance,
                  painleve_verdict)
from fpu5.painleve import leading_coefficient_residual


class TestLeadingBalance:
    def test_pole_order_is_one(self):
        assert leading_balance(ModelParams(1.0, 1.0)).pole_order == 1

    def test_unit_parameters(self):
        bal = leading_balance(ModelParams(1.0, 1.0))
        expected = 4.0 * np.sqrt(5.0) / 5.0
        assert bal.coefficients[0] == pytest.approx(expected, rel=1e-14)
        assert bal.coefficients[1] == pytest.approx(-expected, rel=1e-14)

    def test_scaling_in_delta_and_mu(self):
        base = leading_balance(ModelParams(1.0, 1.0)).coefficients[0]
        assert leading_balance(ModelParams(3.0, 1.0)).coefficients[0] == \
            pytest.approx(3.0 * base, rel=1e-13)
        assert leading_balance(ModelParams(1.0, 4.0)).coefficients[0] == \
            pytest.approx(base / 2.0, rel=1e-13)

    def test_equal_parameters_five(self):
        bal = leading_balance(ModelParams(5.0, 5.0))
        assert bal.coefficients[0] == pytest.approx(4.0, rel=1e-14)

    def test_closed_form_over_random_parameters(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            delta = rng.uniform(0.05, 4.0)
            mu = rng.uniform(0.05, 4.0)
            bal = leading_balance(ModelParams(delta, mu))
            expected = 4.0 * np.sqrt(5.0) * delta / (5.0 * np.sqrt(mu))
            assert bal.coefficients[0] == pytest.approx(expected, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            leading_balance(ModelParams(1.0, 0.0))

    def test_substituted_leading_coefficient_vanishes_exactly(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            params = ModelParams(rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0))
            assert leading_coefficient_residual(params) == Fraction(0)


class TestFuchsIndices:
    def test_exact_polynomial(self):
        result = fuchs_indices(ModelParams(1.0, 1.0))
        assert result.indicial_coefficients == (
            Fraction(1), Fraction(-4), Fraction(3), Fraction(8))

    def test_roots(self):
        result = fuchs_indices(ModelParams(0.7, 1.9))
        roots = sorted(result.indices, key=lambda r: (r.real, r.imag))
        assert roots[0] == pytest.approx(-1.0)
        assert roots[1].real == pytest.approx(2.5, rel=1e-14)
        assert abs(roots[1].imag) == pytest.approx(np.sqrt(7.0) / 2.0, rel=1e-14)

    def test_parameters_cancel_exactly(self):
        rng = np.random.default_rng(22)
        polys = set()
        for _ in range(5):
            params = ModelParams(rng.uniform(0.05, 5.0), rng.uniform(0.05, 5.0))
            polys.add(fuchs_indices(params).indicial_coefficients)
        assert len(polys) == 1

    def test_universal_root_present(self):
        coeffs = fuchs_indices(ModelParams(2.2, 0.3)).indicial_coefficients
        value = sum(c * Fraction(-1) ** (3 - i) for i, c in enumerate(coeffs))
        assert value == 0

    def test_quadratic_factor(self):
        # (j + 1)(j^2 - 5j + 8) expanded
        coeffs = fuchs_indices(ModelParams(1.0, 2.0)).indicial_coefficients
        assert coeffs == (Fraction(1), Fraction(-4), Fraction(3), Fraction(8))

    def test_verdict(self):
        result = fuchs_indices(ModelParams(1.0, 1.0))
        assert result.passes is False
        assert "complex" in result.reason
        assert (result.passes, result.reason) == painleve_verdict(result.indices)


class TestVerdictPredicate:
    def test_complex_indices_fail(self):
        ok, reason = painleve_verdict([-1, 2.5 + 1.3j, 2.5 - 1.3j])
        assert not ok and "complex" in reason

    def test_classical_resonance_pattern_passes(self):
        ok, _ = painleve_verdict([-1, 4, 6])
        assert ok

    def test_fractional_index_fails(self):
        ok, reason = painleve_verdict([-1, 0.5, 3])
        assert not ok and "non-integer" in reason

    def test_negative_integer_fails(self):
        ok, reason = painleve_verdict([-1, -2, 3])
        assert not ok and "negative" in reason

    def test_missing_universal_index_fails(self):
        ok, reason = painleve_verdict([2, 3, 4])
        assert not ok and "-1" in reason
