"""Equality, hashing, repr and construction of the five value classes."""

from fractions import Fraction as F

import pytest

from weilq.borcherds import ProductResult, borcherds_product
from weilq.divisors import CuspClass, CuspDivisor, cusp_classes
from weilq.fracq import FracSeries
from weilq.verify import SuiteResult
from weilq.vvforms import VVExpansion, theta_series

FIELDS = dict(N=1, weight=F(1, 2), rep=1, holo={(0, 0): F(1)}, nonholo={}, trunc=4)


class TestVVExpansion:
    def test_equal_fields_compare_equal(self):
        a = VVExpansion(**FIELDS)
        b = VVExpansion(1, F(1, 2), 1, {(0, 0): F(1)}, {}, 4)
        assert a == b and not a != b

    @pytest.mark.parametrize("field, value", [("trunc", 5), ("radical", True),
                                              ("holo", {}), ("weight", F(3, 2))])
    def test_one_differing_field_compares_unequal(self, field, value):
        assert VVExpansion(**FIELDS) != VVExpansion(**{**FIELDS, field: value})

    def test_other_types_compare_unequal(self):
        f = theta_series(1, 4)
        assert (f == object()) is False
        assert (f != object()) is True
        assert f.__eq__(object()) is NotImplemented

    def test_radical_defaults_to_false(self):
        assert VVExpansion(1, F(1, 2), 1, {}, {}, 0).radical is False

    def test_keyword_construction(self):
        f = VVExpansion(**FIELDS, radical=True)
        assert (f.N, f.weight, f.rep, f.holo, f.nonholo, f.trunc, f.radical) == \
            (1, F(1, 2), 1, {(0, 0): F(1)}, {}, 4, True)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(theta_series(1, 4))


class TestCuspClass:
    def test_read_only(self):
        cl = cusp_classes(12)[0]
        with pytest.raises(AttributeError):
            cl.width = 7
        assert cl.width != 7

    def test_hashable(self):
        classes = cusp_classes(12)
        assert len(set(classes)) == len(classes)
        assert CuspClass(c=2, orbit_size=1, conductor=2, width=3) == \
            CuspClass(2, 1, 2, 3)


def _product(weyl=F(1, 12)):
    return ProductResult(F(1), weyl, FracSeries(1, {0: 1}, 3), {1: F(2)})


class TestEquality:
    def test_cusp_divisor(self):
        assert CuspDivisor(6, {1: F(2)}) == CuspDivisor(6, {1: F(2)})
        assert CuspDivisor(6, {1: F(2)}) != CuspDivisor(6, {1: F(3)})
        assert CuspDivisor(6, {}) != CuspDivisor(12, {})

    def test_product_result(self):
        assert _product() == _product()
        assert _product() != _product(F(1, 24))
        f = theta_series(1, 16)
        assert borcherds_product(f, prec=4) == borcherds_product(f, prec=4)

    def test_suite_result(self):
        assert SuiteResult("eta", 3, []) == SuiteResult("eta", 3, [])
        assert SuiteResult("eta", 3, []) != SuiteResult("eta", 3, [{"N": 1}])


@pytest.mark.parametrize("obj, text", [
    (VVExpansion(**FIELDS), "VVExpansion(N=1, weight=Fraction(1, 2), rep=1, "
     "holo={(0, 0): Fraction(1, 1)}, nonholo={}, trunc=4, radical=False)"),
    (cusp_classes(6)[0], "CuspClass(c=1, orbit_size=1, conductor=1, width=6)"),
    (CuspDivisor(6, {1: F(2)}), "CuspDivisor(N=6, orders={1: Fraction(2, 1)})"),
    (SuiteResult("eta", 3, []), "SuiteResult(suite='eta', cases=3, failures=[])"),
    (_product(), "ProductResult(weight=Fraction(1, 1), weyl=Fraction(1, 12), "
     "expansion=")],
    ids=["VVExpansion", "CuspClass", "CuspDivisor", "SuiteResult", "ProductResult"])
def test_repr_names_class_and_fields(obj, text):
    assert repr(obj).startswith(text)
