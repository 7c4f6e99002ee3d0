import dataclasses
from fractions import Fraction

import pytest

from tdcheck.fields import FieldSpec, PrimeField, Rationals
from tdcheck.linalg import EchelonBasis, Matrix
from tdcheck.params import ParameterArray, random_admissible_context
from tdcheck.realization import realize
from tdcheck.tables import load_table
from tdcheck.tdsystem import (
    InvalidParameterArrayError,
    construct_from_params,
    extract_td_system,
    irreducibility_check,
    roundtrip,
    submodule_closure,
)

QQ = Rationals()


def fr(xs):
    return [Fraction(x) for x in xs]


def d1_array():
    return ParameterArray(1, fr([1, -1]), fr([1, -1]), fr([1, 1]))


def full_space(real) -> EchelonBasis:
    basis = EchelonBasis(real.field, real.dim)
    for i in range(real.dim):
        v = [real.field.zero] * real.dim
        v[i] = real.field.one
        basis.add(v)
    return basis


# ---------------------------------------------------------------------------
# construction


def test_construct_d1_and_corner_elements_vanish():
    real = construct_from_params(d1_array(), QQ, load_table(1))
    assert real.dim == 2
    # y_1 was set to zeta_1 = 1
    assert real.context.y == fr([1])


def test_construct_rejects_zeta_d_zero():
    pa = ParameterArray(1, fr([1, -1]), fr([1, -1]), fr([1, 0]))
    with pytest.raises(InvalidParameterArrayError) as err:
        construct_from_params(pa, QQ, load_table(pa.d))
    assert "(ii) zeta_d!=0" in str(err.value)


def test_construct_d0_trivial():
    pa = ParameterArray(0, fr([4]), fr([2]), fr([1]))
    real = construct_from_params(pa, QQ, load_table(pa.d))
    assert real.dim == 1


# ---------------------------------------------------------------------------
# closures


def test_closure_of_phi_is_whole_space_for_d1():
    real = construct_from_params(d1_array(), QQ, load_table(1))
    closure = submodule_closure(real.a, real.astar, real.basis_vector(real.basis[0]))
    assert closure.dim == 2


def test_closure_of_fixed_coordinate_in_diagonal_toy():
    a = Matrix(QQ, [fr([5, 0]), fr([0, 7])])
    closure = submodule_closure(a, a, fr([1, 0]))
    assert closure.dim == 1


def test_closure_is_idempotent():
    real = construct_from_params(d1_array(), QQ, load_table(1))
    closure = submodule_closure(real.a, real.astar, real.basis_vector(real.basis[0]))
    again = submodule_closure(real.a, real.astar, closure.rows[0])
    for row in closure.rows:
        assert again.contains(row)
    assert again.dim == closure.dim


def test_closure_rejects_zero_seed():
    a = Matrix.identity(QQ, 2)
    with pytest.raises(ValueError):
        submodule_closure(a, a, fr([0, 0]))


# ---------------------------------------------------------------------------
# irreducibility via the word-span criterion


def test_one_dimensional_module_is_irreducible():
    a = Matrix(QQ, [[Fraction(3)]])
    assert irreducibility_check(a, a, QQ)


def test_diagonal_pair_is_reducible():
    a = Matrix(QQ, [fr([2, 0]), fr([0, 3])])
    assert not irreducibility_check(a, a, QQ)


def test_d1_realized_pair_spans_four_dimensions():
    field = PrimeField()
    pa = ParameterArray(
        1,
        [field.from_int(1), field.from_int(-1)],
        [field.from_int(1), field.from_int(-1)],
        [field.one, field.one],
    )
    real = construct_from_params(pa, field, load_table(pa.d))
    assert irreducibility_check(real.a, real.astar, field)


def test_three_dimensional_burnside_sanity():
    # diagonal with distinct entries plus a cyclic shift generate all of M_3
    a = Matrix(QQ, [fr([0, 0, 0]), fr([0, 1, 0]), fr([0, 0, 2])])
    astar = Matrix(QQ, [fr([0, 1, 0]), fr([0, 0, 1]), fr([1, 0, 0])])
    assert irreducibility_check(a, astar, QQ)


# ---------------------------------------------------------------------------
# extraction


def test_extract_d1_report_matches_hand_values():
    real = construct_from_params(d1_array(), QQ, load_table(1))
    closure = submodule_closure(real.a, real.astar, real.basis_vector(real.basis[0]))
    tds = extract_td_system(real, closure)
    assert tds.passed(), tds.axiom_failures
    assert tds.diameter == 1
    assert tds.eigenvalues == fr([1, -1])
    assert tds.dual_eigenvalues == fr([1, -1])
    assert tds.shape == [1, 1]
    assert tds.sharp
    assert tds.split == fr([1, 1])
    assert tds.irreducible is True
    assert not tds.degenerate


def test_extract_flags_axiom_failures_for_swapped_eigenvalues():
    spec = FieldSpec("fp", seed=3111)
    ctx = random_admissible_context(2, spec)
    field = spec.build_field()
    real = realize(load_table(2), ctx, field)
    swapped = [ctx.theta[1], ctx.theta[0], ctx.theta[2]]
    real = dataclasses.replace(real, context=dataclasses.replace(ctx, theta=swapped))
    tds = extract_td_system(real, full_space(real))
    assert not tds.passed()
    assert any(cid.startswith("tds.band") for cid, _ in tds.axiom_failures)


def test_extract_reports_minimal_polynomial_failures_with_prefix():
    spec = FieldSpec("fp", seed=3112)
    ctx = random_admissible_context(2, spec)
    field = spec.build_field()
    real = realize(load_table(2), ctx, field)
    wrong = [field.add(x, field.one) for x in ctx.theta]  # distinct, not the spectrum of a
    real = dataclasses.replace(real, context=dataclasses.replace(ctx, theta=wrong))
    tds = extract_td_system(real, full_space(real))
    assert [cid for cid, _ in tds.axiom_failures] == ["tds.minpoly.a"]
    assert tds.notes == ["extraction aborted: minimal polynomial failed"]


def test_extract_with_generic_weights_passes_band_conditions():
    # the realized module is a module for the generator algebra even when the
    # weights are not tied to any split sequence, so the band conditions hold
    for d in (2, 3):
        spec = FieldSpec("fp", seed=777 + d)
        ctx = random_admissible_context(d, spec)
        real = realize(load_table(d), ctx, spec.build_field())
        tds = extract_td_system(real, full_space(real))
        assert not any(cid.startswith("tds.band") for cid, _ in tds.axiom_failures)
        assert tds.sharp and tds.shape[0] == 1


def test_split_extraction_recovers_zeta_on_full_module():
    pa = ParameterArray(2, fr([0, 1, 3]), fr([0, 2, 5]), fr([1, 4, 6]))
    field = QQ
    real = construct_from_params(pa, field, load_table(pa.d))
    tds = extract_td_system(real, full_space(real))
    assert tds.split == pa.zeta


# ---------------------------------------------------------------------------
# round trips


def test_tds_report_serializes():
    real = construct_from_params(d1_array(), QQ, load_table(1))
    closure = submodule_closure(real.a, real.astar, real.basis_vector(real.basis[0]))
    tds = extract_td_system(real, closure)
    obj = tds.to_dict(QQ)
    assert obj["diameter"] == 1
    assert obj["eigenvalues"] == ["1", "-1"]
    assert obj["split"] == ["1", "1"]
    assert obj["sharp"] is True and obj["irreducible"] is True


def test_roundtrip_d1_golden():
    rep = roundtrip(d1_array(), QQ, load_table(1))
    assert rep.overall, [c for c in rep.failures()]


def test_roundtrip_d0_trivial():
    pa = ParameterArray(0, fr([3]), fr([8]), fr([1]))
    rep = roundtrip(pa, QQ, load_table(pa.d))
    assert rep.overall


def test_roundtrip_reports_validation_failure():
    pa = ParameterArray(1, fr([1, -1]), fr([1, -1]), fr([2, 1]))
    rep = roundtrip(pa, QQ, load_table(pa.d))
    assert not rep.overall
    assert any(c.id == "tds.valid" and not c.passed for c in rep.checks)


@pytest.mark.parametrize("d", range(6))
def test_roundtrip_random_arrays_prime_field(d):
    from tdcheck.params import random_valid_parameter_array

    spec = FieldSpec("fp", seed=4200 + d)
    pa = random_valid_parameter_array(d, spec)
    rep = roundtrip(pa, spec.build_field(), load_table(pa.d))
    assert rep.overall, [(c.id, c.detail) for c in rep.failures()]
