from fractions import Fraction

import pytest

from tdcheck import tdsystem
from tdcheck.fields import DEFAULT_PRIME, PrimeField, Rationals, Sampler
from tdcheck.linalg import EchelonBasis, Matrix, restrict_operator
from tdcheck.params import ParameterArray, random_admissible_context
from tdcheck.realization import idempotent_families, realize
from tdcheck.tables import FORMAT_VERSION, bundled_table_text, load_table, parse_table
from tdcheck.tdsystem import (
    InvalidParameterArrayError,
    _corner_cyclic_irreducible,
    construct_from_params,
    extract_td_system,
    irreducibility_check,
    roundtrip,
    submodule_closure,
)

from support import rebuilt

QQ = Rationals()
FP = PrimeField()


def fr(xs):
    return [Fraction(x) for x in xs]


def d1_array():
    return ParameterArray(1, fr([1, -1]), fr([1, -1]), fr([1, 1]))


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
    assert irreducibility_check(a, a)


def test_diagonal_pair_is_reducible():
    a = Matrix(QQ, [fr([2, 0]), fr([0, 3])])
    assert not irreducibility_check(a, a)


def test_d1_realized_pair_spans_four_dimensions():
    field = PrimeField()
    pa = ParameterArray(
        1,
        [field.from_int(1), field.from_int(-1)],
        [field.from_int(1), field.from_int(-1)],
        [field.one, field.one],
    )
    real = construct_from_params(pa, field, load_table(pa.d))
    assert irreducibility_check(real.a, real.astar)


def test_three_dimensional_burnside_sanity():
    # diagonal with distinct entries plus a cyclic shift generate all of M_3
    a = Matrix(QQ, [fr([0, 0, 0]), fr([0, 1, 0]), fr([0, 0, 2])])
    astar = Matrix(QQ, [fr([0, 1, 0]), fr([0, 0, 1]), fr([1, 0, 0])])
    assert irreducibility_check(a, astar)


def reference_word_span_irreducible(a, astar, field):
    """The word span grown by matrix products: BFS over words, flattened."""
    n = a.nrows
    basis = EchelonBasis(field, n * n)
    ident = Matrix.identity(field, n)
    basis.add([x for row in ident.rows for x in row])
    queue = [ident]
    while queue:
        m = queue.pop()
        for g in (a, astar):
            prod = g * m
            if basis.add([x for row in prod.rows for x in row]):
                queue.append(prod)
    return basis.dim == n * n


def random_pairs(field, seed):
    """(trial, k, a, astar) for 60 random pairs of size n <= 4: unconstrained
    (k = 0), or with a zero lower-left block (rows k.., columns ..k-1), block
    upper triangular, so the first k coordinates are invariant."""
    s = Sampler(field, seed)
    f = field
    for trial in range(60):
        n = trial % 4 + 1
        k = trial // 4 % n

        def draw():
            return Matrix(
                f, [[f.zero if i >= k > j else s.scalar() for j in range(n)] for i in range(n)]
            )

        a = draw()
        yield trial, k, a, draw()


@pytest.mark.parametrize(
    "field,seed", [(QQ, 31), (PrimeField(7), 32)], ids=["qq", "f7"]
)
def test_word_span_closure_matches_matrix_product_reference(field, seed):
    verdicts = set()
    for trial, k, a, astar in random_pairs(field, seed):
        want = reference_word_span_irreducible(a, astar, field)
        assert not (k and want), trial  # a block-triangular pair is reducible
        assert irreducibility_check(a, astar) == want, (trial, a.rows, astar.rows)
        verdicts.add(want)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# certificates on the image mod DEFAULT_PRIME

P = DEFAULT_PRIME


def closure_calls(monkeypatch):
    """Record each submodule_closure call, the one on the image mod p
    included: (field kind, operator rows, seed, dimension found)."""
    calls = []
    closure = tdsystem.submodule_closure

    def recorded(a, astar, seed):
        basis = closure(a, astar, seed)
        calls.append((a.field.kind, a.rows, list(seed), basis.dim))
        return basis

    monkeypatch.setattr(tdsystem, "submodule_closure", recorded)
    return calls


def qq_echelon_adds(monkeypatch):
    """Count EchelonBasis.add calls over the rationals."""
    adds = []
    add = EchelonBasis.add

    def counted(self, vec):
        if self.field.kind == "qq":
            adds.append(1)
        return add(self, vec)

    monkeypatch.setattr(EchelonBasis, "add", counted)
    return adds


def test_image_certified_word_span_matches_reference_over_q(monkeypatch):
    # the pairs of the reference test above: a full span mod p decides True,
    # anything else falls back to the exact span
    from_image = set()
    for trial, _, a, astar in random_pairs(QQ, 31):
        want = reference_word_span_irreducible(a, astar, QQ)
        with monkeypatch.context() as m:
            calls, adds = closure_calls(m), qq_echelon_adds(m)
            assert irreducibility_check(a, astar) == want, trial
        (kind, _, _, dim), _ = calls  # the image, then the closure over Q
        on_image = dim == a.nrows ** 2
        assert kind == "fp" and (want or not on_image), trial  # full mod p is full over Q
        assert bool(adds) != on_image, trial  # only a short image runs the exact loop
        from_image.add(on_image)
    assert from_image == {True, False}


def test_image_closure_can_be_short_where_the_exact_closure_is_full(monkeypatch):
    a = Matrix(QQ, [fr([0, 0]), fr([P, 0])])
    calls = closure_calls(monkeypatch)
    assert tdsystem.submodule_closure(a, a, fr([1, 0])).dim == 2
    assert calls == [("fp", [[0, 0], [0, 0]], [1, 0], 1), ("qq", a.rows, fr([1, 0]), 2)]


def test_no_image_over_a_prime_field_or_for_a_denominator_divisible_by_p(monkeypatch):
    calls = closure_calls(monkeypatch)
    one, third, tiny = Matrix(QQ, [fr([1])]), Matrix(QQ, [[Fraction(1, 3)]]), Fraction(1, P)
    for a, astar, seed in [
        (Matrix(QQ, [[tiny]]), one, fr([1])),
        (third, Matrix(QQ, [[2 * tiny]]), fr([1])),
        (one, one, [tiny]),
        (Matrix(FP, [[1]]), Matrix(FP, [[1]]), [1]),
    ]:
        calls.clear()
        assert tdsystem.submodule_closure(a, astar, seed).dim == 1
        assert [kind for kind, *_ in calls] == [a.field.kind]  # the exact loop only
    # any other denominator is inverted mod p
    calls.clear()
    a = Matrix(QQ, [[Fraction(1, 3), Fraction(-1)], fr([0, 0])])
    tdsystem.submodule_closure(a, a, [Fraction(1, 3), Fraction(0)])
    assert calls[0] == ("fp", [[pow(3, -1, P), P - 1], [0, 0]], [pow(3, -1, P), 0], 1)


def test_corner_that_vanishes_mod_p_falls_back_to_the_exact_route(monkeypatch):
    a = Matrix(QQ, [fr([1, 0]), fr([0, 2])])
    astar = Matrix(QQ, [fr([1, 1]), fr([1, 1])])
    corner = Matrix(QQ, [fr([P, 0]), fr([0, 0])])  # rank one, its row 0 mod p
    calls = closure_calls(monkeypatch)
    assert _corner_cyclic_irreducible(a, astar, corner)
    assert [(kind, dim) for kind, _, _, dim in calls] == [("qq", 2)]


def test_seed_of_multiples_of_p_falls_back_to_the_exact_loop(monkeypatch):
    a = Matrix(QQ, [fr([0, 1]), fr([1, 0])])
    calls = closure_calls(monkeypatch)
    assert tdsystem.submodule_closure(a, a, fr([P, 0])).dim == 2
    assert [(kind, dim) for kind, _, _, dim in calls] == [("qq", 2)]


def test_full_image_closure_is_the_identity_basis_without_exact_elimination(monkeypatch):
    real = construct_from_params(d1_array(), QQ, load_table(1))
    phi = real.basis_vector(real.basis[0])
    want = Matrix.identity(QQ, 2).echelon().rows
    adds = qq_echelon_adds(monkeypatch)
    closure = tdsystem.submodule_closure(real.a, real.astar, phi)
    assert adds == []  # the image settled it: no exact elimination ran
    assert closure.pivots == [0, 1] and closure.rows == want


# ---------------------------------------------------------------------------
# extraction


def test_extract_d1_report_matches_hand_values():
    real = construct_from_params(d1_array(), QQ, load_table(1))
    tds = extract_td_system(real)
    assert tds.axiom_failures == []
    assert tds.diameter == 1
    assert tds.eigenvalues == fr([1, -1])
    assert tds.dual_eigenvalues == fr([1, -1])
    assert tds.shape == [1, 1]
    assert tds.sharp
    assert tds.split == fr([1, 1])
    assert tds.irreducible is True
    assert not tds.degenerate


def test_extract_flags_axiom_failures_for_swapped_eigenvalues():
    ctx = random_admissible_context(2, FP, 3111)
    real = realize(load_table(2), ctx, FP)
    swapped = [ctx.theta[1], ctx.theta[0], ctx.theta[2]]
    real = rebuilt(real, context=ctx._replace(theta=swapped))
    tds = extract_td_system(real)
    assert tds.axiom_failures
    assert any(cid.startswith("tds.band") for cid, _ in tds.axiom_failures)


def test_extract_reports_minimal_polynomial_failures_with_prefix():
    ctx = random_admissible_context(2, FP, 3112)
    real = realize(load_table(2), ctx, FP)
    wrong = [FP.add(x, FP.one) for x in ctx.theta]  # distinct, not the spectrum of a
    real = rebuilt(real, context=ctx._replace(theta=wrong))
    tds = extract_td_system(real)
    assert [cid for cid, _ in tds.axiom_failures] == ["tds.minpoly.a"]
    assert tds.notes == ["extraction aborted: minimal polynomial failed"]


def test_extract_with_generic_weights_passes_band_conditions():
    # the realized module is a module for the generator algebra even when the
    # weights are not tied to any split sequence, so the band conditions hold
    for d in (2, 3):
        ctx = random_admissible_context(d, FP, 777 + d)
        real = realize(load_table(d), ctx, FP)
        tds = extract_td_system(real)
        assert not any(cid.startswith("tds.band") for cid, _ in tds.axiom_failures)
        assert tds.sharp and tds.shape[0] == 1


def reference_band_failures(real):
    """extract_td_system's tds.band failures from full sandwich products."""
    phi = real.basis_vector(real.basis[0])
    closure = submodule_closure(real.a, real.astar, phi)
    a_sub = restrict_operator(real.field, real.a, closure)
    astar_sub = restrict_operator(real.field, real.astar, closure)
    idems, idems_star, _, _ = idempotent_families(
        a_sub, astar_sub, real.context.theta, real.context.theta_star
    )
    out = []
    for tag, fam, op in (("es", idems_star, a_sub), ("e", idems, astar_sub)):
        for j in range(len(fam)):
            op_fam_j = op * fam[j]
            for i in range(len(fam)):
                if abs(i - j) > 1 and not (fam[i] * op_fam_j).is_zero():
                    out.append((f"tds.band.{tag}.{i}.{j}", "sandwich is nonzero"))
    return out


def band_failures(tds):
    return [(cid, det) for cid, det in tds.axiom_failures if cid.startswith("tds.band")]


def test_extract_band_blocks_with_rank_zero_restricted_idempotents():
    # d = 1 module read against diameter-2 lists: the extra eigenvalues 5 and
    # 7 are not in the spectrum, so e_2 and e*_2 restrict to rank 0
    real = construct_from_params(d1_array(), QQ, load_table(1))
    ctx = real.context._replace(theta=fr([1, -1, 5]), theta_star=fr([1, -1, 7]))
    real = rebuilt(real, context=ctx)
    tds = extract_td_system(real)
    assert band_failures(tds) == reference_band_failures(real) == []
    assert tds.diameter == 1 and tds.shape == [1, 1] and tds.degenerate


def test_extract_band_blocks_match_full_sandwiches_when_they_fail():
    ctx = random_admissible_context(3, FP, 3111)
    real = realize(load_table(3), ctx, FP)
    swapped = [ctx.theta[2], ctx.theta[0], ctx.theta[1], ctx.theta[3]]
    real = rebuilt(real, context=ctx._replace(theta=swapped))
    want = reference_band_failures(real)
    assert want and band_failures(extract_td_system(real)) == want


def test_extract_band_blocks_match_full_sandwiches_when_they_fail_over_q():
    # the closure of phi is the whole module, so extraction would reuse
    # realize's families but for the replaced eigenvalue list
    ctx = random_admissible_context(3, QQ, 3111)
    real = realize(load_table(3), ctx, QQ)
    swapped = [ctx.theta[2], ctx.theta[0], ctx.theta[1], ctx.theta[3]]
    real = rebuilt(real, context=ctx._replace(theta=swapped))
    want = reference_band_failures(real)
    assert want and band_failures(extract_td_system(real)) == want


@pytest.mark.parametrize("field", [QQ, FP], ids=["qq", "fp"])
def test_extract_rebuilds_the_families_only_for_other_eigenvalue_lists(field, monkeypatch):
    real = realize(load_table(2), random_admissible_context(2, field, 5), field)
    calls = []

    def counted(*args):
        calls.append(args[2:])
        return idempotent_families(*args)

    monkeypatch.setattr(tdsystem, "idempotent_families", counted)
    assert extract_td_system(real).closure_dim == real.dim
    assert calls == []  # the whole module: realize's families are reused
    ctx = real.context
    theta = ctx.theta[::-1]
    extract_td_system(rebuilt(real, context=ctx._replace(theta=theta)))
    assert calls == [(theta, ctx.theta_star)]


def test_split_extraction_recovers_zeta_on_full_module():
    pa = ParameterArray(2, fr([0, 1, 3]), fr([0, 2, 5]), fr([1, 4, 6]))
    field = QQ
    real = construct_from_params(pa, field, load_table(pa.d))
    tds = extract_td_system(real)
    assert tds.closure_dim == real.dim
    assert tds.split == pa.zeta


# ---------------------------------------------------------------------------
# round trips


def test_tds_report_serializes():
    real = construct_from_params(d1_array(), QQ, load_table(1))
    tds = extract_td_system(real)
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
    assert rep.asset_version == FORMAT_VERSION  # the table was loaded


def test_roundtrip_reports_construct_failure_with_the_table_version():
    # the corrupted d = 1 table of tests/test_golden.py: y1*phi negated
    table = parse_table(bundled_table_text(1).replace("ths1*r + y1*phi", "ths1*r - y1*phi"))
    rep = roundtrip(d1_array(), QQ, table)
    construct = next(c for c in rep.checks if c.id == "tds.construct")
    assert not construct.passed and "g.1" in construct.detail
    assert rep.asset_version == FORMAT_VERSION


@pytest.mark.parametrize("d", range(6))
def test_roundtrip_random_arrays_prime_field(d):
    from tdcheck.params import random_valid_parameter_array

    pa = random_valid_parameter_array(d, FP, 4200 + d)
    rep = roundtrip(pa, FP, load_table(pa.d))
    assert rep.overall, [(c.id, c.detail) for c in rep.failures()]


def test_roundtrip_qq_d3_word_span_report_is_pinned(capsys):
    # The width-64 word-span echelon over the rationals (d = 3, dim W = 8);
    # the digest was taken before the echelon kept its rows as integers.
    import hashlib

    from tdcheck.cli import main

    code = main("tds roundtrip --d 3 --trials 1 --field qq --seed 1".split())
    out = capsys.readouterr().out
    assert code == 0
    assert "irreducibility via full word-span dimension" in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9b10e6b3f79487fb72f66b59efd0af49e5907eb5e8c307f9ed5e662a6f773cee"
    )
