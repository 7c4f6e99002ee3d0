from fractions import Fraction

import pytest

from tdcheck.fields import FieldSpec, PrimeField, Rationals, Sampler
from tdcheck.params import (
    COND_BETA,
    COND_SUM,
    COND_THETA_DISTINCT,
    COND_ZETA0,
    COND_ZETAD,
    ContextError,
    MalformedArrayError,
    ParameterArray,
    admissibility_sum,
    derive_context,
    random_admissible_context,
    random_valid_parameter_array,
    validate_parameter_array,
)

from support import failure_ids

QQ = Rationals()


def fr(xs):
    return [Fraction(x) for x in xs]


def krawtchouk3():
    return fr([3, 1, -1, -3])


def test_validate_d0_trivial_array():
    pa = ParameterArray(0, fr([0]), fr([0]), fr([1]))
    result = validate_parameter_array(pa, QQ)
    assert result.passed
    assert COND_BETA in result.vacuous
    assert admissibility_sum(QQ, pa) == 1


def test_admissibility_sum_hand_value():
    # eta_k(t_0) = (t_0 - t_d)...(t_0 - t_{d-k+1}): for theta = 0, 1, 3 the
    # weights are 1, -3, 3 and for theta* = 0, 2, 5 they are 1, -5, 10, so
    # the sum is 3*10*z_0 + (-3)(-5)*z_1 + 1*1*z_2 = 30 + 30 + 7
    pa = ParameterArray(2, fr([0, 1, 3]), fr([0, 2, 5]), fr([1, 2, 7]))
    assert admissibility_sum(QQ, pa) == 67


def test_krawtchouk_d3_validates_and_derives_beta_2():
    theta = krawtchouk3()
    zeta = fr([1, 0, 0, 5])
    pa = ParameterArray(3, theta, theta, zeta)
    result = validate_parameter_array(pa, QQ)
    assert result.passed, result.failures
    ctx = derive_context(theta, theta, fr([1, 1, 1]), QQ)
    assert ctx.beta == 2  # (th0 - th3)/(th1 - th2) = 6/2 = 3 = beta + 1
    assert ctx.epsilon == fr([0, 0])


def test_zeta_d_zero_rejected_with_condition_id():
    theta = krawtchouk3()
    pa = ParameterArray(3, theta, theta, fr([1, 2, 3, 0]))
    result = validate_parameter_array(pa, QQ)
    assert not result.passed
    assert COND_ZETAD in failure_ids(result)


def test_zeta_0_not_one_rejected_with_condition_id():
    theta = krawtchouk3()
    pa = ParameterArray(3, theta, theta, fr([2, 2, 3, 1]))
    result = validate_parameter_array(pa, QQ)
    assert COND_ZETA0 in failure_ids(result)


def test_repeated_theta_rejected():
    pa = ParameterArray(1, fr([2, 2]), fr([0, 1]), fr([1, 1]))
    assert COND_THETA_DISTINCT in failure_ids(validate_parameter_array(pa, QQ))


def test_vanishing_sum_rejected():
    # d=1: sum = (th0-th1)(ths0-ths1) + zeta_1; choose zeta_1 to kill it
    pa = ParameterArray(1, fr([0, 1]), fr([0, 1]), fr([1, -1]))
    assert COND_SUM in failure_ids(validate_parameter_array(pa, QQ))


def test_failures_are_monotone_under_repair():
    theta, theta_star = fr([0, 1]), fr([0, 1])
    broken = ParameterArray(1, theta, theta_star, fr([2, 0]))
    ids = failure_ids(validate_parameter_array(broken, QQ))
    assert set(ids) == {COND_ZETA0, COND_ZETAD}
    half = ParameterArray(1, theta, theta_star, fr([1, 0]))
    assert failure_ids(validate_parameter_array(half, QQ)) == [COND_ZETAD]
    fixed = ParameterArray(1, theta, theta_star, fr([1, 3]))
    assert validate_parameter_array(fixed, QQ).passed


def test_malformed_array_is_not_merely_invalid():
    pa = ParameterArray(2, fr([0, 1]), fr([0, 1, 2]), fr([1, 1, 1]))
    with pytest.raises(MalformedArrayError):
        validate_parameter_array(pa, QQ)


def test_ratio_mismatch_not_beta_recurrent():
    with pytest.raises(ContextError, match="not beta-recurrent"):
        derive_context(fr([0, 1, 2, 4]), fr([0, 1, 2, 3]), fr([1, 1, 1]), QQ)


def test_d4_geometric_ratio_beta():
    q = Fraction(2)
    theta = [q ** (4 - 2 * i) for i in range(5)]
    ctx = derive_context(theta, theta, fr([1, 1, 1, 1]), QQ)
    assert ctx.beta == Fraction(17, 4)  # ratio q^2 + 1 + q^-2 = 21/4


def test_epsilon_definition_matches_hand_value():
    theta, theta_star = fr([0, 1, 3]), fr([0, 2, 5])
    ctx = derive_context(theta, theta_star, fr([1, 1]), QQ)
    # eps_0 = (th1-th2)(ths1-ths2) - (th0-th1)(ths0-ths1) = (-2)(-3) - (-1)(-2)
    assert ctx.epsilon == [Fraction(4)]
    assert ctx.beta is None


def test_affine_reparameterization_preserves_verdicts():
    # theta -> u*theta + v, theta_star -> w*theta_star + x scales the i-th
    # split entry by (u*w)^i; verdicts on all conditions are unchanged
    for d in (1, 2, 3, 4):
        pa = random_valid_parameter_array(d, FieldSpec("qq", seed=100 + d))
        u, w = Fraction(3, 2), Fraction(-2)
        v, x = Fraction(7), Fraction(1, 3)
        mapped = ParameterArray(
            d,
            [u * t + v for t in pa.theta],
            [w * t + x for t in pa.theta_star],
            [(u * w) ** i * z for i, z in enumerate(pa.zeta)],
        )
        assert validate_parameter_array(mapped, QQ).passed
        # now break zeta_d and confirm the same single failure on both sides
        pa_bad = ParameterArray(d, pa.theta, pa.theta_star, list(pa.zeta))
        pa_bad.zeta[d] = Fraction(0)
        mapped_bad = ParameterArray(
            d,
            mapped.theta,
            mapped.theta_star,
            list(mapped.zeta),
        )
        mapped_bad.zeta[d] = Fraction(0)
        assert (
            failure_ids(validate_parameter_array(pa_bad, QQ))
            == failure_ids(validate_parameter_array(mapped_bad, QQ))
        )


def test_random_admissible_context_deterministic_per_seed():
    for kind in ("qq", "fp"):
        a = random_admissible_context(3, FieldSpec(kind, seed=12))
        b = random_admissible_context(3, FieldSpec(kind, seed=12))
        assert (a.theta, a.theta_star, a.y, a.beta) == (b.theta, b.theta_star, b.y, b.beta)
        c = random_admissible_context(3, FieldSpec(kind, seed=13))
        assert (a.theta, a.y) != (c.theta, c.y)


@pytest.mark.parametrize("d", range(6))
def test_random_admissible_context_passes_guards(d):
    field = PrimeField()
    ctx = random_admissible_context(d, FieldSpec("fp", seed=900 + d))
    assert len(set(ctx.theta)) == d + 1
    assert len(set(ctx.theta_star)) == d + 1
    assert len(ctx.y) == d
    assert len(ctx.epsilon) == max(0, d - 1)
    if d >= 3:
        bp1 = field.add(ctx.beta, field.one)
        assert not field.is_zero(bp1)
        for seq in (ctx.theta, ctx.theta_star):
            for i in range(2, d):
                num = field.sub(seq[i - 2], seq[i + 1])
                den = field.sub(seq[i - 1], seq[i])
                assert field.div(num, den) == bp1
    else:
        assert ctx.beta is None
    if d >= 4:
        assert not field.is_zero(ctx.beta)
    if d == 5:
        quad = field.sub(field.add(field.mul(ctx.beta, ctx.beta), ctx.beta), field.one)
        assert not field.is_zero(quad)


def test_random_valid_parameter_array_validates():
    for d in range(6):
        pa = random_valid_parameter_array(d, FieldSpec("fp", seed=40 + d))
        assert validate_parameter_array(pa, PrimeField()).passed
        assert pa.zeta[0] == 1


@pytest.mark.parametrize("kind, prime", [("qq", None), ("fp", None), ("fp", 11)])
def test_beta_guards_divide_eigenvalue_repeats(kind, prime):
    # under x_{i+1} = x_{i-2} + (beta+1)(x_i - x_{i-1}):
    #   x_3 - x_0 = -(beta+1)(x_1 - x_2)
    #   x_4 - x_0 = beta (-beta x_1 + beta x_2 + x_0 - 2 x_1 + x_2)
    #   x_5 - x_0 = (beta^2+beta-1)(-beta x_1 + beta x_2 + x_0 - x_1)
    # so a beta violating a guard repeats an eigenvalue, and derive_context
    # needs no guard check beyond distinctness; over F_11, beta^2+beta-1 has
    # the roots 3 and 7
    spec = FieldSpec(kind, prime, seed=5)
    f = spec.build_field()
    s = Sampler(spec)
    betas = [s.scalar() for _ in range(30)] + [f.from_int(-1), f.zero]
    if prime == 11:
        betas += [f.from_int(3), f.from_int(7)]
    for beta in betas:
        xs = [s.scalar() for _ in range(3)]
        bp1 = f.add(beta, f.one)
        for _ in range(3):
            xs.append(f.add(xs[-3], f.mul(bp1, f.sub(xs[-1], xs[-2]))))
        x0, x1, x2 = xs[:3]
        quad = f.sub(f.add(f.mul(beta, beta), beta), f.one)
        u = f.sub(f.mul(beta, f.sub(x2, x1)), f.sub(x1, x0))
        assert f.sub(xs[3], x0) == f.neg(f.mul(bp1, f.sub(x1, x2)))
        assert f.sub(xs[4], x0) == f.mul(beta, f.sub(u, f.sub(x1, x2)))
        assert f.sub(xs[5], x0) == f.mul(quad, u)
        for guard, k in ((bp1, 3), (beta, 4), (quad, 5)):
            if f.is_zero(guard):
                assert xs[k] == x0


def test_parameter_array_json_roundtrip():
    text = (
        '{"d": 3, "theta": ["3", "1", "-1", "-3"], "theta_star": ["1/2", "0", "2", "7"],'
        ' "zeta": ["1", "0", "0", "5"]}'
    )
    pa = ParameterArray.from_json(text, QQ)
    assert (pa.d, pa.theta, pa.theta_star, pa.zeta) == (
        3,
        krawtchouk3(),
        [Fraction(1, 2), Fraction(0), Fraction(2), Fraction(7)],
        fr([1, 0, 0, 5]),
    )
    with pytest.raises(MalformedArrayError):
        ParameterArray.from_json('{"d": 1, "theta": ["0", "1"]}', QQ)
