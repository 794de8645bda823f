import pytest

from hyplab import registry, specs
from hyplab.errors import InvalidSpecError


def test_parameter_validation():
    with pytest.raises(InvalidSpecError):
        specs.mu_k(1)
    with pytest.raises(InvalidSpecError):
        specs.tau_m(0)
    with pytest.raises(InvalidSpecError):
        specs.log_pow(0)
    with pytest.raises(InvalidSpecError):
        specs.lambda_k(0)


def test_lambda_attached_rejects_vanishing_unit():
    with pytest.raises(InvalidSpecError):
        specs.lambda_attached(specs.log_pow(1))
    with pytest.raises(InvalidSpecError):
        specs.dirichlet_inverse(specs.lambda_k(1))
    # fine when g(1) != 0
    specs.lambda_attached(specs.mu_k(2))


def test_canonical_keys_round_trip_composition():
    s = specs.convolve(specs.pointwise(specs.mu_k(2), specs.log_pow(1)), specs.one())
    assert s.key == "convolve(pointwise(mu_k(2),log_pow(1)),one)"
    assert specs.tau_m(3).key == "tau_m(3)"
    # separately built equal trees share one hash: they are one cache identity
    t = specs.convolve(specs.pointwise(specs.mu_k(2), specs.log_pow(1)), specs.one())
    assert t is not s and t == s and hash(t) == hash(s)
    assert s != specs.convolve(specs.pointwise(specs.mu_k(3), specs.log_pow(1)), specs.one())


def test_value_domains():
    assert specs.tau_m(4).integer_valued
    assert specs.convolve(specs.mobius(), specs.two_pow_omega()).integer_valued
    assert not specs.log_pow(2).integer_valued
    assert not specs.convolve(specs.log_pow(1), specs.one()).integer_valued
    assert specs.dirichlet_inverse(specs.one()).integer_valued


def test_prime_power_locals():
    L = specs.prime_power_locals(specs.tau_m(2), 5)
    assert L == (1, 2, 3, 4, 5, 6)
    L = specs.prime_power_locals(specs.mu_k(2), 4)
    assert L == (1, 1, 0, 0, 0)
    L = specs.prime_power_locals(specs.convolve(specs.mobius(), specs.tau_m(2)), 4)
    assert L == (1, 1, 1, 1, 1)
    assert specs.prime_power_locals(specs.log_pow(1), 4) is None
    # inverse of tau against tau gives the convolution identity
    inv = specs.prime_power_locals(specs.dirichlet_inverse(specs.tau_m(2)), 6)
    tau = specs.prime_power_locals(specs.tau_m(2), 6)
    for e in range(7):
        conv = sum(tau[i] * inv[e - i] for i in range(e + 1))
        assert conv == (1 if e == 0 else 0)


def test_value_at_1():
    assert specs.one().value_at_1() == 1
    assert specs.log_pow(1).value_at_1() == 0.0
    assert specs.convolve(specs.mobius(), specs.one()).value_at_1() == 1


def _nodes(spec):
    yield spec
    for c in spec.children:
        yield from _nodes(c)


def test_value_domain_invariants():
    # integer nodes sieve from exponent-only locals and real nodes vanish at
    # 1, so only integer specs have inverses and those never divide
    roots = list(registry.base_specs().values())
    for e in registry.default_entries():
        roots += [e.F_spec, e.f_spec]
    for _, f, g in registry.hyperbola_pairs():
        roots += [f, g]
    for root in roots:
        for node in _nodes(root):
            if node.integer_valued:
                assert specs.prime_power_locals(node) is not None, node.key
                assert node.value_at_1() == 1, node.key
            else:
                assert node.value_at_1() == 0, node.key
