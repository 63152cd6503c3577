import pytest

from conftest import fraction_inverse_unimodular, random_unimodular, rng_for
from jperron.errors import NotUnimodular
from jperron.intmat import check_unimodular, det, identity, inverse_unimodular, mat_mul


def test_inverse_unimodular_matches_fraction_reference():
    rng = rng_for("inverse-unimodular")
    signs = set()
    for rank in range(2, 13):
        for _ in range(20):
            a = random_unimodular(rng, rank, spread=rng.choice((1, 3, 9)))
            if rng.random() < 0.5:
                i = rng.randrange(rank)
                a[i] = [-x for x in a[i]]
            rng.shuffle(a)
            signs.add(det(a))
            inv = inverse_unimodular(a)
            assert inv == fraction_inverse_unimodular(a)
            assert mat_mul(a, inv) == identity(rank)
    assert signs == {1, -1}


def test_inverse_unimodular_rejects_other_determinants():
    for a in ([[2, 0], [0, 1]], [[1, 2], [2, 4]], [[1, 0, 0], [0, 1, 0], [0, 0, 3]]):
        with pytest.raises(NotUnimodular):
            inverse_unimodular(a)


@pytest.mark.parametrize("a", [[], [[1], [0, 1]], [[1, 0]], [[1, 0], [0]]])
def test_check_unimodular_rejects_non_square(a):
    # det used to index past the short rows
    with pytest.raises(NotUnimodular):
        check_unimodular(a)
