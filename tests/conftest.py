import numpy as np
import pytest

from chainqec.chain import pst_couplings
from chainqec.code import encode, minimal15


@pytest.fixture(scope="session")
def chain15():
    return pst_couplings(15)


@pytest.fixture(scope="session")
def code15():
    return minimal15()


@pytest.fixture(scope="session")
def plus_logical15(code15):
    s = 1 / np.sqrt(2)
    return encode(code15, s, s)
