"""The curve rows of one parameter, for tests that look at a single node."""

import numpy as np

from mdsrepair.linalg import _check_codes
from mdsrepair.nrc import INF, _curve_stack


def curve_rows(tower, r, c):
    """The (l, r*l) curve rows of one parameter c (or INF), range-checked."""
    if c is not INF:
        _check_codes(tower.top, np.array(c))
    return _curve_stack(tower, r, [c])[0]
