"""The curve rows of one parameter, for tests that look at a single node."""

from mdsrepair.nrc import INF, _curve_stack


def curve_rows(tower, r, c):
    """The (l, r*l) curve rows of one parameter c (or INF), range-checked."""
    if c is not INF:
        tower.top.check(c)
    return _curve_stack(tower, r, [c])[0]
