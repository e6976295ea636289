"""Argument checks shared by the package's entry points.

One rule reads every array argument (data, a membership, a spectrum,
coordinates, a vector or matrix to project, labels or indices): _reals.
On top of it, one rule each checks a data matrix and a label vector;
beside it, one rule each checks an integer argument (a count, an index
or a seed) and a real-valued parameter (eps, p, alpha, a fraction, a
threshold, a noise scale, a tolerance or an angle). So every entry point
rejects the same malformed input with the same error.
"""

import math
import numbers

import numpy as np

from .exceptions import InvalidInputError, InvalidParameterError


def _reals(values, name, error=InvalidInputError, whole=False, shape=None):
    """values as a float64 array (values itself when it already is one), or
    error unless numpy reads it as a regular array of bools, integers,
    floats or objects holding real numbers (not text, complex entries or
    ragged nesting) whose entries are all finite, of the given shape when
    one is given.

    With whole, each entry must instead be a whole number in the int64
    range (an integer, or a finite float with no fraction), and the array
    comes back as int64. Entries not already int64 are tested one at a
    time, through int(), which is exact: a float comparison would round
    2**63 - 1, unsigned or a Python int, up to 2**63.
    """
    try:
        values = np.asarray(values)
    except ValueError:  # ragged nesting
        values = np.array("")
    kind = values.dtype.kind
    if kind not in "biufO" or kind == "O" and not all(
            isinstance(v, (numbers.Real, np.bool_)) for v in values.flat):
        raise error("%s must be real numbers in a regular array" % name)
    if shape is not None and values.shape != shape:
        raise error("%s must have shape %s, got %s" % (name, shape, values.shape))
    try:
        floats = values.astype(float, copy=False)
    except OverflowError:  # a Python int beyond the float range
        floats = np.array(np.nan)
    if not whole:
        ok = np.all(np.isfinite(floats))
    else:
        ok = kind == "i" or np.all(np.isfinite(floats)) and all(
            v % 1 == 0 and -2**63 <= int(v) < 2**63 for v in values.flat)
    if not ok:
        raise error("%s must be %s" % (name, "whole numbers" if whole else "finite"))
    return values.astype(int) if whole else floats


def _validate_data(a):
    a = _reals(a, "data entries")
    if a.ndim != 2 or 0 in a.shape:
        raise InvalidInputError("data must be a D x N matrix with N >= 1 and D >= 1")
    return a


def _count(value, name, low=None, high=None, error=InvalidParameterError):
    """int(value), or error unless value is an integer (a Python or numpy
    one, not a bool) of at least low and, when high is given (with low),
    below high."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error("%s must be an integer, got %r" % (name, value))
    if high is not None and not low <= value < high:
        raise error("%s must be in [%d, %d), got %r" % (name, low, high, value))
    if low is not None and value < low:
        raise error("%s must be >= %d, got %r" % (name, low, value))
    return int(value)


def _real(value, name, low, high, ends="[]"):
    """value, or InvalidParameterError unless it is a real number (a
    Python or numpy int or float, not a bool and not an array) in the
    interval from low to high, whose ends are open where ends has "(" or
    ")". NaN lies in no interval, nor does an int beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InvalidParameterError("%s must be a real number, got %r" % (name, value))
    try:
        number = float(value)
    except OverflowError:
        number = np.nan
    if not ((low < number if ends[0] == "(" else low <= number)
            and (number < high if ends[1] == ")" else number <= high)):
        raise InvalidParameterError("%s must be in %s%g, %g%s, got %r"
                                    % (name, ends[0], low, high, ends[1], value))
    return value


def _finite_power(base, exponent, scale=1.0):
    """Whether scale * float(base) ** exponent is finite, without an
    OverflowError where the power overflows."""
    try:
        return math.isfinite(scale * float(base) ** exponent)
    except OverflowError:
        return False


def _labels(labels, n_points=None, n_clusters=None, rejects=False):
    """labels as an int vector, or InvalidInputError unless it holds
    n_points (when given) whole numbers below n_clusters (when given),
    each >= 0 unless rejects lets a negative label mark a rejected point."""
    labels = _reals(labels, "labels", whole=True)
    n_points = labels.size if n_points is None else n_points
    if labels.shape != (n_points,):
        raise InvalidInputError("labels must be a vector of %d entries, got shape %s"
                                % (n_points, labels.shape))
    low = -np.inf if rejects else 0
    high = np.inf if n_clusters is None else n_clusters
    if labels.size and not low <= labels.min() <= labels.max() < high:
        raise InvalidInputError("labels must lie in [%s, %s)" % (low, high))
    return labels
