"""Argument checks shared by the package's entry points.

One rule each for a data matrix, an integer argument (a count, an index
or a seed), a label vector and a real-valued parameter (eps, p, alpha,
a fraction, a threshold, a noise scale, a tolerance or an angle), so
every entry point rejects the same malformed input with the same error.
"""

import math

import numpy as np

from .exceptions import InvalidInputError, InvalidParameterError


def _validate_data(a):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[1] == 0:
        raise InvalidInputError("data must be a D x N matrix with N >= 1")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("data entries must be finite")
    return a


def _whole_numbers(values, name):
    """values as an int64 array, or InvalidInputError unless every entry is
    a whole number in the int64 range (an integer, or a finite float with
    no fraction). Unsigned entries are compared as integers, since a float
    comparison would round 2**63 - 1 up to 2**63."""
    values = np.asarray(values)
    whole = True
    if values.dtype.kind == "u":
        whole = np.all(values <= np.uint64(2**63 - 1))
    elif values.dtype.kind != "i":
        try:
            floats = values.astype(float)
        except OverflowError:  # a Python int beyond the float range
            floats = np.array(np.nan)
        whole = np.all((floats == np.round(floats))
                       & (-2.0**63 <= floats) & (floats < 2.0**63))
    if not whole:
        raise InvalidInputError("%s must be whole numbers" % name)
    return values.astype(int)


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


def _labels(labels, n_points, n_clusters=None, rejects=False):
    """labels as an int vector, or InvalidInputError unless it holds
    n_points whole numbers below n_clusters (when given), each >= 0
    unless rejects lets a negative label mark a rejected point."""
    labels = _whole_numbers(labels, "labels")
    if labels.shape != (n_points,):
        raise InvalidInputError("labels must be a vector of %d entries, got shape %s"
                                % (n_points, labels.shape))
    low = -np.inf if rejects else 0
    high = np.inf if n_clusters is None else n_clusters
    if labels.size and not low <= labels.min() <= labels.max() < high:
        raise InvalidInputError("labels must lie in [%s, %s)" % (low, high))
    return labels
