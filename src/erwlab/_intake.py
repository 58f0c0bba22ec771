"""Argument intake: each public function converts and checks each real or
count argument once, here.  A refusal is a DomainError whose message is
``what``, naming the function and the argument ("f_eval requires z"),
then the interval and the value it got."""

import math
import operator

from .errors import DomainError


def _refused(what, lo, hi, ends, got):
    def bound(v):
        return "1/2" if v == 0.5 else f"{v:g}"

    # an infinite bound is left out: the head says "finite z" where it must
    if lo == -math.inf and hi == math.inf:
        span = ""
    elif hi == math.inf:
        span = f" {'>=' if ends[0] == '[' else '>'} {bound(lo)}"
    elif lo == -math.inf:
        span = f" {'<=' if ends[1] == ']' else '<'} {bound(hi)}"
    else:
        span = f" in {ends[0]}{bound(lo)}, {bound(hi)}{ends[1]}"
    return DomainError(f"{what}{span}, got {got}")


def real(what, x, lo, hi, ends="()"):
    """x as a Python float between lo and hi, each end closed where
    ``ends`` has "[" or "]"; str and bytes, numbers beyond the double
    range and NaN are refused."""
    if isinstance(x, (str, bytes, bytearray)):
        raise _refused(what, lo, hi, ends, f"{x!r}, which is not a real number")
    try:
        v = float(x)
    except OverflowError:
        raise _refused(what, lo, hi, ends, "a number beyond the double range") from None
    # NaN fails every comparison
    if lo < v < hi or (v == lo and ends[0] == "[") or (v == hi and ends[1] == "]"):
        return v
    raise _refused(what, lo, hi, ends, repr(x))


def count(what, n, lo):
    """n as a Python int >= lo (lo may be -inf); bool, float and str are
    refused."""
    if isinstance(n, bool) or not hasattr(type(n), "__index__"):
        raise _refused(what, lo, math.inf, "[)", f"{n!r}, which is not an integer")
    n = operator.index(n)
    if n < lo:
        raise _refused(what, lo, math.inf, "[)", repr(n))
    return n
