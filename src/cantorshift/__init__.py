"""Exact digit expansions, shift operators, generalized Salem functions, and
Lebesgue-measure experiments for shift-defined set families.

Everything is immutable and pure; all arithmetic on digit data is exact
rational arithmetic.  The package exports each module's ``__all__``.
"""

from .expansions import *
from .shifts import *
from .salem import *
from .measure import *

__version__ = "0.1.0"
