"""The message assignment each zero-forcing scheme needs, its tolerance,
and the two errors a certification can end in.

``clustering.assign_messages`` assigns messages in one of two modes, and
``precoding`` certifies a scheme on a plan assigned in the mode
``SCHEME_MODES`` names, accepting cross residuals up to ``NULLING_TOL`` by
default.  The ``hexmg zf`` parser reads both when it is built, and
``cli.main`` reports ``RankDeficientError`` and ``UncutLatticeError`` as
usage errors; nothing here needs numpy, so neither loads any.
"""

MODE_SLOW_ONLY = "SLOW_ONLY"
MODE_MIXED = "MIXED"

SCHEME_MODES = {"s3": MODE_SLOW_ONLY, "s4": MODE_MIXED, "s5": MODE_MIXED}

#: default bound on the relative cross residual ``verify_nulling`` accepts
NULLING_TOL = 1e-9


class RankDeficientError(RuntimeError):
    """The constraint matrix lost generic rank (degenerate channel draw)."""


class UncutLatticeError(RuntimeError):
    """A cluster holds more than one master: the silencing failed to cut it."""
