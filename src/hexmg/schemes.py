"""The message assignment each zero-forcing scheme needs, its tolerance,
the two errors a certification can end in, and the rule for counts.

``clustering.assign_messages`` assigns messages in one of two modes, and
``precoding`` certifies a scheme on a plan assigned in the mode
``SCHEME_MODES`` names, accepting cross residuals up to ``NULLING_TOL`` by
default.  The ``hexmg zf`` parser reads both when it is built, and
``cli.main`` reports ``RankDeficientError`` and ``UncutLatticeError`` as
usage errors.  ``positive_int`` checks each radius, t, m, d and trial
count the library takes, and ``MAX_RADIUS`` caps the lattice radius, for
``lattice.build_network`` and every ``--radius``.  Nothing here needs numpy,
so neither loads any.
"""

MODE_SLOW_ONLY = "SLOW_ONLY"
MODE_MIXED = "MIXED"

SCHEME_MODES = {"s3": MODE_SLOW_ONLY, "s4": MODE_MIXED, "s5": MODE_MIXED}

#: default bound on the relative cross residual ``verify_nulling`` accepts
NULLING_TOL = 1e-9


#: Largest lattice radius, fitted to a peak-RSS budget of 1 GB.  Peak RSS
#: grows with R^2, most steeply for ``hexmg lattice --emit``: about
#: 28 + 0.00805·R^2 MB (144 and 492 MB at R = 120 and 240).  At this radius
#: that command read 853 MB and wrote a 75 MB file; every other ``--radius``
#: command read at most 323 MB (``cluster --t 1 --emit``).
MAX_RADIUS = 320


class RankDeficientError(RuntimeError):
    """The constraint matrix lost generic rank (degenerate channel draw)."""


class UncutLatticeError(RuntimeError):
    """The silencing failed to cut the lattice into one-master clusters."""


def positive_int(name: str, value: int) -> int:
    """``value``, refused unless a positive int: 2.0 hashes like 2 in a
    cache, and numpy, ``range`` and ``gcd`` refuse it late or not at all."""
    if not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value
