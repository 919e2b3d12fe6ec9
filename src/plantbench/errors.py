"""The package's one exception type.

Every rejection (a bad argument, a malformed or unreadable file, an
unsupported size, a count beyond what a construction or an oracle can
hold, a violated structural invariant) raises ValidationError, and the
command line maps it to exit code 3.  Every array the library is
handed goes through instance._reals, which refuses a ragged nesting,
text, complex entries and object entries that are no real number a
float can hold, and keeps the dtype of the rest.  A trajectory that
leaves the trust region (|x| beyond 1e6 or not finite) raises nothing:
run_batch flags its row as diverged.
"""

__all__ = ["ValidationError"]


class ValidationError(Exception):
    """Invalid argument, malformed file, or violated structural invariant."""
