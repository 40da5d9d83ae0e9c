"""Exception kinds shared by all capfed modules: the outcomes cli.main tells apart.

- ValidationError: a configuration, flag or input file is malformed or
  breaks its contract, and the message names the key or the file. Exit 2.
- ZeroVectorError: a vector of zero norm has no direction. cli turns an
  embeddings file's zero row into a ValidationError naming the file
  (exit 2); raised anywhere else it exits 3.
- DomainError: an argument lies outside what the operation accepts: an
  empty input, mismatched shapes, a label out of range, pairs of one kind
  only, a value outside its mathematical domain. Exit 3.
- CapfedError: the base of the three. Exit 3 unless it is a ValidationError.
"""


class CapfedError(Exception):
    """Base class for every error raised by this package."""


class ZeroVectorError(CapfedError):
    """A vector with (near-)zero norm cannot be normalized."""


class DomainError(CapfedError):
    """An argument lies outside what the operation accepts."""


class ValidationError(CapfedError):
    """A configuration, flag or input file is malformed or breaks its contract."""
