"""Exception types shared across the package."""


class GmpdError(Exception):
    """Base class for all package errors."""


class NotSemicomplete(GmpdError):
    pass


class NotStrong(GmpdError):
    pass


class NotExtended(GmpdError):
    pass


class NotBipartite(GmpdError):
    pass


class AugmentedInput(GmpdError):
    """An augmented instance was passed to an operation that requires a plain one."""


class Degenerate(GmpdError):
    pass


class NoFactor(GmpdError):
    """The digraph has no generalized cycle factor."""


class TooLarge(GmpdError):
    def __init__(self, n, threshold):
        super().__init__(f"instance size {n} exceeds exact-search threshold {threshold}")
        self.n = n
        self.threshold = threshold


class IllegalWalk(GmpdError):
    pass


class IllegalPair(IllegalWalk):
    def __init__(self, index, u, v):
        super().__init__(f"pair {index}: ({u},{v}) is neither an arc nor a same-partite pair")
        self.index = index
        self.pair = (u, v)


class DuplicateVertex(IllegalWalk):
    def __init__(self, v):
        super().__init__(f"vertex {v} appears more than once")
        self.vertex = v


class HypothesisUnmet(GmpdError):
    def __init__(self, index):
        super().__init__(f"path position {index} has no partner on the host cycle")
        self.index = index


class NoSharedPartite(GmpdError):
    pass


class OneDirectional(GmpdError):
    pass


class PreconditionUnmet(GmpdError):
    pass


class CliqueViolation(GmpdError):
    def __init__(self, witness):
        super().__init__(f"weight-1 arcs do not form disjoint complete digraphs: {witness}")
        self.witness = witness


class ParseError(GmpdError):
    def __init__(self, line, reason):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class UnknownGenerator(GmpdError):
    pass


class CertificateError(GmpdError):
    """A computed result failed its own correctness certificate."""
