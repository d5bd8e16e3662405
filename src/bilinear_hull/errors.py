"""Exception types shared across the package."""


class BilinearHullError(Exception):
    """Base class for all errors raised by this package."""


class InfeasibleBounds(BilinearHullError):
    """The bound box and product bounds admit no feasible surface point."""


class DegenerateBounds(BilinearHullError):
    """A construction was asked for parameters that collapse it."""


class OutOfDomain(BilinearHullError):
    """A query point violates a precondition of the operation."""


class NegativeDiscriminant(BilinearHullError):
    """An envelope formula was evaluated outside the region where it is real.

    Discriminants down to -1e-12 are clamped to zero before this is raised;
    anything lower signals genuine misuse rather than roundoff.
    """


class Infeasible(BilinearHullError):
    """A linear program has no feasible point."""


class SolverError(BilinearHullError):
    """The LP oracle's simplex broke down numerically.

    Unlike Infeasible this certifies nothing about the LP: it reports an
    unbounded direction, a stuck artificial, an iteration limit or a basis
    whose solution misses the right-hand side.
    """
