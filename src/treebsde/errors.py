"""Exception hierarchy for the tree solvers."""


class TreeBsdeError(Exception):
    """Base class for all library errors."""


class IntensityTooLarge(TreeBsdeError):
    """Total mark intensity times the step size reaches 1; diffusion weights collapse."""


class SizeOverflow(TreeBsdeError):
    """Tree node count exceeds the configured cap."""


class LayerMismatch(TreeBsdeError):
    """Adapted values do not cover the layer an operation expects."""


class DensityNotPositive(TreeBsdeError):
    """A one-step change-of-measure density is non-positive on some branch."""

    def __init__(self, layer, node, branch, value):
        self.layer = layer
        self.node = node
        self.branch = branch
        self.value = value
        super().__init__(
            f"density {value:.6g} <= 0 at layer {layer}, node {node}, branch {branch}; "
            "the step size is too coarse for the requested drift/tilt"
        )


class AmbiguousNodeIds(TreeBsdeError):
    """Node ids would collide: with 10 or more marks the mark labels are not prefix-free."""


class NonFiniteState(TreeBsdeError):
    """Forward state propagation produced a non-finite value."""


class NonFiniteOutput(TreeBsdeError):
    """A result about to be written holds a NaN or an infinity."""


class UnknownForm(TreeBsdeError):
    """Generator/barrier functional form is not in the registry."""


class ImplicitSolveDiverged(TreeBsdeError):
    """The one-step drift solve has no unique root, as 1 - dt*b <= 0 (refine grid)."""


class SeparationViolated(TreeBsdeError):
    """Strict barrier separation fails at some node; double clamp order is ambiguous."""


class SaddleViolated(TreeBsdeError):
    """A selected control pair broke the saddle inequalities at a zero-gap node (solver bug)."""


class ComparisonViolated(TreeBsdeError):
    """A child's one-step weight is not strictly positive, so the penalization scheme is not monotone."""

    def __init__(self, child, weight):
        self.child = child
        self.weight = weight
        super().__init__(
            f"one-step weight {weight:.6g} <= 0 on child {child!r}: the comparison condition fails"
        )


class MonotonicityViolated(TreeBsdeError):
    """Penalization trace broke a structural monotonicity (solver bug)."""


class NoContraction(TreeBsdeError):
    """Picard iteration showed no geometric decay; increase the weight rate alpha."""


class WeightOverflow(TreeBsdeError):
    """The weighted norm's factor e^(alpha*t) overflows a float; lower the weight rate alpha."""


class TooLargeToEnumerate(TreeBsdeError):
    """Brute-force oracle size cap exceeded."""


class OracleInconsistent(TreeBsdeError):
    """A brute-force oracle broke an identity that holds by construction."""


class SingularSigma(TreeBsdeError):
    """Diffusion coefficient is zero/singular where its inverse is required."""


class ConfigError(TreeBsdeError):
    """Run configuration failed to parse; message carries the offending key path."""

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")
