"""Exception hierarchy shared by all lsakit modules."""


class LsakitError(Exception):
    """Base class for all errors raised by lsakit."""


class DimensionMismatch(LsakitError):
    """Operands live over different coordinates, ranks or shapes."""


class IndexOutOfRange(LsakitError):
    """A coordinate or frame index is outside the valid range."""


class DegreeOverflow(LsakitError):
    """A product would exceed the configured total-degree limit."""


class ParseError(LsakitError):
    """Input text does not match the polynomial grammar."""

    def __init__(self, message: str, position: int, expected: str = ""):
        super().__init__(f"{message} at position {position}"
                         + (f" (expected {expected})" if expected else ""))
        self.message = message
        self.position = position
        self.expected = expected


class UnknownVariable(ParseError):
    """An identifier is not among the declared coordinates."""

    def __init__(self, name: str, position: int):
        ParseError.__init__(self, f"unknown variable '{name}'", position)
        self.name = name


class NotSquare(LsakitError):
    """A square matrix was required."""


class NonConstantDeterminant(LsakitError):
    """The determinant is not a constant, so the operation refuses to
    leave the polynomial ring (or cannot certify nondegeneracy)."""


class SingularMatrix(LsakitError):
    """The matrix has zero determinant."""


class NotLeftSymmetric(LsakitError):
    """The instance fails the left-symmetric axioms."""

    def __init__(self, message="instance fails the left-symmetric axioms",
                 report=None):
        super().__init__(message)
        self.report = report


class NotPointCase(LsakitError):
    """The operation is only defined over a zero-dimensional base."""


class InvalidDegree(LsakitError):
    """A form, cochain or multiderivation degree is outside the valid
    range."""


class ArityError(LsakitError):
    """The number of section arguments does not match the degree."""


class NotARepresentation(LsakitError):
    """The supplied pair of matrix families fails the representation
    identities."""


class NotAnAction(LsakitError):
    """The vector fields do not define an action of the algebra."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotNijenhuis(LsakitError):
    """The bundle endomorphism fails the Nijenhuis condition."""


class NotADeformation(LsakitError):
    """The degree-2 multiderivation fails the deformation equations."""

    def __init__(self, message="deformation equations fail", report=None):
        super().__init__(message)
        self.report = report


class OmegaNotClosed(LsakitError):
    """The canonical pairing 2-form is not closed on the candidate
    phase space."""

    def __init__(self, message, triple=None):
        super().__init__(message)
        self.triple = triple


class NotQuadratic(LsakitError):
    """The bilinear form fails the invariance identity."""


class NotIsomorphism(LsakitError):
    """The bundle map is not an isomorphism of the given structures."""


class FrameNotInKernel(LsakitError):
    """A supplied kernel frame section is not annihilated by the anchor."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAnIdeal(LsakitError):
    """The span of the supplied frame is not an ideal."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class FrameExpressionError(LsakitError):
    """A section cannot be (or could not be certified to be) expressed in
    the supplied polynomial frame."""


class SchemaError(LsakitError):
    """An instance file does not match the expected schema."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
