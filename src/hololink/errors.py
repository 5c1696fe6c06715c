"""Exception hierarchy. Two families matter to the CLI: scene problems
(exit 2) and numerical failures (exit 3)."""


class HololinkError(Exception):
    pass


class SceneError(HololinkError):
    """Bad input: malformed scenes, violated invariants, wrong method."""


class SceneInvalid(SceneError):
    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


class MethodInapplicable(SceneError):
    pass


class ParamOutOfDomain(SceneError):
    pass


class ParamAtPuncture(SceneError):
    pass


class NumericalError(HololinkError):
    """A computation could not produce a trustworthy value."""


class NonFiniteIntegrand(NumericalError):
    def __init__(self, message, param=None):
        self.param = param
        super().__init__(message)


class CurvesTooClose(NumericalError):
    pass


class PVNotConverging(NumericalError):
    pass


class CoincidentPoints(NumericalError):
    pass


class DegenerateProjection(NumericalError):
    pass


class DegenerateConfiguration(NumericalError):
    pass


class NonSimpleRoot(NumericalError):
    pass


class IdenticallyZero(NumericalError):
    pass


class DependentGradients(NumericalError):
    pass


class MultiplierNotPolynomial(NumericalError):
    """theta1 over the iterated residue at M = 1 leaves a remainder in C[t],
    or is not constant on a curve with no coordinate affine in t."""


class PoleCollision(NumericalError):
    pass


class LinesIntersect(NumericalError):
    pass


class NonGenericHyperplanes(NumericalError):
    pass


class CalibrationUnstable(NumericalError):
    pass
