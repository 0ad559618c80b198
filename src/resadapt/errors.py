"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible or malformed shapes."""


class ContractError(ValueError):
    """An input violates a documented precondition (not a shape issue)."""


class SingularityError(ArithmeticError):
    """A matrix factorization failed even after ridge escalation."""


class ConfigError(ValueError):
    """A config file, CLI argument combination, or spec object is invalid."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss. Carries the failing step and task.

    task is the task's position in the group train_task trained; a run
    names it by its index in the stream.
    """

    def __init__(self, step: int, task: int):
        self.step = step
        self.task = task
        super().__init__(f"non-finite loss at step {step} of task {task}")
