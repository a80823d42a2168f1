"""The exit-code contract: InputError exits 1, any other exception exits 2."""

import importlib
import inspect
import pkgutil

import pytest

import chemfuse
from chemfuse import cli
from chemfuse.encoder import LayerOutOfRange
from chemfuse.errors import InputError
from chemfuse.metrics import DegenerateInput
from chemfuse.nn import NonFiniteInput, ShapeMismatch
from chemfuse.pipeline import FileUnreadable, TrainingDiverged

#: Exceptions only a chemfuse bug can raise; the CLI reports them with exit 2.
INTERNAL = {"ShapeMismatch", "NonFiniteInput", "NotScalarLoss", "FragmentOutOfRange",
            "NoMaskedPositions", "SingleFragmentBatch", "BatchTooSmall",
            "StrategyMismatch"}


def _exception_classes():
    """Every exception class defined in a chemfuse module."""
    for info in pkgutil.walk_packages(chemfuse.__path__, "chemfuse."):
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, BaseException) and cls.__module__ == info.name:
                yield cls


def test_every_exception_is_an_input_error_or_a_named_bug():
    classes = list(_exception_classes())
    assert INTERNAL <= {cls.__name__ for cls in classes}
    for cls in classes:
        assert issubclass(cls, InputError) != (cls.__name__ in INTERNAL), cls


def test_input_errors_keep_their_builtin_bases():
    assert issubclass(LayerOutOfRange, IndexError)
    assert issubclass(FileUnreadable, OSError)


@pytest.mark.parametrize("exc, code, err", [
    (TrainingDiverged("boom"), 1, "error: boom\n"),
    (DegenerateInput("boom"), 1, "error: boom\n"),
    (FileUnreadable("boom"), 1, "error: boom\n"),
    (ShapeMismatch("boom"), 2, "internal error: ShapeMismatch: boom\n"),
    (NonFiniteInput("boom"), 2, "internal error: NonFiniteInput: boom\n"),
])
def test_main_maps_input_errors_to_1_and_the_rest_to_2(monkeypatch, capsys,
                                                        exc, code, err):
    def command(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_tokenize", command)
    assert cli.main(["tokenize"]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)
