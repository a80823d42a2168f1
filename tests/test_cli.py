"""CLI contract tests: formats, exit codes, stream discipline, idempotence."""

import contextlib
import ctypes
import io
import itertools
import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import struct
import sys
import time
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chemfuse.chem import canonical_key, parse_smiles
from chemfuse.cli import TRAIN_KEYS, _settings, build_parser, main
from chemfuse.encoder import ModelConfig
from chemfuse.errors import InputError
from chemfuse.masking import MaskConfig, sample_token_mask
from chemfuse.nn import CheckpointCorrupt
from chemfuse.pipeline import (
    ConfigError,
    Corpus,
    FinetuneResult,
    TrainConfig,
    embed_rows,
    load_pretrained,
    parse_molecule,
    pretrain,
    save_pretrained,
    x_cls_of,
)

from conftest import load_corpus_lines


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    ckpt = tmp_path_factory.mktemp("ckpt") / "model"
    smiles = ["CCO", "CC(=O)OC", "c1ccccc1", "CCN", "CCOCC", "CC(=O)NC"]
    corpus = Corpus(molecules=[parse_molecule(s) for s in smiles])
    pretrain(corpus, MaskConfig(seed=2),
             TrainConfig(epochs=1, batch_size=3, seed=2, warmup_steps=1),
             model_kwargs=dict(dim=16, transformer_layers=1, heads=2,
                               gnn_layers=1, gnn_width=8, fingerprint_width=64),
             checkpoint_dir=ckpt)
    return str(ckpt)


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tokenize_output(tmp_path, capsys):
    f = tmp_path / "in.smi"
    f.write_text("CCO\n")
    code, out, err = run(capsys, ["tokenize", str(f)])
    assert code == 0
    assert out == "C C O\n"
    assert err == ""


def test_fragment_format(tmp_path, capsys):
    f = tmp_path / "in.smi"
    f.write_text("CCO\nc1ccccc1C(=O)NC\n")
    code, out, err = run(capsys, ["fragment", str(f)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1\t0,0,0\t0,0,0"
    assert lines[1].startswith("2\t")


@pytest.mark.parametrize("argv", [["parse"], ["fragment"], ["fingerprint", "--width", "1024"],
                                  ["groups"], ["scaffold"], ["mask", "--seed", "7"]],
                         ids=" ".join)
def test_golden_output_matches_recorded(capsys, argv):
    data = Path(__file__).parent / "data"
    code, out, err = run(capsys, argv + [str(data / "golden_500.smi")])
    assert (code, err) == (0, "")
    assert out == (data / "cli_golden_500" / f"{argv[0]}.txt").read_text()


def test_similarity_identical(checkpoint, capsys):
    code, out, _ = run(capsys, ["similarity", "CCO", "CCO",
                                "--checkpoint", checkpoint])
    assert code == 0
    assert out.strip() == "1.000000"


def test_embed_row_width(tmp_path, checkpoint, capsys):
    f = tmp_path / "in.smi"
    f.write_text("CCO\nCCN\n")
    code, out, _ = run(capsys, ["embed", str(f), "--checkpoint", checkpoint])
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 2
    assert len(rows[0].split("\t")) == 16


def test_attn_dump_rows_sum_to_one(tmp_path, checkpoint, capsys):
    f = tmp_path / "in.smi"
    f.write_text("CCO\n")
    code, out, _ = run(capsys, ["attn-dump", str(f), "--checkpoint", checkpoint,
                                "--layer", "0"])
    assert code == 0
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    for row in rows:
        values = [float(v) for v in row.split("\t")]
        assert abs(sum(values) - 1.0) < 1e-9


def test_metrics_cls(tmp_path, capsys):
    f = tmp_path / "scores.tsv"
    f.write_text("0.9\t1\n0.2\t0\n0.8\t1\n0.1\t0\n")
    code, out, _ = run(capsys, ["metrics", str(f), "--task", "cls"])
    assert code == 0
    assert out == "roc_auc\t1.000000\n"


def test_metrics_reg(tmp_path, capsys):
    f = tmp_path / "preds.tsv"
    f.write_text("1.0\t1.0\n2.0\t2.5\n3.0\t2.0\n")
    code, out, _ = run(capsys, ["metrics", str(f), "--task", "reg"])
    assert code == 0
    names = [line.split("\t")[0] for line in out.splitlines()]
    assert names == ["rmse", "mse", "ci"]


@pytest.mark.parametrize("task,rows,bad_line", [("cls", "abc\n", 1),
                                                ("reg", "1.0\t2.0\n0.5\tx\n", 2),
                                                ("reg", "0.5\n", 1),
                                                ("reg", "1.0\t2.0\nnan\t1.0\n", 2),
                                                ("cls", "0.9\t1\n0.2\tinf\n", 2),
                                                ("cls", "0.9\t1\n0.2\t0.7\n", 2),
                                                ("cls", "0.9\t2\n0.2\t0\n", 1),
                                                ("cls", "0.9\t1\n# c\n0.2\t-1\n", 3)])
def test_exit_code_metrics_bad_row(tmp_path, capsys, task, rows, bad_line):
    f = tmp_path / "scores.tsv"
    f.write_text(rows)
    code, out, err = run(capsys, ["metrics", str(f), "--task", task])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert f"scores.tsv:{bad_line}:" in err


def test_exit_code_input_error(tmp_path, capsys):
    f = tmp_path / "in.smi"
    f.write_text("C1CC\n")      # unclosed ring
    code, out, err = run(capsys, ["parse", str(f)])
    assert code == 1
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("command", ["embed", "attn-dump"])
def test_exit_code_overlong_molecule(checkpoint, capsys, monkeypatch, command):
    code, out, err = run(capsys, [command, "--checkpoint", checkpoint],
                         stdin="C" * 300 + "\n", monkeypatch=monkeypatch)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "max_positions" in err


@pytest.mark.parametrize("flags", [["--r-t", "5"], ["--r-f", "-1"]])
def test_exit_code_mask_bad_ratio(capsys, monkeypatch, flags):
    code, out, err = run(capsys, ["mask"] + flags, stdin="CCO\n", monkeypatch=monkeypatch)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


#: Out-of-grammar bracket atoms: a 23-digit charge and a 20-digit H count.
HUGE_BRACKETS = "[C-99999999999999999999999]CC[NH99999999999999999999]"


@pytest.mark.parametrize("command", ["parse", "groups", "fragment", "fingerprint",
                                     "mask", "scaffold"])
def test_exit_code_bracket_outside_the_grammar(capsys, monkeypatch, command):
    code, out, err = run(capsys, [command], stdin=HUGE_BRACKETS + "\n",
                         monkeypatch=monkeypatch)
    assert code == 1
    assert out == ""
    assert err == "error: malformed bracket atom '[C-99999999999999999999999]'\n"


def test_tokenize_does_not_check_bracket_contents(capsys, monkeypatch):
    code, out, _ = run(capsys, ["tokenize"], stdin=HUGE_BRACKETS + "\n",
                       monkeypatch=monkeypatch)
    assert code == 0
    assert out == "[C-99999999999999999999999] C C [NH99999999999999999999]\n"


@pytest.mark.parametrize("flags", [["--width", "0"], ["--width", "100"],
                                   ["--radius", "-1"]])
def test_exit_code_fingerprint_bad_flags(capsys, monkeypatch, flags):
    code, out, err = run(capsys, ["fingerprint"] + flags, stdin="CCO\n",
                         monkeypatch=monkeypatch)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_fingerprint_radius_past_every_environment_stops(capsys, monkeypatch):
    stdin = "CCO\nCC(=O)O\n[Na+].[Cl-]\n"
    outs = [run(capsys, ["fingerprint", "--radius", radius, "--width", "64"], stdin=stdin,
                monkeypatch=monkeypatch) for radius in ("3", str(10 ** 9))]
    assert outs[0] == outs[1]
    assert outs[0][0] == 0 and len(outs[0][1].splitlines()) == 3


def _embed_lines() -> list[str]:
    """23 lines: the first alone, two full packs and a part pack, with the
    one-atom molecules C (line 7) and [NH4+] (line 12, opening a pack)."""
    lines = load_corpus_lines("golden_500.smi")[:21]
    lines.insert(6, "C")
    lines.insert(11, "[NH4+]")
    return lines


def test_embed_packs_match_one_molecule_rows(checkpoint, capsys, monkeypatch):
    lines = _embed_lines()
    model, vocab, _, _ = load_pretrained(checkpoint)
    molecules = [parse_molecule(s) for s in lines]
    rows = list(embed_rows(model, vocab, lines))
    assert len(rows) == len(lines)
    for row, mol in zip(rows, molecules):
        alone = x_cls_of(model, vocab, [mol]).data[0]
        np.testing.assert_allclose(row, alone, rtol=0, atol=1e-12)
        if mol.graph.m >= 2:
            np.testing.assert_array_equal(row, alone)
    code, out, err = run(capsys, ["embed", "--checkpoint", checkpoint],
                         stdin="\n".join(lines) + "\n", monkeypatch=monkeypatch)
    assert code == 0 and err == ""
    assert out.splitlines() == ["\t".join(f"{v:.6f}" for v in row) for row in rows]


@pytest.mark.parametrize("bad_line,bad", [(5, "C1CC"), (13, "C" * 300)])
def test_embed_prints_rows_before_a_bad_line(checkpoint, capsys, monkeypatch,
                                             bad_line, bad):
    lines = _embed_lines()
    _, clean, _ = run(capsys, ["embed", "--checkpoint", checkpoint],
                      stdin="\n".join(lines) + "\n", monkeypatch=monkeypatch)
    lines[bad_line - 1] = bad
    code, out, err = run(capsys, ["embed", "--checkpoint", checkpoint],
                         stdin="\n".join(lines) + "\n", monkeypatch=monkeypatch)
    assert code == 1
    assert out.splitlines() == clean.splitlines()[:bad_line - 1]
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_embed_writes_the_first_row_before_reading_the_second_line(checkpoint):
    out = io.StringIO()
    rows_written_when_pulled = []

    class Stdin:
        def __iter__(self):
            for line in ("CCO\n", "CCN\n", "CC(=O)OC\n"):
                rows_written_when_pulled.append(out.getvalue().count("\n"))
                yield line

    with mock.patch.object(sys, "stdin", Stdin()), contextlib.redirect_stdout(out):
        code = main(["embed", "--checkpoint", checkpoint])
    assert code == 0
    assert rows_written_when_pulled[:2] == [0, 1]
    assert len(out.getvalue().splitlines()) == 3


def test_embed_prints_a_row_as_per_field_six_decimal_formats_do(checkpoint, capsys,
                                                                 monkeypatch):
    """cmd_embed formats a row with one ``%`` operation; the bytes are those
    of one ``f"{v:.6f}"`` per field, rounding edges and signed zeros too."""
    from chemfuse import cli

    edges = [-0.0, -1e-9, 4.9999995e-7, -4.9999995e-7, 5e-7, 123456.789]
    rows = [np.resize(np.array(edges), 16), np.random.default_rng(0).normal(size=16)]
    monkeypatch.setattr(cli, "embed_rows", lambda model, vocab, smiles: (row for row in rows))
    code, out, err = run(capsys, ["embed", "--checkpoint", checkpoint], stdin="CCO\n",
                         monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    assert out.splitlines() == ["\t".join(f"{v:.6f}" for v in row) for row in rows]
    assert out.splitlines()[0].split("\t")[:6] == [
        "-0.000000", "-0.000000", "0.000000", "-0.000000", "0.000000", "123456.789000"]


def test_embed_without_a_full_pack_does_not_import_multiprocessing(checkpoint, tmp_path):
    source = tmp_path / "three.smi"
    source.write_text("CCO\nCCN\nCC(=O)OC\n")
    script = ("import sys; from chemfuse.cli import main; "
              f"code = main(['embed', {str(source)!r}, '--checkpoint', {checkpoint!r}]); "
              "sys.exit(code or 'multiprocessing' in sys.modules)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0 and len(proc.stdout.splitlines()) == 3


linux_only = pytest.mark.skipif(sys.platform != "linux",
                                reason="the embed helper is forked on Linux only")


def _usable_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _three_pack_lines() -> list[str]:
    """36 lines: the first alone, three full packs and a part pack, with the
    one-atom molecules C (line 4, first pack) and [NH4+] (line 25, third)."""
    lines = load_corpus_lines("golden_500.smi")[:34]
    lines.insert(3, "C")
    lines.insert(24, "[NH4+]")
    return lines


def _watch_helpers(monkeypatch) -> list:
    """Every embed helper started from now on; ``served`` counts the packs
    each one shared."""
    from chemfuse import pipeline

    helpers = []

    class Watched(pipeline._Helper):
        def __init__(self, *args):
            super().__init__(*args)
            self.served = 0
            helpers.append(self)

        def pack_rows(self, *args):
            rows = super().pack_rows(*args)
            self.served += 1
            return rows

    monkeypatch.setattr(pipeline, "_Helper", Watched)
    return helpers


def _assert_no_helper_left(helpers) -> None:
    assert multiprocessing.active_children() == []
    for helper in helpers:
        with pytest.raises(ProcessLookupError):  # stopped and reaped
            os.kill(helper.process.pid, 0)


@linux_only
def test_embed_on_two_cpus_prints_what_one_cpu_prints(checkpoint, capsys, monkeypatch):
    stdin = "\n".join(_three_pack_lines()) + "\n"
    helpers = _watch_helpers(monkeypatch)
    outs = []
    for cpus in (1, 2):
        _usable_cpus(monkeypatch, cpus)
        outs.append(run(capsys, ["embed", "--checkpoint", checkpoint], stdin=stdin,
                        monkeypatch=monkeypatch))
    assert [helper.served for helper in helpers] == [3]
    _assert_no_helper_left(helpers)
    assert outs[0] == outs[1]
    assert outs[0][0] == 0 and len(outs[0][1].splitlines()) == 36


@linux_only
@pytest.mark.parametrize("side", ["helper", "parent"])
@pytest.mark.parametrize("bad", ["C1CC", "C" * 300])
def test_embed_prints_rows_before_a_bad_line_on_either_side(checkpoint, capsys, monkeypatch,
                                                            bad, side):
    """Line 15 is at position 3 of the second full pack (lines 12-21); the
    split is forced so that it falls in the ``side`` half."""
    from chemfuse import pipeline

    lines = _three_pack_lines()
    _usable_cpus(monkeypatch, 1)
    _, clean, _ = run(capsys, ["embed", "--checkpoint", checkpoint],
                      stdin="\n".join(lines) + "\n", monkeypatch=monkeypatch)
    lines[14] = bad
    theirs = [1, 3, 5, 7, 9] if side == "helper" else [0, 2, 4, 6, 8]
    monkeypatch.setattr(pipeline, "_halves", lambda pack: (
        theirs, [i for i in range(len(pack)) if i not in theirs]))
    _usable_cpus(monkeypatch, 2)
    helpers = _watch_helpers(monkeypatch)
    code, out, err = run(capsys, ["embed", "--checkpoint", checkpoint],
                         stdin="\n".join(lines) + "\n", monkeypatch=monkeypatch)
    assert code == 1
    assert out.splitlines() == clean.splitlines()[:14]
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert [helper.served for helper in helpers] == [1]
    _assert_no_helper_left(helpers)


@linux_only
def test_embed_helper_is_gone_however_embedding_ends(checkpoint, monkeypatch):
    """A full run, a generator closed after 12 rows, a bad line, and a helper
    killed after 12 rows, whose run then ends in one process with the same
    rows."""
    model, vocab, _, _ = load_pretrained(checkpoint)
    lines = _three_pack_lines()
    _usable_cpus(monkeypatch, 1)
    alone = np.array(list(embed_rows(model, vocab, lines)))
    _usable_cpus(monkeypatch, 2)
    helpers = _watch_helpers(monkeypatch)

    np.testing.assert_allclose(list(embed_rows(model, vocab, lines)), alone, rtol=0, atol=1e-12)
    _assert_no_helper_left(helpers)

    rows = embed_rows(model, vocab, lines)
    np.testing.assert_allclose([next(rows) for _ in range(12)], alone[:12], rtol=0, atol=1e-12)
    rows.close()
    _assert_no_helper_left(helpers)

    with pytest.raises(InputError):
        list(embed_rows(model, vocab, lines[:14] + ["C1CC"] + lines[15:]))
    _assert_no_helper_left(helpers)

    rows = embed_rows(model, vocab, lines)
    got = [next(rows) for _ in range(12)]
    pid = helpers[-1].process.pid
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 10
    while not os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT | os.WNOHANG):  # dead, unreaped
        assert time.monotonic() < deadline
        time.sleep(0.01)
    got += list(rows)
    np.testing.assert_allclose(got, alone, rtol=0, atol=1e-12)
    assert [helper.served for helper in helpers] == [3, 2, 1, 2]
    _assert_no_helper_left(helpers)


@linux_only
def test_embed_runs_blas_on_one_thread_only_while_it_shares_a_pack(checkpoint, monkeypatch):
    """Two processes of two OpenBLAS threads each on two CPUs ran several
    times slower than one; the caller's count holds while rows are yielded."""
    from chemfuse import pipeline
    from chemfuse.nn.blas import openblas, set_blas_threads

    threads = openblas("get_num_threads", ctypes.c_int)
    if threads is None:
        pytest.skip("numpy has no bundled OpenBLAS")
    encoding, inline_rows = [], pipeline._inline_rows
    monkeypatch.setattr(pipeline, "_inline_rows",
                        lambda *args: encoding.append(threads()) or inline_rows(*args))
    model, vocab, _, _ = load_pretrained(checkpoint)
    _usable_cpus(monkeypatch, 2)
    helpers = _watch_helpers(monkeypatch)
    old = set_blas_threads(2)
    try:
        rows = embed_rows(model, vocab, _three_pack_lines())
        seen = [threads() for _ in itertools.islice(rows, 12)]
        rows.close()
        assert seen == [2] * 12 and encoding == [2, 1, 1] and threads() == 2
    finally:
        set_blas_threads(old)
    assert [helper.served for helper in helpers] == [2]
    _assert_no_helper_left(helpers)


@pytest.mark.parametrize("smiles", ["C(.)", "CC(.)"])
@pytest.mark.parametrize("command", ["parse", "fragment", "groups", "scaffold", "fingerprint",
                                     "mask", "embed", "attn-dump"])
def test_branch_without_an_atom_exits_1(checkpoint, capsys, monkeypatch, command, smiles):
    argv = [command] + (["--checkpoint", checkpoint]
                        if command in ("embed", "attn-dump") else [])
    code, out, err = run(capsys, argv, stdin=smiles + "\n", monkeypatch=monkeypatch)
    assert (code, out, err) == (1, "", "error: empty branch '()'\n")


def test_diverging_pretrain_prints_one_error_line_and_no_warning(tmp_path):
    """numpy's overflow warnings on the way to the NaN are dropped with the
    divergence; run in a fresh interpreter so that stderr is the real one."""
    import subprocess

    corpus = tmp_path / "six.smi"
    corpus.write_text("\n".join(load_corpus_lines("toy_200.smi")[:6]) + "\n")
    config = tmp_path / "small.cfg"
    config.write_text("dim = 16\nheads = 2\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "chemfuse.cli", "pretrain", str(corpus),
         "--checkpoint", str(tmp_path / "ck"), "--config", str(config),
         "--lr", "1e300", "--epochs", "3", "--batch-size", "3"],
        capture_output=True, text=True, env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        timeout=120)
    assert proc.returncode == 1
    ingested, error = proc.stderr.splitlines()
    assert ingested.startswith("ingested ")
    assert error.startswith("error: non-finite loss at epoch 0 batch ")


@pytest.mark.parametrize("strategy", ["single", "conditional"])
def test_pretrain_ablation_strategies_log_every_step_and_embed(tmp_path, capsys, strategy):
    """An ablation run logs one finite TSV line per step and leaves a
    checkpoint that ``embed`` loads."""
    corpus = tmp_path / "six.smi"
    corpus.write_text("\n".join(load_corpus_lines("toy_200.smi")[1:7]) + "\n")
    config = tmp_path / "tiny.cfg"
    config.write_text("dim = 16\nheads = 2\ntransformer_layers = 1\ngnn_layers = 1\n"
                      "gnn_width = 8\nfingerprint_width = 64\n")
    ckpt = str(tmp_path / "ck")
    code, out, err = run(capsys, ["pretrain", str(corpus), "--checkpoint", ckpt,
                                  "--config", str(config), "--mask-strategy", strategy,
                                  "--epochs", "2", "--batch-size", "3", "--seed", "4"])
    assert code == 0, err
    header, *lines = out.splitlines()
    assert header.split("\t")[:2] == ["step", "l_t"]
    assert [line.split("\t")[0] for line in lines] == ["0", "1", "2", "3"]
    for line in lines:
        assert all(np.isfinite(float(v)) for v in line.split("\t")[1:7])
    assert err.endswith("(4 steps)\n")
    code, out, _ = run(capsys, ["embed", str(corpus), "--checkpoint", ckpt])
    assert code == 0
    assert [len(row.split("\t")) for row in out.splitlines()] == [16] * 6


@pytest.mark.parametrize("command", ["fragment", "embed"])
def test_exit_code_leading_dot(checkpoint, capsys, monkeypatch, command):
    argv = [command] + (["--checkpoint", checkpoint] if command == "embed" else [])
    code, out, err = run(capsys, argv, stdin=".C\n", monkeypatch=monkeypatch)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


SMILES_ALPHABET = "CNOSPFIBrlcnosp[]()=#$:/\\@+-.%0123456789H* "
#: Score/label rows for ``metrics``: numbers, tabs, row breaks, and the
#: letters of ``nan`` and ``inf``.
METRICS_ALPHABET = "0123456789.-+e\t\n nafi"
SMILES_COMMANDS = ["tokenize", "parse", "fragment", "groups", "scaffold", "fingerprint",
                   "mask", "embed", "attn-dump"]
METRICS_COMMANDS = ["metrics --task cls", "metrics --task reg"]


@settings(max_examples=300, deadline=None)
@example(case=("fragment", ".C"))
@example(case=("fragment", "B()"))
@example(case=("embed", "B()"))
@example(case=("parse", "C()C"))
@example(case=("metrics --task cls", "abc"))
@example(case=("metrics --task reg", "0.5\tx"))
@given(case=st.one_of(
    st.tuples(st.sampled_from(SMILES_COMMANDS),
              st.text(alphabet=SMILES_ALPHABET, min_size=1, max_size=14)),
    st.tuples(st.sampled_from(METRICS_COMMANDS),
              st.text(alphabet=METRICS_ALPHABET, min_size=1, max_size=14))))
def test_stdin_commands_exit_0_or_1(checkpoint, case):
    command, line = case
    argv = command.split() + (["--checkpoint", checkpoint]
                              if command in ("embed", "attn-dump") else [])
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(line + "\n")), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), err.getvalue()
    if code == 1:
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("error: ")


#: Every subcommand argv that reads a file; ``{bad}`` is the unreadable one.
FILE_READING_ARGVS = [
    [name, "{bad}"] for name in ("tokenize", "parse", "fragment", "groups", "scaffold",
                                 "fingerprint", "mask", "metrics")
] + [
    ["embed", "{bad}", "--checkpoint", "{ckpt}"],
    ["attn-dump", "{bad}", "--checkpoint", "{ckpt}"],
    ["pretrain", "{bad}", "--checkpoint", "{out}"],
    ["pretrain", "{smi}", "--checkpoint", "{out}", "--config", "{bad}"],
    ["finetune", "{bad}", "--checkpoint", "{ckpt}"],
    ["finetune", "{task}", "--checkpoint", "{ckpt}", "--config", "{bad}"],
]


@pytest.mark.parametrize("bad_kind", ["directory", "not_utf8"])
@pytest.mark.parametrize("argv", FILE_READING_ARGVS, ids=" ".join)
def test_exit_code_unreadable_input(tmp_path, checkpoint, capsys, argv, bad_kind):
    bad = tmp_path / "bad"
    if bad_kind == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"\xff\xfeCCO\n")
    smi = tmp_path / "c.smi"
    smi.write_text("CCO\nCCN\n")
    paths = dict(bad=bad, ckpt=checkpoint, out=tmp_path / "out", smi=smi,
                 task=_twelve_row_task(tmp_path))
    code, out, err = run(capsys, [arg.format(**paths) for arg in argv])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot read {bad}: ")


@pytest.mark.parametrize("command", ["mask", "pretrain", "finetune"])
def test_exit_code_negative_seed(tmp_path, checkpoint, capsys, monkeypatch, command):
    smi = tmp_path / "c.smi"
    smi.write_text("CCO\nCCN\n")
    argv = {"mask": ["mask"],
            "pretrain": ["pretrain", str(smi), "--checkpoint", str(tmp_path / "out")],
            "finetune": ["finetune", str(_twelve_row_task(tmp_path)),
                         "--checkpoint", checkpoint, "--split", "random"]}[command]
    code, out, err = run(capsys, argv + ["--seed", "-1"], stdin="CCO\n",
                         monkeypatch=monkeypatch)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "seed must be at least 0, got -1" in err


@pytest.mark.parametrize("config", ["oops\n", "epochs = abc\n", "r_t = 5\n",
                                    "dim = 10\nheads = 4\n", "heads = 0\n",
                                    "epochs = 0\n", "epochs = -2\n", "batch_size = 0\n",
                                    "warmup_steps = -1\n", "lr = nan\n", "lr = 0\n",
                                    "lr = -1\n", "weight_decay = inf\n",
                                    "weight_decay = -0.5\n"])
def test_exit_code_bad_config(tmp_path, capsys, config):
    corpus = tmp_path / "c.smi"
    corpus.write_text("CCO\nCCN\n")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config)
    code, out, err = run(capsys, ["pretrain", str(corpus), "--checkpoint",
                                  str(tmp_path / "ckpt"), "--config", str(cfg)])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_exit_code_unknown_config_key(tmp_path, checkpoint, capsys, command):
    """A misspelt key exits 1 naming the key and the file, before any work,
    instead of running with the default it was meant to replace."""
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("epochz = 1\nbatch_size = 50\n")
    smi = tmp_path / "c.smi"
    smi.write_text("CCO\nCCN\n")
    argv = {"pretrain": ["pretrain", str(smi), "--checkpoint", str(tmp_path / "out")],
            "finetune": ["finetune", str(_twelve_row_task(tmp_path)),
                         "--checkpoint", checkpoint]}[command]
    code, out, err = run(capsys, argv + ["--config", str(cfg)])
    assert (code, out) == (1, "")
    assert err == f"error: unknown config key 'epochz' in {cfg}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["dim", "gnn_width", "max_positions", "fingerprint_width"])
def test_exit_code_setting_too_large_to_allocate(tmp_path, capsys, key):
    # numpy refuses a dimension past its largest before allocating anything.
    corpus = tmp_path / "c.smi"
    corpus.write_text("CCO\nCCN\n")
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"{key} = {2 ** 70}\n")
    code, out, err = run(capsys, ["pretrain", str(corpus), "--checkpoint",
                                  str(tmp_path / "ckpt"), "--config", str(cfg)])
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1].startswith("error: cannot allocate parameter ")
    assert "Maximum allowed dimension exceeded" in err


def test_exit_code_fingerprint_too_wide_to_allocate(capsys, monkeypatch):
    code, out, err = run(capsys, ["fingerprint", "--width", str(2 ** 70)], stdin="CCO\n",
                         monkeypatch=monkeypatch)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot allocate fingerprints of width {2 ** 70}: ")
    numpy_zeros = np.zeros

    def zeros(shape, *args, **kwargs):
        # Fails as numpy does for an array larger than the machine can hold.
        if any(n >= 2 ** 40 for n in np.atleast_1d(shape)):
            raise MemoryError("Unable to allocate 16.0 TiB")
        return numpy_zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", zeros)
    code, out, err = run(capsys, ["fingerprint", "--width", str(2 ** 44)], stdin="CCO\n",
                         monkeypatch=monkeypatch)
    assert (code, out) == (1, "")
    assert err == f"error: cannot allocate fingerprints of width {2 ** 44}: " \
        "Unable to allocate 16.0 TiB\n"


def test_mask_makes_no_fingerprints_or_groups(capsys, monkeypatch):
    def unused(*args, **kwargs):
        raise AssertionError("mask prints no fingerprint or group")

    monkeypatch.setattr("chemfuse.pipeline.morgan_fingerprint", unused)
    monkeypatch.setattr("chemfuse.pipeline.detect_functional_groups", unused)
    code, out, _ = run(capsys, ["mask", "--seed", "3"], stdin="CC(=O)OC\nc1ccccc1N\n",
                       monkeypatch=monkeypatch)
    assert code == 0 and len(out.splitlines()) == 2


@pytest.mark.parametrize("flags,expected", [([], 3), (["--seed", "0"], 0)])
def test_seed_precedence_flag_then_config(flags, expected):
    args = build_parser().parse_args(["pretrain", "c.smi", "--checkpoint", "ck"] + flags)
    assert TrainConfig(**_settings(args, {"seed": "3"}, TRAIN_KEYS)).seed == expected
    assert TrainConfig(**_settings(args, {}, TRAIN_KEYS)).seed == (expected if flags else 7)


def test_cli_defaults_are_the_library_defaults(tmp_path, checkpoint, capsys, monkeypatch):
    args = build_parser().parse_args(["pretrain", "c.smi", "--checkpoint", "ck"])
    assert TrainConfig(**_settings(args, {}, TRAIN_KEYS)) == TrainConfig()
    passed = {}

    def stub_finetune(model, vocab, task, **settings):
        passed.update(settings)
        return FinetuneResult(metrics={}, best_epoch=0, best_valid_loss=0.0,
                              split_sizes=(0, 0, 0))

    monkeypatch.setattr("chemfuse.cli.finetune", stub_finetune)
    code, _, _ = run(capsys, ["finetune", str(_twelve_row_task(tmp_path)),
                              "--checkpoint", checkpoint])
    assert code == 0
    assert passed == {"tune_encoder": True}
    configs = []

    def recording_token_mask(rec, cfg, rng):
        configs.append(cfg)
        return sample_token_mask(rec, cfg, rng)

    monkeypatch.setattr("chemfuse.cli.sample_token_mask", recording_token_mask)
    code, _, _ = run(capsys, ["mask"], stdin="CCO\n", monkeypatch=monkeypatch)
    assert code == 0
    assert configs == [MaskConfig()]


def test_scaffold_of_a_long_chain(capsys, monkeypatch):
    smiles = "C1CC1" + "C" * 1500 + "C1CC1"
    code, out, err = run(capsys, ["scaffold"], stdin=smiles + "\n",
                         monkeypatch=monkeypatch)
    assert code == 0 and err == ""
    written, _ = parse_smiles(out.strip())
    assert canonical_key(written) == canonical_key(parse_smiles(smiles)[0])


@pytest.mark.parametrize("blocker", ["file", "under_file"])
def test_exit_code_unusable_checkpoint_path(tmp_path, capsys, blocker):
    corpus = tmp_path / "c.smi"
    corpus.write_text("CCO\nCCN\n")
    ckpt = tmp_path / "file"
    ckpt.write_text("")
    if blocker == "under_file":
        ckpt = ckpt / "sub"
    code, out, err = run(capsys, ["pretrain", str(corpus), "--checkpoint", str(ckpt)])
    assert code == 1
    assert out == ""   # no step ran: not even the log header was written
    lines = err.splitlines()
    assert [line for line in lines if "error" in line] == lines[-1:]
    assert lines[-1].startswith(f"error: cannot create checkpoint directory {ckpt}: ")


def test_exit_code_checkpoint_manifest_is_a_directory(tmp_path, capsys):
    corpus = tmp_path / "c.smi"
    corpus.write_text("CCO\nCCN\nCC(=O)OC\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim = 16\ntransformer_layers = 1\nheads = 2\n"
                   "gnn_layers = 1\ngnn_width = 8\nfingerprint_width = 64\n")
    ckpt = tmp_path / "ck"
    (ckpt / "manifest.json").mkdir(parents=True)
    code, _, err = run(capsys, ["pretrain", str(corpus), "--checkpoint", str(ckpt),
                                "--config", str(cfg), "--epochs", "1"])
    assert code == 1
    lines = err.splitlines()
    assert [line for line in lines if "error" in line] == lines[-1:]
    assert lines[-1].startswith(f"error: cannot write checkpoint {ckpt}: ")
    assert not [p.name for p in ckpt.iterdir() if p.name.endswith(".tmp")]


def test_failed_checkpoint_write_keeps_the_previous_checkpoint(tmp_path, checkpoint,
                                                               monkeypatch):
    ckpt = tmp_path / "ck"
    shutil.copytree(checkpoint, ckpt)
    before = {p.name: p.read_bytes() for p in ckpt.iterdir()}
    model, vocab, context_vocab, _ = load_pretrained(ckpt)
    for param in model.params.values():
        param.data = param.data + 1.0
    write_bytes = Path.write_bytes
    writes = []

    def second_write_fails(self, data):
        writes.append(self)
        if len(writes) == 2:
            write_bytes(self, data[:7])   # a partial file, as on a full disk
            raise OSError(28, "No space left on device")
        return write_bytes(self, data)

    monkeypatch.setattr(Path, "write_bytes", second_write_fails)
    with pytest.raises(ConfigError, match=f"cannot write checkpoint {ckpt}: "):
        save_pretrained(ckpt, model, vocab, context_vocab, step=99)
    monkeypatch.undo()
    assert len(writes) == 2
    assert {p.name: p.read_bytes() for p in ckpt.iterdir()} == before
    load_pretrained(ckpt)


@pytest.mark.parametrize("smiles", ["C C", "C&C", "C\u00c4"])
def test_tokenize_rejects_what_parse_rejects(capsys, monkeypatch, smiles):
    results = [run(capsys, [command], stdin=smiles + "\n", monkeypatch=monkeypatch)
               for command in ("tokenize", "parse")]
    assert results[0] == results[1]
    code, out, err = results[0]
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(("error: unsupported character ", "error: unknown atom symbol "))


def test_exit_code_stdin_not_utf8(capsys, monkeypatch):
    # What Python makes of stdin under the C and C.UTF-8 locales.
    stdin = io.TextIOWrapper(io.BytesIO(b"CCO\n\xff\n"), encoding="utf-8",
                             errors="surrogateescape")
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, ["tokenize"])
    assert code == 1
    assert out == "C C O\n"
    assert err == ("error: cannot read <stdin>: 'utf-8' codec can't decode byte "
                   "0xff in position 0: invalid start byte\n")


def test_exit_code_attn_dump_layer_out_of_range(checkpoint, capsys, monkeypatch):
    code, _, err = run(capsys, ["attn-dump", "--checkpoint", checkpoint,
                                "--layer", "5"], stdin="CCO\n", monkeypatch=monkeypatch)
    assert code == 1
    assert err == "error: layer 5 outside [0, 1)\n"


def test_exit_code_bad_flags(capsys):
    code, _, err = run(capsys, ["pretrain"])   # missing required args
    assert code == 1
    code, _, _ = run(capsys, ["not-a-command"])
    assert code == 1


def test_idempotent_output(tmp_path, capsys):
    f = tmp_path / "in.smi"
    f.write_text("CC(=O)OC\nc1ccncc1\n")
    _, out1, _ = run(capsys, ["fragment", str(f)])
    _, out2, _ = run(capsys, ["fragment", str(f)])
    assert out1 == out2


def test_mask_dump_deterministic(tmp_path, capsys):
    f = tmp_path / "in.smi"
    f.write_text("CC(=O)OC\n")
    _, out1, _ = run(capsys, ["mask", str(f), "--seed", "9"])
    _, out2, _ = run(capsys, ["mask", str(f), "--seed", "9"])
    assert out1 == out2
    assert "fragment_modality=" in out1


def test_pretrain_cli_writes_checkpoint(tmp_path, capsys):
    corpus = tmp_path / "c.smi"
    corpus.write_text("CCO\nCCN\nCC(=O)OC\nc1ccccc1\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim = 16\ntransformer_layers = 1\nheads = 2\n"
                   "gnn_layers = 1\ngnn_width = 8\nfingerprint_width = 64\n")
    ckpt = tmp_path / "ckpt"
    code, out, err = run(capsys, [
        "pretrain", str(corpus), "--checkpoint", str(ckpt),
        "--config", str(cfg), "--epochs", "1", "--batch-size", "2",
        "--seed", "3"])
    assert code == 0
    assert (ckpt / "manifest.json").exists()
    assert out.splitlines()[0].startswith("step\t")     # loss log on stdout
    assert "ingested 4 molecules" in err


def _twelve_row_task(tmp_path):
    rows = []
    for i, s in enumerate(["CCO", "CCN", "CCC", "CCS", "COC", "CCCC",
                           "CCCO", "CCCN", "CCOC", "CCCS", "CC(C)C", "CCCCC"]):
        rows.append(f"{s}\t{i % 2}")
    f = tmp_path / "task.tsv"
    f.write_text("\n".join(rows))
    return f


def test_finetune_cli(tmp_path, checkpoint, capsys):
    f = _twelve_row_task(tmp_path)
    code, out, err = run(capsys, [
        "finetune", str(f), "--checkpoint", checkpoint, "--task", "cls",
        "--split", "random", "--epochs", "1", "--freeze-encoder"])
    assert code == 0
    assert out.startswith("roc_auc\t")
    # The one-row test split holds one class: one diagnostic line, no
    # Python warning text.
    warned = [line for line in err.splitlines() if line.startswith("warning: ")]
    assert len(warned) == 1
    assert warned[0].startswith("warning: ROC-AUC undefined on the test split: ")
    assert "UserWarning" not in err


def test_exit_code_finetune_bad_config_weight_decay(tmp_path, checkpoint, capsys):
    f = _twelve_row_task(tmp_path)
    cfg = tmp_path / "wd.cfg"
    cfg.write_text("weight_decay = -1\n")
    code, out, err = run(capsys, [
        "finetune", str(f), "--checkpoint", checkpoint, "--split", "random",
        "--epochs", "1", "--config", str(cfg)])
    assert code == 1
    assert out == ""
    assert err == "error: weight_decay must be finite and non-negative, got -1.0\n"


def test_finetune_config_seed_matches_flag(tmp_path, checkpoint, capsys):
    f = _twelve_row_task(tmp_path)
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = 5\n")
    common = ["finetune", str(f), "--checkpoint", checkpoint, "--task", "reg",
              "--split", "random", "--epochs", "2"]
    code_cfg, out_cfg, _ = run(capsys, common + ["--config", str(cfg)])
    code_flag, out_flag, _ = run(capsys, common + ["--seed", "5"])
    code_default, out_default, _ = run(capsys, common)
    assert code_cfg == code_flag == code_default == 0
    assert out_cfg == out_flag
    assert out_cfg != out_default


def test_finetune_accepts_the_pretrain_keys_of_a_shared_config(tmp_path, checkpoint, capsys):
    f = _twelve_row_task(tmp_path)
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("seed = 5\ndim = 32\nwarmup_steps = 3\nr_t = 0.3\n")
    common = ["finetune", str(f), "--checkpoint", checkpoint, "--task", "reg",
              "--split", "random", "--epochs", "2"]
    code_cfg, out_cfg, _ = run(capsys, common + ["--config", str(cfg)])
    code_flag, out_flag, _ = run(capsys, common + ["--seed", "5"])
    assert code_cfg == code_flag == 0
    assert out_cfg == out_flag


def test_finetune_cli_single_class_task(tmp_path, checkpoint, capsys):
    f = tmp_path / "task.tsv"
    f.write_text("".join(f"{s}\t0\n" for s in [
        "CCO", "CCN", "CCC", "CCS", "COC", "CCCC", "CCCO", "CCCN", "CCOC", "CCCS",
        "CCCCC", "CCCCO"]))
    code, out, err = run(capsys, [
        "finetune", str(f), "--checkpoint", checkpoint, "--task", "cls",
        "--split", "random", "--epochs", "1"])
    assert code == 0
    assert out == "roc_auc\tnan\n"
    warned = [line for line in err.splitlines() if line.startswith("warning: ")]
    assert len(warned) == 1


def test_exit_code_pair_label_too_large_for_a_head(tmp_path, checkpoint, capsys):
    smiles = ["CCO", "CCN", "CCC", "CCS", "COC", "CCCC", "CCCO", "CCCN", "CCOC", "CCCS"]
    f = tmp_path / "task.tsv"
    f.write_text("".join(f"{s}\tCCO\t{10 ** 12 if i == 4 else i % 2}\n"
                         for i, s in enumerate(smiles)))
    code, out, err = run(capsys, [
        "finetune", str(f), "--checkpoint", checkpoint, "--task", "pair",
        "--split", "random", "--epochs", "1"])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "1000000000000" in err


def test_exit_code_finetune_bad_batch_size(tmp_path, checkpoint, capsys):
    f = tmp_path / "task.tsv"
    f.write_text("\n".join(f"{s}\t{i % 2}" for i, s in enumerate(
        ["CCO", "CCN", "CCC", "CCS", "COC", "CCCC", "CCCO", "CCCN", "CCOC", "CCCS"])))
    code, out, err = run(capsys, [
        "finetune", str(f), "--checkpoint", checkpoint, "--split", "random",
        "--epochs", "1", "--batch-size", "0"])
    assert code == 1
    assert out == ""
    assert err == "error: batch_size must be at least 1, got 0\n"


@pytest.mark.parametrize("task,labels,bad_line", [("cls", ["1", "0", "-1"], 3),
                                                  ("cls", ["0.5", "1"], 1),
                                                  ("pair", ["1", "two"], 2),
                                                  ("reg", ["0.5", "inf"], 2),
                                                  ("cls", ["1", "0", "2"], 3)])
def test_exit_code_bad_label(tmp_path, checkpoint, capsys, task, labels, bad_line):
    smiles = ["CCO", "CCN", "CCC", "CCS", "COC", "CCCC", "CCCO", "CCCN", "CCOC", "CCCS"]
    rows = [f"{s}\t" + ("CCO\t" if task == "pair" else "")
            + f"{labels[i] if i < len(labels) else i % 2}" for i, s in enumerate(smiles)]
    f = tmp_path / "task.tsv"
    f.write_text("\n".join(rows))
    code, out, err = run(capsys, [
        "finetune", str(f), "--checkpoint", checkpoint, "--task", task,
        "--split", "random", "--epochs", "1"])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert f"task.tsv:{bad_line}:" in err


def _write_blob_and_checksum(ckpt, blob):
    """Replace params.bin and give the manifest its length and CRC-32, so
    the load gets past the checksum to the checks behind it."""
    (ckpt / "params.bin").write_bytes(blob)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest.update(params_bytes=len(blob), params_crc32=zlib.crc32(blob))
    (ckpt / "manifest.json").write_text(json.dumps(manifest))


def _corrupt_truncated(ckpt):
    _write_blob_and_checksum(ckpt, (ckpt / "params.bin").read_bytes()[:-8])


def _corrupt_trailing(ckpt):
    _write_blob_and_checksum(ckpt, (ckpt / "params.bin").read_bytes() + b"\0" * 8)


def _corrupt_blob_changed(ckpt):
    blob = (ckpt / "params.bin").read_bytes()
    (ckpt / "params.bin").write_bytes(struct.pack("<d", 0.5) + blob[8:])


def _corrupt_overlapping(ckpt):
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["tensors"][1]["offset"] -= 8
    (ckpt / "manifest.json").write_text(json.dumps(manifest))


def _corrupt_nan(ckpt):
    blob = (ckpt / "params.bin").read_bytes()
    _write_blob_and_checksum(ckpt, struct.pack("<d", float("nan")) + blob[8:])


def _corrupt_entry(ckpt):
    manifest = json.loads((ckpt / "manifest.json").read_text())
    del manifest["tensors"][0]["shape"]
    (ckpt / "manifest.json").write_text(json.dumps(manifest))


def _corrupt_missing_checksum(ckpt):
    manifest = json.loads((ckpt / "manifest.json").read_text())
    del manifest["params_crc32"]
    (ckpt / "manifest.json").write_text(json.dumps(manifest))


def _corrupt_plain_file(ckpt):
    shutil.rmtree(ckpt)
    ckpt.write_text("not a directory\n")


def _corrupt_manifest_encoding(ckpt):
    (ckpt / "manifest.json").write_bytes(b"\xff" + (ckpt / "manifest.json").read_bytes())


def _corrupt_missing_config(ckpt):
    manifest = json.loads((ckpt / "manifest.json").read_text())
    del manifest["config"]
    (ckpt / "manifest.json").write_text(json.dumps(manifest))


def _corrupt_model_key(ckpt):
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["config"]["model"]["no_such_key"] = 1
    (ckpt / "manifest.json").write_text(json.dumps(manifest))


def _set_first_tensor(ckpt, key, value):
    """Change one field of the first tensor entry; the blob and its CRC-32
    stay valid."""
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["tensors"][0][key] = value
    (ckpt / "manifest.json").write_text(json.dumps(manifest))


def _corrupt_negative_shape(ckpt):
    _set_first_tensor(ckpt, "shape", [-1, -8])


def _corrupt_overflowing_shape(ckpt):
    _set_first_tensor(ckpt, "shape", [3, 2 ** 62])  # int64 product overflows


def _corrupt_list_name(ckpt):
    _set_first_tensor(ckpt, "name", ["a"])


def _edit_config(ckpt, edit):
    """Apply ``edit`` to the manifest's config; no checksum covers it."""
    manifest = json.loads((ckpt / "manifest.json").read_text())
    edit(manifest["config"])
    (ckpt / "manifest.json").write_text(json.dumps(manifest))


def _corrupt_float_heads(ckpt):
    _edit_config(ckpt, lambda config: config["model"].update(heads=2.0))


def _corrupt_bool_heads(ckpt):
    _edit_config(ckpt, lambda config: config["model"].update(heads=True))


def _corrupt_longer_vocab(ckpt):
    _edit_config(ckpt, lambda config: config.update(
        vocab_tokens=[f"X{i}" for i in range(30)] + config["vocab_tokens"]))


def _corrupt_shorter_context_vocab(ckpt):
    _edit_config(ckpt, lambda config: config["context_keys"].pop())


def _corrupt_extra_tensor(ckpt):
    blob = (ckpt / "params.bin").read_bytes()
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["tensors"].append({"name": "zz_extra", "shape": [1], "offset": len(blob)})
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    _write_blob_and_checksum(ckpt, blob + struct.pack("<d", 0.5))


def _corrupt_renamed_tensor(ckpt):
    _set_first_tensor(ckpt, "name", "renamed")


def _corrupt_transposed_shape(ckpt):
    """Transpose a non-square weight's manifest shape; its bytes still tile
    the blob."""
    manifest = json.loads((ckpt / "manifest.json").read_text())
    entry = next(e for e in manifest["tensors"] if e["name"] == "enc0_ffn1_w")
    entry["shape"].reverse()
    (ckpt / "manifest.json").write_text(json.dumps(manifest))


def _corrupt_number_token(ckpt):
    _edit_config(ckpt, lambda config: config["vocab_tokens"].__setitem__(0, 1))


def _corrupt_number_context_element(ckpt):
    _edit_config(ckpt, lambda config: config["context_keys"][0].__setitem__(0, 5))


def _corrupt_bool_bond_order(ckpt):
    _edit_config(ckpt, lambda config: config["context_keys"][0][1][0].__setitem__(0, True))


def _corrupt_string_seed(ckpt):
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["seed"] = "x"
    (ckpt / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("corrupt", [_corrupt_truncated, _corrupt_trailing,
                                     _corrupt_overlapping, _corrupt_entry, _corrupt_nan,
                                     _corrupt_blob_changed, _corrupt_missing_checksum,
                                     _corrupt_plain_file, _corrupt_manifest_encoding,
                                     _corrupt_missing_config, _corrupt_model_key,
                                     _corrupt_negative_shape, _corrupt_overflowing_shape,
                                     _corrupt_list_name, _corrupt_float_heads,
                                     _corrupt_bool_heads, _corrupt_longer_vocab,
                                     _corrupt_shorter_context_vocab, _corrupt_extra_tensor,
                                     _corrupt_renamed_tensor, _corrupt_transposed_shape,
                                     _corrupt_number_token, _corrupt_number_context_element,
                                     _corrupt_bool_bond_order, _corrupt_string_seed])
def test_exit_code_corrupt_checkpoint(tmp_path, checkpoint, capsys, monkeypatch, corrupt):
    ckpt = tmp_path / "ckpt"
    shutil.copytree(checkpoint, ckpt)
    corrupt(ckpt)
    with pytest.raises(CheckpointCorrupt):
        load_pretrained(ckpt)
    code, out, err = run(capsys, ["embed", "--checkpoint", str(ckpt)],
                         stdin="CCO\n", monkeypatch=monkeypatch)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


_DROP = object()
#: What each sampled manifest node is set to in turn; _DROP deletes it.
_SWEEP_VALUES = [None, "x", 1.5, -1, 0, 10 ** 9, [1], {"a": 1}, True, float("nan"), _DROP]


def _manifest_paths(node, path=()):
    """The path of every node under ``node``, lists sampled at their first
    two elements and their last."""
    if isinstance(node, dict):
        keys = sorted(node)
    elif isinstance(node, list):
        keys = sorted({0, 1, len(node) - 1} & set(range(len(node))))
    else:
        return
    for key in keys:
        yield path + (key,)
        yield from _manifest_paths(node[key], path + (key,))


def test_manifest_sweep_exits_0_or_1(tmp_path, checkpoint, capsys):
    """Every node of a tiny checkpoint's manifest, set to each sweep value
    or dropped, loads (exit 0) or is refused in one error line (exit 1);
    a billion GCN layers are refused at the first layer the table lacks."""
    ckpt = tmp_path / "ckpt"
    shutil.copytree(checkpoint, ckpt)
    smi = tmp_path / "in.smi"
    smi.write_text("CCO\nc1ccccc1O\n")
    text = (ckpt / "manifest.json").read_text()
    paths = list(_manifest_paths(json.loads(text)))

    def embed(path, value):
        manifest = json.loads(text)
        *head, last = path
        parent = manifest
        for key in head:
            parent = parent[key]
        if value is _DROP:
            del parent[last]
        else:
            parent[last] = value
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        code = main(["embed", str(smi), "--checkpoint", str(ckpt)])
        out, err = capsys.readouterr()
        return code, out, err

    start = time.perf_counter()
    code, out, err = embed(("config", "model", "gnn_layers"), 10 ** 9)
    assert (code, out) == (1, "") and err.startswith("error: ")
    assert time.perf_counter() - start < 1.0
    bad = []
    for path in paths:
        for value in _SWEEP_VALUES:
            code, out, err = embed(path, value)
            refused = code == 1 and out == "" and len(err.splitlines()) == 1 \
                and err.startswith("error: ")
            if not (code == 0 or refused):
                bad.append((path, value, code, err))
    assert len(paths) > 50
    assert bad == []


def test_integer_settings_refuse_floats_and_bools():
    with pytest.raises(ConfigError, match="^heads must be an integer, got 4.0$"):
        ModelConfig(vocab_size=24, context_vocab_size=4, dim=16, heads=4.0)
    with pytest.raises(ConfigError, match="^vocab_size must be an integer, got 24.0$"):
        ModelConfig(vocab_size=24.0, context_vocab_size=4)
    with pytest.raises(ConfigError, match="^vocab_size must be at least 3, got 2$"):
        ModelConfig(vocab_size=2, context_vocab_size=4)
    with pytest.raises(ConfigError, match="^epochs must be an integer, got True$"):
        TrainConfig(epochs=True)
    with pytest.raises(ConfigError, match="^seed must be an integer, got 0.0$"):
        MaskConfig(seed=0.0)


def test_pretrain_skips_overlong_molecules(tmp_path, capsys):
    corpus = tmp_path / "c.smi"
    corpus.write_text("CCO\nCCN\nCC(=O)OC\n" + "C" * 300 + "\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim = 16\ntransformer_layers = 1\nheads = 2\n"
                   "gnn_layers = 1\ngnn_width = 8\nfingerprint_width = 64\n")
    argv = ["pretrain", str(corpus), "--checkpoint", str(tmp_path / "ckpt"),
            "--config", str(cfg), "--epochs", "1", "--batch-size", "2"]
    code, out, err = run(capsys, argv)
    assert code == 0
    assert len(out.splitlines()) == 1 + 2     # header plus two steps of 3 molecules
    assert "skipped 1 molecules longer than max_positions=256" in err
    corpus.write_text("C" * 300 + "\n")
    code, _, err = run(capsys, argv)
    assert code == 1
    assert err.splitlines()[-1].startswith("error: ")


def _diverged_error(err: str) -> str:
    """The one ``error:`` line of a diverged run's stderr."""
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and "internal error" not in err
    assert errors[0].startswith("error: non-finite loss at epoch ")
    return errors[0]


def test_exit_code_pretrain_diverges(tmp_path, capsys):
    corpus = tmp_path / "c.smi"
    corpus.write_text("CCO\nCCN\nCC(=O)OC\nc1ccccc1\nCCCC\nCCOCC\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim = 16\ntransformer_layers = 1\nheads = 2\n"
                   "gnn_layers = 1\ngnn_width = 8\nfingerprint_width = 64\n")
    code, _, err = run(capsys, ["pretrain", str(corpus), "--checkpoint",
                                str(tmp_path / "ckpt"), "--config", str(cfg),
                                "--epochs", "2", "--batch-size", "3", "--lr", "1e300"])
    assert code == 1
    assert _diverged_error(err).startswith("error: non-finite loss at epoch 0 batch 1: ")


@pytest.mark.parametrize("flags", [[], ["--freeze-encoder"]])
def test_exit_code_finetune_diverges(tmp_path, checkpoint, capsys, flags):
    code, out, err = run(capsys, [
        "finetune", str(_twelve_row_task(tmp_path)), "--checkpoint", checkpoint,
        "--split", "random", "--lr", "1e300"] + flags)
    assert code == 1
    assert out == ""
    _diverged_error(err)


def test_exit_code_finetune_on_labels_near_the_float64_limit(tmp_path, checkpoint, capsys):
    f = tmp_path / "task.tsv"
    f.write_text("".join(f"{s}\t{'-' if i % 2 else ''}1e308\n" for i, s in enumerate(
        ["CCO", "CCN", "CCC", "CCS", "COC", "CCCC", "CCCO", "CCCN", "CCOC", "CCCS"])))
    code, out, err = run(capsys, ["finetune", str(f), "--checkpoint", checkpoint,
                                  "--task", "reg", "--split", "random"])
    assert code == 1
    assert out == ""
    _diverged_error(err)
