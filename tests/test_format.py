"""The artifact text format shared by models, certificates, verification
reports and simulation stats."""

import argparse
from pathlib import Path

import numpy as np
import pytest

from clrmpc import cli, model, sim, synthesis, verify
from clrmpc.errors import ModelFormatError
from clrmpc.utils import parse_value, write_keyed

COMMITTED_CERT = Path(__file__).resolve().parents[1] / "perfbench" / "msd_certificate.txt"


def _model_text(tmp_path):
    return model.write_model_text(*model.build_msd())


def _report_text(tmp_path):
    return verify.write_report(verify.VerificationReport(
        farkas_residuals=[
            {"negativity": 0.0, "equality": 3.3306690738754696e-16,
             "inequality": -0.012345678901234567},
            {"negativity": 1e-300, "equality": 0.1, "inequality": -2.5e-07}],
        srf_samples=400, srf_failures=0, srf_worst_margin=-0.0001234,
        lyapunov_samples=8, lyapunov_failures=0,
        lyapunov_worst_margin=-1.0000000000000002,
        terminal_slack=2.3655851399643583e-05, p_margin=1e-06))


def _stats_text(tmp_path):
    args = argparse.Namespace(realizations=25, steps=60, seed=1,
                              mode=sim.FIXED_DELTA)
    stats = sim.BatchStats(
        mean_cost=82.1733261840585, env_min=np.zeros((0, 2)),
        env_max=np.zeros((0, 2)), infeasible_count=0, violation_count=2,
        failed_count=1, n_x=1, n_u=1)
    cli._write_stats(tmp_path / "stats.txt", args, stats)
    return (tmp_path / "stats.txt").read_text()


# kind -> (text from the writer, read then write again, header line)
KINDS = {
    "model": (_model_text,
              lambda text: model.write_model_text(*model.read_model_text(text)),
              model.MODEL_HEADER),
    "certificate": (lambda tmp_path: COMMITTED_CERT.read_text(),
                    lambda text: synthesis.write_certificate(
                        synthesis.read_certificate(text)),
                    synthesis.CERT_HEADER),
    "report": (_report_text,
               lambda text: verify.write_report(verify.read_report(text)),
               verify.REPORT_HEADER),
    "stats": (_stats_text,
              lambda text: write_keyed(cli.STATS_HEADER, cli.read_stats(text)),
              cli.STATS_HEADER),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_write_read_write_is_byte_identical(kind, tmp_path):
    make, rewrite, header = KINDS[kind]
    text = make(tmp_path)
    assert text.startswith(header + "\n")
    assert rewrite(text) == text


# kind -> (key, wrongly typed values for it)
WRONG = {
    "model": ("n_x", ["null", "[4]"]),
    "certificate": ("alpha", ["[1]", "null"]),
    "report": ("srf_samples", ["'400'", "400.0"]),
    "stats": ("mode", ["1"]),
}
FILES = {"model": "model.txt", "certificate": "certificate.txt",
         "report": "report.txt", "stats": "stats.txt"}


def _retyped(text, key, value):
    line = next(ln for ln in text.splitlines() if ln.startswith(key + " = "))
    return text.replace(line, f"{key} = {value}")


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_wrongly_typed_value_names_its_key(kind, tmp_path):
    make, rewrite, _ = KINDS[kind]
    key, values = WRONG[kind]
    for value in values:
        with pytest.raises(ModelFormatError, match=f"key '{key}'"):
            rewrite(_retyped(make(tmp_path), key, value))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_clr_mpc_exits_1_on_a_wrongly_typed_value(kind, tmp_path, capsys):
    texts = {k: make(tmp_path) for k, (make, _, _) in KINDS.items()}
    key, values = WRONG[kind]
    texts[kind] = _retyped(texts[kind], key, values[0])
    for k, text in texts.items():
        (tmp_path / FILES[k]).write_text(text)
    if kind in ("model", "certificate"):
        argv = ["verify", "--model", str(tmp_path / "model.txt"),
                "--certificate", str(tmp_path / "certificate.txt"),
                "--out", str(tmp_path / "out"),
                "--srf-samples", "1", "--lyap-samples", "1"]
    else:  # report reads the certificate, the report, then the stats
        argv = ["report", "--dir", str(tmp_path)]
    assert cli.main(argv) == 1
    assert f"key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_wrong_or_missing_header_is_rejected(kind, tmp_path):
    make, rewrite, header = KINDS[kind]
    text = make(tmp_path)
    body = text[len(header) + 1:]
    wrong = header.replace("v1", "v2")
    for bad in (body, wrong + "\n" + body, "nonsense\n" + text):
        with pytest.raises(ModelFormatError, match="header"):
            rewrite(bad)
    # blank lines before the header are allowed
    assert rewrite("\n\n" + text) == text


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "nan", "inf"])
def test_non_finite_values_are_bad_literals(token):
    text = model.write_model_text(*model.build_msd())
    line = "h_w = [1.0, 1.0, 1.0, 1.0]"
    assert line in text
    for value in (f"[1.0, {token}, 1.0, 1.0]", token):
        with pytest.raises(ModelFormatError, match="bad literal for key 'h_w'"):
            model.read_model_text(text.replace(line, "h_w = " + value))
    with pytest.raises(ValueError):
        parse_value(token)


def test_legacy_python_literals_are_still_read():
    assert parse_value("(1, .5)") == (1, 0.5)
    assert parse_value("'abc'") == "abc"
    text = model.write_model_text(*model.build_msd())
    _, w, _ = model.read_model_text(
        text.replace("h_w = [1.0, 1.0, 1.0, 1.0]", "h_w = (1, .5, 1., 1)"))
    assert np.array_equal(w.b, [1.0, 0.5, 1.0, 1.0])
