import json
import math

import pytest

from impuritybound.cli import main


def test_usage_error_exit_code(capsys):
    assert main(["lambda", "--m", "-1"]) == 2
    assert "positive" in capsys.readouterr().err


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_spectrum_output_schema(capsys, tmp_path):
    code = main(["spectrum", "--lbig", str(math.pi), "--count", "12",
                 "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert [lv["multiplicity"] for lv in doc["levels"][:5]] == [1, 3, 3, 3, 1]
    assert (tmp_path / "spectrum.json").exists()
    manifest = json.loads((tmp_path / "spectrum_manifest.json").read_text())
    assert manifest["command"] == "spectrum"
    assert manifest["version"]


def test_spectrum_roundtrip_serialization(capsys):
    main(["spectrum", "--lbig", "1.7", "--count", "4"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["levels"][0]["value"] == 3.0 * math.pi**2 / 1.7**2


def test_bound_command_matches_library(capsys, registry):
    code = main(["bound", "--m", "1", "--n", "1000", "--ell", "1",
                 "--alpha", "-1", "--lambda-val", "0.3409",
                 "--kappa", "1.0"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    from impuritybound.bounds import bound_confined
    rep = bound_confined(1.0, 1.0, 1000, 1.0, -1.0, registry,
                         lambda_val=0.3409)
    assert doc["value"] == rep.value
    assert doc["registry_hash"] == registry.content_hash()


def test_bound_searches_lambda_once(monkeypatch, capsys):
    from impuritybound import lambda_functional
    from impuritybound.params import LambdaResult
    calls = []

    def counting(m, cfg):
        calls.append((m, cfg))
        return LambdaResult(value=0.3409)

    monkeypatch.setattr(lambda_functional, "lambda_of_m", counting)
    for argv in (["bound", "--m", "1", "--n", "1000", "--ell", "1",
                  "--alpha", "-1"],
                 ["bound", "--kind", "main", "--m", "1", "--n", "64",
                  "--lbig", "4", "--alpha", "-1", "--const", "2"]):
        calls.clear()
        assert main(argv) == 0
        searched = capsys.readouterr().out
        assert len(calls) == 1
        assert main(argv + ["--lambda-val", "0.3409"]) == 0
        assert len(calls) == 1
        assert searched == capsys.readouterr().out


def test_bound_precondition_exit_code(capsys):
    # kappa above c_T fails the stability precondition
    code = main(["bound", "--m", "1", "--n", "1000", "--ell", "1",
                 "--alpha", "-1", "--lambda-val", "0.3409",
                 "--kappa", "100.0"])
    assert code == 3


def test_config_file_and_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lbig = 2.0\ncount = 3  # comment\n")
    main(["spectrum", "--config", str(cfg), "--count", "5"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["lbig"] == 2.0      # from config
    assert doc["count"] == 5       # flag wins


def test_config_unknown_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("warp_factor = 9\n")
    assert main(["spectrum", "--config", str(cfg)]) == 2
    assert "warp_factor" in capsys.readouterr().err


def test_ltcheck_runs_small(capsys, tmp_path):
    code = main(["ltcheck", "--count", "2", "--n", "4", "--basis", "64",
                 "--grid", "32", "--lbig", "2.0", "--mu", "9.0",
                 "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_squared_trace_ok"] is True
    assert len(doc["results"]) == 2


def test_config_values_take_flag_types(capsys, tmp_path, registry):
    # defaults of None used to leave config values as strings
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda_val = 0.3409\nkappa = 100.0\n")
    code = main(["bound", "--m", "1", "--n", "1000", "--ell", "1",
                 "--alpha", "-1", "--kappa", "1.0", "--config", str(cfg)])
    assert code == 0               # --kappa wins over the config's 100.0
    doc = json.loads(capsys.readouterr().out)
    from impuritybound.bounds import bound_confined
    rep = bound_confined(1.0, 1.0, 1000, 1.0, -1.0, registry,
                         lambda_val=0.3409)
    assert doc["value"] == rep.value


def test_config_bad_value_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 1e3\n")
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--m", "1", "--alpha", "-1", "--lambda-val",
              "0.3409", "--kappa", "1.0", "--config", str(cfg)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [ln for ln in err.splitlines() if "error:" in ln] == [
        "impuritybound bound: error: argument --n: invalid int value: '1e3'"]


def test_argv_parsed_once_without_config(monkeypatch, capsys):
    import argparse
    calls = []
    parse = argparse.ArgumentParser.parse_args

    def counting(self, *a, **kw):
        calls.append(a)
        return parse(self, *a, **kw)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", counting)
    assert main(["spectrum", "--count", "3"]) == 0
    assert len(calls) == 1


def test_config_supplies_required_flag(capsys, tmp_path, registry):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 1\n")
    code = main(["bound", "--alpha", "-1", "--lambda-val", "0.3409",
                 "--kappa", "1.0", "--config", str(cfg)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    from impuritybound.bounds import bound_confined
    rep = bound_confined(1.0, 1.0, 1000, 1.0, -1.0, registry,
                         lambda_val=0.3409)
    assert doc["value"] == rep.value


def test_required_flag_missing_from_flags_and_config(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 1000\n")
    for argv in (["bound", "--alpha", "-1", "--lambda-val", "0.3409"],
                 ["bound", "--alpha", "-1", "--lambda-val", "0.3409",
                  "--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert [ln for ln in err.splitlines() if "error:" in ln] == [
            "impuritybound bound: error: the following arguments are "
            "required: --m"]


BOUND = ["--n", "1000", "--alpha", "-1", "--lambda-val", "0.3409"]


@pytest.mark.parametrize("argv, code", [
    (["bound", "--m", "1", "--lambda-val", "0.34", "--alpha", "-1",
      "--ell", "0"], 2),
    (["bound", "--m", "0", "--ell", "1"] + BOUND, 2),
    (["bound", "--m", "-1", "--ell", "1"] + BOUND, 2),
    (["bound", "--m", "1", "--ell", "-1"] + BOUND, 2),
    (["bound", "--kind", "main", "--m", "1", "--n", "64", "--lbig", "0",
      "--alpha", "-1", "--lambda-val", "0.3409", "--const", "2"], 2),
    (["bound", "--kind", "unconfined", "--m", "1", "--alpha", "-1",
      "--lambda-val", "-0.5"], 2),
    (["ltcheck", "--count", "0"], 3),
    (["ltcheck", "--count", "1", "--seed", "-1"], 2),
    (["bound", "--registry", "/nonexistent-dir/registry.json", "--m", "1",
      "--ell", "1"] + BOUND, 2),
    (["bound", "--m", "inf", "--ell", "1"] + BOUND, 2),
    (["bound", "--m", "1", "--ell", "inf"] + BOUND, 2),
    (["bound", "--kind", "main", "--m", "1", "--n", "64", "--lbig", "inf",
      "--alpha", "-1", "--lambda-val", "0.3409", "--const", "2"], 2),
    (["lambda", "--m", "inf"], 2),
], ids=["ell-zero", "m-zero", "m-negative", "ell-negative", "lbig-zero",
        "unconfined-negative-lambda", "ltcheck-count-zero",
        "ltcheck-negative-seed", "registry-missing", "m-inf", "ell-inf",
        "lbig-inf", "lambda-m-inf"])
def test_bad_inputs_exit_with_documented_code(capsys, argv, code):
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(("error: ", "precondition violated: "))
