import argparse
import json
import math

import pytest

from impuritybound import lambda_functional
from impuritybound.cli import build_parser, main


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


# Fast base argv of each subcommand. A non-finite value of each of its float
# flags must be rejected before any quadrature starts, whether the flag is
# one the subcommand (or bound's --kind) reads or not.
BASES = {
    "lambda": ["lambda", "--m", "1"],
    "critical-mass": ["critical-mass"],
    "bound-confined": ["bound", "--m", "1", "--ell", "1"] + BOUND,
    "bound-main": ["bound", "--kind", "main", "--m", "1", "--n", "64",
                   "--lbig", "4", "--alpha", "-1", "--lambda-val", "0.3409",
                   "--const", "2"],
    "bound-unconfined": ["bound", "--kind", "unconfined", "--m", "1",
                         "--alpha", "-1", "--lambda-val", "0.3409"],
    "ltcheck": ["ltcheck", "--count", "1", "--n", "2", "--grid", "16",
                "--basis", "8"],
    "spectrum": ["spectrum"],
}


# bound without --lambda-val, which searches for Lambda(m) once every flag
# has passed its check
SEARCH_BASES = {
    "bound-confined-search": ["bound", "--m", "1", "--n", "1000", "--ell",
                              "1", "--alpha", "-1"],
    "bound-main-search": ["bound", "--kind", "main", "--m", "1", "--n", "64",
                          "--lbig", "4", "--alpha", "-1", "--const", "2"],
}


def _float_flags():
    """The float flags of every subcommand, read from the parser."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: [a.option_strings[-1] for a in sp._actions
                   if a.type is float]
            for name, sp in sub.choices.items()}


NONFINITE_CASES = {
    f"{label} {flag}={value}": base + [f"{flag}={value}"]
    for label, base in {**BASES, **SEARCH_BASES}.items()
    for flag in _float_flags()[base[0]]
    for value in ("nan", "inf", "-inf")}


def test_nonfinite_cases_cover_every_float_flag():
    covered = {(argv[0], argv[-1].split("=")[0])
               for argv in NONFINITE_CASES.values()}
    assert covered == {(name, flag) for name, flags in _float_flags().items()
                       for flag in flags}
    # the bases that need no Lambda search are valid as they stand
    for base in BASES.values():
        if base[0] not in ("lambda", "critical-mass"):
            assert main(base) == 0, base


@pytest.mark.parametrize("argv", NONFINITE_CASES.values(),
                         ids=NONFINITE_CASES.keys())
def test_nonfinite_float_flag_rejected(monkeypatch, capsys, argv):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("a rejected input started a quadrature")

    monkeypatch.setattr(lambda_functional, "_lam_quad_fixed", no_quadrature)
    if argv[0] == "bound":
        # bound checks its flags itself, before any Lambda(m) search
        monkeypatch.setattr(lambda_functional, "lambda_of_m", no_quadrature)
    assert main(argv) in (2, 3)
    err = capsys.readouterr().err
    assert err.startswith(("error: ", "precondition violated: "))
    assert len(err.splitlines()) == 1


# finite bad values; the non-finite ones are SEARCH_BASES cases above
@pytest.mark.parametrize("argv, code", [
    (["bound", "--m", "1", "--ell", "-1"], 2),
    (["bound", "--kind", "main", "--m", "1", "--n", "64", "--lbig", "4",
      "--const", "-2"], 3),
    (["bound", "--m", "1", "--kappa", "99"], 3),
    (["bound", "--m", "1", "--n", "0"], 3),
    (["bound", "--m", "1", "--n", "-5", "--ell", "1", "--alpha", "-1"], 3),
    (["bound", "--kind", "main", "--m", "1", "--n", "0", "--lbig", "4",
      "--const", "2"], 3),
], ids=["ell-negative", "const-negative", "kappa-above-c_t", "n-zero",
        "n-negative", "main-n-zero"])
def test_bound_flags_checked_before_search(monkeypatch, capsys, argv, code):
    def no_search(m, cfg):
        raise AssertionError(f"Lambda({m}) searched for a bad flag")

    monkeypatch.setattr(lambda_functional, "lambda_of_m", no_search)
    assert main(argv) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    n = int(argv[argv.index("--n") + 1]) if "--n" in argv else 1
    if n < 1:
        assert err == [f"precondition violated: n must be >= 1, got {n}"]


# (kind base, a flag that kind does not read, a value: valid for a kind
# that reads the flag or not, it is rejected)
UNREAD_CASES = [
    ("bound-main", "--ell", "1"), ("bound-main", "--ell", "nan"),
    ("bound-main", "--kappa", "1"), ("bound-main", "--kappa", "inf"),
    ("bound-confined", "--lbig", "4"), ("bound-confined", "--const", "2"),
    ("bound-unconfined", "--ell", "-5"), ("bound-unconfined", "--kappa", "99"),
    ("bound-unconfined", "--lbig", "nan"),
    ("bound-unconfined", "--const", "inf"),
    ("bound-unconfined", "--n", "1000"),
]


@pytest.mark.parametrize("source", ["argv", "config"])
@pytest.mark.parametrize("label, flag, value", UNREAD_CASES,
                         ids=[f"{label} {flag}={value}"
                              for label, flag, value in UNREAD_CASES])
def test_bound_rejects_flag_its_kind_does_not_read(capsys, tmp_path, label,
                                                   flag, value, source):
    if source == "argv":
        extra = [flag, value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag[2:]} = {value}\n")
        extra = ["--config", str(cfg)]
    assert main(BASES[label] + extra) == 2
    kind = label.split("-")[1]
    assert capsys.readouterr().err.splitlines() == [
        f"error: {flag} is not read by --kind {kind}"]


def test_bound_confined_ell_defaults_to_one(capsys):
    base = ["bound", "--m", "1"] + BOUND
    assert main(base) == 0
    default = json.loads(capsys.readouterr().out)
    assert main(base + ["--ell", "1"]) == 0
    assert json.loads(capsys.readouterr().out) == default
    assert default["inputs"]["ell"] == 1.0


@pytest.mark.parametrize("argv, code", [
    (["critical-mass", "--lo", "0.45", "--hi", "0.30"], 3),
    (["critical-mass", "--lo", "0.30", "--hi", "0.30"], 3),
    (["critical-mass", "--hi", "inf"], 2),
    (["critical-mass", "--lo", "0"], 2),
], ids=["lo-above-hi", "lo-equals-hi", "hi-inf", "lo-zero"])
def test_critical_mass_bracket_checked_before_search(monkeypatch, capsys,
                                                     argv, code):
    def no_search(m, cfg):
        raise AssertionError(f"Lambda({m}) searched for a bad bracket")

    monkeypatch.setattr(lambda_functional, "lambda_of_m", no_search)
    assert main(argv) == code
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_calibrate_writes_a_valid_registry(monkeypatch, capsys, tmp_path):
    """The calibration pipeline end to end, with the critical-mass search
    (minutes at the default config) replaced by a fixed root."""
    from impuritybound.bounds import ConstantsRegistry, enumerate_c_t

    monkeypatch.setattr(lambda_functional, "critical_mass",
                        lambda cfg: 0.3584)
    dest = tmp_path / "reg.json"
    assert main(["calibrate", "--ct-nmax", "300", "--write", str(dest)]) == 0
    doc = json.loads(capsys.readouterr().out)
    reg = ConstantsRegistry.load(dest)
    assert doc["registry_hash"] == reg.content_hash()
    assert reg.value("c_t") == enumerate_c_t(300)
    assert reg.value("m_star_star") == 0.3584
    assert reg.value("c_l") == ((0.3584 + 1.0) / (2.0 * 0.3584) * reg.value(
        "c_l_prime") / reg.value("c_t"))
