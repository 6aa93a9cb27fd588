import argparse
import glob
import json
import logging
import os
import reprlib
import shlex
import shutil
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from seedmark import cli, serialize, watermark
from seedmark.attacks import ATTACKS
from seedmark.cli import main
from seedmark.datasets import GenSpec, load_dataset
from seedmark.harness import BLUR_METHODS, EvaluationConfig, load_eval_config
from seedmark.nnet import Model, ModelSpec, init_model

from conftest import UNQUANTIZABLE

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    cfg = EvaluationConfig(
        master_seed=3,
        repetitions=2,
        gen=GenSpec(classes=3, dims=4, samples_per_class=60),
        n_extracted_train=3,
        n_nonextracted_train=3,
        n_extracted_test=2,
        n_nonextracted_test=2,
        keyset_size=8,
        epochs=4,
    )
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps(asdict(cfg)))
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, config_path, capsys_factory=None):
    """Run the granular pipeline once; later tests reuse its artifacts."""
    root = tmp_path_factory.mktemp("work")
    pop = root / "pop"
    assert main(["train-population", "--config", config_path,
                 "--count", "4", "--out", str(pop)]) == 0
    models = sorted(str(p) for p in pop.glob("model-*.json"))
    assert len(models) == 4
    data = next(str(p) for p in pop.glob("data-*.json"))

    extracted = []
    for i in range(2):
        out = str(root / f"ext-{i}.json")
        assert main(["extract", "--config", config_path, "--seed", str(50 + i),
                     "--victim", models[0], "--data", data,
                     "--attack", "RET", "--out", out]) == 0
        extracted.append(out)

    keyset = str(root / "keyset.json")
    assert main(["keygen", "--protected", models[0],
                 "--extracted", *extracted,
                 "--nonextracted", *models[1:],
                 "--data", data, "--config", config_path, "--out", keyset]) == 0

    verifier = str(root / "verifier.json")
    assert main(["build-verifier", "--keyset", keyset,
                 "--extracted", *extracted,
                 "--nonextracted", *models[1:],
                 "--out", verifier]) == 0
    return {"models": models, "data": data, "extracted": extracted,
            "keyset": keyset, "verifier": verifier, "root": root}


@pytest.fixture(scope="module")
def foreign_extracted(workspace, config_path):
    """Two RET extractions of population model 1, not of the protected model 0."""
    paths = []
    for i in range(2):
        out = str(workspace["root"] / f"foreign-{i}.json")
        assert main(["extract", "--config", config_path, "--seed", str(60 + i),
                     "--victim", workspace["models"][1], "--data", workspace["data"],
                     "--attack", "RET", "--out", out]) == 0
        paths.append(out)
    return paths


def src_env():
    """The environment with this checkout's `src` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return env


def verify_argv(workspace, *suspects, keyset=None):
    return ["verify", "--suspect", *suspects, "--verifier", workspace["verifier"],
            "--keyset", keyset or workspace["keyset"]]


def read_score(out: str) -> float:
    line = next(l for l in out.splitlines() if l.startswith("score "))
    return float(line.split()[1])


def test_verify_separates(workspace, capsys):
    capsys.readouterr()
    assert main(["verify", "--suspect", workspace["extracted"][0],
                 "--verifier", workspace["verifier"],
                 "--keyset", workspace["keyset"]]) == 0
    ext_out = capsys.readouterr().out
    assert main(["verify", "--suspect", workspace["models"][1],
                 "--verifier", workspace["verifier"],
                 "--keyset", workspace["keyset"]]) == 0
    ne_out = capsys.readouterr().out
    assert read_score(ext_out) > read_score(ne_out)
    decisions = next(l for l in ext_out.splitlines() if l.startswith("decisions "))
    assert set(decisions.split()[1]) <= {"E", "."}


def test_verify_threshold_verdict(workspace, capsys):
    capsys.readouterr()
    assert main(["verify", "--suspect", workspace["extracted"][0],
                 "--verifier", workspace["verifier"],
                 "--keyset", workspace["keyset"], "--threshold", "0.0"]) == 0
    assert "verdict extracted" in capsys.readouterr().out


def test_verify_prints_one_block_per_suspect(workspace, capsys):
    """Each block is a `suspect <path>` line, then exactly what a one-suspect
    call prints for that file, with the score of the library's `verify`."""
    paths = [*workspace["extracted"], *workspace["models"][1:]]
    verifier = watermark.load_verifier(workspace["verifier"])
    keyset = watermark.load_keyset(workspace["keyset"])
    capsys.readouterr()
    assert main([*verify_argv(workspace, *paths), "--threshold", "0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 * len(paths)
    for path, block in zip(paths, (lines[i:i + 4] for i in range(0, len(lines), 4))):
        verdict = watermark.verify(serialize.load_model(path), verifier, keyset)
        assert block[:2] == [f"suspect {path}", f"score {verdict.score!r}"]
        assert main([*verify_argv(workspace, path), "--threshold", "0.5"]) == 0
        assert capsys.readouterr().out.splitlines() == block[1:]


def overflowing_model():
    """A valid model with finite weights whose forward pass overflows."""
    model = init_model(ModelSpec((4, 64, 64, 3)), 0)
    return Model(model.spec, model.params * 1e150, model.provenance)


@pytest.mark.parametrize("bad", ["malformed", "wrong-input-dim", "overflowing"])
def test_a_bad_suspect_among_good_ones_prints_nothing(workspace, tmp_path, capsys, bad):
    """Every suspect is read and scored before the first block is printed,
    and the error names the suspect that failed."""
    path = tmp_path / "bad.json"
    if bad == "malformed":
        path.write_text("{}")
    else:
        serialize.save_model(init_model(ModelSpec((5, 3)), 0) if bad == "wrong-input-dim"
                             else overflowing_model(), path)
    capsys.readouterr()
    assert main(verify_argv(workspace, *workspace["extracted"], str(path))) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    doc = json.loads(captured.err)
    assert doc["error"] == ("FormatError" if bad == "malformed" else "InputError")
    assert doc["message"].startswith(f"suspect {path}: ")


def test_an_overflowing_suspect_is_refused_not_scored(workspace, tmp_path, capsys):
    """A suspect whose confidences overflow to NaN once printed `score 0.0`."""
    model = overflowing_model()
    path = tmp_path / "huge.json"
    serialize.save_model(model, path)
    capsys.readouterr()
    assert main(verify_argv(workspace, str(path))) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "InputError",
        "message": f"model {serialize.model_digest(model)} gives non-finite confidences: "
                   "its forward pass overflows"}


@pytest.mark.parametrize("flags", [["--threshold", "nan"], ["--threshold", "inf"],
                                   ["--threshold=-inf"]], ids=["nan", "inf", "minus-inf"])
def test_non_finite_threshold_fails_before_any_file_is_read(capsys, flags):
    """No score compares true against NaN, so a `nan` threshold would print
    `verdict not-extracted` for every suspect."""
    capsys.readouterr()
    assert main(["verify", "--suspect", "/nonexistent/model.json", "--verifier",
                 "/nonexistent/verifier.json", "--keyset", "/nonexistent/keyset.json",
                 *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    doc = json.loads(captured.err)
    assert doc["error"] == "InputError" and "--threshold" in doc["message"]


def test_a_repeated_suspect_flag_adds_its_files(workspace, capsys):
    a, b = workspace["extracted"]
    capsys.readouterr()
    assert main(["verify", "--suspect", a, "--suspect", b, "--verifier", workspace["verifier"],
                 "--keyset", workspace["keyset"]]) == 0
    repeated = capsys.readouterr().out
    assert [l for l in repeated.splitlines() if l.startswith("suspect ")] == [
        f"suspect {a}", f"suspect {b}"]
    assert main(verify_argv(workspace, a, b)) == 0
    assert capsys.readouterr().out == repeated


ONE_CALL_PER_COMMAND = [
    ["train-population", "--count", "2", "--out", "o"],
    ["-v", "extract", "--victim", "v", "--data", "d", "--attack", "RET", "--out", "o"],
    ["blur", "--model", "m", "--method", "WP", "--out", "o"],
    ["analyze", "--seed", "1", "--out", "o"],
    ["keygen", "--protected", "p", "--extracted", "a", "b", "--nonextracted", "c",
     "--data", "d", "--out", "o"],
    ["build-verifier", "--keyset", "k", "--extracted", "a", "--nonextracted", "c", "--out", "o"],
    ["verify", "--suspect", "a", "--suspect", "b", "c", "--verifier", "v", "--keyset", "k"],
    ["evaluate", "--preset", "naive", "--out", "o"],
    ["dump-confidences", "--keyset", "k", "--extracted", "a", "--nonextracted", "c",
     "--out", "o"],
]


@pytest.mark.parametrize("argv", ONE_CALL_PER_COMMAND, ids=lambda argv: argv[argv[0] == "-v"])
def test_a_parser_built_for_one_command_parses_it_as_the_full_parser(argv):
    command = next(a for a in argv if not a.startswith("-"))
    assert vars(cli.build_parser(command).parse_args(argv)) == vars(
        cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [["verify", "--suspect"], ["extract", "--victim", "v"],
                                  ["bogus"], [], ["-v"]])
def test_usage_errors_read_as_the_full_parser_writes_them(argv, capsys):
    """`main` builds only the named command's arguments; what a bad command
    line prints does not change."""
    with pytest.raises(SystemExit) as full:
        cli.build_parser().parse_args(argv)
    expected = capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == full.value.code == 2
    assert capsys.readouterr().err == expected


VERIFY_ARGV = ["verify", "--suspect", "a", "--verifier", "v", "--keyset", "k"]


@pytest.mark.parametrize("columns", ["40", "200"])
@pytest.mark.parametrize("argv", [
    ["-h", "verify"], ["--help"], ["-v", "-h"], ["verify", "-h"], ["--bogus", *VERIFY_ARGV],
    [*VERIFY_ARGV, "--bogus"], ["-v", "bogus"], ["-vh", "verify"], ["--he", "verify"],
], ids="_".join)
def test_help_and_root_errors_read_as_the_full_parser_writes_them(argv, columns, capsys,
                                                                   monkeypatch):
    """Root help lists all nine commands, and the root usage in an error
    names them all, however much of the tree `main` builds; argparse wraps
    both to the terminal width."""
    monkeypatch.setenv("COLUMNS", columns)
    with pytest.raises(SystemExit) as full:
        cli.build_parser().parse_args(argv)
    expected = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == full.value.code
    assert capsys.readouterr() == expected


def test_attack_help_names_every_extraction_and_blur(capsys):
    # the help is the token rule's own text, so a new extraction or blur appears in it
    with pytest.raises(SystemExit) as exc:
        main(["extract", "-h"])
    assert exc.value.code == 0
    attack_help = capsys.readouterr().out.split("--attack ATTACK", 2)[2]
    for name in ATTACKS:
        assert f"'{name}'" in attack_help
    for blur in BLUR_METHODS:
        assert f"{blur}(...)" in attack_help


def count_parsers(monkeypatch):
    """Count every `argparse.ArgumentParser` built from here on."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


@pytest.mark.parametrize("argv", ONE_CALL_PER_COMMAND, ids=lambda argv: argv[argv[0] == "-v"])
def test_main_builds_the_root_parser_and_only_the_named_commands(argv, monkeypatch, capsys):
    """A trailing -h prints the command's help and exits once its tree is built."""
    built = count_parsers(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "-h"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: seedmark ")
    assert len(built) == 2


def test_main_builds_every_parser_for_an_unknown_command(monkeypatch, capsys):
    built = count_parsers(monkeypatch)
    with pytest.raises(SystemExit):
        main(["bogus"])
    assert len(built) == 10


@pytest.mark.parametrize("count", [0, -1])
def test_train_population_count_below_one_fails_before_writing(config_path, tmp_path, capsys,
                                                               count):
    capsys.readouterr()
    out = tmp_path / "pop"
    assert main(["train-population", "--config", config_path, "--count", str(count),
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    doc = json.loads(captured.err)
    assert doc["error"] == "InputError" and "--count" in doc["message"]
    assert not out.exists()


def data_of_another_shape(workspace, tmp_path, edit) -> str:
    """The workspace's data file with 5 classes, or with one feature fewer."""
    doc = json.loads(Path(workspace["data"]).read_text())
    if edit == "classes":
        doc["classes"] = 5
    else:
        features = np.frombuffer(bytes.fromhex(doc["features"]), "<f8")
        doc["features"] = features.reshape(len(doc["labels"]), -1)[:, :-1].tobytes().hex()
    data = tmp_path / "data.json"
    data.write_text(json.dumps(doc))
    return str(data)


def assert_shape_mismatch(capsys, out, role):
    captured = capsys.readouterr()
    assert captured.out == ""
    doc = json.loads(captured.err)
    assert doc["error"] == "InputError"
    assert f"a {role} of 4 inputs and 3 classes" in doc["message"]
    assert not out.exists()


@pytest.mark.parametrize("attack", ["RET", "DIS", "TRL", "CC"])
@pytest.mark.parametrize("edit", ["classes", "dims"])
def test_extract_with_data_of_another_shape_fails_with_json_error(workspace, config_path,
                                                                  tmp_path, capsys, edit, attack):
    """The surrogate is sized from the data file, so data that does not fit
    the victim would give a surrogate of another shape (RET) or a
    misleading training error (DIS)."""
    data = data_of_another_shape(workspace, tmp_path, edit)
    out = tmp_path / "ext.json"
    capsys.readouterr()
    assert main(["extract", "--config", config_path, "--victim", workspace["models"][0],
                 "--data", data, "--attack", attack, "--out", str(out)]) == 1
    assert_shape_mismatch(capsys, out, "victim")


@pytest.mark.parametrize("edit", ["classes", "dims"])
def test_keygen_with_data_of_another_shape_fails_with_json_error(workspace, config_path,
                                                                 tmp_path, capsys, edit):
    """Rows of another task are misclassified, or unreadable, by the protected model."""
    data = data_of_another_shape(workspace, tmp_path, edit)
    out = tmp_path / "keyset.json"
    capsys.readouterr()
    assert main(["keygen", "--config", config_path, "--protected", workspace["models"][0],
                 "--extracted", *workspace["extracted"],
                 "--nonextracted", *workspace["models"][1:],
                 "--data", data, "--out", str(out)]) == 1
    assert_shape_mismatch(capsys, out, "protected model")


def test_blur_command(workspace, capsys):
    out = str(workspace["root"] / "blurred.json")
    assert main(["blur", "--model", workspace["extracted"][0],
                 "--method", "WP", "--out", out]) == 0
    from seedmark.serialize import load_model
    import numpy as np

    blurred = load_model(out)
    flat = np.concatenate([w.ravel() for w, _ in blurred.weights])
    assert np.count_nonzero(flat == 0.0) >= flat.size // 2


@pytest.mark.parametrize("case", list(UNQUANTIZABLE))
def test_blur_wq_refuses_a_model_it_cannot_quantize(tmp_path, capsys, case):
    spec = ModelSpec((4, 8, 3))
    path, out = tmp_path / "model.json", tmp_path / "blurred.json"
    serialize.save_model(Model(spec, UNQUANTIZABLE[case](spec.param_count), ()), path)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["blur", "--model", str(path), "--method", "WQ", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "InputError"
    assert doc["message"].startswith("WQ cannot quantize dense layer ")


def test_stage_commands_read_the_config(workspace, config_path, tmp_path):
    """keygen, build-verifier and blur take every setting from --config, as
    the library calls and `extract --attack 'WP(...)'` do."""
    doc = json.loads(Path(config_path).read_text())
    doc.update(keyset_size=6, classifier_kind="gnb", prune_sparsity=0.9,
               bim={"iterations": 6, "epsilon": 0.3})
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(doc))
    cfg = load_eval_config(path)
    common = ["--config", str(path), "--extracted", *workspace["extracted"],
              "--nonextracted", *workspace["models"][1:]]

    keyset_path, verifier_path = str(tmp_path / "keyset.json"), str(tmp_path / "verifier.json")
    assert main(["keygen", *common, "--protected", workspace["models"][0],
                 "--data", workspace["data"], "--out", keyset_path]) == 0
    assert main(["build-verifier", *common, "--keyset", keyset_path,
                 "--out", verifier_path]) == 0
    extracted = [serialize.load_model(p) for p in workspace["extracted"]]
    controls = [serialize.load_model(p) for p in workspace["models"][1:]]
    keyset = watermark.generate_keyset(
        serialize.load_model(workspace["models"][0]), extracted, controls,
        load_dataset(workspace["data"]), cfg.keyset_size, cfg.bim,
    )
    verifier = watermark.build_verifier(extracted, controls, keyset, cfg.classifier_kind)
    assert Path(keyset_path).read_text() == watermark.dump_keyset(keyset)
    assert Path(verifier_path).read_text() == watermark.dump_verifier(verifier)

    outs = {name: str(tmp_path / f"{name}.json") for name in ("ret", "blurred", "wp")}
    extract = ["extract", "--config", str(path), "--victim", workspace["models"][0],
               "--data", workspace["data"]]
    assert main([*extract, "--attack", "RET", "--out", outs["ret"]]) == 0
    assert main(["blur", "--config", str(path), "--model", outs["ret"], "--method", "WP",
                 "--out", outs["blurred"]]) == 0
    assert main([*extract, "--attack", "WP(RET)", "--out", outs["wp"]]) == 0
    assert Path(outs["blurred"]).read_bytes() == Path(outs["wp"]).read_bytes()
    assert serialize.load_model(outs["wp"]).provenance[-1]["sparsity"] == 0.9


def readme_cli_commands():
    """The argv of each command in the README's "Command-line usage" sh block."""
    section = (REPO / "README.md").read_text().split("## Command-line usage", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [argv for argv in (shlex.split(line, comments=True) for line in lines) if argv]


def test_readme_workflow_runs(tmp_path, monkeypatch):
    """The README's file-based workflow runs as written, globs expanded as a
    shell would, so a removed flag cannot linger in the docs."""
    commands = readme_cli_commands()
    assert len(commands) >= 5 and all(argv[0] == "seedmark" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        args = []
        for word in argv[1:]:
            matches = sorted(glob.glob(word)) if "*" in word else [word]
            assert matches, f"{word!r} matches no file"
            args.extend(matches)
        assert main(args) == 0, argv


def test_evaluate_command(config_path, tmp_path, capsys):
    capsys.readouterr()
    out = tmp_path / "eval"
    assert main(["evaluate", "--config", config_path, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    auc = float(next(l for l in text.splitlines() if l.startswith("auc ")).split()[1])
    assert 0.0 <= auc <= 1.0
    reports = list(out.glob("report-*.csv"))
    confs = list(out.glob("confidences-*.csv"))
    assert len(reports) == 1 and len(confs) == 1
    assert reports[0].read_text().startswith("# seedmark-report auc=")


def test_evaluate_preset_is_its_attack_mix(config_path, tmp_path, capsys):
    capsys.readouterr()
    doc = json.loads(Path(config_path).read_text())
    spelled = tmp_path / "informed.json"
    spelled.write_text(json.dumps({**doc, "seen_attacks": ["WQ(RET)"],
                                   "unseen_attacks": ["WP(RET)"]}))
    runs = {}
    for name, argv in (("preset", ["--config", config_path, "--preset", "informed"]),
                       ("spelled", ["--config", str(spelled)])):
        out = tmp_path / name
        assert main(["evaluate", *argv, "--out", str(out)]) == 0
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        runs[name] = (capsys.readouterr().out.replace(str(out), "<out>"), files)
    assert runs["preset"] == runs["spelled"]
    assert len(runs["preset"][1]) == 2  # report and confidences
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--preset", "bogus", "--out", str(tmp_path / "bogus")])
    assert exc.value.code == 2


@pytest.fixture
def root_logger():
    root = logging.getLogger()
    level = root.level
    yield root
    root.setLevel(level)


@pytest.mark.parametrize("first, second", [([], ["-v"]), (["-v"], [])],
                         ids=["verbose-after-plain", "plain-after-verbose"])
def test_verbosity_is_set_on_every_call(config_path, tmp_path, caplog, root_logger,
                                        first, second):
    doc = json.loads(Path(config_path).read_text())
    one = tmp_path / "one-repetition.json"
    one.write_text(json.dumps({**doc, "repetitions": 1}))
    for i, flags in enumerate((first, second)):
        caplog.clear()
        assert main([*flags, "evaluate", "--config", str(one), "--out", str(tmp_path / str(i))]) == 0
        logged = any("repetition 0" in r.getMessage() for r in caplog.records)
        assert logged == bool(flags), flags


def test_analyze_command(config_path, tmp_path, capsys):
    capsys.readouterr()
    doc = json.loads(Path(config_path).read_text())
    two = tmp_path / "population-2.json"
    two.write_text(json.dumps({**doc, "n_nonextracted_train": 2}))
    out = tmp_path / "analysis"
    assert main(["analyze", "--config", str(two), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0].startswith("disagreements=")
    table = next(out.glob("boundary-*.csv"))
    assert lines[1] == str(table)
    rows = table.read_text().splitlines()
    assert rows[0] == "disagreements,unique,transferable,confidence" and len(rows) == 2


def test_dump_confidences_command(workspace, capsys):
    out = str(workspace["root"] / "confidences.csv")
    assert main(["dump-confidences", "--keyset", workspace["keyset"],
                 "--extracted", *workspace["extracted"],
                 "--nonextracted", *workspace["models"][1:],
                 "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert len(lines) == 9  # header + keyset_size (8) watermarks


@pytest.mark.parametrize("label", [9, -1])
def test_keyset_label_outside_the_classes_fails_with_json_error(workspace, tmp_path, capsys,
                                                                label):
    keyset = watermark.load_keyset(workspace["keyset"])
    labels = keyset.labels.copy()
    labels[0] = label
    edited = watermark.KeySet(keyset.watermarks, labels, keyset.provenance)
    path = tmp_path / "keyset.json"
    path.write_text(watermark.dump_keyset(edited))
    # the verifier names the edited key-set, so the label check is what fails
    verifier = json.loads(Path(workspace["verifier"]).read_text())
    verifier["keyset"] = watermark.keyset_digest(edited)
    verifier_path = tmp_path / "verifier.json"
    verifier_path.write_text(json.dumps(verifier))
    capsys.readouterr()
    assert main(["verify", "--suspect", workspace["extracted"][0],
                 "--verifier", str(verifier_path), "--keyset", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    doc = json.loads(captured.err)
    assert doc["error"] == "InputError" and f"key-set label {label} " in doc["message"]


@pytest.mark.parametrize("label", [2**63, 10**30], ids=["2^63", "10^30"])
def test_keyset_label_outside_int64_fails_with_json_error(workspace, tmp_path, capsys, label):
    doc = json.loads(Path(workspace["keyset"]).read_text())
    doc["labels"][0] = label
    path = tmp_path / "keyset.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(verify_argv(workspace, workspace["extracted"][0], keyset=str(path))) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    doc = json.loads(captured.err)
    assert doc["error"] == "FormatError" and "within int64" in doc["message"]


def test_verify_against_another_keyset_fails_with_json_error(workspace, config_path, tmp_path,
                                                            capsys, foreign_extracted):
    """A key-set of the same length from another protected model does not
    pair with the verifier: verify names both key-set digests and scores nothing."""
    models = workspace["models"]
    other = str(tmp_path / "keyset.json")
    assert main(["keygen", "--config", config_path, "--protected", models[1],
                 "--extracted", *foreign_extracted,
                 "--nonextracted", models[0], *models[2:],
                 "--data", workspace["data"], "--out", other]) == 0
    theirs, ours = (watermark.load_keyset(path) for path in (other, workspace["keyset"]))
    assert len(theirs) == len(ours)
    for suspects in ([workspace["extracted"][0]], [*workspace["extracted"], *models[1:]]):
        capsys.readouterr()
        assert main(verify_argv(workspace, *suspects, keyset=other)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        doc = json.loads(captured.err)
        assert doc["error"] == "WatermarkError"
        for keyset in (theirs, ours):
            assert watermark.keyset_digest(keyset) in doc["message"]


def assert_victim_mismatch(capsys, out, victim, protected):
    captured = capsys.readouterr()
    assert captured.out == ""
    doc = json.loads(captured.err)
    assert doc["error"] == "WatermarkError"
    assert f"extracted from model {victim}, not from the protected model {protected}" \
        in doc["message"]
    assert not out.exists()


def test_keygen_on_models_extracted_from_another_victim_fails_with_json_error(
        workspace, config_path, tmp_path, capsys):
    """The extracted population must be extracted from the protected model."""
    models = workspace["models"]
    out = tmp_path / "keyset.json"
    capsys.readouterr()
    assert main(["keygen", "--config", config_path, "--protected", models[1],
                 "--extracted", *workspace["extracted"],
                 "--nonextracted", models[0], *models[2:],
                 "--data", workspace["data"], "--out", str(out)]) == 1
    victim, protected = (serialize.model_digest(serialize.load_model(models[i])) for i in (0, 1))
    assert_victim_mismatch(capsys, out, victim, protected)


def test_build_verifier_on_models_extracted_from_another_victim_fails_with_json_error(
        workspace, tmp_path, capsys, foreign_extracted):
    """The extracted population must be extracted from the model the
    key-set names as protected; a key-set without that digest is not checked."""
    argv = ["build-verifier", "--extracted", workspace["extracted"][0], *foreign_extracted,
            "--nonextracted", *workspace["models"][2:]]
    out = tmp_path / "verifier.json"
    capsys.readouterr()
    assert main([*argv, "--keyset", workspace["keyset"], "--out", str(out)]) == 1
    keyset = watermark.load_keyset(workspace["keyset"])
    victim = serialize.model_digest(serialize.load_model(workspace["models"][1]))
    assert_victim_mismatch(capsys, out, victim, keyset.provenance["protected"])

    unnamed = tmp_path / "keyset.json"
    unnamed.write_text(watermark.dump_keyset(
        watermark.KeySet(keyset.watermarks, keyset.labels, {})))
    assert main([*argv, "--keyset", str(unnamed), "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("doc", [
    {"gen": {"clases": 4}},
    {"bim": {"iterationz": 5}},
    {"bim": {"mode": "targeted"}},
    {"bim": {"step_size": 0.015}},
    {"bim": {"clip_range": [-1.0, 1.0]}},
    {"gen": 5},
    [1, 2],
], ids=["gen-key", "bim-key", "bim-mode", "bim-step-size", "bim-clip-range",
        "gen-not-object", "not-object"])
def test_bad_nested_config_fails_with_json_error(doc, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["evaluate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "ConfigError"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc, message", [
    ({"seen_attacks": [5]}, "seen_attacks must be a list, each one of 'RET', 'DIS', 'TRL', "
     "'CAR', 'CC', alone or inside WP(...) or WQ(...), got 5 at index 0"),
    ({"classifier_kind": ["lr"]}, "classifier_kind must be a string, got ['lr']"),
    ({"nonextracted_families": [["A"]]},
     "nonextracted_families must be a list, each one of 'A', 'B', 'C', got ['A'] at index 0"),
    # an integer too large for float64 once escaped the check as an OverflowError
    ({"query_budget_fraction": 10**400},
     f"query_budget_fraction must be a finite number, got {reprlib.repr(10**400)}"),
], ids=["attack-number", "family-list", "families-nested", "fraction-beyond-float64"])
def test_config_value_of_the_wrong_type_fails_with_json_error(doc, message, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["evaluate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ConfigError", "message": message}
    assert not (tmp_path / "out").exists()


def test_keygen_on_data_outside_the_feature_range_fails_with_json_error(workspace, config_path,
                                                                        tmp_path, capsys):
    """BIM clips to the feature range, so rows outside it would put watermarks
    far outside their epsilon-balls; the data file is rejected instead."""
    doc = json.loads(Path(workspace["data"]).read_text())
    doc["features"] = (3 * np.frombuffer(bytes.fromhex(doc["features"]), "<f8")).tobytes().hex()
    scaled = tmp_path / "scaled.json"
    scaled.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["keygen", "--config", config_path, "--protected", workspace["models"][0],
                 "--extracted", *workspace["extracted"],
                 "--nonextracted", *workspace["models"][1:],
                 "--data", str(scaled), "--out", str(tmp_path / "keyset.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    doc = json.loads(captured.err)
    assert doc["error"] == "FormatError" and "feature range [-1.0, 1.0]" in doc["message"]
    assert not (tmp_path / "keyset.json").exists()


def test_missing_file_fails_with_json_error(workspace, capsys):
    capsys.readouterr()
    assert main(["verify", "--suspect", "/nonexistent/model.json",
                 "--verifier", workspace["verifier"],
                 "--keyset", workspace["keyset"]]) == 1
    err = capsys.readouterr().err.strip()
    doc = json.loads(err.splitlines()[-1])
    assert doc["error"] == "OSError"


@pytest.mark.parametrize("flag", ["--suspect", "--verifier", "--keyset", "--config"])
def test_file_that_is_not_utf8_fails_with_json_error(workspace, tmp_path, capsys, flag):
    binary = tmp_path / "binary"
    binary.write_bytes(bytes(range(256)))
    if flag == "--config":
        argv = ["evaluate", "--config", str(binary), "--out", str(tmp_path / "out")]
    else:
        argv = verify_argv(workspace, workspace["extracted"][0])
        argv[argv.index(flag) + 1] = str(binary)
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    doc = json.loads(captured.err)
    assert doc["error"] == ("ConfigError" if flag == "--config" else "FormatError")
    assert doc["message"].startswith(f"{binary} is not UTF-8 text")


def test_domain_error_fails_with_json_error(workspace, capsys, tmp_path):
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["verify", "--suspect", str(bad),
                 "--verifier", workspace["verifier"],
                 "--keyset", workspace["keyset"]]) == 1
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert doc["error"] == "FormatError"


def test_console_script_installed():
    """The `seedmark` entry in pyproject.toml names a callable that serves `--help`.

    Checks what the repository declares, so it needs no install step.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts.get("seedmark") == "seedmark.cli:main"

    # Resolve the entry and call it as a console-script wrapper does.
    wrapper = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"main = EntryPoint(name='seedmark', value={scripts['seedmark']!r}, group='console_scripts').load()\n"
        "sys.argv[0] = 'seedmark'\n"
        "sys.exit(main())\n"
    )
    proc = subprocess.run([sys.executable, "-c", wrapper, "--help"],
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: seedmark")
    assert "evaluate" in proc.stdout


@pytest.mark.skipif(shutil.which("seedmark") is None,
                    reason="no `seedmark` executable on PATH; install the package to run this")
def test_console_script_on_path():
    proc = subprocess.run([shutil.which("seedmark"), "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "evaluate" in proc.stdout
