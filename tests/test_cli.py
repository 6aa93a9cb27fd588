import json
import os
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from seedmark.cli import main
from seedmark.datasets import GenSpec
from seedmark.harness import EvaluationConfig

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
    data = next(str(p) for p in pop.glob("data-*.csv"))

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
                 "--data", data, "--n", "6", "--out", keyset]) == 0

    verifier = str(root / "verifier.json")
    assert main(["build-verifier", "--keyset", keyset,
                 "--extracted", *extracted,
                 "--nonextracted", *models[1:],
                 "--out", verifier]) == 0
    return {"models": models, "data": data, "extracted": extracted,
            "keyset": keyset, "verifier": verifier, "root": root}


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


def test_blur_command(workspace, capsys):
    out = str(workspace["root"] / "blurred.json")
    assert main(["blur", "--model", workspace["extracted"][0],
                 "--method", "WP", "--sparsity", "0.5", "--out", out]) == 0
    from seedmark.serialize import load_model
    import numpy as np

    blurred = load_model(out)
    flat = np.concatenate([w.ravel() for w, _ in blurred.weights])
    assert np.count_nonzero(flat == 0.0) >= flat.size // 2


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


def test_analyze_command(config_path, tmp_path, capsys):
    capsys.readouterr()
    out = tmp_path / "analysis"
    assert main(["analyze", "--config", config_path, "--population", "2",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "none:" in text and "entire_set:" in text
    table = next(out.glob("boundary-*.csv"))
    assert table.read_text().splitlines()[0] == "strategy,disagreements,unique,transferable,confidence"


def test_dump_confidences_command(workspace, capsys):
    out = str(workspace["root"] / "confidences.csv")
    assert main(["dump-confidences", "--keyset", workspace["keyset"],
                 "--extracted", *workspace["extracted"],
                 "--nonextracted", *workspace["models"][1:],
                 "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert len(lines) == 7  # header + 6 watermarks


def test_missing_file_fails_with_json_error(workspace, capsys):
    capsys.readouterr()
    assert main(["verify", "--suspect", "/nonexistent/model.json",
                 "--verifier", workspace["verifier"],
                 "--keyset", workspace["keyset"]]) == 1
    err = capsys.readouterr().err.strip()
    doc = json.loads(err.splitlines()[-1])
    assert doc["error"] == "OSError"


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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", wrapper, "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: seedmark")
    assert "evaluate" in proc.stdout


@pytest.mark.skipif(shutil.which("seedmark") is None,
                    reason="no `seedmark` executable on PATH; install the package to run this")
def test_console_script_on_path():
    proc = subprocess.run([shutil.which("seedmark"), "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "evaluate" in proc.stdout
