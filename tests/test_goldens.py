"""End-to-end byte goldens: the SHA-256 of every file written and every line
printed by a reduced run of the `seedmark` CLI, keyed by role.

The run covers `evaluate` with the default attacks and with each preset,
`analyze`, and the file chain `train-population` -> `extract` (every attack
token, plus a `WP(...)` and a `WQ(...)`) -> `blur` -> `keygen` ->
`build-verifier` (LR and GNB) -> `verify` of every model but the protected
one -> `dump-confidences`.

Bytes are a pure function of the config and the NumPy/BLAS build (README,
Determinism), so the goldens record the build they were made with, and the
test skips on any other. They also record the host's OpenBLAS kernel and
NumPy SIMD extensions, on which the bytes depend too; a byte failure names
both hosts' values, so another kernel or SIMD level reads as what it is.
The temporary directory and the config digests are masked wherever they
appear; the digests are pinned as one entry of their own, so a change to a
config field moves that entry alone, while a change to training moves many.

Regenerate with `PYTHONPATH=src python tests/test_goldens.py`, which prints
each role whose hash changed, was added or was removed, and say in CHANGES.md
which entries moved and why.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from seedmark.cli import PRESETS, main
from seedmark.datasets import GenSpec
from seedmark.harness import EvaluationConfig

GOLDENS = Path(__file__).with_name("goldens.json")

# the module-scoped config of tests/test_cli.py, with one repetition
CONFIG = EvaluationConfig(
    master_seed=3,
    repetitions=1,
    gen=GenSpec(classes=3, dims=4, samples_per_class=60),
    n_extracted_train=3,
    n_nonextracted_train=3,
    n_extracted_test=2,
    n_nonextracted_test=2,
    keyset_size=8,
    epochs=4,
)
ATTACKS = ("RET", "DIS", "TRL", "CAR", "CC", "WP(RET)", "WQ(DIS)")


def numpy_build() -> dict:
    """The NumPy version and the BLAS it was built with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_configuration": blas.get("openblas configuration")}


def host_record() -> dict:
    """The OpenBLAS kernel, from the `Core:` line a child `import numpy` prints
    under OPENBLAS_VERBOSE=2, and NumPy's SIMD extensions, read as
    `numpy.show_runtime()` reads them for its `simd_extensions` entry."""
    from numpy._core._multiarray_umath import (__cpu_baseline__, __cpu_dispatch__,
                                               __cpu_features__)
    child = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                           text=True, env={**os.environ, "OPENBLAS_VERBOSE": "2"}, check=True)
    cores = [line[len("Core:"):].strip() for line in child.stderr.splitlines()
             if line.startswith("Core:")]
    return {"openblas_core": cores[0] if cores else None,
            "simd_baseline": list(__cpu_baseline__),
            "simd_found": [name for name in __cpu_dispatch__ if __cpu_features__[name]]}


def run_pipeline(root: Path) -> dict:
    """Run every covered command under `root`; map each role to the SHA-256
    of its bytes, with `root` and the config digest masked."""
    entries, digests = {}, {}
    out_dir = root / "out"

    def masked(text, digest):
        return text.replace(str(out_dir), "<out>").replace(digest, "<config>")

    def config(name, cfg):
        path = root / f"{name}.json"
        path.write_text(json.dumps(asdict(cfg)))
        digests[name] = cfg.digest()
        return str(path)

    def run(role, argv, digest):
        """Run one command; pin its printed lines and every file it wrote."""
        before = set(out_dir.rglob("*"))
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert main(argv) == 0, argv
        entries[f"stdout {role}"] = masked(printed.getvalue(), digest)
        for path in sorted(set(out_dir.rglob("*")) - before):
            if path.is_file():
                name = masked(str(path), digest)
                entries[f"file {name}"] = masked(path.read_text(), digest)

    out_dir.mkdir()
    base = config("lr", CONFIG)
    gnb = config("gnb", replace(CONFIG, classifier_kind="gnb"))
    d = digests["lr"]
    for name, preset in (("default", {}), *PRESETS.items()):
        argv = ["evaluate", "--config", base, "--out", str(out_dir / f"evaluate-{name}")]
        if preset:
            argv[3:3] = ["--preset", name]
            digests[name] = replace(CONFIG, **preset).digest()
        run(f"evaluate {name}", argv, digests.get(name, d))
    run("analyze", ["analyze", "--config", base, "--out", str(out_dir / "analyze")], d)

    pop = out_dir / "pop"
    run("train-population", ["train-population", "--config", base, "--count", "4",
                             "--out", str(pop)], d)
    models = [str(pop / f"model-{family}-{i:03d}-{d}.json") for i, family in enumerate("ABCA")]
    data = str(pop / f"data-{d}.json")
    suspects = {}
    for i, attack in enumerate(ATTACKS):
        suspects[attack] = str(out_dir / f"extract-{attack}.json")
        run(f"extract {attack}", ["extract", "--config", base, "--seed", str(50 + i),
                                  "--victim", models[0], "--data", data, "--attack", attack,
                                  "--out", suspects[attack]], d)
    for method in ("WP", "WQ"):
        suspects[method] = str(out_dir / f"blur-{method}.json")
        run(f"blur {method}", ["blur", "--config", base, "--model", suspects["RET"],
                               "--method", method, "--out", suspects[method]], d)
    populations = ["--extracted", suspects["RET"], suspects["DIS"], suspects["TRL"],
                   "--nonextracted", *models[1:]]
    keyset = str(out_dir / "keyset.json")
    run("keygen", ["keygen", "--config", base, "--protected", models[0], *populations,
                   "--data", data, "--out", keyset], d)
    suspects.update((f"control-{i}", path) for i, path in enumerate(models[1:], start=1))
    for kind, path in (("lr", base), ("gnb", gnb)):
        verifier = str(out_dir / f"verifier-{kind}.json")
        run(f"build-verifier {kind}", ["build-verifier", "--config", path, "--keyset", keyset,
                                       *populations, "--out", verifier], digests[kind])
        for name, suspect in suspects.items():
            run(f"verify {kind} {name}", ["verify", "--suspect", suspect, "--verifier", verifier,
                                          "--keyset", keyset, "--threshold", "0.5"], d)
    run("dump-confidences", ["dump-confidences", "--keyset", keyset, *populations,
                             "--out", str(out_dir / "confidences.csv")], d)

    hashed = {role: hashlib.sha256(text.encode()).hexdigest() for role, text in entries.items()}
    hashed["config digests"] = " ".join(f"{name}={digest}" for name, digest in digests.items())
    return hashed


def moved_roles(old: dict, new: dict) -> dict:
    """Each role whose hash differs between two entry maps: changed, added or removed."""
    return {role: "added" if role not in old else "removed" if role not in new else "changed"
            for role in sorted(old.keys() | new.keys()) if old.get(role) != new.get(role)}


def test_end_to_end_bytes_match_the_goldens(tmp_path):
    golden = json.loads(GOLDENS.read_text())
    build = numpy_build()
    if build != golden["build"]:
        pytest.skip(f"goldens were made with {golden['build']}; this is {build}")
    moved = sorted(moved_roles(golden["entries"], run_pipeline(tmp_path)))
    # the message, and so the host probe, is evaluated only on a failure
    assert not moved, (f"{len(moved)} of {len(golden['entries'])} entries moved: {moved}; "
                       f"the goldens were made on {golden['host']}, this host is "
                       f"{host_record()}, and another kernel or SIMD set moves bytes too")


if __name__ == "__main__":
    old = json.loads(GOLDENS.read_text())["entries"] if GOLDENS.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        doc = {"build": numpy_build(), "host": host_record(),
               "entries": run_pipeline(Path(tmp))}
    GOLDENS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for role, status in moved_roles(old, doc["entries"]).items():
        print(f"{status} {role}")
    print(f"wrote {len(doc['entries'])} entries to {GOLDENS}")
