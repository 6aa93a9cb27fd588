"""Generated contract tests of every input the CLI reads: each JSON leaf of
each artifact kind, and each path option of each command. Every input
either works or fails early with a typed `SeedmarkError`.

An artifact with one leaf replaced or deleted, or with one or all of its
float arrays re-encoded from extreme finite values, must raise
`FormatError` from its parser, or parse and then raise nothing but a
`SeedmarkError` in each of its consumers. A command given an unreadable or
wrong file for one path option must exit 1 with one JSON error line on
stderr. A NumPy `RuntimeWarning` is an error under the test settings, so it
counts as an escape too.
"""

import copy
import json
from dataclasses import asdict

import numpy as np
import pytest

from seedmark import cli
from seedmark.attacks import blur_prune, blur_quantize
from seedmark.cli import main
from seedmark.datasets import GenSpec, dump_dataset, parse_dataset, save_dataset
from seedmark.errors import FormatError, SeedmarkError
from seedmark.harness import EvaluationConfig, build_attacked_model, prepare_data, train_fresh
from seedmark.serialize import (_decode_array, _encode_array, dump_model, model_digest,
                                parse_model, save_model)
from seedmark.watermark import (build_verifier, dump_keyset, dump_verifier, generate_keyset,
                                parse_keyset, parse_verifier, save_keyset, save_verifier, verify)

from conftest import UNQUANTIZABLE

CONFIG = EvaluationConfig(
    master_seed=3,
    repetitions=1,
    gen=GenSpec(classes=3, dims=4, samples_per_class=60),
    n_extracted_train=2,
    n_nonextracted_train=2,
    n_extracted_test=1,
    n_nonextracted_test=1,
    keyset_size=8,
    epochs=4,
)

# what replaces each leaf: JSON's other types, numbers at and beyond every
# edge, and strings a field might take: a name, a digest, float64 hex
BAD_VALUES = (None, True, False, 0, -1, 1.5, float("nan"), float("inf"), 10**30,
              "", "RET", [], [0, 1], {}, {"stage": "extracted"},
              "0123456789ab", "00" * 8, "7ff8000000000000", "abc")
DELETED = object()
# what fills a float array leaf of n values: finite float64 values at each edge of
# the range, each alone, then alternating signs at the maximum, and zeros with one
# smallest subnormal, whose spans overflow and underflow
EXTREMES = {
    **{name: lambda n, value=value: np.full(n, value) for name, value in {
        "1e300": 1e300, "-1e300": -1e300, "max": np.finfo(np.float64).max,
        "-max": -np.finfo(np.float64).max,
        "subnormal": np.finfo(np.float64).smallest_subnormal, "zeros": 0.0}.items()},
    "alternating-max": UNQUANTIZABLE["range-overflows"],
    "zeros-and-subnormal": UNQUANTIZABLE["step-underflows"],
}


@pytest.fixture(scope="module")
def pipeline():
    """A protected model, two RET extractions of it, two fresh controls, its
    training data, a key-set and both verifiers, all at a tiny config."""
    train_set, _ = prepare_data(CONFIG)
    protected = train_fresh(CONFIG, train_set, "A", 1)
    extracted = [build_attacked_model(CONFIG, protected, "RET", train_set, 10 + i)
                 for i in range(2)]
    controls = [train_fresh(CONFIG, train_set, family, 20 + i)
                for i, family in enumerate(("B", "C"))]
    keyset = generate_keyset(protected, extracted, controls, train_set, CONFIG.keyset_size)
    verifiers = {kind: build_verifier(extracted, controls, keyset, kind)
                 for kind in ("lr", "gnb")}
    return dict(data=train_set, protected=protected, extracted=extracted, controls=controls,
                keyset=keyset, verifiers=verifiers)


def artifacts(p):
    """Each artifact kind: (its valid text, its parser, its consumers)."""
    suspect = p["extracted"][0]

    def use_keyset(keyset):
        verify(suspect, build_verifier(p["extracted"], p["controls"], keyset), keyset)

    return {
        "model": (dump_model(suspect), parse_model, (
            model_digest, lambda m: verify(m, p["verifiers"]["lr"], p["keyset"]),
            lambda m: blur_prune(m, CONFIG.prune_sparsity),
            lambda m: blur_quantize(m, CONFIG.quantize_bits))),
        "dataset": (dump_dataset(p["data"]), parse_dataset, (
            lambda data: generate_keyset(p["protected"], p["extracted"], p["controls"],
                                         data, CONFIG.keyset_size),)),
        "keyset": (dump_keyset(p["keyset"]), parse_keyset, (use_keyset,)),
        **{f"{kind}-verifier": (dump_verifier(v), parse_verifier,
                                (lambda v: verify(suspect, v, p["keyset"]),))
           for kind, v in p["verifiers"].items()},
    }


def leaf_paths(node, path=()):
    """The path of every leaf of JSON document `node`: each value that is not
    an object or a non-empty list, looking into a list's first 3 entries."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaf_paths(value, (*path, key))
    elif isinstance(node, list) and node:
        for i, value in enumerate(node[:3]):
            yield from leaf_paths(value, (*path, i))
    else:
        yield path


def parent_of(doc, path):
    """The object or list that holds the leaf of `doc` at `path`."""
    for key in path[:-1]:
        doc = doc[key]
    return doc


def mutations(doc):
    """(description, document) for each leaf of `doc` replaced by each of
    `BAD_VALUES`, and deleted."""
    for path in leaf_paths(doc):
        for value in (*BAD_VALUES, DELETED):
            out = copy.deepcopy(doc)
            parent = parent_of(out, path)
            if value is DELETED:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            what = " deleted" if value is DELETED else f" = {value!r}"
            yield "/".join(map(str, path)) + what, out


def array_mutations(doc):
    """(description, document) for each float array leaf of `doc` (each leaf
    `_decode_array` reads), and for all of them at once, re-encoded with every
    value one of `EXTREMES`."""
    lengths = {}
    for path in leaf_paths(doc):
        try:
            lengths[path] = len(_decode_array(parent_of(doc, path)[path[-1]], (None,)))
        except FormatError:
            pass
    groups = [[path] for path in lengths] + ([list(lengths)] if len(lengths) > 1 else [])
    for name, fill in EXTREMES.items():
        for paths in groups:
            out = copy.deepcopy(doc)
            for path in paths:
                parent_of(out, path)[path[-1]] = _encode_array(fill(lengths[path]))
            yield ", ".join("/".join(map(str, path)) for path in paths) + f" = {name}", out


def escape(parse, consumers, text):
    """None, or the first exception by which `text` broke the contract."""
    try:
        obj = parse(text)
    except FormatError:
        return None
    except Exception as exc:
        return exc
    for consume in consumers:
        try:
            consume(obj)
        except SeedmarkError:
            pass
        except Exception as exc:
            return exc
    return None


@pytest.mark.parametrize("kind", ["model", "dataset", "keyset", "lr-verifier", "gnb-verifier"])
def test_every_leaf_mutation_works_or_fails_with_a_typed_error(pipeline, kind):
    text, parse, consumers = artifacts(pipeline)[kind]
    for consume in consumers:
        consume(parse(text))
    escapes = [f"{what}: {type(exc).__name__}: {exc}"
               for what, mutated in mutations(json.loads(text))
               if (exc := escape(parse, consumers, json.dumps(mutated))) is not None]
    assert escapes == []


@pytest.mark.parametrize("kind", ["model", "dataset", "keyset", "lr-verifier", "gnb-verifier"])
def test_every_extreme_float_array_works_or_fails_with_a_typed_error(pipeline, kind):
    text, parse, consumers = artifacts(pipeline)[kind]
    cases = list(array_mutations(json.loads(text)))
    assert cases
    escapes = [f"{what}: {type(exc).__name__}: {exc}" for what, mutated in cases
               if (exc := escape(parse, consumers, json.dumps(mutated))) is not None]
    assert escapes == []


# the artifact kind each path option reads; --out is written, not read
PATH_OPTIONS = {"--config": "config", "--victim": "model", "--data": "dataset",
                "--model": "model", "--protected": "model", "--extracted": "extracted",
                "--nonextracted": "model", "--keyset": "keyset", "--suspect": "model",
                "--verifier": "verifier"}
# a readable artifact that each kind is not
OTHER_KIND = {"config": "model", "model": "dataset", "extracted": "dataset", "dataset": "model",
              "keyset": "verifier", "verifier": "keyset"}
# a valid value of each other required option
OTHER_VALUES ={"--attack": "RET", "--method": "WP"}


def test_every_option_is_a_path_option_or_takes_a_value():
    # a new path option joins PATH_OPTIONS, and so the generated cases below
    assert set(cli.OPTIONS) - set(PATH_OPTIONS) == {
        "--seed", "--count", "--out", "--attack", "--method", "--threshold", "--preset"}


@pytest.fixture(scope="module")
def files(pipeline, tmp_path_factory):
    """A valid file of each kind, and each bad input a path option may get."""
    root = tmp_path_factory.mktemp("contracts")
    paths = {kind: str(root / f"{kind}.json") for kind in
             ("config", "model", "extracted", "dataset", "keyset", "verifier")}
    (root / "config.json").write_text(json.dumps(asdict(CONFIG)))
    save_model(pipeline["protected"], paths["model"])
    save_model(pipeline["extracted"][0], paths["extracted"])
    save_dataset(pipeline["data"], paths["dataset"])
    save_keyset(pipeline["keyset"], paths["keyset"])
    save_verifier(pipeline["verifiers"]["lr"], paths["verifier"])
    (root / "binary").write_bytes(b"\x80\xff\x00\xfe" * 64)
    (root / "empty").write_bytes(b"")
    (root / "directory").mkdir()
    bad = {name: str(root / name) for name in ("binary", "empty", "directory", "missing")}
    return paths, bad


PATH_CASES = [(command, option) for command, (_, _, options) in cli.COMMANDS.items()
              for option in options if option in PATH_OPTIONS]


@pytest.mark.parametrize("bad", ["binary", "empty", "directory", "missing", "other-kind"])
@pytest.mark.parametrize("command, option", PATH_CASES,
                         ids=[f"{command}{option}" for command, option in PATH_CASES])
def test_every_bad_path_exits_1_with_one_json_error_line(files, tmp_path, capsys, command,
                                                          option, bad):
    paths, bad_paths = files
    argv = [command]
    for name in cli.COMMANDS[command][2]:
        if name in PATH_OPTIONS:
            kind = PATH_OPTIONS[name]
            value = paths[kind]
            if name == option:
                value = paths[OTHER_KIND[kind]] if bad == "other-kind" else bad_paths[bad]
            argv += [name, value]
        elif name == "--out":
            argv += [name, str(tmp_path / "out")]
        elif name in OTHER_VALUES:
            argv += [name, OTHER_VALUES[name]]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == "" and len(lines) == 1
    assert set(json.loads(lines[0])) == {"error", "message"}
