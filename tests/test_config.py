import ast
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest

from metriclab import config, nn, sampling, trainer
from metriclab.config import (
    LOSS_NAMES,
    SCHEMA,
    ExperimentConfig,
    LossConfig,
    config_hash,
    parse_config,
    render_config,
)
from metriclab.errors import ConfigError


def test_minimal_config_resolves_defaults_and_round_trips():
    cfg = parse_config("kind = train\n")
    assert cfg.seed == 0
    assert cfg.dataset.fixture == "four-class"  # picked by kind
    assert cfg.loss.weights["ce"] == 1.0
    assert cfg.loss.weights["triplet"] == 0.0
    assert cfg.sgd.milestones == (10, 20)
    text = render_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert render_config(again) == text


def test_kind_specific_fixture_defaults():
    assert parse_config("kind = surface\n").dataset.fixture == "two-class"
    assert parse_config("kind = boundary\nmodel.embedding_dim = 2\n").dataset.fixture == "three-class"
    assert parse_config("kind = ablation-target\n").dataset.fixture == "retrieval"
    assert parse_config("kind = ablation-bn\n").dataset.fixture == "retrieval"


def test_explicit_fixture_wins_over_kind_default():
    cfg = parse_config("kind = boundary\nmodel.embedding_dim = 2\ndataset.fixture = two-class\n")
    assert cfg.dataset.fixture == "two-class"


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# header\n\nkind = train\n  # indented comment\nseed = 7\n")
    assert cfg.seed == 7


# a base config: keys the text omits keep its values, as ablation variants do
BASE_CFG = parse_config("kind = ablation-bn\nseed = 3\nmodel.predictor_depth = 4\n")


def test_unknown_key_rejected_with_key_name():
    for base in (None, BASE_CFG):
        with pytest.raises(ConfigError, match="loss.cpl.wieght"):
            parse_config("kind = train\nloss.cpl.wieght = 1.0\n", base=base)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("kind = train\nseed = 1\nseed = 2\n")


def test_missing_kind_rejected():
    with pytest.raises(ConfigError, match="kind"):
        parse_config("seed = 3\n")


def test_bad_value_reports_key_and_line():
    for base in (None, BASE_CFG):
        with pytest.raises(ConfigError, match="line 2: bad value for 'sgd.epochs'"):
            parse_config("kind = train\nsgd.epochs = soon\n", base=base)
        with pytest.raises(ConfigError, match="model.bn_target"):
            parse_config("kind = train\nmodel.bn_target = yes\n", base=base)
        # parses, then fails the model section's check
        with pytest.raises(ConfigError, match="model.predictor_depth must be 2 or 4"):
            parse_config("kind = train\nmodel.predictor_depth = 3\n", base=base)


def test_kind_may_be_omitted_only_with_a_base():
    with pytest.raises(ConfigError, match="must set 'kind'"):
        parse_config("seed = 4\n")
    cfg = parse_config("seed = 4\n", base=BASE_CFG)
    assert cfg == replace(BASE_CFG, seed=4)
    with pytest.raises(ConfigError, match="line 1: bad value for 'model.predictor_depth'"):
        parse_config("model.predictor_depth = four\n", base=BASE_CFG)


CONFIG_FILES = sorted((Path(__file__).parents[1] / "scripts" / "configs").glob("*.cfg"))


@pytest.mark.parametrize("path", CONFIG_FILES, ids=lambda p: p.stem)
def test_empty_text_on_a_base_renders_the_base(path):
    base = parse_config(path.read_text())
    assert render_config(parse_config("", base=base)) == render_config(base)


def test_base_values_are_kept_verbatim():
    # a rendered-and-reparsed base would strip these spaces and split at the newline
    base = replace(BASE_CFG, out="  runs/my run\nnext ")
    assert parse_config("seed = 9\n", base=base).out == base.out


@pytest.mark.parametrize(
    "key, value",
    [("sgd.base_lr", "nan"), ("refit.lr", "inf"), ("loss.circle.scale", "nan"), ("loss.ce.weight", "nan")],
)
def test_non_finite_float_rejected_with_key_name(key, value):
    # nan passes the `x <= 0` range checks, and a nan weight silently disables its loss
    with pytest.raises(ConfigError, match=key):
        parse_config(f"kind = train\n{key} = {value}\n")


@pytest.mark.parametrize(
    "key, value",
    [
        ("model.predictor_hidden", "10000000000000000000"),
        ("model.embedding_dim", "10000000000000000000"),
        ("model.extractor_hidden", "32,10000000000000000000"),
        ("sampler.k", "10000000000000000000"),
        ("seed", "9223372036854775808"),
        ("seed", "-9223372036854775809"),
    ],
)
def test_int_outside_int64_rejected_with_key_name(key, value):
    # numpy would fail on it later with a traceback
    with pytest.raises(ConfigError, match=f"{key}.*int64 range"):
        parse_config(f"kind = train\n{key} = {value}\n")


def test_int64_bounds_still_parse():
    assert parse_config("kind = train\nseed = 9223372036854775807\n").seed == 2**63 - 1
    assert parse_config("kind = train\nseed = -9223372036854775808\n").seed == -(2**63)


def test_k_of_one_names_the_center_prediction_precondition():
    with pytest.raises(ConfigError, match="center-prediction"):
        parse_config("kind = train\nsampler.k = 1\n")


def test_rll_alpha_must_exceed_margin():
    with pytest.raises(ConfigError, match="loss.rll.alpha must exceed loss.rll.margin"):
        parse_config("kind = train\nloss.rll.alpha = 0.3\nloss.rll.margin = 0.4\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("loss.triplet.margin = -0.1", "loss.triplet.margin must be non-negative"),
        ("loss.circle.margin = -0.1", "loss.circle.margin must be non-negative"),
        ("loss.lifted.margin = -0.1", "loss.lifted.margin must be non-negative"),
        ("loss.circle.scale = 0.0", "loss.circle.scale must be positive"),
        ("loss.rll.margin = -0.1", "loss.rll.margin must be non-negative"),
    ],
)
def test_margin_and_scale_rules_name_their_keys(text, message):
    # the fourth rule, rll alpha above rll margin, is test_rll_alpha_must_exceed_margin's
    with pytest.raises(ConfigError, match=message):
        parse_config(f"kind = train\n{text}\n")


def test_config_sections_are_flat():
    # parse_config builds each section with one call on plain values
    cfg = parse_config("kind = train\n")
    sections = [f.name for f in fields(cfg) if is_dataclass(getattr(cfg, f.name))]
    assert sections == ["dataset", "model", "loss", "sgd", "sampler"]
    for name in sections:
        section = getattr(cfg, name)
        nested = [f.name for f in fields(section) if is_dataclass(getattr(section, f.name))]
        assert not nested, f"{name} has dataclass-valued fields {nested}"


def test_config_module_owns_every_section_and_the_loss_names():
    # the section field names are the key names, so the sections live beside the schema
    for section in config._SECTIONS.values():
        assert section.__module__ == "metriclab.config"
    assert "LOSS_NAMES" in vars(config)
    owned = {section.__name__ for section in config._SECTIONS.values()} | {"LOSS_NAMES"}
    for module in (trainer, nn, sampling):
        assert not owned & set(module.__all__)
        assert "LOSS_NAMES" not in vars(module)
    tree = ast.parse(Path(config.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module} if node.module else {alias.name for alias in node.names}
    assert not imported & {"trainer", "nn"}


def test_milestones_checked_against_epochs():
    with pytest.raises(ConfigError, match="milestones"):
        parse_config("kind = train\nsgd.epochs = 10\nsgd.milestones = 5,40\n")


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError, match="kind"):
        parse_config("kind = plot\n")


def test_csv_source_requires_path():
    with pytest.raises(ConfigError, match="dataset.path"):
        parse_config("kind = train\ndataset.source = csv\n")


def test_unknown_fixture_rejected():
    with pytest.raises(ConfigError, match="five-class"):
        parse_config("kind = train\ndataset.fixture = five-class\n")


def test_tuple_values_parse_and_render():
    cfg = parse_config("kind = train\nsgd.milestones = 3,7\nmodel.extractor_hidden = 16,16,16\n")
    assert cfg.sgd.milestones == (3, 7)
    assert cfg.model.extractor_hidden == (16, 16, 16)
    rendered = render_config(cfg)
    assert "sgd.milestones = 3,7" in rendered
    cfg2 = parse_config("kind = train\nsgd.milestones =\n")
    assert cfg2.sgd.milestones == ()


def test_config_hash_stable_and_sensitive():
    a = parse_config("kind = train\n")
    b = parse_config("kind = train\nseed = 0\n")  # same resolved values
    c = parse_config("kind = train\nseed = 1\n")
    d = parse_config("kind = train\nout = runs/elsewhere\n")  # out excluded
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert config_hash(a) == config_hash(d)
    assert len(config_hash(a)) == 12


def test_synthetic_dataset_load_is_seeded():
    cfg = parse_config("kind = train\nseed = 5\n")
    d1 = cfg.dataset.load(cfg.seed)
    d2 = cfg.dataset.load(cfg.seed)
    d3 = cfg.dataset.load(6)
    assert (d1.features == d2.features).all()
    assert not (d1.features == d3.features).all()
    assert d1.dim == 2 and sorted(set(d1.labels)) == [0, 1, 2, 3]


def test_loss_weights_flow_into_enabled_list():
    cfg = parse_config(
        "kind = train\nloss.cpl.weight = 0\nloss.triplet.weight = 2.0\n"
    )
    assert cfg.loss.enabled() == ["ce", "triplet"]


def test_partial_loss_weights_equal_their_parsed_render():
    # a loss the dict omits weighs 0.0 in the config as in its rendered text
    cfg = ExperimentConfig("train", loss=LossConfig(weights={"ce": 1.0}))
    assert list(cfg.loss.weights) == list(LOSS_NAMES)
    assert parse_config(render_config(cfg)) == cfg


# every key: a valid non-default value as text, the field it must land in,
# and the parsed value
NON_DEFAULTS = {
    "kind": ("surface", "kind", "surface"),
    "seed": ("7", "seed", 7),
    "out": ("runs/x", "out", "runs/x"),
    "dataset.source": ("csv", "dataset.source", "csv"),
    "dataset.fixture": ("two-class", "dataset.fixture", "two-class"),
    "dataset.path": ("other.csv", "dataset.path", "other.csv"),
    "dataset.classes": ("1,3", "dataset.classes", (1, 3)),
    "dataset.max_per_class": ("5", "dataset.max_per_class", 5),
    "dataset.downsample": ("2", "dataset.downsample", 2),
    "model.extractor_hidden": ("16,8", "model.extractor_hidden", (16, 8)),
    "model.embedding_dim": ("3", "model.embedding_dim", 3),
    "model.predictor": ("none", "model.predictor", "none"),
    "model.predictor_depth": ("4", "model.predictor_depth", 4),
    "model.predictor_hidden": ("8", "model.predictor_hidden", 8),
    "model.bn_target": ("false", "model.bn_target", False),
    "model.bn_predictor_hidden": ("true", "model.bn_predictor_hidden", True),
    "model.bn_predictor_output": ("true", "model.bn_predictor_output", True),
    "loss.ce.weight": ("0.5", "loss.weights.ce", 0.5),
    "loss.cpl.weight": ("0.5", "loss.weights.cpl", 0.5),
    "loss.center.weight": ("0.5", "loss.weights.center", 0.5),
    "loss.triplet.weight": ("0.5", "loss.weights.triplet", 0.5),
    "loss.circle.weight": ("0.5", "loss.weights.circle", 0.5),
    "loss.lifted.weight": ("0.5", "loss.weights.lifted", 0.5),
    "loss.rll.weight": ("0.5", "loss.weights.rll", 0.5),
    "loss.cpl.target": ("sample-mean", "loss.cpl_target", "sample-mean"),
    "loss.triplet.margin": ("0.5", "loss.triplet_margin", 0.5),
    "loss.circle.margin": ("0.5", "loss.circle_margin", 0.5),
    "loss.circle.scale": ("16.0", "loss.circle_scale", 16.0),
    "loss.lifted.margin": ("2.0", "loss.lifted_margin", 2.0),
    "loss.rll.alpha": ("1.5", "loss.rll_alpha", 1.5),
    "loss.rll.margin": ("0.2", "loss.rll_margin", 0.2),
    "sgd.base_lr": ("0.01", "sgd.base_lr", 0.01),
    "sgd.milestones": ("5,15", "sgd.milestones", (5, 15)),
    "sgd.decay_factor": ("0.5", "sgd.decay_factor", 0.5),
    "sgd.epochs": ("25", "sgd.epochs", 25),
    "sgd.momentum": ("0.5", "sgd.momentum", 0.5),
    "sampler.p": ("3", "sampler.p", 3),
    "sampler.k": ("2", "sampler.k", 2),
    "sampler.allow_resample": ("false", "sampler.allow_resample", False),
    "eval.every": ("5", "eval_every", 5),
    "refit.steps": ("50", "refit_steps", 50),
    "refit.lr": ("0.01", "refit_lr", 0.01),
    "surface.loss": ("cpl", "surface_loss", "cpl"),
}

# a csv source needs a path, so the base config names one
BASE = {"kind": "train", "dataset.fixture": "four-class", "dataset.path": "base.csv"}


def _text(values: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def _with_field(obj, path, value):
    """obj with the field at a dotted path (through `loss.weights`) set."""
    head, *rest = path
    inner = obj[head] if isinstance(obj, dict) else getattr(obj, head)
    new = _with_field(inner, rest, value) if rest else value
    if isinstance(obj, dict):
        return {**obj, head: new}
    return replace(obj, **{head: new})


def test_every_schema_key_has_a_non_default_case():
    assert list(NON_DEFAULTS) == list(SCHEMA)


@pytest.mark.parametrize("key", list(SCHEMA))
def test_schema_key_lands_in_its_field_and_renders_alone(key):
    text, path, value = NON_DEFAULTS[key]
    base = parse_config(_text(BASE))
    cfg = parse_config(_text({**BASE, key: text}))
    # exactly the named field changed, to the parsed value
    assert cfg == _with_field(base, path.split("."), value)
    base_lines = render_config(base).splitlines()
    lines = render_config(cfg).splitlines()
    assert len(lines) == len(base_lines) == len(SCHEMA)
    for line, base_line, name in zip(lines, base_lines, SCHEMA):
        if name == key:
            assert line == f"{key} = {text}" and line != base_line
        else:
            assert line == base_line
    assert parse_config(render_config(cfg)) == cfg
    assert parse_config(f"{key} = {text}\n", base=base) == cfg


def test_readme_config_table_lists_the_schema_keys_in_order():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    table = text.split("| key | default | meaning |\n|---|---|---|\n", 1)[1].split("\n\n", 1)[0]
    keys = []
    for row in table.splitlines():
        # a row names one key, or "`a` / `b`" for two; loss.<name>.weight stands for every loss
        for cell in row.split(" | ")[0].removeprefix("| ").split(" / "):
            key = cell.strip("`")
            keys += [f"loss.{name}.weight" for name in LOSS_NAMES] if key == "loss.<name>.weight" else [key]
    assert keys == list(SCHEMA)


def test_every_leaf_field_derives_exactly_one_key():
    # a leaf is a top-level plain field, a section field, or one loss weight;
    # two leaves deriving one key would leave one of them without a key
    cfg = ExperimentConfig("train")
    leaves = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if not is_dataclass(value):
            leaves.append((f.name,))
            continue
        for g in fields(value):
            if isinstance(getattr(value, g.name), dict):
                leaves += [(f.name, g.name, name) for name in LOSS_NAMES]
            else:
                leaves.append((f.name, g.name))
    assert len(leaves) == 43 == len(SCHEMA)
    assert [spec.path for spec in SCHEMA.values()] == leaves
