"""Tests for configuration parsing: defaults, validation diagnostics,
canonical echo, and the bridges into loss/schedule/search objects.
"""

import pytest

from lfsearch.cli import main
from lfsearch.config import (
    ConfigError,
    ExperimentConfig,
    LossConfig,
    distribution_of,
    from_dict,
    load_config_file,
    margin_spec,
    schedule_of,
    set_path,
)
from lfsearch.margin_losses import MarginKind


class TestDefaults:
    def test_empty_dict_gives_defaults(self):
        assert from_dict({}) == ExperimentConfig()

    def test_default_values(self):
        config = from_dict({})
        assert config.seed == 0
        assert config.reward == "verification"
        assert config.dataset.classes == 50
        assert config.dataset.dim == 32
        assert config.dataset.samples_per_class == 40
        assert config.dataset.noise_sigma == 0.35
        assert config.dataset.train_frac == 0.8
        assert config.dataset.n_pairs == 2000
        assert config.model.hidden == (128,)
        assert config.model.embedding == 64
        assert config.model.scale == 32.0
        assert config.sgd.learning_rate == 0.1
        assert config.schedule.epochs == 30
        assert config.schedule.drop_epochs == (15, 25)
        assert config.loss.kind == "plain"
        assert config.search.mu == -10.0
        assert config.search.population == 4
        assert config.random.mag_lo == 1.0
        assert config.random.mag_hi == 10000.0

    def test_to_dict_round_trips(self):
        assert from_dict(ExperimentConfig().to_dict()) == ExperimentConfig()
        custom = from_dict({
            "seed": 3,
            "dataset": {"classes": 10, "noise_sigma": 0.2},
            "model": {"hidden": [32, 16], "embedding": 8},
            "loss": {"kind": "additive", "m3": 0.2},
            "search": {"mu": -5.0, "population": 8},
        })
        assert from_dict(custom.to_dict()) == custom


# One non-default value for every setting. Integers given for float settings
# (scale, weight_decay, drop_factor, mag_lo) must echo as floats.
LEAF_OVERRIDES = {
    "seed": 7,
    "reward": "classification",
    "dataset.path": "faces.csv",
    "dataset.classes": 10,
    "dataset.dim": 8,
    "dataset.samples_per_class": 12,
    "dataset.noise_sigma": 0.5,
    "dataset.train_frac": 0.75,
    "dataset.n_pairs": 100,
    "model.hidden": [32, 16],
    "model.embedding": 8,
    "model.scale": 32,
    "sgd.learning_rate": 0.05,
    "sgd.momentum": 0.5,
    "sgd.weight_decay": 0,
    "sgd.batch_size": 64,
    "schedule.epochs": 3,
    "schedule.drop_epochs": [1, 2],
    "schedule.drop_factor": 5,
    "loss.kind": "combined",
    "loss.m1": 3,
    "loss.m2": 0.25,
    "loss.m3": 0.1,
    "loss.a": -2.0,
    "search.mu": -3.0,
    "search.sigma": 0.5,
    "search.eta": 0.1,
    "search.population": 2,
    "search.score_grad": "a",
    "search.outer": "adam",
    "search.transform": "negexp",
    "random.mag_lo": 2,
    "random.mag_hi": 20.0,
}


def leaves(tree, prefix=""):
    """Every (dotted path, value) of a settings tree."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


class TestEveryLeaf:
    def test_table_covers_every_setting(self):
        assert sorted(LEAF_OVERRIDES) == sorted(path for path, _ in
                                                leaves(ExperimentConfig().to_dict()))
        # A refused range names its setting by the bare name, so names are unique.
        names = [path.split(".")[-1] for path in LEAF_OVERRIDES]
        assert len(set(names)) == len(names)

    @pytest.mark.parametrize("path", sorted(LEAF_OVERRIDES))
    def test_override_round_trips(self, path):
        tree = {}
        set_path(tree, path, LEAF_OVERRIDES[path])
        config = from_dict(tree)
        echo = dict(leaves(config.to_dict()))
        default = dict(leaves(ExperimentConfig().to_dict()))
        value = LEAF_OVERRIDES[path]
        expected = tuple(value) if isinstance(value, list) else value
        assert echo[path] == expected
        assert type(echo[path]) is type(default[path]) or default[path] is None
        assert {k: v for k, v in echo.items() if k != path} == \
            {k: v for k, v in default.items() if k != path}
        assert from_dict(config.to_dict()) == config


class TestRejection:
    def test_unknown_keys_name_the_path(self):
        with pytest.raises(ConfigError, match="bogus"):
            from_dict({"bogus": 1})
        with pytest.raises(ConfigError, match=r"dataset\.classez"):
            from_dict({"dataset": {"classez": 10}})
        with pytest.raises(ConfigError, match=r"loss\.m9"):
            from_dict({"loss": {"m9": 1}})

    def test_type_errors(self):
        with pytest.raises(ConfigError, match=r"config\.seed"):
            from_dict({"seed": True})
        with pytest.raises(ConfigError, match=r"dataset\.classes"):
            from_dict({"dataset": {"classes": "10"}})
        with pytest.raises(ConfigError, match=r"model\.hidden"):
            from_dict({"model": {"hidden": [16, "a"]}})
        with pytest.raises(ConfigError, match=r"dataset\.path"):
            from_dict({"dataset": {"path": 7}})
        with pytest.raises(ConfigError, match="root"):
            from_dict(["not", "a", "table"])

    def test_range_errors(self):
        bad = [
            {"seed": -1},
            {"seed": 2 ** 64},
            {"dataset": {"classes": 1}},
            {"dataset": {"noise_sigma": 0.0}},
            {"dataset": {"train_frac": 1.0}},
            {"dataset": {"n_pairs": 7}},
            {"model": {"scale": 0.0}},
            {"model": {"hidden": [0]}},
            {"sgd": {"learning_rate": 0.0}},
            {"sgd": {"batch_size": 0}},
            {"schedule": {"drop_factor": 1.0}},
            {"schedule": {"drop_epochs": [25, 15]}},
            {"schedule": {"drop_epochs": [0]}},
            {"loss": {"kind": "nope"}},
            {"loss": {"kind": "additive", "m3": 0.0}},
            {"loss": {"kind": "additive-angular", "m2": 0.0}},
            {"loss": {"kind": "combined", "m2": -0.1}},
            {"loss": {"kind": "unified", "a": 0.5}},
            {"reward": "bogus"},
            {"search": {"sigma": 0.0}},
            {"search": {"eta": 0.0}},
            {"search": {"population": 0}},
            {"search": {"mu": 1.0}},
            {"search": {"score_grad": "nope"}},
            {"random": {"mag_lo": 0.0, "mag_hi": 5.0}},
            {"random": {"mag_lo": 5.0, "mag_hi": 2.0}},
            {"search": {"mu": float("nan")}},
            {"search": {"eta": float("inf")}},
            {"loss": {"kind": "unified", "a": float("nan")}},
            {"loss": {"kind": "unified", "a": float("-inf")}},
            {"sgd": {"learning_rate": float("nan")}},
            {"random": {"mag_hi": float("inf")}},
            {"search": {"mu": -10 ** 400}},
        ]
        for tree in bad:
            with pytest.raises(ConfigError):
                from_dict(tree)

    @pytest.mark.parametrize("tree, path, words", [
        ({"sgd": {"momentum": 1.0}}, "sgd.momentum", "momentum must lie in [0, 1)"),
        ({"search": {"sigma": 0}}, "search.sigma", "sigma must be > 0"),
        ({"search": {"population": 0}}, "search.population", "population must be >= 1"),
        ({"search": {"score_grad": "b"}}, "search.score_grad", "score_grad must be one of"),
        ({"schedule": {"epochs": -1}}, "schedule.epochs", "epochs must be >= 0"),
        ({"schedule": {"drop_epochs": [0]}}, "schedule.drop_epochs", "1-based"),
        ({"dataset": {"noise_sigma": 0}}, "dataset.noise_sigma", "noise_sigma must be > 0"),
        ({"loss": {"kind": "unified", "a": 1}}, "loss.a", "a must be <= 0"),
        ({"loss": {"kind": "angular", "m1": 0}}, "loss.m1", "m1 must be an integer >= 1"),
        ({"seed": 2 ** 64}, "config.seed", "64 unsigned bits"),
        ({"model": {"scale": 0}}, "model.scale", "scale must be > 0"),
    ])
    def test_domain_checks_name_section_and_field(self, tree, path, words):
        with pytest.raises(ConfigError) as exc:
            from_dict(tree)
        message = str(exc.value)
        assert message.startswith(f"{path}: ")
        assert words in message

    def test_domain_check_exits_2_with_one_line(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"sgd": {"momentum": 1.0}}', encoding="utf-8")
        assert main(["train-fixed", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == \
            "config error: sgd.momentum: momentum must lie in [0, 1)\n"

    def test_unused_loss_knobs_are_not_checked(self):
        # Each kind takes only its own knobs, so a plain loss ignores m1.
        assert from_dict({"loss": {"kind": "plain", "m1": 0}}).loss.m1 == 0
        assert from_dict({"loss": {"kind": "additive", "m2": -1.0}}).loss.m2 == -1.0

    def test_positive_mu_allowed_under_negexp(self):
        config = from_dict({"search": {"transform": "negexp", "mu": 2.0}})
        assert config.search.mu == 2.0

    def test_collapsed_random_range_allowed(self):
        config = from_dict({"random": {"mag_lo": 0.0, "mag_hi": 0.0}})
        assert config.random.mag_lo == config.random.mag_hi == 0.0


class TestLossHandling:
    def test_aliases(self):
        assert from_dict({"loss": {"kind": "am"}}).loss.kind == "additive"
        assert from_dict({"loss": {"kind": "arc"}}).loss.kind == "additive-angular"

    def test_zero_factor_canonicalizes_to_plain(self):
        config = from_dict({"loss": {"kind": "unified", "a": 0.0}})
        assert config.loss.kind == "plain"
        assert config.to_dict() == from_dict({"loss": {"kind": "plain"}}).to_dict()

    def test_negative_factor_stays_unified(self):
        config = from_dict({"loss": {"kind": "unified", "a": -5.0}})
        assert config.loss.kind == "unified"
        assert config.loss.a == -5.0

    def test_margin_spec_dispatch(self):
        cases = [
            ({"kind": "plain"}, MarginKind.PLAIN, None),
            ({"kind": "angular", "m1": 3}, MarginKind.ANGULAR, ("m1", 3)),
            ({"kind": "additive-angular", "m2": 0.4}, MarginKind.ADDITIVE_ANGULAR,
             ("m2", 0.4)),
            ({"kind": "additive", "m3": 0.2}, MarginKind.ADDITIVE, ("m3", 0.2)),
            ({"kind": "combined", "m1": 2, "m2": 0.3, "m3": 0.1}, MarginKind.COMBINED,
             ("m2", 0.3)),
            ({"kind": "unified", "a": -7.0}, MarginKind.UNIFIED, ("a", -7.0)),
        ]
        for tree, kind, check in cases:
            spec = margin_spec(from_dict({"loss": tree}).loss)
            assert spec.kind is kind
            if check is not None:
                assert getattr(spec, check[0]) == check[1]

    def test_margin_spec_unknown_kind(self):
        with pytest.raises(ConfigError):
            margin_spec(LossConfig(kind="mystery"))


class TestBridges:
    def test_schedule_of(self):
        config = from_dict({"sgd": {"learning_rate": 0.2},
                            "schedule": {"drop_epochs": [3, 7], "drop_factor": 5.0}})
        schedule = schedule_of(config)
        assert schedule.initial == 0.2
        assert schedule.drop_epochs == (3, 7)
        assert schedule.lr_at(3) == pytest.approx(0.04, rel=1e-15)

    def test_distribution_of(self):
        config = from_dict({"search": {"mu": -3.0, "sigma": 0.5, "eta": 0.1,
                                       "population": 6}})
        dist = distribution_of(config)
        assert dist.mu == -3.0
        assert dist.sigma == 0.5
        assert dist.eta == 0.1
        assert dist.population == 6


class TestSetPath:
    def test_plants_nested_values(self):
        tree = {"a": {"b": 1}}
        set_path(tree, "a.c", 2)
        set_path(tree, "x.y.z", 3)
        assert tree == {"a": {"b": 1, "c": 2}, "x": {"y": {"z": 3}}}

    def test_overwrites_leaf(self):
        tree = {"a": {"b": 1}}
        set_path(tree, "a.b", 9)
        assert tree["a"]["b"] == 9

    def test_refuses_to_traverse_a_leaf(self):
        tree = {"a": 1}
        with pytest.raises(ConfigError):
            set_path(tree, "a.b", 2)


class TestLoadConfigFile:
    def test_loads_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"seed": 5}', encoding="utf-8")
        assert load_config_file(path) == {"seed": 5}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config_file(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{oops", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config_file(path)
