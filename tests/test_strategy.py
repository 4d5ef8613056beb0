import json
import re

import numpy as np
import pytest

from tabular_automl.data_core import MetaFeatures, ProblemType, RawTable, profile_column
from tabular_automl.errors import (
    NoApplicableStrategy,
    ParseError,
    RealizationMismatch,
    ValidationError,
)
from tabular_automl.schema import ColumnType, build_schema
from tabular_automl.strategy import (
    PipelineDefinition,
    Strategy,
    StrategyPortfolio,
    StrategyRule,
    builtin_portfolio,
    execute_preprocessing,
    parse_definition_text,
    realize,
    recommend_strategies,
    serialize_definition,
    strategy_from_dict,
    strategy_to_dict,
)
from tabular_automl.strategy.definitions import HEADER
from tabular_automl.strategy.preprocess import preprocessor_from_dict, preprocessor_to_dict

REGRESSION = ProblemType(kind="regression")


def make_mf(n_rows=100, n_cols=5):
    return MetaFeatures(
        n_rows=n_rows,
        n_cols=n_cols,
        type_distribution={},
        target_correlations={},
        size_bytes=1000,
        density=1.0,
    )


def schema_for(columns):
    names = list(columns)
    profiles = {n: profile_column(v) for n, v in columns.items()}
    return build_schema([profiles[n] for n in names], names=names), profiles


def outlier_values(n_outliers):
    values = [f"{0.5 if i % 2 else -0.5}" for i in range(500)]
    values += ["100.0"] * n_outliers
    return values


CLEAN_NUMERIC = [f"{(i % 19) / 10}" for i in range(120)]
CATEGORICAL = [f"grp{i % 4}" for i in range(120)]
TEXT = [f"many words appear in record number {i} right here" for i in range(120)]


def strategy_by_id(sid):
    for s in builtin_portfolio().strategies:
        if s.id == sid:
            return s
    raise KeyError(sid)


class TestRecommend:
    def test_full_inventory_keeps_all_ten(self):
        schema, _ = schema_for(
            {"a": CLEAN_NUMERIC, "b": CLEAN_NUMERIC, "c": CATEGORICAL, "d": TEXT}
        )
        kept = recommend_strategies(make_mf(n_cols=4), schema, builtin_portfolio())
        assert len(kept) == 10

    def test_no_text_drops_text_strategies(self):
        schema, _ = schema_for({"a": CLEAN_NUMERIC, "b": CLEAN_NUMERIC, "c": CATEGORICAL})
        kept = recommend_strategies(make_mf(n_cols=3), schema, builtin_portfolio())
        ids = {s.id for s in kept}
        assert "gbt_text_focus" not in ids
        assert "linear_text" not in ids
        assert len(kept) == 8

    def test_narrow_table_drops_pca_strategies(self):
        schema, _ = schema_for({"a": CLEAN_NUMERIC, "b": CATEGORICAL})
        kept = recommend_strategies(make_mf(n_cols=2), schema, builtin_portfolio())
        ids = {s.id for s in kept}
        assert "gbt_pca_wide" not in ids
        assert "linear_pca_wide" not in ids

    def test_empty_portfolio_rejected(self):
        schema, _ = schema_for({"a": CLEAN_NUMERIC})
        with pytest.raises(NoApplicableStrategy):
            recommend_strategies(make_mf(), schema, StrategyPortfolio(strategies=[]))

    def test_nothing_applicable_rejected(self):
        schema, _ = schema_for({"a": CLEAN_NUMERIC})
        text_only = StrategyPortfolio(
            strategies=[strategy_by_id("linear_text")], metadata={}
        )
        with pytest.raises(NoApplicableStrategy):
            recommend_strategies(make_mf(), schema, text_only)


class TestRealize:
    def test_outlier_rule_fires_with_bound_bin_count(self):
        schema, profiles = schema_for({"amount": outlier_values(12), "other": CLEAN_NUMERIC})
        d = realize(strategy_by_id("gbt_robust_numeric"), schema, profiles, make_mf(), REGRESSION)
        by_col = {spec.select_columns[0]: spec for spec in d.transformers}
        assert by_col["amount"].kind == "quantile_bin"
        assert by_col["amount"].params == {"bins": 5}
        assert by_col["other"].kind == "standardize"
        assert d.provenance["firings"] == [{"rule": 0, "column": "amount"}]

    def test_outlier_rule_quiet_below_threshold(self):
        schema, profiles = schema_for({"amount": outlier_values(3)})
        d = realize(strategy_by_id("gbt_robust_numeric"), schema, profiles, make_mf(), REGRESSION)
        assert [s.kind for s in d.transformers] == ["standardize"]
        assert d.provenance["firings"] == []

    def test_pca_width_scales_with_column_count(self):
        schema, profiles = schema_for(
            {"a": CLEAN_NUMERIC, "b": CLEAN_NUMERIC, "c": CLEAN_NUMERIC}
        )
        d = realize(
            strategy_by_id("gbt_pca_wide"), schema, profiles, make_mf(n_cols=200), REGRESSION
        )
        assert d.transformers[-1].kind == "pca"
        assert d.transformers[-1].params == {"k": 100}
        assert d.transformers[-1].select_columns is None

    def test_pca_quiet_on_narrow_tables(self):
        schema, profiles = schema_for(
            {"a": CLEAN_NUMERIC, "b": CLEAN_NUMERIC, "c": CLEAN_NUMERIC}
        )
        d = realize(
            strategy_by_id("gbt_pca_wide"), schema, profiles, make_mf(n_cols=50), REGRESSION
        )
        assert all(s.kind != "pca" for s in d.transformers)

    def test_defaults_cover_unclaimed_types(self):
        schema, profiles = schema_for({"n": CLEAN_NUMERIC, "c": CATEGORICAL, "t": TEXT})
        d = realize(strategy_by_id("baseline_gbt"), schema, profiles, make_mf(), REGRESSION)
        kinds = {s.select_columns[0]: s.kind for s in d.transformers}
        assert kinds == {"n": "standardize", "c": "one_hot", "t": "tfidf"}
        tfidf = next(s for s in d.transformers if s.kind == "tfidf")
        assert tfidf.params["max_features"] == 200

    def test_ignored_columns_get_no_transformer(self):
        noise = [f"id-{i}-xyz!!{i * 7}" for i in range(60)]
        schema, profiles = schema_for({"n": CLEAN_NUMERIC, "junk": noise})
        d = realize(strategy_by_id("baseline_gbt"), schema, profiles, make_mf(), REGRESSION)
        assert [s.select_columns for s in d.transformers] == [["n"]]

    def test_rule_without_matching_type_is_an_error(self):
        schema, profiles = schema_for({"n": CLEAN_NUMERIC})
        with pytest.raises(RealizationMismatch):
            realize(strategy_by_id("linear_text"), schema, profiles, make_mf(), REGRESSION)

    def test_space_comes_from_table_shape(self):
        schema, profiles = schema_for({"n": CLEAN_NUMERIC})
        d = realize(
            strategy_by_id("baseline_gbt"), schema, profiles, make_mf(n_rows=64), REGRESSION
        )
        assert d.space.domain("max_depth").hi == 6
        assert d.seeds[0]["n_trees"] == 100


def unknown_kind(rule):
    rule["action"]["kind"] = "quantile_bn"


def matrix_kind_on_a_column(rule):
    rule["action"] = {"kind": "pca", "params": {"k": 2}}


def column_kind_on_the_matrix(rule):
    rule["action"] = {"kind": "standardize", "params": {}}


def misspelt_param(rule):
    rule["action"]["params"] = {"bnis": "X2"}


def param_of_no_param_kind(rule):
    rule["action"] = {"kind": "log_transform", "params": {"base": 10}}


def unknown_symbol(rule):
    rule["action"]["params"] = {"bins": "X9"}


def round_mul_by_a_profile_field(rule):
    rule["action"]["params"] = {"k": {"round_mul": ["X4", "skewness"]}}


def unknown_op(rule):
    rule["condition"]["op"] = "=>"


def meta_field_on_a_column(rule):
    rule["condition"]["field"] = "n_rows"


def profile_field_on_the_matrix(rule):
    rule["condition"]["field"] = "skewness"


def dict_field(rule):
    rule["condition"]["field"] = "percentiles"


def value_not_a_number(rule):
    rule["condition"]["value"] = "two"


def condition_without_value(rule):
    del rule["condition"]["value"]


# (builtin strategy, edit of its first rule, fragment of the message)
RULE_ERRORS = [
    ("gbt_binned", unknown_kind, "single_column rules take impute_mean"),
    ("gbt_binned", matrix_kind_on_a_column, "got 'pca'"),
    ("gbt_pca_wide", column_kind_on_the_matrix, "multi_column rules take pca, got 'standardize'"),
    ("gbt_binned", misspelt_param, "quantile_bin takes the parameters ['bins']"),
    ("gbt_log_skew", param_of_no_param_kind, "log_transform takes the parameters []"),
    ("gbt_binned", unknown_symbol, "'X9'"),
    ("gbt_pca_wide", round_mul_by_a_profile_field, "'skewness'"),
    ("gbt_log_skew", unknown_op, "'=>'"),
    ("gbt_log_skew", meta_field_on_a_column, "'n_rows'"),
    ("gbt_pca_wide", profile_field_on_the_matrix, "'skewness'"),
    ("gbt_log_skew", dict_field, "'percentiles'"),
    ("gbt_robust_numeric", value_not_a_number, "'two'"),
    ("gbt_robust_numeric", condition_without_value, "a single_column condition tests one of"),
]


class TestStrategyValidation:
    def test_at_most_five_seeds(self):
        with pytest.raises(ValueError):
            Strategy(id="s", algorithm="gbt", seeds=[{"n_trees": n} for n in range(6)])

    def test_single_column_rules_first(self):
        multi = StrategyRule(scope="multi_column", action={"kind": "pca", "params": {"k": 2}})
        single = StrategyRule(
            scope="single_column",
            column_type=ColumnType.NUMERIC,
            action={"kind": "standardize", "params": {}},
        )
        with pytest.raises(ValueError):
            Strategy(id="s", algorithm="gbt", rules=[multi, single])

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ValueError):
            Strategy(id="s", algorithm="gbt", bindings={"X9": 1.0})

    def test_portfolio_caps_at_ten(self):
        many = [Strategy(id=f"s{i}", algorithm="gbt") for i in range(11)]
        with pytest.raises(ValueError):
            StrategyPortfolio(strategies=many)

    def test_portfolio_ids_unique(self):
        dup = [Strategy(id="s", algorithm="gbt"), Strategy(id="s", algorithm="linear")]
        with pytest.raises(ValueError):
            StrategyPortfolio(strategies=dup)

    def test_dict_round_trip(self):
        s = strategy_by_id("gbt_robust_numeric")
        clone = strategy_from_dict(json.loads(json.dumps(strategy_to_dict(s))))
        assert strategy_to_dict(clone) == strategy_to_dict(s)

    @pytest.mark.parametrize("strategy_id, edit, fragment", RULE_ERRORS,
                             ids=[case[1].__name__ for case in RULE_ERRORS])
    def test_rule_the_realizer_cannot_use_is_rejected_when_built(self, strategy_id, edit, fragment):
        d = strategy_to_dict(strategy_by_id(strategy_id))
        edit(d["rules"][0])
        with pytest.raises(ValueError) as exc:
            strategy_from_dict(d)
        assert str(exc.value).startswith(f"strategy {strategy_id!r}: ")
        assert fragment in str(exc.value)

    @pytest.mark.parametrize("key, value, fragment",
                             [("algorithm", "forest", "unknown algorithm 'forest'"),
                              ("id", "..", "strategy id '..' must be a plain file name"),
                              ("id", "a/b", "strategy id 'a/b' must be a plain file name")])
    def test_unknown_algorithm_or_unsafe_id_rejected(self, key, value, fragment):
        d = strategy_to_dict(strategy_by_id("baseline_gbt")) | {key: value}
        with pytest.raises(ValueError, match=re.escape(fragment)):
            strategy_from_dict(d)


def realized_example():
    schema, profiles = schema_for(
        {"amount": outlier_values(12), "other": CLEAN_NUMERIC, "seg": CATEGORICAL}
    )
    return realize(
        strategy_by_id("gbt_robust_numeric"), schema, profiles, make_mf(n_rows=512), REGRESSION
    )


class TestDefinitionFiles:
    def test_serialize_parse_round_trip_is_byte_identical(self):
        text = serialize_definition(realized_example())
        again = serialize_definition(parse_definition_text(text))
        assert again == text

    def test_parse_preserves_structure(self):
        d = realized_example()
        parsed = parse_definition_text(serialize_definition(d))
        assert parsed.pipeline_id == d.pipeline_id
        assert parsed.problem_kind == d.problem_kind
        assert parsed.algorithm == d.algorithm
        assert parsed.space == d.space
        assert parsed.seeds == d.seeds
        assert [s.kind for s in parsed.transformers] == [s.kind for s in d.transformers]

    def test_edited_range_narrows_the_space(self):
        text = serialize_definition(realized_example())
        edited = text.replace("n_trees = int(10, 300)", "n_trees = int(2, 4)")
        assert edited != text
        parsed = parse_definition_text(edited)
        dom = parsed.space.domain("n_trees")
        assert (dom.lo, dom.hi) == (2, 4)

    def test_inverted_range_names_the_line(self):
        text = serialize_definition(realized_example())
        edited = text.replace("n_trees = int(10, 300)", "n_trees = int(30, 10)")
        with pytest.raises(ValidationError) as exc:
            parse_definition_text(edited)
        line_no = edited.split("\n").index("n_trees = int(30, 10)") + 1
        assert f":{line_no}:" in str(exc.value)

    def test_single_bin_rejected(self):
        text = serialize_definition(realized_example())
        edited = text.replace("quantile_bin(bins=5)", "quantile_bin(bins=1)")
        with pytest.raises(ValidationError):
            parse_definition_text(edited)

    def test_garbled_line_raises_parse_error_with_location(self):
        text = serialize_definition(realized_example())
        edited = text.replace("[tunables]", "[tunables]\nwhat even is this", 1)
        with pytest.raises(ParseError) as exc:
            parse_definition_text(edited)
        assert re.search(r":\d+:", str(exc.value))

    def test_unknown_section_rejected(self):
        text = serialize_definition(realized_example())
        with pytest.raises(ParseError):
            parse_definition_text(text.replace("[seeds]", "[mystery]"))

    def test_seed_outside_edited_range_clamps_into_it(self):
        # narrowing a range must not invalidate shipped seeds
        text = serialize_definition(realized_example())
        edited = text.replace("n_trees = int(10, 300)", "n_trees = int(10, 30)")
        parsed = parse_definition_text(edited)
        clamped = parsed.space.clamp(parsed.seeds[0])
        assert clamped["n_trees"] == 30

    def test_too_many_seeds_rejected(self):
        text = serialize_definition(realized_example())
        extra = json.dumps({"n_trees": 42}) + "\n\n[provenance]"
        with pytest.raises(ValidationError):
            parse_definition_text(text.replace("\n[provenance]", extra, 1))


# (old, new, error class, message fragment, the line reported): the line is
# the last one equal to the given text, or the file's last line for None.
PARSER_ERRORS = {
    "duplicate_section": ("[provenance]", "[seeds]", ParseError, "duplicate section",
                          "[seeds]"),
    "content_before_section": (HEADER, "stray", ParseError, "content before any section",
                               "stray"),
    "missing_section": ("[tunables]\n", "", ParseError, "missing required section [tunables]",
                        None),
    "missing_id": ("id = gbt_robust_numeric\n", "", ValidationError, "missing pipeline id",
                   HEADER),
    "invalid_id": ("id = gbt_robust_numeric", "id = no spaces", ValidationError,
                   "invalid pipeline id", "id = no spaces"),
    "parent_dir_id": ("id = gbt_robust_numeric", "id = ..", ValidationError,
                      "invalid pipeline id", "id = .."),
    "current_dir_id": ("id = gbt_robust_numeric", "id = .", ValidationError,
                       "invalid pipeline id", "id = ."),
    "unknown_problem": ("problem = regression", "problem = regresion", ValidationError,
                        "unknown problem kind", "problem = regresion"),
    "one_class": ("problem = regression", "problem = regression\nclasses = 1",
                  ValidationError, "classes must be an integer >= 2", "classes = 1"),
    "classes_missing": ("problem = regression", "problem = binary_classification",
                        ValidationError, "need a classes line",
                        "problem = binary_classification"),
    "unknown_algorithm": ("name = gbt", "name = forest", ValidationError, "unknown algorithm",
                          "name = forest"),
    "missing_name": ("name = gbt\n", "", ValidationError, "missing algorithm name", None),
    "static_and_tunable": ("loss = squared_error", "loss = squared_error\nn_trees = 5",
                           ValidationError, "both static and tunable", None),
    "seed_not_json": ("[seeds]\n", "[seeds]\nnot json\n", ParseError, "seed is not valid JSON",
                      "not json"),
    "seed_not_object": ("[seeds]\n", "[seeds]\n[1, 2]\n", ParseError,
                        "seed must be a JSON object", "[1, 2]"),
    "firing_not_json": ('firing = {"column"', "firing = {column", ParseError,
                        "firing is not valid JSON", 'firing = {column: "amount", "rule": 0}'),
    "unknown_provenance_key": ("[provenance]\n", "[provenance]\nauthor = me\n", ParseError,
                               "unknown provenance key", "author = me"),
    "param_without_equals": ("quantile_bin(bins=5)", "quantile_bin(bins)", ParseError,
                             "is not name=value", 'quantile_bin(bins) on "amount"'),
    "non_numeric_param": ("quantile_bin(bins=5)", "quantile_bin(bins=five)", ParseError,
                          "must be numeric", 'quantile_bin(bins=five) on "amount"'),
    "column_list": ('standardize on "other"', "standardize on other", ParseError,
                    "cannot parse column list", "standardize on other"),
    "non_numeric_bound": ("int(2, 9)", "int(two, 9)", ParseError,
                          "domain bounds must be numeric", "max_depth = int(two, 9)"),
    "log_lo_not_positive": ("log_float(0.01, 0.5)", "log_float(0, 0.5)", ValidationError,
                            "log domain needs lo > 0", "learning_rate = log_float(0, 0.5)"),
    "fractional_bins": ("bins=5", "bins=2.5", ValidationError, "integer bins >= 2",
                        'quantile_bin(bins=2.5) on "amount"'),
    "float_bins": ("bins=5", "bins=5.0", ValidationError, "integer bins >= 2",
                   'quantile_bin(bins=5.0) on "amount"'),
    "misspelt_param": ("bins=5", "bnis=5", ValidationError, "quantile_bin parameters must be",
                       'quantile_bin(bnis=5) on "amount"'),
    "bare_quantile_bin": ("quantile_bin(bins=5)", "quantile_bin", ValidationError,
                          "quantile_bin parameters must be ['bins']", 'quantile_bin on "amount"'),
    "param_of_no_param_kind": ('standardize on "other"', 'standardize(scale=2) on "other"',
                               ValidationError, "standardize parameters must be []",
                               'standardize(scale=2) on "other"'),
}


@pytest.mark.parametrize("case", list(PARSER_ERRORS), ids=list(PARSER_ERRORS))
def test_parser_error_names_its_class_and_line(case):
    old, new, error, fragment, marker = PARSER_ERRORS[case]
    text = serialize_definition(realized_example())
    assert old in text
    edited = text.replace(old, new, 1)
    lines = edited.split("\n")
    line_no = len(lines) if marker is None else len(lines) - lines[::-1].index(marker)
    with pytest.raises(error) as exc:
        parse_definition_text(edited, "x.pipeline")
    assert type(exc.value) is error
    assert f"x.pipeline:{line_no}: " in str(exc.value)
    assert fragment in str(exc.value)


@pytest.mark.parametrize(
    "old, new, fragment",
    [("n_trees = int(10, 300)", "n_trees = int(10, inf)", "need finite bounds"),
     ("learning_rate = log_float(0.01, 0.5)", "learning_rate = log_float(0.01, inf)",
      "need finite bounds"),
     ("max_depth = int(2, 9)", "max_depth = int(2.5, 8.5)", "need integer bounds")],
    ids=["int_inf", "log_float_inf", "fractional_int"],
)
def test_bound_the_tuner_cannot_use_is_rejected_at_its_line(old, new, fragment):
    text = serialize_definition(realized_example())
    edited = text.replace(old, new, 1)
    line_no = edited.split("\n").index(new) + 1
    with pytest.raises(ValidationError, match=fragment) as exc:
        parse_definition_text(edited, "x.pipeline")
    assert f"x.pipeline:{line_no}: " in str(exc.value)


def table(columns, target, target_values):
    names = list(columns) + [target]
    cols = list(columns.values()) + [target_values]
    n = len(cols[0])
    cells = [[c[i] for c in cols] for i in range(n)]
    return RawTable(column_names=names, cells=cells, target_index=len(names) - 1)


def split(columns, target, target_values, n_valid):
    full = table(columns, target, target_values)
    n = full.n_rows
    return full.subset(range(n - n_valid)), full.subset(range(n - n_valid, n))


def definition(transformers, problem=REGRESSION, algorithm="gbt"):
    from tabular_automl.learners import default_hp_space

    return PipelineDefinition(
        pipeline_id="p",
        problem_kind=problem.kind,
        n_classes=problem.n_classes,
        transformers=transformers,
        algorithm=algorithm,
        space=default_hp_space(algorithm, problem, 100, 3),
        seeds=[],
    )


class TestPreprocessing:
    def test_single_numeric_column_mean_zero(self):
        from tabular_automl.transforms import TransformerSpec

        xs = [f"{i % 7}" if i % 5 else None for i in range(100)]
        ys = [f"{i}.0" for i in range(100)]
        train, valid = split({"x": xs}, "y", ys, 20)
        d = definition([TransformerSpec(kind="standardize", params={}, select_columns=["x"])])
        prep = execute_preprocessing(d, train, valid)
        assert prep.X_train.shape == (80, 1)
        assert abs(prep.X_train.mean()) < 1e-12
        assert prep.X_valid.shape == (20, 1)
        assert prep.label_mapping is None

    def test_repeated_runs_identical(self):
        from tabular_automl.transforms import TransformerSpec

        xs = [f"{(i * 7) % 13}" for i in range(60)]
        cats = [f"c{i % 3}" for i in range(60)]
        ys = [str(i % 2) for i in range(60)]
        train, valid = split({"x": xs, "c": cats}, "y", ys, 10)
        d = definition(
            [
                TransformerSpec(kind="standardize", params={}, select_columns=["x"]),
                TransformerSpec(kind="one_hot", params={}, select_columns=["c"]),
            ],
            problem=ProblemType(kind="binary_classification", n_classes=2),
        )
        a = execute_preprocessing(d, train, valid)
        b = execute_preprocessing(d, train, valid)
        assert np.array_equal(a.X_train, b.X_train)
        doc_a = json.dumps(preprocessor_to_dict(d, a.fitted, a.label_mapping), sort_keys=True)
        doc_b = json.dumps(preprocessor_to_dict(d, b.fitted, b.label_mapping), sort_keys=True)
        assert doc_a == doc_b

    def test_unseen_feature_category_is_fine(self):
        from tabular_automl.transforms import TransformerSpec

        cats = ["a"] * 30 + ["b"] * 25 + ["brand_new"] * 5
        ys = [f"{i}.0" for i in range(60)]
        train, valid = split({"c": cats}, "y", ys, 5)
        d = definition([TransformerSpec(kind="one_hot", params={}, select_columns=["c"])])
        prep = execute_preprocessing(d, train, valid)
        assert np.isfinite(prep.X_valid).all()
        assert (prep.X_valid.sum(axis=1) == 1.0).all()

    def test_unseen_valid_label_rejected(self):
        from tabular_automl.transforms import TransformerSpec

        xs = [f"{i}" for i in range(40)]
        ys = ["cat"] * 20 + ["dog"] * 15 + ["ferret"] * 5
        train, valid = split({"x": xs}, "y", ys, 5)
        d = definition(
            [TransformerSpec(kind="standardize", params={}, select_columns=["x"])],
            problem=ProblemType(kind="binary_classification", n_classes=2),
        )
        with pytest.raises(ValidationError, match="never seen in training"):
            execute_preprocessing(d, train, valid)

    def test_classification_preprocessor_without_label_mapping_rejected(self):
        doc = {
            "version": 1,
            "pipeline_id": "p",
            "problem_kind": "binary_classification",
            "n_classes": 2,
            "transformers": [],
            "label_mapping": None,
        }
        with pytest.raises(ValidationError, match="lacks a label mapping"):
            preprocessor_from_dict(doc)

    def test_unknown_column_rejected(self):
        from tabular_automl.transforms import TransformerSpec

        train, valid = split({"x": ["1"] * 20}, "y", ["2"] * 20, 4)
        d = definition([TransformerSpec(kind="standardize", params={}, select_columns=["nope"])])
        with pytest.raises(ValidationError, match="unknown column"):
            execute_preprocessing(d, train, valid)

    def test_target_column_off_limits(self):
        from tabular_automl.transforms import TransformerSpec

        train, valid = split({"x": ["1"] * 20}, "y", ["2"] * 20, 4)
        d = definition([TransformerSpec(kind="standardize", params={}, select_columns=["y"])])
        with pytest.raises(ValidationError, match="target"):
            execute_preprocessing(d, train, valid)
