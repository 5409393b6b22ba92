"""Model file parsing, validation, and rendering."""
from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    antichain, anticorrelated_coins, coin_site, diagonal_model, entangled_pair, sparse_model,
)

from screenoff.modelfile import (
    FORMAT_VERSION,
    LoadedModel,
    ModelFileError,
    load_model,
    parse_model,
    parse_model_text,
    render_model,
    render_model_json,
)
from screenoff.corpus import random_quantal, random_stochastic
from screenoff.order import CausalSite
from screenoff.quantal import check_qso1
from screenoff.stochastic import StochasticModel, check_so1

F = Fraction


def coins_json(**overrides) -> str:
    data = render_model(
        anticorrelated_coins(),
        named_events={"A": "a_s=0", "B": "b_s=0", "C": "c=0"},
        named_regions={"source": ["c"], "wings": ["a_s", "b_s"]},
    )
    data.update(overrides)
    return json.dumps(data)


# -- round trips ------------------------------------------------------------


class TestRoundTrip:
    def test_stochastic(self):
        m = anticorrelated_coins()
        text = render_model_json(m, named_events={"A": "a_s=0"})
        loaded = parse_model_text(text)
        assert loaded.model == m
        assert loaded.named_events == {"A": "a_s=0"}
        assert render_model_json(loaded.model, loaded.named_events) == text

    def test_quantal(self):
        q = entangled_pair()
        loaded = parse_model_text(render_model_json(q))
        assert loaded.model.entries == q.entries
        assert loaded.model.site == q.site

    def test_quantal_diagonal(self):
        m = anticorrelated_coins()
        q = diagonal_model(m.site, m.weights)
        loaded = parse_model_text(render_model_json(q))
        assert loaded.model.entries == q.entries

    def test_named_lookups(self):
        loaded = parse_model_text(coins_json())
        assert loaded.event("A") == 0x33
        assert loaded.named_regions["source"] == ("c",)
        assert loaded.named_regions["wings"] == ("a_s", "b_s")

    def test_file_io(self, tmp_path):
        path = tmp_path / "coins.json"
        path.write_text(coins_json())
        loaded = load_model(str(path))
        assert isinstance(loaded, LoadedModel)
        assert parse_model(str(path)) == loaded.model

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFileError, match="No such file"):
            load_model(str(tmp_path / "absent.json"))

    def test_omitted_weights_default_to_zero(self):
        text = json.dumps(
            {
                "format_version": 1,
                "sites": [{"id": "u", "alphabet": 2}],
                "order": [],
                "measure": {"type": "stochastic", "weights": {"0": "1"}},
            }
        )
        m = parse_model_text(text).model
        assert m.weights == (F(1), F(0))


def _report_json(report) -> str:
    return json.dumps(report.to_json_dict())


@given(seed=st.integers(0, 10**6), n_sites=st.integers(2, 5), alphabet=st.integers(2, 3))
def test_random_stochastic_round_trips(seed, n_sites, alphabet):
    m = random_stochastic(seed, n_sites, alphabet)
    parsed = parse_model_text(render_model_json(m)).model
    assert parsed == m
    assert _report_json(check_so1(parsed)) == _report_json(check_so1(m))


# a rendered matrix carries no positivity witness, so the parsed model is
# certified by enumerating up to 2^16 events: fewer examples keep it quick
@settings(max_examples=30)
@given(seed=st.integers(0, 10**6), n_sites=st.integers(2, 4), rank=st.integers(1, 3))
def test_random_quantal_round_trips(seed, n_sites, rank):
    q = random_quantal(seed, n_sites, 2, rank)
    parsed = parse_model_text(render_model_json(q)).model
    assert parsed == q
    assert _report_json(check_qso1(parsed)) == _report_json(check_qso1(q))


# -- history keys -----------------------------------------------------------


class TestHistoryKeys:
    def test_concatenated_digit_order(self):
        # first declared element is the most significant digit
        loaded = parse_model_text(coins_json())
        assert loaded.model.mu(loaded.event("C")) == F(1, 2)
        assert loaded.model.weights[0b001] == F(1, 2)

    def test_wide_alphabets_are_dotted(self):
        site = CausalSite([("big", 12), ("bit", 2)], [])
        weights = [F(0)] * 24
        weights[0] = F(1, 2)
        weights[23] = F(1, 2)
        m = StochasticModel(site, weights)
        data = render_model(m)
        assert set(data["measure"]["weights"]) == {"0.0", "11.1"}
        assert parse_model_text(json.dumps(data)).model == m

    def test_undotted_keys_rejected_for_wide_alphabets(self):
        text = json.dumps(
            {
                "format_version": 1,
                "sites": [{"id": "big", "alphabet": 12}],
                "order": [],
                "measure": {"type": "stochastic", "weights": {"11": "1"}},
            }
        )
        with pytest.raises(ModelFileError, match="'.'-separated"):
            parse_model_text(text)

    def test_key_length_checked(self):
        bad = coins_json()
        bad = bad.replace('"001"', '"0011"')
        with pytest.raises(ModelFileError, match="expected 3 digits"):
            parse_model_text(bad)

    def test_digit_range_checked(self):
        bad = coins_json().replace('"001"', '"021"')
        with pytest.raises(ModelFileError, match="out of range"):
            parse_model_text(bad)

    def test_non_digit_rejected(self):
        bad = coins_json().replace('"001"', '"0x1"')
        with pytest.raises(ModelFileError, match="bad digit"):
            parse_model_text(bad)


# -- rationals --------------------------------------------------------------


class TestRationals:
    def make(self, value) -> str:
        return json.dumps(
            {
                "format_version": 1,
                "sites": [{"id": "u", "alphabet": 2}],
                "order": [],
                "measure": {
                    "type": "stochastic",
                    "weights": {"0": value, "1": "1/2"},
                },
            }
        )

    def test_integer_and_fraction_forms(self):
        m = parse_model_text(self.make("1/2")).model
        assert m.weights == (F(1, 2), F(1, 2))
        text = self.make(1).replace('"1/2"', '"0"')
        assert parse_model_text(text).model.weights == (F(1), F(0))

    def test_rejects_floats_and_junk(self):
        with pytest.raises(ModelFileError, match="not a rational"):
            parse_model_text(self.make(0.5))
        with pytest.raises(ModelFileError, match="not a rational"):
            parse_model_text(self.make("0.5"))
        with pytest.raises(ModelFileError, match="not a rational"):
            parse_model_text(self.make("half"))
        with pytest.raises(ModelFileError, match="boolean"):
            parse_model_text(self.make(True))

    def test_rejects_zero_denominator(self):
        with pytest.raises(ModelFileError, match="zero denominator"):
            parse_model_text(self.make("1/0"))


# -- structural and validation errors ---------------------------------------


class TestErrors:
    def test_bad_json_names_position(self):
        with pytest.raises(ModelFileError, match="line 1 column"):
            parse_model_text("{nope")

    def test_top_level_must_be_object(self):
        with pytest.raises(ModelFileError, match="top level"):
            parse_model_text("[1]")

    def test_format_version(self):
        with pytest.raises(ModelFileError, match="format_version"):
            parse_model_text(coins_json(format_version=99))

    def test_sites_required(self):
        with pytest.raises(ModelFileError, match="'sites'"):
            parse_model_text(json.dumps({"format_version": 1, "sites": []}))

    def test_site_entry_shape(self):
        bad = json.dumps(
            {"format_version": 1, "sites": [{"id": "u"}], "measure": {}}
        )
        with pytest.raises(ModelFileError, match=r"sites\[0\]"):
            parse_model_text(bad)
        bad = json.dumps(
            {
                "format_version": 1,
                "sites": [{"id": "u", "alphabet": 0}],
                "measure": {},
            }
        )
        with pytest.raises(ModelFileError, match="positive integer"):
            parse_model_text(bad)

    def test_unknown_order_id(self):
        with pytest.raises(ModelFileError, match="unknown site id 'zz'"):
            parse_model_text(coins_json(order=[["c", "zz"]]))

    def test_cyclic_order(self):
        with pytest.raises(ModelFileError, match="cycle"):
            parse_model_text(coins_json(order=[["c", "a_s"], ["a_s", "c"]]))

    def test_measure_type_tag(self):
        with pytest.raises(ModelFileError, match="'measure'"):
            parse_model_text(coins_json(measure={}))
        with pytest.raises(ModelFileError, match="'stochastic' or 'quantal'"):
            parse_model_text(coins_json(measure={"type": "fuzzy"}))

    def test_normalization_failure_names_axiom(self):
        bad = coins_json().replace('"1/2"', '"99/200"', 1)
        with pytest.raises(ModelFileError, match="normalization"):
            parse_model_text(bad)

    def test_negative_weight_reported(self):
        bad = coins_json().replace('"1/2"', '"-1/2"', 1)
        with pytest.raises(ModelFileError, match="negative weight"):
            parse_model_text(bad)

    def test_non_hermitian_matrix_names_witness(self):
        data = render_model(diagonal_model(antichain(1), [F(1, 2), F(1, 2)]))
        data["measure"]["matrix"][0][1] = {"re": "1/4", "im": "1/8"}
        data["measure"]["matrix"][1][0] = {"re": "1/4", "im": "0"}
        with pytest.raises(ModelFileError, match=r"hermiticity.*\(0, 1\)"):
            parse_model_text(json.dumps(data))

    def test_negative_quantal_event_reported(self):
        data = render_model(diagonal_model(antichain(1), [F(3, 2), F(-1, 2)]))
        with pytest.raises(ModelFileError, match="positivity"):
            parse_model_text(json.dumps(data))

    def test_matrix_shape_checked(self):
        data = render_model(diagonal_model(antichain(1), [F(1, 2), F(1, 2)]))
        data["measure"]["matrix"] = data["measure"]["matrix"][:1]
        with pytest.raises(ModelFileError, match="dense 2x2"):
            parse_model_text(json.dumps(data))
        data = render_model(diagonal_model(antichain(1), [F(1, 2), F(1, 2)]))
        data["measure"]["matrix"][1] = [{"re": "0", "im": "0"}]
        with pytest.raises(ModelFileError, match=r"matrix\[1\]"):
            parse_model_text(json.dumps(data))

    def test_bad_named_event(self):
        with pytest.raises(ModelFileError, match=r"named_events\['A'\]"):
            parse_model_text(coins_json(named_events={"A": "nosuch=0"}))
        with pytest.raises(ModelFileError, match="not an identifier"):
            parse_model_text(coins_json(named_events={"a b": "c=0"}))

    def test_bad_named_region(self):
        with pytest.raises(ModelFileError, match=r"named_regions\['R'\]"):
            parse_model_text(coins_json(named_regions={"R": ["zz"]}))


def _with_matrix_cell(cell) -> str:
    data = render_model(diagonal_model(antichain(1), [F(1, 2), F(1, 2)]))
    data["measure"]["matrix"][0][1] = cell
    return json.dumps(data)


@pytest.mark.parametrize("text, detail", [
    (coins_json(sites=[{"id": "", "alphabet": 2}]), "sites[0].id: expected a non-empty string"),
    (coins_json(order={"c": "a_s"}), "'order' must be a list of [below, above] pairs"),
    (coins_json(order=[["c", "a_s", "b_s"]]), "order[0]: expected a [below, above] pair"),
    (coins_json(measure={"type": "stochastic", "weights": [["001", "1/2"]]}),
     "measure.weights must be an object keyed by history"),
    (_with_matrix_cell("0"), "measure.matrix[0][1]: expected an object with 're'/'im'"),
    (coins_json(named_events={"A": 0}), "named_events['A']: expected an expression string"),
    (coins_json(named_regions={"R": "c"}), "named_regions['R']: expected a list of site ids"),
], ids=["site-id", "order", "order-pair", "weights", "matrix-cell", "named-event", "named-region"])
def test_reader_refusal_text(text, detail):
    with pytest.raises(ModelFileError) as refused:
        parse_model_text(text)
    assert str(refused.value) == f"model file error: <string>: {detail}"

# -- determinism ------------------------------------------------------------


class TestRenderDeterminism:
    def test_byte_identical_rerender(self):
        m = sparse_model(
            coin_site(), {(0, 0, 1): F(1, 3), (1, 1, 0): F(2, 3)}
        )
        one = render_model_json(m)
        two = render_model_json(parse_model_text(one).model)
        assert one == two

    def test_version_constant(self):
        assert json.loads(coins_json())["format_version"] == FORMAT_VERSION


# -- ASCII digits and one key per history -------------------------------------


class TestStrictReading:
    """Each case below was read as a model before: digits in other scripts, a
    trailing newline, or a second key naming a history already given."""

    def make(self, weights: dict, **extra) -> str:
        return json.dumps({
            "format_version": 1,
            "sites": [{"id": "a", "alphabet": 2}, {"id": "b", "alphabet": 2}],
            "order": [],
            "measure": {"type": "stochastic", "weights": weights},
            **extra,
        })

    def test_arabic_indic_rational_is_refused(self):
        with pytest.raises(ModelFileError, match=r"'١/٢' is not a rational"):
            parse_model_text(self.make({"00": "١/٢", "11": "1/2"}))

    def test_rational_with_a_trailing_newline_is_refused(self):
        with pytest.raises(ModelFileError, match=r"'1/2\\n' is not a rational"):
            parse_model_text(self.make({"00": "1/2\n", "11": "1/2"}))

    def test_arabic_indic_history_key_is_refused(self):
        with pytest.raises(ModelFileError, match="weights key '٠٠': bad digit '٠'"):
            parse_model_text(self.make({"٠٠": "1/2", "11": "1/2"}))

    def test_superscript_history_key_is_a_model_file_error(self):
        # '²'.isdigit() holds, and int('²') raised a bare "invalid literal"
        with pytest.raises(ModelFileError, match="^model file error: <string>: weights key '²0': bad digit '²'$"):
            parse_model_text(self.make({"²0": "1/2", "11": "1/2"}))

    @pytest.mark.parametrize("keys", [("00", "0.0"), ("0.0", "00")])
    def test_two_keys_for_one_history_are_refused(self, keys):
        # in this order the 1/4 was dropped and mu(00) read as 1/2
        first, second = keys
        weights = {first: "1/4", second: "1/2", "11": "1/2"}
        with pytest.raises(ModelFileError, match=f"weights keys '{first}' and '{second}' name the same history$"):
            parse_model_text(self.make(weights))

    @pytest.mark.parametrize("table", ["named_events", "named_regions"])
    def test_a_name_with_a_trailing_newline_is_refused(self, table):
        value = "a=0" if table == "named_events" else ["a"]
        with pytest.raises(ModelFileError, match=rf"{table}: 'A\\n' is not an identifier"):
            parse_model_text(self.make({"00": "1/2", "11": "1/2"}, **{table: {"A\n": value}}))

    def test_an_event_value_in_another_script_is_refused(self):
        with pytest.raises(ModelFileError, match=r"named_events\['A'\]: expression error: unexpected character '١'"):
            parse_model_text(self.make({"00": "1/2", "11": "1/2"}, named_events={"A": "a=١"}))

    def test_validate_exits_2_on_a_second_key_for_one_history(self, tmp_path, capsys):
        from screenoff.cli import main

        path = tmp_path / "twice.json"
        path.write_text(self.make({"00": "1/4", "0.0": "1/2", "11": "1/2"}))
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"model file error: {path}: weights keys '00' and '0.0' name the same history\n")


# -- one value per key ----------------------------------------------------------


class TestRepeatedKeys:
    """JSON keeps the last of two equal keys in an object; a model file refuses the second."""

    TEXT = (
        '{"format_version": 1, "sites": [{"id": "a", "alphabet": 2}], "order": [], '
        '"measure": {"type": "stochastic", "weights": {"0": "1/4", "1": "3/4"}}, '
        '"named_events": {"A": "a=0"}, "named_regions": {"R": ["a"]}}'
    )

    @pytest.mark.parametrize("kind, old, new, key", [
        # each was read before, the second value winning
        ("top level", '"order": []', '"order": [], "order": []', "order"),
        ("site", '"alphabet": 2', '"alphabet": 3, "alphabet": 2', "alphabet"),
        ("measure", '"type": "stochastic"', '"type": "quantal", "type": "stochastic"', "type"),
        ("weights", '"0": "1/4", "1": "3/4"', '"0": "1/4", "0": "1"', "0"),
        ("named_events", '"A": "a=0"', '"A": "a=0", "A": "a=1"', "A"),
        ("named_regions", '"R": ["a"]', '"R": ["a"], "R": []', "R"),
    ])
    def test_a_repeated_key_is_refused(self, kind, old, new, key):
        assert parse_model_text(self.TEXT).model.site.n == 1
        text = self.TEXT.replace(old, new, 1)
        assert text != self.TEXT, kind
        with pytest.raises(ModelFileError, match=f"^model file error: <string>: key '{key}' appears twice in one object$"):
            parse_model_text(text)

    def test_validate_exits_2_on_a_repeated_key(self, tmp_path, capsys):
        from screenoff.cli import main

        path = tmp_path / "twice.json"
        path.write_text(self.TEXT.replace('"0": "1/4", "1": "3/4"', '"0": "1/4", "0": "1"'))
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"model file error: {path}: key '0' appears twice in one object\n")
