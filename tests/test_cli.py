"""Command-line front end: certificates, error envelopes, exit codes,
and byte-for-byte determinism."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cckit.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def fixture(name):
    return str(FIXTURES / name)


def with_set(tmp_path, set_json, name="instance.json"):
    """seq_alternating with `set_json` as its ambient set, written to a file."""
    obj = json.loads((FIXTURES / "seq_alternating.json").read_text())
    obj["set"] = set_json
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def values(w0, w1):
    return {"values": {"w0": w0, "w1": w1}}


def run_module(*argv, log):
    """Run `python -m cckit.cli` in a child process on this checkout's
    `src`, installed or not, with CCKIT_LOG set to `log`."""
    env = dict(os.environ, CCKIT_LOG=log)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "cckit.cli", *argv],
        capture_output=True, text=True, timeout=120, env=env,
    )


class TestCommands:
    def test_extract_alternating(self, capsys):
        code, doc = run_json(capsys, "extract", fixture("seq_alternating.json"))
        assert code == 0
        assert doc["schema"] == 1
        assert doc["command"] == "extract"
        assert doc["digest"].startswith("sha256:")
        assert doc["wall_time_ms"] is None
        limit = doc["result"]["limit"]["values"]
        assert abs(limit["w0"] - 0.5) < 1e-4
        assert abs(limit["w1"] - 0.5) < 1e-4
        assert doc["result"]["stages"]

    def test_extract_escaping_is_exit_2_unbounded(self, capsys):
        code, doc = run_json(capsys, "extract", fixture("seq_escaping.json"))
        assert code == 2
        err = doc["error"]
        assert err["kind"] == "unbounded"
        assert abs(err["certificate"]["eps"] - 0.5) < 1e-6

    def test_extract_horizon_flag(self, capsys):
        code, doc = run_json(
            capsys, "extract", fixture("seq_alternating.json"), "--horizon", "8"
        )
        assert code == 0
        assert all(stage["D"] <= 8 for stage in doc["result"]["stages"])
        code, doc = run_json(
            capsys, "extract", fixture("seq_alternating.json"), "--horizon", "999"
        )
        assert code == 1
        assert doc["error"]["kind"] == "input"

    def test_extract_over_a_bare_box(self, capsys, tmp_path):
        box = {"box": {"lower": values(0.0, 0.0), "upper": values(1.0, 1.0)}}
        results = []
        for name, set_json in (("box.json", box),
                               ("meet.json", {"intersection": {"parts": [box]}})):
            code, doc = run_json(capsys, "extract", with_set(tmp_path, set_json, name))
            assert code == 0
            results.append(doc["result"])
        assert results[0] == results[1]

    def test_minimize_jensen(self, capsys):
        code, doc = run_json(capsys, "minimize", fixture("minimize_jensen.json"))
        assert code == 0
        assert abs(doc["result"]["value"] - 1.0) < 1e-6
        vals = doc["result"]["minimizer"]["values"]
        assert abs(vals["w0"] - 1.0) < 1e-3 and abs(vals["w1"] - 1.0) < 1e-3

    def test_saddle_pennies(self, capsys):
        code, doc = run_json(capsys, "saddle", fixture("saddle_pennies.json"))
        assert code == 0
        res = doc["result"]
        assert abs(res["value"]) < 1e-6
        assert res["gap"] <= 1e-6
        assert abs(res["f0"]["values"]["w0"] - 0.5) < 1e-4

    def test_kkm_intervals(self, capsys):
        code, doc = run_json(capsys, "kkm", fixture("kkm_intervals.json"))
        assert code == 0
        res = doc["result"]
        w0 = res["point"]["values"]["w0"]
        assert 0.4 - 1e-5 <= w0 <= 0.6 + 1e-5
        assert res["max_distance"] <= 1e-6
        assert (res["q"], res["rounds"]) == (16, 1)

    def test_equilibrium_symmetric(self, capsys):
        code, doc = run_json(capsys, "equilibrium", fixture("econ_symmetric.json"))
        assert code == 0
        prices = doc["result"]["prices"]["values"]
        assert abs(prices["w0"] - 0.5) < 1e-4
        assert doc["result"]["report"]["max_violation"] <= 1e-6

    def test_equilibrium_asymmetric(self, capsys):
        code, doc = run_json(capsys, "equilibrium", fixture("econ_asymmetric.json"))
        assert code == 0
        prices = doc["result"]["prices"]["values"]
        assert abs(prices["w0"] - 1 / 3) < 1e-4
        assert abs(prices["w1"] - 2 / 3) < 1e-4

    def test_equilibrium_table(self, capsys):
        code, doc = run_json(capsys, "equilibrium", fixture("table_antisym.json"))
        assert code == 0
        prices = doc["result"]["prices"]["values"]
        assert abs(prices["w1"] - (1.0 - 1e-6)) < 1e-4


class TestCheckSuites:
    def test_all_suites_pass(self, capsys):
        code, doc = run_json(capsys, "check")
        assert code == 0
        assert doc["result"]["all_pass"] is True
        suites = {c["suite"] for c in doc["result"]["checks"]}
        assert suites == {"metric", "convex"}

    def test_single_suite_selection(self, capsys):
        code, doc = run_json(capsys, "check", "--suite", "metric")
        assert code == 0
        assert {c["suite"] for c in doc["result"]["checks"]} == {"metric"}
        names = {c["name"] for c in doc["result"]["checks"]}
        assert "concavity-gap-floor" in names

    def test_unknown_suite_is_input_error(self, capsys):
        code, doc = run_json(capsys, "check", "--suite", "nope")
        assert code == 1
        assert doc["error"]["kind"] == "input"

    def test_seed_changes_are_still_green(self, capsys):
        code, doc = run_json(capsys, "check", "--seed", "7")
        assert code == 0
        assert doc["result"]["all_pass"] is True
        assert doc["seed"] == 7


class TestEnvelopesAndExitCodes:
    def test_missing_file(self, capsys):
        code, doc = run_json(capsys, "minimize", "/no/such/file.json")
        assert code == 1
        assert doc["schema"] == 1
        assert doc["error"]["kind"] == "input"
        assert "message" in doc["error"]

    def test_invalid_json_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, doc = run_json(capsys, "minimize", str(bad))
        assert code == 1
        assert doc["error"]["kind"] == "input"

    def test_non_object_instance(self, capsys, tmp_path):
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2, 3]")
        code, doc = run_json(capsys, "minimize", str(arr))
        assert code == 1
        assert doc["error"]["kind"] == "input"

    def test_negative_tol(self, capsys):
        code, doc = run_json(
            capsys, "kkm", fixture("kkm_intervals.json"), "--tol", "-1"
        )
        assert code == 1
        assert doc["error"]["kind"] == "input"

    def test_covering_violation_reaches_the_envelope(self, capsys, tmp_path):
        obj = json.loads((FIXTURES / "kkm_intervals.json").read_text())
        # shrink both intervals so the middle of the segment is uncovered
        obj["sets"][0]["box"]["lower"]["values"]["w0"] = 0.7
        obj["sets"][1]["box"]["lower"]["values"]["w1"] = 0.7
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(obj))
        code, doc = run_json(capsys, "kkm", str(broken))
        assert code == 2
        assert doc["error"]["kind"] == "kkm_violation"
        assert "witness" in doc["error"]

    @pytest.mark.parametrize("set_json, names", [
        ({"box": {"lower": [0.0, 0.0], "upper": values(1.0, 1.0)}},
         "random variable must be a JSON object, got list"),
        ({"box": {"lower": "zero", "upper": values(1.0, 1.0)}},
         "random variable must be a JSON object, got str"),
        ({"box": {"lower": values(0.0, 0.0)}}, "box is missing the 'upper'"),
        ({"polytope": {}}, "polytope is missing the 'generators'"),
        ({"intersection": {}}, "intersection is missing the 'parts'"),
        ({"sublevel": {"level": 1.0}}, "sublevel is missing the 'functional'"),
        ({"polytope": {"generators": 3}},
         "polytope field 'generators' must be a list, got int"),
        ({"box": 5}, "box must be a JSON object, got int"),
        ({"box": {"lower": values("zero", 0.0), "upper": values(1.0, 1.0)}},
         "random variable 'values' must be numbers"),
        ({"sublevel": {"functional": {"kind": "linear", "c": values(1.0, 1.0)},
                       "level": [1.0]}},
         "sublevel field 'level' must be a number"),
        ({"sublevel": {"functional": {"kind": "linear", "c": values(1.0, 1.0)},
                       "level": "1.0"}},
         "sublevel field 'level' must be a number"),
        ({"sublevel": {"functional": {"kind": "linear", "c": values(1.0, 1.0)},
                       "level": True}},
         "sublevel field 'level' must be a number"),
        ({"sublevel": {"functional": {"kind": "quadratic", "A": [[1.0, 0.0], [0.0]]},
                       "level": 1.0}},
         "quadratic functional field 'A' must be a matrix of numbers"),
    ], ids=["randvar-list", "randvar-string", "box-no-upper",
            "polytope-no-generators", "intersection-no-parts",
            "sublevel-no-functional", "generators-int", "box-int",
            "value-string", "level-list", "level-string", "level-bool",
            "ragged-matrix"])
    def test_malformed_set_is_an_input_error(self, capsys, tmp_path,
                                             set_json, names):
        code, doc = run_json(capsys, "extract", with_set(tmp_path, set_json))
        assert code == 1
        assert doc["error"]["kind"] == "input"
        assert names in doc["error"]["message"]

    def test_malformed_term_is_an_input_error(self, capsys, tmp_path):
        obj = json.loads((FIXTURES / "seq_alternating.json").read_text())
        obj["terms"][0] = "one, zero"
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(obj))
        code, doc = run_json(capsys, "extract", str(path))
        assert code == 1
        assert doc["error"]["kind"] == "input"
        assert "a term or vertex must be numbers" in doc["error"]["message"]

    @pytest.mark.parametrize("command, name, field, value, names", [
        ("saddle", "saddle_pennies", ("payoff", "kernel"), [[1.0, -1.0], [-1.0]],
         "payoff 'kernel' must be a matrix of numbers"),
        ("saddle", "saddle_pennies", ("payoff", "kernel"), [1.0, -1.0],
         "payoff 'kernel' must be a matrix of numbers"),
        ("saddle", "saddle_pennies", ("payoff", "f_term"), 5,
         "payoff 'f_term' must be an expression string"),
        ("saddle", "saddle_pennies", ("payoff", "g_term"), ["x^2"],
         "payoff 'g_term' must be an expression string"),
        ("extract", "seq_alternating", ("horizon",), "x",
         "'horizon' must be a number"),
        ("extract", "seq_alternating", ("horizon",), "8",
         "'horizon' must be a number"),
        ("extract", "seq_alternating", ("horizon",), True,
         "'horizon' must be a number"),
        ("extract", "seq_alternating", ("horizon",), 1.5,
         "'horizon' must be an integer >= 1"),
        ("extract", "seq_alternating", ("horizon",), 0,
         "'horizon' must be an integer >= 1"),
        ("equilibrium", "econ_symmetric", ("eta",), "x",
         "'eta' must be a number"),
        ("equilibrium", "econ_symmetric", ("eta",), [1e-6],
         "'eta' must be a number"),
        ("equilibrium", "econ_symmetric", ("eta",), False,
         "'eta' must be a number"),
        ("kkm", "kkm_intervals", ("space", "probs"), None,
         "space field 'probs' must be a list, got NoneType"),
        ("extract", "seq_escaping", ("space", "probs"), 1e308,
         "space field 'probs' must be a list, got float"),
        ("extract", "seq_escaping", ("space", "atoms"), "w0",
         "space field 'atoms' must be a list, got str"),
        ("equilibrium", "table_antisym", ("table",), None,
         "'table' must be a matrix of numbers"),
        ("equilibrium", "table_antisym", ("table", 0, 1), "x",
         "'table' must be a matrix of numbers"),
        ("equilibrium", "table_antisym", ("table", 1), {},
         "'table' must be a matrix of numbers"),
        ("equilibrium", "econ_symmetric", ("goods",), None,
         "'goods' must be a number"),
        ("equilibrium", "econ_symmetric", ("goods",), "x",
         "'goods' must be a number"),
        ("equilibrium", "econ_asymmetric", ("agents", 0, "endowment"), None,
         "agent 'endowment' rows must be a matrix of numbers"),
        ("minimize", "minimize_jensen", ("functional", "expr"), None,
         "pointwise functional field 'expr' must be a string, got NoneType"),
        # finite but huge: the extragradient step overflows to nan, which
        # is refused before the first iteration
        ("saddle", "saddle_pennies", ("C", "polytope", "generators", 0, "values", "w0"),
         1e308, "is not finite"),
        ("saddle", "saddle_pennies", ("payoff", "kernel", 0, 0), 1e308,
         "is not finite"),
        # finite but huge: refused where the arithmetic would overflow
        ("equilibrium", "econ_asymmetric", ("agents", 0, "endowment", 0), 1e308,
         "instance scale overflows: sum(e)/eta^2 must stay below"),
        ("equilibrium", "table_antisym", ("table", 0, 1), 1e308,
         "instance scale overflows: d^2 max|T| must stay below"),
        ("extract", "seq_alternating", ("terms", 0, 0), 1e308,
         "generator values overflow the weight program"),
    ], ids=["kernel-ragged", "kernel-vector", "f-term-int", "g-term-list",
            "horizon-string", "horizon-numeric-string", "horizon-bool",
            "horizon-fraction", "horizon-zero", "eta-string", "eta-list",
            "eta-bool", "probs-null", "probs-number", "atoms-string",
            "table-null", "table-entry-string", "table-row-object",
            "goods-null", "goods-string", "endowment-null", "expr-null",
            "overflowing-generator", "overflowing-kernel",
            "overflowing-endowment", "overflowing-table", "overflowing-term"])
    def test_malformed_number_or_payoff_is_an_input_error(
            self, capsys, tmp_path, command, name, field, value, names):
        obj = json.loads((FIXTURES / f"{name}.json").read_text())
        *parents, key = field
        target = obj
        for part in parents:
            target = target[part]
        target[key] = value
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(obj))
        code, doc = run_json(capsys, command, str(path))
        assert code == 1
        assert doc["error"]["kind"] == "input"
        assert names in doc["error"]["message"]

    def test_saddle_over_a_bare_sublevel_is_an_input_error(self, capsys,
                                                           tmp_path):
        # a sublevel set has no reference point to start the projected
        # extragradient from: a typed refusal, as minimize gives
        obj = json.loads((FIXTURES / "saddle_pennies.json").read_text())
        obj["C"] = {"sublevel": {"functional": {"kind": "linear",
                                                "c": values(1.0, 1.0)},
                                 "level": 1.0}}
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(obj))
        code, doc = run_json(capsys, "saddle", str(path))
        assert code == 1
        assert doc["error"]["kind"] == "input"
        assert doc["error"]["message"] == "set exposes no reference point"

    def test_bad_log_level(self, capsys, monkeypatch):
        monkeypatch.setenv("CCKIT_LOG", "chatty")
        code, doc = run_json(capsys, "check")
        assert code == 1
        assert doc["error"]["kind"] == "input"


FIXTURE_COMMANDS = {
    "econ_asymmetric": "equilibrium", "econ_symmetric": "equilibrium",
    "table_antisym": "equilibrium", "kkm_intervals": "kkm",
    "minimize_jensen": "minimize", "saddle_pennies": "saddle",
    "seq_alternating": "extract", "seq_escaping": "extract",
}


class TestMutationFuzz:
    """Single-field mutants of the shipped fixtures, run through the CLI in
    process: each ends with exit 0, 1 or 2 and one JSON document on stdout,
    never with an exception. A field is an object member or one of the
    first three items of a list; a mutant deletes it or replaces its value
    by one of MUTATIONS, 2,210 mutants over the 8 fixtures. Each field runs
    PER_FIELD of its mutants, drawn by seed. A numpy overflow fails the
    mutant too: a scale the arithmetic cannot represent is refused up
    front."""

    DELETE = object()
    MUTATIONS = (DELETE, None, True, "x", 0, -1.0, 1e308, [], {}, [[0.0], [0.0, 1.0]])
    SEED = 21
    PER_FIELD = 3

    @classmethod
    def _fields(cls, node, path=()):
        if isinstance(node, dict):
            items = node.items()
        elif isinstance(node, list):
            items = enumerate(node[:3])
        else:
            return
        for key, value in items:
            yield path + (key,)
            yield from cls._fields(value, path + (key,))

    @classmethod
    def _mutated(cls, obj, field, value):
        out = copy.deepcopy(obj)
        *parents, key = field
        target = out
        for part in parents:
            target = target[part]
        if value is cls.DELETE:
            del target[key]
        else:
            target[key] = value
        return out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", sorted(FIXTURE_COMMANDS))
    def test_mutants_end_in_an_envelope(self, capsys, tmp_path, name):
        obj = json.loads((FIXTURES / f"{name}.json").read_text())
        rng = np.random.default_rng([self.SEED, sorted(FIXTURE_COMMANDS).index(name)])
        path = tmp_path / "mutant.json"
        failures = []
        for field in self._fields(obj):
            for pick in rng.choice(len(self.MUTATIONS), self.PER_FIELD, replace=False):
                value = self.MUTATIONS[pick]
                path.write_text(json.dumps(self._mutated(obj, field, value)))
                what = f"{list(field)} -> {'deleted' if value is self.DELETE else value!r}"
                try:
                    code, out = run_cli(capsys, FIXTURE_COMMANDS[name], str(path))
                    json.loads(out)
                except Exception as exc:  # the finding is the exception
                    failures.append(f"{what}: {exc!r}")
                    continue
                if code not in (0, 1, 2):
                    failures.append(f"{what}: exit {code}")
        assert not failures, "\n".join(failures)


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, capsys):
        _, first = run_cli(capsys, "equilibrium", fixture("econ_symmetric.json"))
        _, second = run_cli(capsys, "equilibrium", fixture("econ_symmetric.json"))
        assert first == second

    def test_projected_saddle_is_byte_identical(self, capsys, tmp_path,
                                                closed_form_gap):
        # the game_expr shape: [0, 1]^3 for both players, terms -x^2, x^2
        n = 3
        K = np.random.default_rng(601).uniform(-1.0, 1.0, size=(n, n))
        space = {"atoms": [f"w{i}" for i in range(n)], "probs": [repr(1.0 / n)] * n}

        def randvar(vals):
            return dict(space, values={f"w{i}": v for i, v in enumerate(vals)})
        box = {"box": {"lower": randvar([0.0] * n), "upper": randvar([1.0] * n)}}
        path = tmp_path / "game.json"
        path.write_text(json.dumps({
            "space": space, "C": box, "D": box,
            "payoff": {"kernel": K.tolist(), "f_term": "-x^2", "g_term": "x^2"},
        }))
        code, first = run_cli(capsys, "saddle", str(path))
        _, second = run_cli(capsys, "saddle", str(path))
        assert code == 0
        assert first == second
        result = json.loads(first)["result"]
        f0, g0 = ([result[k]["values"][f"w{i}"] for i in range(n)]
                  for k in ("f0", "g0"))
        assert result["method"] == "extragradient (projected)"
        assert closed_form_gap(K, np.full(n, 1.0 / n), np.zeros(n), np.ones(n),
                               np.asarray(f0), np.asarray(g0)) <= 1e-6

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        _, stdout_text = run_cli(capsys, "saddle", fixture("saddle_pennies.json"))
        out = tmp_path / "cert.json"
        code, empty = run_cli(
            capsys, "saddle", fixture("saddle_pennies.json"), "--out", str(out)
        )
        assert code == 0
        assert empty == ""
        assert out.read_text() == stdout_text

    def test_keys_are_sorted(self, capsys):
        _, text = run_cli(capsys, "check", "--suite", "convex")
        doc = json.loads(text)
        assert list(doc) == sorted(doc)
        assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_timing_opt_in(self, capsys):
        _, plain = run_json(capsys, "minimize", fixture("minimize_jensen.json"))
        assert plain["wall_time_ms"] is None
        _, timed = run_json(capsys, "minimize", fixture("minimize_jensen.json"),
                            "--timing")
        assert isinstance(timed["wall_time_ms"], float)
        assert timed["wall_time_ms"] > 0.0


class TestConsoleEntry:
    def test_module_execution_works(self):
        proc = run_module("kkm", fixture("kkm_intervals.json"), log="off")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["command"] == "kkm"

    def test_log_levels_go_to_stderr_not_stdout(self):
        # `extract` logs at info level; `check` does not, so it could not
        # tell stderr from stdout here.
        argv = ("extract", fixture("seq_alternating.json"))
        proc = run_module(*argv, log="info")
        assert proc.returncode == 0
        json.loads(proc.stdout)  # stdout stays pure JSON
        assert "INFO cckit.cli:" in proc.stderr
        quiet = run_module(*argv, log="off")
        assert quiet.returncode == 0
        assert proc.stdout == quiet.stdout  # logging leaves the certificate alone
