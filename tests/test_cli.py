import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import photonweave
from photonweave import cli
from photonweave.cli import main, stable_json

REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "command", "results", "pass", "timing_seconds"],
    "properties": {
        "schema_version": {"type": "string"},
        "command": {"type": "object", "required": ["verb"]},
        "results": {"type": "object"},
        "pass": {"type": ["boolean", "null"]},
        "timing_seconds": {"type": "number"},
    },
}

GRAPH_SCHEMA = {
    "type": "object",
    "required": ["vertices", "edges"],
    "properties": {
        "vertices": {"type": "array", "items": {"type": "integer"}},
        "edges": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer"}, "minItems": 2, "maxItems": 2},
        },
    },
}

PROTOCOL_RESULT_SCHEMA = {
    "type": "object",
    "required": ["protocol", "final_graph", "probability", "measurement_record", "m_minus", "corrections"],
    "properties": {
        "protocol": {"type": "string"},
        "final_graph": GRAPH_SCHEMA,
        "probability": {
            "type": "object",
            "required": ["exponent", "value"],
            "properties": {"exponent": {"type": "integer"}, "value": {"type": "number"}},
        },
        "measurement_record": {"type": "array"},
        "m_minus": {"type": "integer"},
        "corrections": {"type": "array"},
        "resources": {"type": "object"},
    },
}

RESULT_SCHEMAS = {
    "simulate": {
        "type": "object",
        "anyOf": [
            {"required": ["result"]},
            {"required": ["result", "chain"]},
        ],
        "properties": {"result": PROTOCOL_RESULT_SCHEMA, "chain": {"type": "object"}},
    },
    "classify": {
        "type": "object",
        "required": ["word", "predicted"],
        "properties": {
            "word": {"type": "string"},
            "predicted": {"type": "string"},
            "simulated": {"type": "string"},
            "equivalent": {"type": ["boolean", "null"]},
        },
    },
    "verify": {
        "type": "object",
        "required": ["criteria"],
        "properties": {
            "criteria": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["name", "passed", "details"],
                },
            }
        },
    },
    "montecarlo": {
        "type": "object",
        "required": ["stats"],
        "properties": {"stats": {"type": "object", "required": ["trials", "estimated_probability"]}},
    },
    "export": {"type": "object", "required": ["format", "content"]},
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def strip_timing(report):
    """The report without its timing fields: ``timing_seconds`` and ``criteria[].seconds``."""
    report = dict(report)
    report.pop("timing_seconds", None)
    results = report.get("results", {})
    if "criteria" in results:
        report["results"] = {**results, "criteria": [
            {k: v for k, v in c.items() if k != "seconds"} for c in results["criteria"]
        ]}
    return report


def test_simulate_ghz(capsys):
    code, report = run_cli(capsys, "simulate", "--protocol", "ghz", "--users", "3")
    assert code == 0
    jsonschema.validate(report, REPORT_SCHEMA)
    result = report["results"]["result"]
    jsonschema.validate(result, PROTOCOL_RESULT_SCHEMA)
    assert result["probability"]["exponent"] == 2
    assert result["final_graph"]["edges"] == [[1, 2], [1, 3]]


def test_simulate_path_result_schema(capsys):
    code, report = run_cli(capsys, "simulate", "--protocol", "path", "--users", "3")
    assert code == 0
    jsonschema.validate(report["results"]["result"], PROTOCOL_RESULT_SCHEMA)


def test_reports_byte_identical(capsys):
    _, a = run_cli(capsys, "simulate", "--protocol", "cycle", "--users", "4")
    _, b = run_cli(capsys, "simulate", "--protocol", "cycle", "--users", "4")
    assert strip_timing(a) == strip_timing(b)
    _, c = run_cli(capsys, "montecarlo", "--protocol", "ghz", "--users", "3",
                   "--trials", "2000", "--seed", "3")
    _, d = run_cli(capsys, "montecarlo", "--protocol", "ghz", "--users", "3",
                   "--trials", "2000", "--seed", "3")
    assert strip_timing(c) == strip_timing(d)


def test_chain_requires_seed(capsys):
    code = main(["simulate", "--protocol", "chain", "--blocks", "path4,path4"])
    assert code == 2


def test_montecarlo_requires_seed(capsys):
    code = main(["montecarlo", "--protocol", "ghz", "--users", "3", "--trials", "10"])
    assert code == 2


def test_classify_empty_word_usage_error(capsys):
    code = main(["classify", "--word", ""])
    assert code == 2


def test_classify_prediction_only(capsys):
    code, report = run_cli(capsys, "classify", "--word", "XYYY")
    assert code == 0
    assert report["pass"] is None
    assert report["results"]["predicted"] == "leafed-cycle"


def test_classify_with_simulation(capsys):
    code, report = run_cli(capsys, "classify", "--word", "XXY", "--n", "6")
    assert code == 0 and report["pass"] is True
    assert report["results"]["equivalent"] is True


def test_runtime_error_exit_code(capsys):
    # a null space above graphs.LC_DIMENSION_LIMIT is a runtime failure, not usage
    code = main(["classify", "--word", "X" * 10, "--resource", "honeycomb", "--n", "20"])
    assert code == 1
    assert "null-space dimensions" in capsys.readouterr().err


@pytest.mark.parametrize("resource, word, n, close", [
    ("zigzag", "XXYY", 8, True), ("honeycomb", "XXYY", 8, True),
    ("path_every_third", "XXYY", 10, False),
])
def test_classify_echoes_the_closure_its_check_reads(resource, word, n, close, capsys):
    code, report = run_cli(capsys, "classify", "--word", word, "--resource", resource,
                           "--n", str(n))
    assert code == 0 and report["command"]["close"] is close


def test_classify_open_with_n_is_usage_error(capsys):
    assert main(["classify", "--word", "XXYY", "--n", "10", "--open"]) == 2
    assert capsys.readouterr().err == (
        "usage error: --open does not combine with --n: the resource fixes the closure\n")


@pytest.mark.parametrize("resource", ["zigzag", "path_every_third"])
def test_classify_resource_without_n_is_usage_error(resource, capsys):
    # without --n the word is classified alone, closed unless --open: a
    # resource named there would be echoed but not read
    assert main(["classify", "--word", "XXXX", "--resource", resource]) == 2
    assert capsys.readouterr().err == (
        "usage error: classify without --n does not read --resource\n")
    code, report = run_cli(capsys, "classify", "--word", "XXXX")
    assert code == 0 and report["command"]["resource"] == "zigzag"


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--protocol", "ghz", "--users", "3", "--outcomes", "+-"],
        ["simulate", "--protocol", "ghz", "--users", "3", "--outcomes", "+x+"],
        ["simulate", "--protocol", "chain", "--blocks", "path4,path4", "--plan", "YY",
         "--seed", "1"],
        ["classify", "--word", "XXYYZZ", "--resource", "zigzag", "--n", "8"],
        # an empty value is set, so it reaches the same shape checks
        ["simulate", "--protocol", "ghz", "--users", "3", "--outcomes="],
        ["simulate", "--protocol", "chain", "--blocks", "path4,path4", "--plan=", "--seed", "1"],
        ["montecarlo", "--protocol", "chain", "--blocks", "path4,path4", "--plan=",
         "--trials", "10", "--seed", "1"],
    ],
)
def test_wrong_length_input_is_usage_error(argv, capsys):
    code = main(argv)
    assert code == 2
    assert capsys.readouterr().err.startswith("usage error:")


@pytest.mark.parametrize("argv, message", [
    (["classify", "--word", "XXX", "--n", "7"], "zigzag needs even n >= 6"),
    (["classify", "--word", "XYZ", "--resource", "honeycomb", "--n", "7"],
     "honeycomb needs even n >= 6"),
    (["classify", "--word", "XXX", "--resource", "path_every_third", "--n", "8"],
     "needs n = 3m + 1 so both path ends are server-held"),
    (["verify", "--suite", "appendix-b", "--n", "7"], "zigzag needs even n >= 6"),
])
def test_size_the_resource_cannot_build_is_usage_error(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--protocol", "chain", "--blocks", "path4,path4", "--plan", "Q",
         "--seed", "1"],
        ["montecarlo", "--protocol", "chain", "--blocks", "path4,path4", "--close",
         "--plan", "YQ", "--trials", "10", "--seed", "1"],
    ],
)
def test_wrong_plan_letter_is_usage_error(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "usage error: plan entries are 'X', 'Y', 'Z' or None, got 'Q'\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--protocol", "chain", "--blocks", "path4,path4", "--seed", "-1"],
        ["montecarlo", "--protocol", "chain", "--blocks", "path4,path4", "--trials", "10",
         "--seed", "-1"],
        ["verify", "--suite", "monte-carlo", "--seed", "-2"],
    ],
)
def test_negative_seed_is_usage_error(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == "usage error: --seed must be a non-negative integer\n"


def test_usage_error_exit_code_from_argparse(capsys):
    code = main(["simulate", "--protocol", "warp"])
    assert code == 2


def test_verify_single_suite(capsys):
    code, report = run_cli(capsys, "verify", "--suite", "cz-gate")
    assert code == 0 and report["pass"] is True
    assert report["results"]["criteria"][0]["name"] == "cz-gate"


def test_export_dot(tmp_path, capsys):
    graph_file = tmp_path / "p3.json"
    graph_file.write_text('{"vertices": [1, 2, 3], "edges": [[1, 2], [2, 3]]}')
    out_file = tmp_path / "p3.dot"
    code, report = run_cli(capsys, "export", "--in", str(graph_file),
                           "--format", "dot", "--out", str(out_file))
    assert code == 0
    dot = out_file.read_text()
    assert dot.count("--") == 2
    assert sum(line.strip().rstrip(";").isdigit() for line in dot.splitlines()) == 3
    # bit-stable: exporting again yields identical bytes
    code, _ = run_cli(capsys, "export", "--in", str(graph_file),
                      "--format", "dot", "--out", str(out_file))
    assert out_file.read_text() == dot


def test_export_state_csv(tmp_path, capsys):
    from optics_oracle import prepare
    from photonweave.optics import state_to_json

    state_file = tmp_path / "state.json"
    state_file.write_text(state_to_json(prepare([{"gbell": [0, 1]}])))
    code, report = run_cli(capsys, "export", "--in", str(state_file), "--format", "csv")
    assert code == 0
    assert report["results"]["content"].startswith("occupations,re,im")
    assert len(report["results"]["content"].strip().splitlines()) == 5


def test_export_bad_combination(tmp_path, capsys):
    graph_file = tmp_path / "g.json"
    graph_file.write_text('{"vertices": [1], "edges": []}')
    code = main(["export", "--in", str(graph_file), "--format", "csv"])
    assert code == 2


MALFORMED_EXPORTS = [
    # not a JSON object: the usage error for input of neither kind
    ("5", 2), ('"vertices edges"', 2), ("null", 2),
    # graphs: labels and edge ends are integers, edges are pairs
    ('{"vertices": [1, "a"], "edges": []}', 1),
    ('{"vertices": [1], "edges": null}', 1),
    ('{"vertices": [1, 1.5], "edges": []}', 1),
    ('{"vertices": [1, true], "edges": []}', 1),
    ('{"vertices": [1, 2], "edges": [[1, 2.0]]}', 1),
    ('{"vertices": [1, 2], "edges": [[1, 2, 1]]}', 1),
    # state dumps: H/V polarizations, positive integer counts, two finite numbers
    ('{"terms": [{"occupations": [[0, "X", 1]], "amplitude": [1, 0]}]}', 1),
    ('{"terms": [{"occupations": [[0, "H", -1]], "amplitude": [1, 0]}]}', 1),
    ('{"terms": [{"occupations": [[0, "H", true]], "amplitude": [1, 0]}]}', 1),
    ('{"terms": [{"occupations": [["a", "H", 1]], "amplitude": [1, 0]}]}', 1),
    ('{"terms": [{"occupations": [[0, "H", 1]], "amplitude": ["a", 0]}]}', 1),
    ('{"terms": [{"occupations": [[0, "H", 1]], "amplitude": [NaN, 0]}]}', 1),
    ('{"terms": [{"occupations": [[0, "H", 1]], "amplitude": [1]}]}', 1),
    ('{"terms": [5]}', 1),
    ('{"total_photons": "1", "terms": []}', 1),
    # each vertex, edge, term and mode of a term once: a repeat would be dropped on reading
    ('{"vertices": [1, 1, 2], "edges": [[1, 2], [2, 1]]}', 1),
    ('{"vertices": [1, 2], "edges": [[1, 2], [2, 1]]}', 1),
    ('{"terms": [{"occupations": [[0, "H", 1]], "amplitude": [0.6, 0]},'
     ' {"occupations": [[0, "H", 1]], "amplitude": [0.8, 0]}]}', 1),
    ('{"terms": [{"occupations": [[0, "H", 1], [0, "H", 1]], "amplitude": [1, 0]}]}', 1),
]


@pytest.mark.parametrize("text,code", MALFORMED_EXPORTS)
def test_export_rejects_malformed_input(text, code, tmp_path, capsys):
    infile = tmp_path / "in.json"
    infile.write_text(text)
    assert main(["export", "--in", str(infile), "--format", "json"]) == code
    err = capsys.readouterr().err
    assert err.startswith("usage error: " if code == 2 else "error: ")
    if code == 2:
        assert "neither a graph JSON nor a state dump JSON" in err


def test_out_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PHOTONWEAVE_OUT_DIR", str(tmp_path))
    code = main(["simulate", "--protocol", "ghz", "--users", "2", "--out", "report.json"])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["results"]["result"]["probability"]["exponent"] == 1


def test_verify_appendix_b_cli(capsys):
    code, report = run_cli(capsys, "verify", "--suite", "appendix-b", "--n", "8")
    assert code == 0 and report["pass"] is True


def test_verify_refuses_an_oversize_sweep_at_once(capsys):
    t0 = time.perf_counter()
    assert main(["verify", "--suite", "appendix-b", "--n", "18"]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == "error: zigzag n=18 has 3^9 words; sweeps stop at 6561\n"


def test_montecarlo_csv_log(tmp_path, capsys):
    # a missing directory is created, and the report and the log get the same file mode
    for csv_file in (tmp_path / "trials.csv", tmp_path / "new" / "trials.csv"):
        report_file = csv_file.with_suffix(".json")
        code = main(["montecarlo", "--protocol", "chain", "--blocks", "three,three",
                     "--trials", "50", "--seed", "2", "--csv", str(csv_file),
                     "--out", str(report_file)])
        assert code == 0
        lines = csv_file.read_text().strip().splitlines()
        assert lines[0] == "trial,success,blocks,bell_pairs,fusions"
        assert len(lines) == 51
        assert report_file.stat().st_mode == csv_file.stat().st_mode


def test_failed_write_is_a_runtime_error(tmp_path, capsys):
    # the report, the CSV log and the export artifact share one writer and its errors
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    for argv in (["simulate", "--protocol", "ghz", "--users", "2"],
                 ["montecarlo", "--protocol", "ghz", "--users", "2", "--trials", "2", "--seed", "1",
                  "--csv", str(blocker / "t.csv")],
                 ["export", "--in", _graph_file(tmp_path), "--format", "json"]):
        assert main([*argv, "--out", str(blocker / "out.json")]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_reports_are_strict_json(capsys):
    # one trial misses the analytic 1/4 with a zero standard error: no finite sigma count
    def reject(constant):
        raise AssertionError(f"{constant} is not JSON")

    code = main(["montecarlo", "--protocol", "ghz", "--users", "3", "--trials", "1", "--seed", "0"])
    stats = json.loads(capsys.readouterr().out, parse_constant=reject)["results"]["stats"]
    assert code == 1 and stats["flagged"] is True and stats["deviation_sigmas"] is None
    with pytest.raises(ValueError):
        stable_json({"value": math.nan})


# -- report schemas, one report per verb -------------------------------------


def _graph_file(tmp_path):
    graph_file = tmp_path / "p3.json"
    graph_file.write_text('{"vertices": [1, 2, 3], "edges": [[1, 2], [2, 3]]}')
    return str(graph_file)


@pytest.mark.parametrize("argv", [
    ["simulate", "--protocol", "ghz", "--users", "3"],
    ["simulate", "--protocol", "chain", "--blocks", "three,three", "--seed", "2"],
    ["classify", "--word", "XYYY"],
    ["classify", "--word", "XXY", "--n", "6"],
    ["verify", "--suite", "cz-gate"],
    ["montecarlo", "--protocol", "ghz", "--users", "3", "--trials", "100", "--seed", "1"],
    ["export", "--in", "GRAPH", "--format", "dot"],
])
def test_report_matches_schema(argv, tmp_path, capsys):
    argv = [_graph_file(tmp_path) if a == "GRAPH" else a for a in argv]
    code, report = run_cli(capsys, *argv)
    assert code == 0
    jsonschema.validate(report, REPORT_SCHEMA)
    jsonschema.validate(report["results"], RESULT_SCHEMAS[argv[0]])


def test_cli_import_skips_jsonschema():
    src = str(Path(photonweave.__file__).resolve().parents[1])
    code = "import sys, photonweave.cli; assert 'jsonschema' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


# -- one request path for simulate and montecarlo -----------------------------


@pytest.mark.parametrize("verb", ["simulate", "montecarlo"])
@pytest.mark.parametrize("flags", [
    ["--protocol", "chain", "--blocks", "foo,bar"],
    ["--protocol", "chain", "--blocks", "path4,"],
    ["--protocol", "caterpillar", "--layout", "spine,foo"],
    ["--protocol", "caterpillar", "--layout", "spine,,leaf"],
])
def test_bad_blocks_or_layout_is_usage_error(verb, flags, capsys):
    trials = ["--trials", "10"] if verb == "montecarlo" else []
    assert main([verb, *flags, *trials, "--seed", "1"]) == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--protocol", "caterpillar", "--layout", "spine,leaf,spine", "--outcomes", "+-"],
    ["montecarlo", "--protocol", "cycle", "--users", "3", "--server", "--trials", "10", "--seed", "1"],
    ["simulate", "--protocol", "ghz", "--users", "3", "--keep-ends", "--seed", "5"],
    ["simulate", "--protocol", "ghz", "--users", "3", "--seed", "5"],
    ["simulate", "--protocol", "caterpillar", "--layout", "spine,leaf", "--server"],
    ["simulate", "--protocol", "path", "--users", "3", "--close"],
    ["simulate", "--protocol", "chain", "--blocks", "three,three", "--users", "2", "--seed", "1"],
    ["montecarlo", "--protocol", "caterpillar", "--layout", "spine,leaf", "--server",
     "--trials", "10", "--seed", "1"],
    ["montecarlo", "--protocol", "ghz", "--users", "3", "--plan", "Y", "--trials", "10", "--seed", "1"],
    ["verify", "--suite", "cz-gate", "--trials", "0", "--n", "3"],
    ["verify", "--suite", "cz-gate", "--seed", "3"],
    ["verify", "--suite", "appendix-b", "--trials", "5"],
])
def test_flag_the_protocol_ignores_is_usage_error(argv, capsys):
    assert main(argv) == 2


@pytest.mark.parametrize("flags, request_", [
    (["--protocol", "ghz", "--users", "3"], {"protocol": "ghz", "M": 3}),
    (["--protocol", "path", "--users", "3", "--server"],
     {"protocol": "path", "M": 3, "server": True}),
    (["--protocol", "caterpillar", "--layout", "spine,leaf"],
     {"protocol": "caterpillar", "layout": ["spine", "leaf"], "close": False}),
    (["--protocol", "chain", "--blocks", "three,three", "--plan", "X"],
     {"protocol": "chain", "blocks": ["three", "three"], "plan": ["X"], "close": False}),
])
def test_montecarlo_echoes_the_request(flags, request_, capsys):
    code, report = run_cli(capsys, "montecarlo", *flags, "--trials", "10", "--seed", "1")
    assert code == 0 and report["command"]["request"] == request_


def test_simulate_echoes_keep_ends_only_when_set(capsys):
    argv = ["simulate", "--protocol", "chain", "--blocks", "path4,star4", "--seed", "3"]
    _, plain = run_cli(capsys, *argv)
    _, kept = run_cli(capsys, *argv, "--keep-ends")
    assert "keep_ends" not in plain["command"]
    assert kept["command"] == {**plain["command"], "keep_ends": True}
    assert kept["results"]["result"] != plain["results"]["result"]


def test_simulate_chain_dispatch(capsys):
    code, report = run_cli(capsys, "simulate", "--protocol", "chain",
                           "--blocks", "three,three", "--close", "--seed", "2")
    assert code == 0 and report["results"]["chain"]["succeeded"] is True
    assert report["command"] == {"verb": "simulate", "protocol": "chain",
                                 "blocks": "three,three", "plan": None,
                                 "close": True, "seed": 2}
    # seed 1 fails the closure fusion: runtime failure with an empty result
    code, report = run_cli(capsys, "simulate", "--protocol", "chain",
                           "--blocks", "three,three", "--close", "--seed", "1")
    assert code == 1 and report["pass"] is False
    assert report["results"]["result"]["final_graph"] == {"vertices": [], "edges": []}


def test_failed_chain_result_is_the_empty_result():
    # the result a failed chain reports, written out
    assert cli._FAILED_CHAIN_RESULT == {
        "protocol": "chain",
        "final_graph": {"vertices": [], "edges": []},
        "probability": {"exponent": 0, "value": 1.0},
        "measurement_record": [],
        "m_minus": 0,
        "corrections": [],
        "resources": {},
    }


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_nonpositive_trials(trials, capsys):
    assert main(["verify", "--suite", "monte-carlo", "--trials", trials]) == 2


def test_verify_reports_identical_without_timing(capsys):
    _, a = run_cli(capsys, "verify", "--suite", "cz-gate")
    _, b = run_cli(capsys, "verify", "--suite", "cz-gate")
    assert strip_timing(a) == strip_timing(b)
