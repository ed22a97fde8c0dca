import json
import os

import pytest

from litefwa.cli import _expand_algorithms, _expand_functions, _function_slug, build_parser, main


def run_cli(args, tmp_path, capsys):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        code = main(args)
    finally:
        os.chdir(cwd)
    out, err = capsys.readouterr()
    return code, out, err


def test_expand_functions_range_and_list():
    assert _expand_functions("f1..f9") == [f"f{i}" for i in range(1, 10)]
    assert _expand_functions("f1,f3..f5,f9") == ["f1", "f3", "f4", "f5", "f9"]
    with pytest.raises(ValueError, match="f42"):
        _expand_functions("f42")
    with pytest.raises(ValueError, match="empty"):
        _expand_functions("f5..f2")


def test_expand_rejects_duplicate_names():
    with pytest.raises(ValueError, match="function given more than once: f7"):
        _expand_functions("f7,f7")
    with pytest.raises(ValueError, match="more than once: f3"):
        _expand_functions("f1..f4,f3")
    with pytest.raises(ValueError, match="algorithm given more than once: lfwa"):
        _expand_algorithms("lfwa,spso,lfwa")


@pytest.mark.parametrize(
    "option,value",
    [("--functions", "f7,f7"), ("--algorithms", "lfwa,lfwa")],
)
def test_compare_duplicate_names_are_usage_errors(option, value, tmp_path, capsys):
    args = ["compare", "--algorithms", "lfwa", "--functions", "f7",
            "--runs", "1", "--iterations", "5", "--jobs", "1", option, value]
    code, _, err = run_cli(args, tmp_path, capsys)
    assert code == 2
    assert "given more than once" in err
    assert list(tmp_path.iterdir()) == []  # nothing written


def test_function_slug():
    assert _function_slug(["f1", "f2", "f3"]) == "f1-f3"
    assert _function_slug(["f1", "f7"]) == "f1+f7"
    assert _function_slug(["f4"]) == "f4"


def test_run_writes_deterministic_files(tmp_path, capsys):
    args = [
        "run", "--algorithm", "lfwa", "--function", "f1",
        "--runs", "1", "--iterations", "10", "--seed", "42", "--jobs", "1",
    ]
    code, out, _ = run_cli(args, tmp_path, capsys)
    assert code == 0
    base = "run_lfwa_f1_r1_i10_s42"
    first = {
        name: (tmp_path / f"{base}_{name}").read_bytes()
        for name in ("summary.csv", "curves.csv", "provenance.json")
    }
    code, _, _ = run_cli(args, tmp_path, capsys)
    assert code == 0
    for name, blob in first.items():
        assert (tmp_path / f"{base}_{name}").read_bytes() == blob


def test_run_unknown_function_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(["run", "--function", "f99", "--runs", "1"], tmp_path, capsys)
    assert code == 2
    assert "valid names" in err


def test_run_unknown_algorithm_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["run", "--algorithm", "annealing", "--function", "f1", "--runs", "1"],
        tmp_path, capsys,
    )
    assert code == 2
    assert "annealing" in err


def test_compare_row_count_and_summary_schema(tmp_path, capsys):
    code, out, _ = run_cli(
        [
            "compare", "--algorithms", "lfwa,spso", "--functions", "f7,f9",
            "--runs", "2", "--iterations", "10", "--seed", "1", "--jobs", "1",
        ],
        tmp_path, capsys,
    )
    assert code == 0
    path = tmp_path / "compare_lfwa+spso_f7+f9_r2_i10_s1_summary.csv"
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("algorithm,function,runs,iterations,pop_size,worst,best,")
    assert len(lines) == 1 + 4  # header + 2 algorithms x 2 functions
    assert {line.split(",")[0] for line in lines[1:]} == {"lfwa", "spso"}


def test_compare_full_grid_has_36_rows(tmp_path, capsys):
    # 4 algorithms x 9 functions; tiny runs, the row count is what matters
    code, _, _ = run_cli(
        [
            "compare", "--algorithms", "lfwa,fwa,spso,ba", "--functions", "f1..f9",
            "--runs", "1", "--iterations", "2", "--jobs", "1",
        ],
        tmp_path, capsys,
    )
    assert code == 0
    lines = (tmp_path / "compare_lfwa+fwa+spso+ba_f1-f9_r1_i2_s0_summary.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 36


def test_compare_json_format(tmp_path, capsys):
    code, _, _ = run_cli(
        [
            "compare", "--algorithms", "lfwa", "--functions", "f9",
            "--runs", "1", "--iterations", "5", "--format", "json", "--jobs", "1",
        ],
        tmp_path, capsys,
    )
    assert code == 0
    rows = json.loads((tmp_path / "compare_lfwa_f9_r1_i5_s0_summary.json").read_text())
    assert rows[0]["algorithm"] == "lfwa"
    assert rows[0]["runs"] == 1


def test_curve_log10_transform(tmp_path, capsys):
    code, _, _ = run_cli(
        [
            "curve", "--algorithm", "lfwa", "--function", "f9",
            "--runs", "2", "--iterations", "8", "--transform", "log10", "--jobs", "1",
        ],
        tmp_path, capsys,
    )
    assert code == 0
    lines = (tmp_path / "curve_lfwa_f9_r2_i8_s0_curves.csv").read_text().strip().split("\n")
    assert lines[0] == "iteration,mean_best,run_0,run_1"
    assert len(lines) == 10  # header + 9 iterations (init + 8)


def test_provenance_records_resolved_parameters(tmp_path, capsys):
    run_cli(
        [
            "run", "--algorithm", "spso", "--function", "f8",
            "--runs", "1", "--iterations", "5", "--pop-size", "12", "--jobs", "1",
        ],
        tmp_path, capsys,
    )
    payload = json.loads((tmp_path / "run_spso_f8_r1_i5_s0_provenance.json").read_text())
    experiment = payload["experiments"]["spso/f8"]
    assert experiment["parameters"]["population_size"] == 12
    assert experiment["parameters"]["algorithm_params"]["swarm_size"] == 12
    assert experiment["objective"]["name"] == "f8"
    assert "finals" in experiment


def test_list_functions_table(capsys):
    code = main(["list-functions"])
    out, _ = capsys.readouterr()
    assert code == 0
    rows = [line for line in out.strip().split("\n") if line.startswith("f")]
    assert len(rows) == 9
    f6_row = next(line for line in rows if line.startswith("f6"))
    assert "optimum-inconsistent" in f6_row
    f7_row = next(line for line in rows if line.startswith("f7"))
    assert "-1.0316285" in f7_row


def test_output_override(tmp_path, capsys):
    code, _, _ = run_cli(
        [
            "run", "--algorithm", "lfwa", "--function", "f9", "--runs", "1",
            "--iterations", "5", "--output", "custom", "--jobs", "1",
        ],
        tmp_path, capsys,
    )
    assert code == 0
    assert (tmp_path / "custom_summary.csv").exists()
    assert (tmp_path / "custom_curves.csv").exists()
    assert (tmp_path / "custom_provenance.json").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["run", "--algorithm", "lfwa", "--function", "f7"],
        ["compare", "--algorithms", "lfwa,ba", "--functions", "f7"],
        ["curve", "--algorithm", "ba", "--function", "f7"],
    ],
    ids=["run", "compare", "curve"],
)
def test_missing_output_directory_fails_before_any_run(args, tmp_path, capsys, monkeypatch):
    def no_runs(*args, **kwargs):
        raise AssertionError("an experiment ran before the output directory was checked")

    monkeypatch.setattr("litefwa.harness.run_experiment", no_runs)
    code, out, err = run_cli(
        args + ["--runs", "1", "--iterations", "5", "--jobs", "1",
                "--output", os.path.join("missing", "base")],
        tmp_path, capsys,
    )
    assert code == 2
    assert "output directory 'missing' is not an existing directory" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("jobs", ["0", "-4"])
@pytest.mark.parametrize(
    "args",
    [
        ["run", "--algorithm", "lfwa", "--function", "f7"],
        ["compare", "--algorithms", "lfwa,ba", "--functions", "f7"],
        ["curve", "--algorithm", "ba", "--function", "f7"],
    ],
    ids=["run", "compare", "curve"],
)
def test_jobs_below_one_is_a_usage_error(args, jobs, tmp_path, capsys, monkeypatch):
    def no_runs(*args, **kwargs):
        raise AssertionError("an experiment ran with an invalid --jobs")

    monkeypatch.setattr("litefwa.harness.run_experiment", no_runs)
    code, out, err = run_cli(
        args + ["--runs", "1", "--iterations", "5", "--jobs", jobs], tmp_path, capsys
    )
    assert code == 2
    assert f"--jobs must be at least 1, got {jobs}" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [
        ["run", "--algorithm", "lfwa", "--function", "f7"],
        ["compare", "--algorithms", "lfwa,ba", "--functions", "f7"],
        ["curve", "--algorithm", "ba", "--function", "f7"],
    ],
    ids=["run", "compare", "curve"],
)
def test_negative_seed_is_a_usage_error(args, tmp_path, capsys, monkeypatch):
    def no_runs(*args, **kwargs):
        raise AssertionError("an experiment ran with a negative --seed")

    monkeypatch.setattr("litefwa.harness.run_experiment", no_runs)
    code, out, err = run_cli(
        args + ["--runs", "1", "--iterations", "5", "--jobs", "1", "--seed", "-1"],
        tmp_path, capsys,
    )
    assert code == 2
    assert "seed must be nonnegative, got -1" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_jobs_default_is_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert build_parser().parse_args(["compare"]).jobs == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert build_parser().parse_args(["run", "--function", "f1"]).jobs == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert build_parser().parse_args(["curve", "--function", "f1"]).jobs == 1


@pytest.mark.parametrize(
    "args",
    [
        ["compare", "--algorithms", "lfwa,fwa,spso,ba", "--functions", "f1,f7"],
        ["run", "--algorithm", "fwa", "--function", "f1"],
    ],
    ids=["compare", "run"],
)
def test_jobs_changes_no_output_byte_but_its_own_provenance_field(args, tmp_path, capsys):
    outputs = {}
    for jobs in (1, 2):
        directory = tmp_path / f"jobs{jobs}"
        directory.mkdir()
        argv = args + ["--runs", "3", "--iterations", "10", "--jobs", str(jobs)]
        code, out, _ = run_cli(argv, directory, capsys)
        assert code == 0
        files = {path.name: path.read_bytes() for path in directory.iterdir()}
        (provenance_name,) = [name for name in files if name.endswith("_provenance.json")]
        provenance = json.loads(files.pop(provenance_name))
        assert provenance.pop("jobs") == jobs
        outputs[jobs] = out, files, provenance
    assert outputs[1] == outputs[2]
    assert len(outputs[1][1]) == (1 if args[0] == "compare" else 2)  # summary, curves
