"""Command line behavior: outputs, schemas, determinism, exit codes."""

import json
import subprocess
import sys
import warnings
from importlib import resources

import numpy as np
import pytest

jsonschema = pytest.importorskip("jsonschema")

import ctfactor.ct as ct_module
from ctfactor import CtConfig, FitOptions, NonPDSampleWarning, cli, ct_run, philox
from ctfactor.estimate import pearson_correlation
from ctfactor.io import dumps_json, read_data_csv, save_json
from ctfactor.model import FactorParams
from oracles import dumps_json_reference


def schema(name):
    text = resources.files("ctfactor").joinpath(f"schemas/{name}.schema.json").read_text()
    return json.loads(text)


def validate(doc, name):
    jsonschema.validate(doc, schema(name))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A simulated model + dataset pair shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    model = root / "model.json"
    data = root / "data.csv"
    rc = cli.main(
        [
            "simulate",
            "--d", "3", "--children", "5", "--n", "400",
            "--seed", "11", "--phi-scale", "0.25",
            "--out-model", str(model), "--out-data", str(data),
        ]
    )
    assert rc == 0
    return root, model, data


class TestSimulate:
    def test_outputs_exist_and_validate(self, workspace, capsys):
        root, model, data = workspace
        doc = json.loads(model.read_text())
        validate(doc, "model")
        lam = np.asarray(doc["lambda"])
        assert lam.shape == (15, 3)
        rows = data.read_text().strip().splitlines()
        assert rows[0] == ",".join(f"X{i}" for i in range(1, 16))
        assert len(rows) == 401

    def test_summary_on_stdout(self, tmp_path, capsys):
        rc = cli.main(
            [
                "simulate", "--d", "2", "--children", "3", "--n", "50", "--seed", "4",
                "--out-model", str(tmp_path / "m.json"),
                "--out-data", str(tmp_path / "d.csv"),
            ]
        )
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["p"] == 6 and summary["d"] == 2 and summary["n"] == 50
        assert summary["thresholdable"] in (True, False)
        assert "ucc_holds" in summary

    def test_seed_reproduces_bytes(self, tmp_path, capsys):
        args = ["simulate", "--d", "2", "--children", "4", "--n", "30", "--seed", "9"]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_a.mkdir(), out_b.mkdir()
        for out in (out_a, out_b):
            rc = cli.main(args + ["--out-model", str(out / "m.json"),
                                  "--out-data", str(out / "d.csv")])
            assert rc == 0
        capsys.readouterr()
        assert (out_a / "m.json").read_bytes() == (out_b / "m.json").read_bytes()
        assert (out_a / "d.csv").read_bytes() == (out_b / "d.csv").read_bytes()

    def test_preset_dimensions(self, tmp_path, capsys):
        rc = cli.main(
            [
                "simulate", "--preset", "highdim-250", "--seed", "0",
                "--out-model", str(tmp_path / "m.json"),
                "--out-data", str(tmp_path / "d.csv"),
            ]
        )
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["n"], summary["p"], summary["d"]) == (250, 375, 25)

    def test_ucc_violation_flagged(self, tmp_path, capsys):
        rc = cli.main(
            [
                "simulate", "--d", "4", "--children", "5", "--n", "50", "--seed", "2",
                "--ucc-violation", "0.5",
                "--out-model", str(tmp_path / "m.json"),
                "--out-data", str(tmp_path / "d.csv"),
            ]
        )
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["ucc_holds"] is False


class TestFit:
    def test_csv_input_bic(self, workspace, tmp_path, capsys):
        _, model, data = workspace
        out = tmp_path / "fit.json"
        rc = cli.main(["fit", str(data), "--select", "bic", "--seed", "3",
                       "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        validate(doc, "ct_result")
        assert doc["n"] == 400 and doc["p"] == 15
        chosen = doc["candidates"][doc["selected_index"]]
        assert chosen["structure"]["d"] == 3
        assert doc["selected_converged"] is chosen["fit"]["converged"]
        assert doc["models_fitted"] == sum(not c["pruned"] for c in doc["candidates"])

    def test_custom_thresholds(self, workspace, tmp_path, capsys):
        _, _, data = workspace
        out = tmp_path / "fit.json"
        rc = cli.main(["fit", str(data), "--thresholds", "0.2,0.4,0.6",
                       "--select", "none", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        taus = {t for c in doc["candidates"] for t in c["tau_values"]}
        taus |= set(doc["skipped_taus"])
        assert taus == {0.2, 0.4, 0.6}
        assert doc["selected_index"] is None

    def test_min_hd_with_truth(self, workspace, tmp_path, capsys):
        _, model, data = workspace
        model_doc = json.loads(model.read_text())
        lam = np.asarray(model_doc["lambda"])
        truth = {
            "p": 15, "d": 3,
            "support": [[int(i), int(j)] for i, j in zip(*np.nonzero(lam))],
        }
        truth_path = tmp_path / "truth.json"
        truth_path.write_text(json.dumps(truth))
        out = tmp_path / "fit.json"
        rc = cli.main(["fit", str(data), "--select", "min-hd",
                       "--truth", str(truth_path), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        chosen = doc["candidates"][doc["selected_index"]]
        assert chosen["hd"] == 0

    def test_min_hd_with_simulated_model_as_truth(self, tmp_path, capsys):
        model, data = tmp_path / "model.json", tmp_path / "data.csv"
        rc = cli.main(["simulate", "--d", "2", "--children", "3", "--n", "50",
                       "--out-model", str(model), "--out-data", str(data)])
        assert rc == 0
        out = tmp_path / "fit.json"
        rc = cli.main(["fit", str(data), "--select", "min-hd",
                       "--truth", str(model), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        validate(doc, "ct_result")
        assert doc["candidates"][doc["selected_index"]]["hd"] == 0
        assert doc["selected_converged"] is None and doc["models_fitted"] == 0

    def test_corr_json_input(self, tmp_path, capsys):
        corr = np.eye(3)
        corr[0, 1] = corr[1, 0] = 0.7
        src = tmp_path / "corr.json"
        save_json(src, {"correlation": corr, "n": 120})
        rc = cli.main(["fit", str(src), "--select", "none"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 120 and doc["p"] == 3

    def test_stdout_when_no_out(self, workspace, capsys):
        _, _, data = workspace
        rc = cli.main(["fit", str(data), "--select", "none"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        validate(doc, "ct_result")


class TestCliques:
    def test_report_validates(self, workspace, tmp_path, capsys):
        _, _, data = workspace
        out = tmp_path / "clq.json"
        rc = cli.main(["cliques", str(data), "--tau", "0.25", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        validate(doc, "cliques")
        assert doc["n_cliques"] == len(doc["cliques"])
        assert set(doc["timings_s"]) == {"ingest", "graph", "search"}

    def test_tau_required(self, workspace, capsys):
        _, _, data = workspace
        with pytest.raises(SystemExit) as exc:
            cli.main(["cliques", str(data)])
        assert exc.value.code == 2


class TestCheck:
    def test_report_validates(self, workspace, tmp_path, capsys):
        _, model, _ = workspace
        out = tmp_path / "check.json"
        rc = cli.main(["check", str(model), "--n-grid", "100,300,1000",
                       "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        validate(doc, "check_report")
        assert sorted(doc) == [
            "consistency_curve", "d", "p", "rotational_uniqueness",
            "thresholdability", "unique_children",
        ]
        assert doc["thresholdability"]["thresholdable"] is True
        assert doc["unique_children"]["ucc_holds"] is True
        assert [pt["n"] for pt in doc["consistency_curve"]] == [100, 300, 1000]

    def test_no_grid_no_curve(self, workspace, capsys):
        _, model, _ = workspace
        rc = cli.main(["check", str(model)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["consistency_curve"] is None


class TestEvaluate:
    def test_metric_report(self, tmp_path, capsys):
        est = {"p": 4, "d": 2, "support": [[0, 0], [1, 0], [2, 1], [3, 1]]}
        truth = {"p": 4, "d": 2, "support": [[0, 1], [1, 1], [2, 0], [3, 0]]}
        a, b = tmp_path / "est.json", tmp_path / "truth.json"
        a.write_text(json.dumps(est))
        b.write_text(json.dumps(truth))
        rc = cli.main(["evaluate", str(a), str(b)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        validate(doc, "metric_report")
        assert doc["hd"] == 0 and doc["f1"] == 1.0

    def test_model_document_scored_by_its_support(self, workspace, tmp_path, capsys):
        _, model, _ = workspace
        lam = np.asarray(json.loads(model.read_text())["lambda"])
        est = tmp_path / "est.json"
        est.write_text(json.dumps({
            "p": 15, "d": 3,
            "support": [[int(i), int(j)] for i, j in zip(*np.nonzero(lam))],
        }))
        rc = cli.main(["evaluate", str(est), str(model)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["hd"] == 0 and doc["d_true"] == 3

    def test_document_of_neither_kind_is_2(self, tmp_path, capsys):
        est = tmp_path / "est.json"
        est.write_text(json.dumps({"p": 2, "d": 1, "support": [[0, 0], [1, 0]]}))
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"correlation": [[1.0]], "n": 5}))
        assert cli.main(["evaluate", str(est), str(other)]) == 2
        err = capsys.readouterr().err
        assert "expected a structure document" in err and "model document" in err


class TestBench:
    def test_low_outputs(self, tmp_path, capsys):
        out_json = tmp_path / "agg.json"
        out_csv = tmp_path / "reps.csv"
        rc = cli.main(
            [
                "bench", "low", "--reps", "2", "--seed", "50", "--n", "150",
                "--select", "min-hd", "--jobs", "1",
                "--out-json", str(out_json), "--out-csv", str(out_csv),
            ]
        )
        assert rc == 0
        doc = json.loads(out_json.read_text())
        validate(doc, "aggregate")
        assert doc["replicates"] == 2
        assert doc["failures"] == []
        assert "wall" not in out_json.read_text()
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "replicate,seed,f1,hd,d_hat,d_true,models_evaluated,wall_time_s"
        assert len(lines) == 3

    def test_aggregate_bytes_stable_across_runs(self, tmp_path, capsys):
        paths = []
        for tag in ("x", "y"):
            out_json = tmp_path / f"agg_{tag}.json"
            rc = cli.main(
                [
                    "bench", "low", "--reps", "2", "--seed", "50", "--n", "150",
                    "--select", "min-hd", "--jobs", "1",
                    "--out-json", str(out_json),
                    "--out-csv", str(tmp_path / f"reps_{tag}.csv"),
                ]
            )
            assert rc == 0
            paths.append(out_json)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_replicate_seeds_offset_from_base(self, tmp_path, capsys):
        out_csv = tmp_path / "reps.csv"
        rc = cli.main(
            [
                "bench", "low", "--reps", "3", "--seed", "70", "--n", "120",
                "--select", "min-hd", "--jobs", "1",
                "--out-json", str(tmp_path / "agg.json"), "--out-csv", str(out_csv),
            ]
        )
        assert rc == 0
        rows = out_csv.read_text().strip().splitlines()[1:]
        seeds = [int(r.split(",")[1]) for r in rows]
        assert seeds == [70, 71, 72]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_2(self, tmp_path, capsys, jobs):
        rc = cli.main(
            [
                "bench", "low", "--reps", "1", "--n", "100", "--select", "min-hd",
                "--jobs", jobs,
                "--out-json", str(tmp_path / "a.json"),
                "--out-csv", str(tmp_path / "a.csv"),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: --jobs must be >= 1, got {jobs}\n"
        assert not (tmp_path / "a.json").exists()

    @pytest.mark.parametrize(
        "mode",
        [["low", "--n", "150", "--select", "min-hd"],
         ["high", "--preset", "highdim-250", "--violation", "ucc"]],
        ids=["low", "high"],
    )
    def test_aggregate_bytes_independent_of_jobs(self, tmp_path, capsys, mode):
        outs = []
        for jobs in ("1", "2"):
            out_json = tmp_path / f"agg_{jobs}.json"
            rc = cli.main(
                ["bench", *mode, "--reps", "2", "--seed", "50", "--jobs", jobs,
                 "--out-json", str(out_json), "--out-csv", str(tmp_path / f"reps_{jobs}.csv")]
            )
            assert rc == 0
            outs.append(out_json.read_bytes())
        assert json.loads(outs[0])["failures"] == []
        assert outs[0] == outs[1]


class TestExitCodes:
    def test_missing_file_is_2(self, capsys):
        assert cli.main(["fit", "/nonexistent/data.csv"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_input_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1.0,2.0\n3.0\n")
        assert cli.main(["fit", str(bad)]) == 2

    @pytest.mark.parametrize(
        "command, doc, message",
        [
            ("evaluate", {"p": 2, "d": 1, "support": [[0, 0, 1], [1, 0]]},
             "malformed structure document: too many values to unpack (expected 2)"),
            ("evaluate", {"p": 2, "d": 1, "support": [[0, "x"], [1, 0]]},
             "malformed structure document: invalid literal for int() with base 10: 'x'"),
            ("evaluate", {"p": 2, "d": 1, "support": 5},
             "malformed structure document: 'int' object is not iterable"),
            ("check", [1, 2], "model document must be a JSON object, got list"),
            ("check", {"lambda": [[0.5, 0.0], [0.5]], "phi": [[1.0]], "omega": [0.75, 0.75]},
             "malformed model document: setting an array element with a sequence. The "
             "requested array has an inhomogeneous shape after 1 dimensions. The detected "
             "shape was (2,) + inhomogeneous part."),
            ("evaluate", {"p": 2.9, "d": True, "support": [[0, 0], [1, 0]]},
             "malformed structure document: p must be an integer, got 2.9"),
            ("evaluate", {"p": 2, "d": True, "support": [[0, 0], [1, 0]]},
             "malformed structure document: d must be an integer, got True"),
            ("evaluate", {"p": 2.0, "d": 1, "support": [[0, 0], [1, 0]]},
             "malformed structure document: p must be an integer, got 2.0"),
            ("evaluate", {"p": 2, "d": 1, "support": [[0.7, 0], [1, 0]]},
             "malformed structure document: support entry must be an integer, got 0.7"),
        ],
        ids=["support-triple", "support-string", "support-scalar", "model-list",
             "model-ragged-lambda", "p-fraction", "d-bool", "p-float", "support-fraction"],
    )
    def test_malformed_document_is_2(self, tmp_path, capsys, command, doc, message):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = [command, str(path)] + ([str(path)] if command == "evaluate" else [])
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_unexpected_failure_is_3(self, workspace, capsys, monkeypatch):
        _, _, data = workspace
        monkeypatch.setattr(cli, "ct_run", lambda *a, **k: 1 / 0)
        assert cli.main(["fit", str(data)]) == 3
        assert "internal error:" in capsys.readouterr().err

    def test_argparse_rejects_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fit", "--bogus"])
        assert exc.value.code == 2

    def test_console_script_wired(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "ctfactor.cli", "evaluate", "missing.json", "also.json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "error:" in proc.stderr


class TestCsvIngestErrors:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "no rows"),
            ("X1,X2\n", "header but no data rows"),
            ("X1,X2\n1.0,2.0\n3.0\n", "row 3 has 1 cells, expected 2"),
            ("X1,X2\n1.0,2.0\n3.0,oops\n", "row 3, column 2: not a number: 'oops'"),
            ("X1,X2\n1.0,nan\n3.0,nan\n4.0,nan\n", "non-finite values in data"),
            ("a,b\n1,2\n" + "1" * 200001 + ",x\n",
             "line 3: field larger than field limit (131072)"),
        ],
        ids=["empty", "header-only", "ragged", "non-number", "nan-column", "oversized-cell"],
    )
    def test_fit_exits_2_with_message(self, tmp_path, capsys, text, message):
        path = tmp_path / "input.csv"
        path.write_text(text)
        assert cli.main(["fit", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: {message}\n"
        assert captured.out == ""


class TestFitEdgeCases:
    def test_empty_threshold_list_is_2(self, workspace, capsys):
        _, _, data = workspace
        assert cli.main(["fit", str(data), "--thresholds", ""]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: no thresholds given\n"
        assert captured.out == ""

    def test_duplicate_thresholds_give_one_tau(self, workspace, capsys):
        _, _, data = workspace
        assert cli.main(["fit", str(data), "--thresholds", "0.3,0.3", "--select", "none"]) == 0
        doc = json.loads(capsys.readouterr().out)
        taus = [t for c in doc["candidates"] for t in c["tau_values"]] + doc["skipped_taus"]
        assert taus == [0.3]

    def test_one_variable_corr_json_with_bic(self, tmp_path, capsys):
        src = tmp_path / "p1.json"
        save_json(src, {"correlation": [[1.0]], "n": 10})
        assert cli.main(["fit", str(src), "--select", "bic"]) == 0
        doc = json.loads(capsys.readouterr().out)
        validate(doc, "ct_result")
        assert [c["flags"] for c in doc["candidates"]] == [["trivial"]]
        assert doc["selected_index"] == 0
        assert doc["candidates"][0]["structure"] == {"p": 1, "d": 1, "support": [[0, 0]]}

    @pytest.mark.parametrize(
        "token, shown",
        [("2000.5", "2000.5"), ("2000.0", "2000.0"), ("true", "True"), ('"7"', "'7'"),
         ("1e400", "inf"), ("null", "None")],
        ids=["fraction", "float", "bool", "string", "overflow", "null"],
    )
    def test_non_integer_n_is_2(self, tmp_path, capsys, token, shown):
        src = tmp_path / "corr.json"
        src.write_text('{"correlation": [[1.0, 0.5], [0.5, 1.0]], "n": %s}' % token)
        assert cli.main(["fit", str(src), "--select", "none"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {src}: n must be an integer, got {shown}\n"
        assert captured.out == ""

    def test_integer_n_beyond_64_bits_kept(self, tmp_path, capsys):
        src = tmp_path / "corr.json"
        src.write_text('{"correlation": [[1.0, 0.5], [0.5, 1.0]], "n": %d}' % 2**70)
        assert cli.main(["fit", str(src), "--select", "none"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 2**70


class TestInvalidUtf8:
    """A byte that is not UTF-8 in any JSON input exits 2 with its position."""

    @pytest.fixture
    def bad(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"note": "caf\xe9"}')
        return path

    @pytest.mark.parametrize(
        "command",
        [["fit", "{bad}"], ["fit", "{data}", "--select", "min-hd", "--truth", "{bad}"],
         ["evaluate", "{bad}", "{model}"], ["check", "{bad}"], ["cliques", "{bad}", "--tau", "0.5"]],
        ids=["corr", "truth", "evaluate", "check", "cliques"],
    )
    def test_exit_2_with_message(self, workspace, bad, capsys, command):
        _, model, data = workspace
        argv = [arg.format(bad=bad, data=data, model=model) for arg in command]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: invalid UTF-8: 'utf-8' codec can't decode byte 0xe9 "
            "in position 13: invalid continuation byte\n"
        )


class TestFitOutputMatchesStdlibEncoder:
    @pytest.mark.parametrize("select", ["bic", "min-hd", "none"])
    def test_written_bytes(self, workspace, tmp_path, capsys, monkeypatch, select):
        _, model, data = workspace
        docs = []
        real_save = cli.save_json

        def recording_save(path, doc):
            docs.append(doc)
            real_save(path, doc)

        monkeypatch.setattr(cli, "save_json", recording_save)
        out = tmp_path / "fit.json"
        argv = ["fit", str(data), "--select", select, "--out", str(out)]
        assert cli.main(argv + (["--truth", str(model)] if select == "min-hd" else [])) == 0
        assert out.read_text() == dumps_json_reference(docs[0]) + "\n"


class TestCliDeterminism:
    def test_fit_output_bytes_stable(self, workspace, tmp_path, capsys):
        _, _, data = workspace
        outs = []
        for tag in ("p", "q"):
            out = tmp_path / f"fit_{tag}.json"
            rc = cli.main(["fit", str(data), "--select", "bic", "--seed", "8",
                           "--out", str(out)])
            assert rc == 0
            outs.append(out)
        a = json.loads(outs[0].read_text())
        b = json.loads(outs[1].read_text())
        a["timings_s"] = b["timings_s"] = None
        assert a == b


class TestNegativeSeed:
    """A negative ``--seed`` exits 2 before any work, in every command."""

    @pytest.mark.parametrize(
        "command",
        [["fit", "{data}", "--select", "bic"],
         ["fit", "{data}", "--select", "min-hd", "--truth", "{model}"],
         ["fit", "{data}", "--select", "none"],
         ["simulate", "--out-model", "{tmp}/m.json", "--out-data", "{tmp}/d.csv"],
         ["bench", "low", "--reps", "1", "--n", "100",
          "--out-json", "{tmp}/a.json", "--out-csv", "{tmp}/a.csv"],
         ["bench", "high", "--preset", "highdim-250", "--violation", "ucc", "--reps", "1",
          "--out-json", "{tmp}/a.json", "--out-csv", "{tmp}/a.csv"]],
        ids=["fit-bic", "fit-min-hd", "fit-none", "simulate", "bench-low", "bench-high"],
    )
    def test_exits_2(self, workspace, tmp_path, capsys, command):
        _, model, data = workspace
        argv = [arg.format(data=data, model=model, tmp=tmp_path) for arg in command]
        assert cli.main(argv + ["--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be non-negative, got -1\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


def rank_warning(n, p):
    return (f"warning: BIC selection with n={n} < p={p}: the sample correlation matrix "
            "is rank deficient and likelihoods are unreliable\n")


NON_PD_WARNING = (
    "warning: sample matrix is not positive definite; the fit maximizes the likelihood "
    "formula as given\n"
)


UNCONVERGED_WARNING = "warning: selected fit did not converge\n"


class TestWarningLines:
    """Warnings reach stderr as one ``warning: <message>`` line per distinct
    message, in order; the output document is the one ``ct_run`` gives."""

    @pytest.mark.parametrize(
        "corr, n, err",
        [(np.round(pearson_correlation(philox(0).standard_normal((5, 8))), 6), 5,
          rank_warning(5, 8) + NON_PD_WARNING),
         (np.array([[1.0, 0.9, 0.9, -0.9], [0.9, 1.0, 0.9, 0.9],
                    [0.9, 0.9, 1.0, 0.9], [-0.9, 0.9, 0.9, 1.0]]), 100,
          NON_PD_WARNING + UNCONVERGED_WARNING)],
        ids=["n-below-p", "non-pd"],
    )
    def test_fit_bic(self, tmp_path, capsys, corr, n, err):
        np.fill_diagonal(corr, 1.0)
        src = tmp_path / "corr.json"
        save_json(src, {"correlation": corr, "n": n})
        out = tmp_path / "fit.json"
        assert cli.main(["fit", str(src), "--select", "bic", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == err
        assert captured.out == ""
        with pytest.warns(NonPDSampleWarning):
            want = ct_run(corr, n, CtConfig()).to_json_dict()
        timings = json.loads(out.read_text())["timings_s"]
        assert timings.keys() == want["timings_s"].keys()
        want.update(p=corr.shape[0], n=n, timings_s=timings)
        assert out.read_text() == dumps_json(want) + "\n"

    def test_unconverged_selection_warns(self, workspace, tmp_path, capsys, monkeypatch):
        # fits capped after one iteration: the winner has not converged
        _, _, data = workspace
        real = ct_module.fit_mle
        monkeypatch.setattr(ct_module, "fit_mle", lambda *a, **k: real(
            *a, options=FitOptions(max_iterations=1), **k))
        out = tmp_path / "fit.json"
        assert cli.main(["fit", str(data), "--select", "bic", "--out", str(out)]) == 0
        assert capsys.readouterr().err == UNCONVERGED_WARNING
        rows, _ = read_data_csv(str(data))
        want = ct_run(pearson_correlation(rows), 400, CtConfig()).to_json_dict()
        assert want["selected_converged"] is False
        timings = json.loads(out.read_text())["timings_s"]
        want.update(p=rows.shape[1], n=400, timings_s=timings)
        assert out.read_text() == dumps_json(want) + "\n"

    def test_bench_workers_warnings_reach_stderr(self, tmp_path, capsys):
        errs = []
        for jobs in ("1", "2"):
            assert cli.main(["bench", "low", "--d", "1", "--children", "3", "--n", "2",
                             "--reps", "2", "--jobs", jobs,
                             "--out-json", str(tmp_path / f"a{jobs}.json"),
                             "--out-csv", str(tmp_path / f"a{jobs}.csv")]) == 0
            errs.append(capsys.readouterr().err)
        assert errs == [rank_warning(2, 3) + NON_PD_WARNING] * 2

    def test_error_filter_still_raises(self, workspace, capsys, monkeypatch):
        _, _, data = workspace
        monkeypatch.setattr(cli, "ct_run", lambda *a, **k: warnings.warn("x", RuntimeWarning))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["fit", str(data)]) == 3
        assert capsys.readouterr().err == "internal error: RuntimeWarning: x\n"


def _written(argv, out):
    """The document that ``argv`` writes to ``out``."""
    assert cli.main(argv) == 0
    return json.loads(out.read_text())


def _read_back(doc, path, argv):
    """``doc`` as saved to ``path``, checked to be read by the command ``argv``."""
    save_json(path, doc)
    assert cli.main(argv) == 0
    return json.loads(path.read_text())


#: Every shipped schema -> a document the package writes or reads, built
#: from ``(model path, data path, scratch dir)``.
SCHEMA_DOCUMENTS = {
    "aggregate": lambda model, data, tmp: _written(
        ["bench", "low", "--reps", "1", "--n", "100", "--select", "min-hd",
         "--out-json", str(tmp / "agg.json"), "--out-csv", str(tmp / "agg.csv")],
        tmp / "agg.json"),
    "check_report": lambda model, data, tmp: _written(
        ["check", str(model), "--n-grid", "100,1000", "--out", str(tmp / "chk.json")],
        tmp / "chk.json"),
    "cliques": lambda model, data, tmp: _written(
        ["cliques", str(data), "--tau", "0.3", "--out", str(tmp / "clq.json")],
        tmp / "clq.json"),
    "corr": lambda model, data, tmp: _read_back(
        {"correlation": pearson_correlation(read_data_csv(str(data))[0]).tolist(), "n": 400},
        tmp / "corr.json", ["fit", str(tmp / "corr.json"), "--select", "none"]),
    "ct_result": lambda model, data, tmp: _written(
        ["fit", str(data), "--select", "bic", "--out", str(tmp / "fit.json")],
        tmp / "fit.json"),
    "metric_report": lambda model, data, tmp: _written(
        ["evaluate", str(model), str(model), "--out", str(tmp / "hd.json")],
        tmp / "hd.json"),
    "model": lambda model, data, tmp: json.loads(model.read_text()),
    "structure": lambda model, data, tmp: _read_back(
        FactorParams.from_json_dict(json.loads(model.read_text())).structure().to_json_dict(),
        tmp / "structure.json", ["evaluate", str(tmp / "structure.json"), str(model)]),
}


class TestShippedSchemas:
    def test_every_schema_has_a_document(self):
        shipped = resources.files("ctfactor").joinpath("schemas").iterdir()
        names = {p.name.removesuffix(".schema.json") for p in shipped}
        assert set(SCHEMA_DOCUMENTS) == names

    @pytest.mark.parametrize("name", sorted(SCHEMA_DOCUMENTS))
    def test_document_validates(self, workspace, tmp_path, capsys, name):
        _, model, data = workspace
        validate(SCHEMA_DOCUMENTS[name](model, data, tmp_path), name)
