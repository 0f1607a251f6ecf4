import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import difflab
from difflab import DirectedGraph, dumps_edge_list, erdos_renyi
from difflab.cli import main


@pytest.fixture
def graph_file(tmp_path):
    g = erdos_renyi(40, 0.12, 99)
    path = tmp_path / "graph.txt"
    path.write_text(dumps_edge_list(g))
    return path


def _strip_duration(manifest_path):
    doc = json.loads(Path(manifest_path).read_text())
    doc.pop("duration_s")
    return doc


def _run(args):
    return main([str(a) for a in args])


def _fresh_python(*args):
    """Run ``python *args`` in a new interpreter that imports this
    checkout's difflab."""
    src = str(Path(difflab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *map(str, args)],
                          capture_output=True, env=env, timeout=120)


class TestSimulate:
    def test_writes_cascades_and_manifest(self, tmp_path, graph_file):
        out = tmp_path / "casc.jsonl"
        rc = _run(["simulate", "--graph", graph_file, "--model", "asic",
                   "--p", "0.3", "--r", "1.0", "--target-active", "120",
                   "--min-len", "3", "--seed", "5", "--out", out])
        assert rc == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert sum(len(rec["events"]) for rec in lines) >= 120
        assert all(len(rec["events"]) >= 3 for rec in lines)
        manifest = json.loads((tmp_path / "casc.jsonl.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 5

    def test_reproducible_byte_identical(self, tmp_path, graph_file):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for out in (a, b):
            rc = _run(["simulate", "--graph", graph_file, "--model", "aslt",
                       "--q", "0.8", "--r", "1.0", "--target-active", "60",
                       "--min-len", "2", "--seed", "11", "--out", out])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()
        assert (_strip_duration(tmp_path / "a.jsonl.manifest.json")["inputs"]
                == _strip_duration(tmp_path / "b.jsonl.manifest.json")["inputs"])

    def test_progress_failure_exits_3(self, tmp_path, graph_file):
        rc = _run(["simulate", "--graph", graph_file, "--model", "asic",
                   "--p", "0.0", "--r", "1.0", "--target-active", "5",
                   "--min-len", "2", "--seed", "5", "--max-attempts", "50",
                   "--out", tmp_path / "x.jsonl"])
        assert rc == 3

    @pytest.mark.parametrize("flags", [
        ["--target-active", "5", "--min-len", "10"],
        ["--target-active", "5", "--min-len", "0"],
        ["--target-active", "5", "--min-len", "2", "--max-attempts", "0"]])
    def test_out_of_range_arguments_exit_1(self, tmp_path, graph_file, capsys,
                                           flags):
        rc = _run(["simulate", "--graph", graph_file, "--model", "asic",
                   "--p", "0.3", "--r", "1.0", "--seed", "5", *flags,
                   "--out", tmp_path / "x.jsonl"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: need target_active")

    def test_missing_required_flag_exits_2(self, tmp_path, graph_file):
        with pytest.raises(SystemExit) as exc:
            _run(["simulate", "--graph", graph_file, "--model", "asic",
                  "--p", "0.3", "--r", "1.0", "--seed", "1",
                  "--out", tmp_path / "x.jsonl"])
        assert exc.value.code == 2

    def test_contradictory_params_exit_2(self, tmp_path, graph_file):
        with pytest.raises(SystemExit) as exc:
            _run(["simulate", "--graph", graph_file, "--model", "asic",
                  "--r", "1.0", "--target-active", "5", "--min-len", "1",
                  "--seed", "1", "--out", tmp_path / "x.jsonl"])
        assert exc.value.code == 2

    def test_invalid_graph_exits_1(self, tmp_path):
        graph = tmp_path / "loop.txt"
        graph.write_text("0 1\n1 1\n")
        rc = _run(["simulate", "--graph", graph, "--model", "asic",
                   "--p", "0.3", "--r", "1.0", "--target-active", "5",
                   "--seed", "5", "--out", tmp_path / "x.jsonl"])
        assert rc == 1

    @pytest.mark.parametrize("delay", ["node-no", "node-ov"])
    def test_node_delay_variants(self, tmp_path, graph_file, delay):
        out = tmp_path / f"{delay}.jsonl"
        rc = _run(["simulate", "--graph", graph_file, "--model", "aslt",
                   "--q", "0.9", "--r", "1.0", "--delay", delay,
                   "--target-active", "40", "--min-len", "2", "--seed", "6",
                   "--out", out])
        assert rc == 0
        assert out.read_text().strip()


class TestLearnSelect:
    def _make_cascades(self, tmp_path, graph_file, model="asic"):
        out = tmp_path / "casc.jsonl"
        flags = ["--p", "0.3"] if model == "asic" else ["--q", "0.8"]
        rc = _run(["simulate", "--graph", graph_file, "--model", model,
                   *flags, "--r", "1.0", "--target-active", "250",
                   "--min-len", "4", "--seed", "21", "--out", out])
        assert rc == 0
        return out

    def test_learn_defaults_echoed_and_sidecar_written(self, tmp_path,
                                                       graph_file):
        casc = self._make_cascades(tmp_path, graph_file)
        out = tmp_path / "params.json"
        rc = _run(["learn", "--graph", graph_file, "--cascades", casc,
                   "--model", "asic", "--truth-p", "0.3", "--truth-r", "1.0",
                   "--out", out])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["model"] == "asic"
        assert doc["mode"] == "shared"
        assert 0 < doc["p"] < 1
        manifest = json.loads((tmp_path / "params.json.manifest.json")
                              .read_text())
        assert manifest["config"]["tol"] == 1e-6
        assert manifest["config"]["max_iter"] == 100
        sidecar = json.loads((tmp_path / "params.json.trace.json").read_text())
        assert sidecar["converged"]
        assert sidecar["E_p"] < 0.5 and sidecar["E_r"] < 0.5
        assert len(sidecar["loglik"]) == sidecar["iterations"] + 1
        assert set(sidecar) == {"loglik", "iterations", "converged",
                                "untouched_links", "E_p", "E_r"}

    def test_learn_estimation_failure_exits_4(self, tmp_path, graph_file):
        bad = tmp_path / "bad.jsonl"
        # node 1 activates with no active parent: impossible event
        bad.write_text(json.dumps(
            {"id": "x", "events": [[0, 0.0], [39, 1.0]], "horizon": 5.0})
            + "\n")
        rc = _run(["learn", "--graph", graph_file, "--cascades", bad,
                   "--model", "asic", "--out", tmp_path / "p.json"])
        assert rc == 4

    def test_learn_non_finite_final_loglik_exits_4(self, tmp_path):
        # One update takes p to 1, where the long gap's log-likelihood is
        # nan; no parameter file is written.
        graph = tmp_path / "g.txt"
        graph.write_text(dumps_edge_list(DirectedGraph(2, [(0, 1)])))
        lines = [{"id": str(i), "events": [[0, 0.0], [1, 1e-3]],
                  "horizon": 1000.0} for i in range(2000)]
        lines.append({"id": "long", "events": [[0, 0.0], [1, 740.0]],
                      "horizon": 1000.0})
        casc = tmp_path / "c.jsonl"
        casc.write_text("".join(json.dumps(x) + "\n" for x in lines))
        out = tmp_path / "p.json"
        rc = _run(["learn", "--graph", graph, "--cascades", casc,
                   "--model", "asic", "--max-iter", "1", "--out", out])
        assert rc == 4
        assert not out.exists()

    def test_unconverged_learn_keeps_stderr_empty(self, tmp_path,
                                                  graph_file):
        # The fit stops at its cap and logs a warning, which the package's
        # NullHandler keeps off stderr unless logging is configured.
        casc = self._make_cascades(tmp_path, graph_file)
        proc = _fresh_python(
            "-m", "difflab.cli", "learn", "--graph", graph_file,
            "--cascades", casc, "--model", "asic", "--tol", "1e-12",
            "--max-iter", "2", "--out", tmp_path / "p.json")
        assert proc.returncode == 0
        trace = json.loads((tmp_path / "p.json.trace.json").read_text())
        assert not trace["converged"]
        assert proc.stderr == b""

    def test_per_link_mode_reports_untouched_links(self, tmp_path,
                                                   graph_file):
        casc = self._make_cascades(tmp_path, graph_file)
        out = tmp_path / "pl.json"
        rc = _run(["learn", "--graph", graph_file, "--cascades", casc,
                   "--model", "asic", "--mode", "per-link", "--out", out])
        assert rc == 0
        sidecar = json.loads((tmp_path / "pl.json.trace.json").read_text())
        assert sidecar["untouched_links"] > 0

    @pytest.mark.parametrize("model", ["asic", "aslt"])
    @pytest.mark.usefixtures("four_cpus")
    def test_per_link_file_drives_simulate_and_influence(self, tmp_path,
                                                         graph_file, model):
        casc = self._make_cascades(tmp_path, graph_file, model)
        learned = tmp_path / "pl.json"
        assert _run(["learn", "--graph", graph_file, "--cascades", casc,
                     "--model", model, "--mode", "per-link",
                     "--max-iter", "5", "--out", learned]) == 0
        assert json.loads(learned.read_text())["mode"] == "per_link"
        out = tmp_path / "resim.jsonl"
        assert _run(["simulate", "--graph", graph_file, "--model", model,
                     "--params", learned, "--target-active", "40",
                     "--min-len", "2", "--seed", "3", "--out", out]) == 0
        assert out.read_text().strip()
        # Two worker processes: the array parameters go through pickling.
        tables = []
        for threads in ("2", "1"):
            table = tmp_path / f"influence{threads}.csv"
            assert _run(["influence", "--graph", graph_file, "--model", model,
                         "--method", "percolation", "--params", learned,
                         "--samples", "60", "--seed", "4", "--threads",
                         threads, "--out", table]) == 0
            tables.append(table.read_text())
        assert tables[0] == tables[1]

    def test_select_reports_topics(self, tmp_path, graph_file):
        casc = self._make_cascades(tmp_path, graph_file)
        out = tmp_path / "report.json"
        rc = _run(["select", "--graph", graph_file, "--cascades", casc,
                   "--max-iter", "30", "--out", out])
        assert rc == 0
        reports = json.loads(out.read_text())
        assert len(reports) == 1
        rep = reports[0]
        assert rep["chosen"] in ("asic", "aslt")
        assert rep["chosen"] == ("asic" if rep["score_asic"] <= rep["score_aslt"]
                                 else "aslt")

    @pytest.mark.parametrize("command", ["learn", "select"])
    @pytest.mark.parametrize("node", [-2, 9])
    def test_node_outside_graph_exits_1(self, tmp_path, capsys, command,
                                        node):
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n1 2\n")
        casc = tmp_path / "c.jsonl"
        casc.write_text("".join(json.dumps(rec) + "\n" for rec in [
            {"id": "a", "events": [[0, 0.0], [1, 1.0], [2, 2.0]],
             "horizon": 3.0},
            {"id": "b", "events": [[0, 0.0], [1, 0.5], [node, 2.5]],
             "horizon": 3.0}]))
        rc = _run([command, "--graph", graph, "--cascades", casc,
                   "--out", tmp_path / "out.json"]
                  + (["--model", "asic"] if command == "learn" else []))
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: cascade 1 references node {node} outside the graph\n")

    def test_select_reports_refit_counts(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n1 2\n")
        casc = tmp_path / "c.jsonl"
        # The first cutoff (t=3) leaves only seeds, so both models skip it.
        casc.write_text("".join(json.dumps(rec) + "\n" for rec in [
            {"id": "a", "events": [[0, 0.0], [1, 3.0], [2, 4.0]],
             "horizon": 5.0},
            {"id": "b", "events": [[0, 0.0]], "horizon": 5.0}]))
        out = tmp_path / "report.json"
        # One update per refit, which no refit meets the tolerance in.
        rc = _run(["select", "--graph", graph, "--cascades", casc,
                   "--max-iter", "1", "--tol", "1e-300", "--out", out])
        assert rc == 0
        (rep,) = json.loads(out.read_text())
        for model in ("asic", "aslt"):
            nulls = sum(cut[f"h_{model}"] is None for cut in rep["cutoffs"])
            assert rep["skipped_cutoffs"][model] == nulls == 1
            assert rep["capped"][model] == len(rep["cutoffs"]) - nulls

    def test_select_single_event_topic_skipped(self, tmp_path, graph_file):
        casc = tmp_path / "one.jsonl"
        casc.write_text(json.dumps(
            {"id": "solo", "events": [[0, 0.0]], "horizon": 1.0}) + "\n")
        out = tmp_path / "report.json"
        rc = _run(["select", "--graph", graph_file, "--cascades", casc,
                   "--out", out])
        assert rc == 0
        reports = json.loads(out.read_text())
        assert reports[0]["skipped"] is True


class TestInfluenceRank:
    def test_influence_csv_and_default_samples(self, tmp_path, graph_file):
        out = tmp_path / "infl.csv"
        rc = _run(["influence", "--graph", graph_file, "--model", "asic",
                   "--method", "percolation", "--p", "0.2", "--r", "1.0",
                   "--samples", "400", "--seed", "3", "--threads", "1",
                   "--out", out])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "node,sigma,stderr"
        assert len(lines) == 41
        manifest = json.loads((tmp_path / "infl.csv.manifest.json").read_text())
        assert manifest["config"]["samples"] == 400

    def test_rank_centrality_and_compare(self, tmp_path, graph_file):
        truth = tmp_path / "truth.csv"
        cand = tmp_path / "cand.csv"
        rc = _run(["rank", "--graph", graph_file, "--method", "outdegree",
                   "--out", truth])
        assert rc == 0
        rc = _run(["rank", "--graph", graph_file, "--method", "pagerank",
                   "--out", cand])
        assert rc == 0
        out = tmp_path / "sim.csv"
        rc = _run(["compare-rank", "--truth", truth, "--candidate", cand,
                   "--k", "10", "--out", out])
        assert rc == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "k,similarity"
        assert len(rows) == 11

    def test_identical_rankings_all_ones(self, tmp_path, graph_file):
        truth = tmp_path / "truth.csv"
        rc = _run(["rank", "--graph", graph_file, "--method", "betweenness",
                   "--out", truth])
        assert rc == 0
        out = tmp_path / "sim.csv"
        rc = _run(["compare-rank", "--truth", truth, "--candidate", truth,
                   "--k", "5", "--out", out])
        assert rc == 0
        for line in out.read_text().splitlines()[1:]:
            assert float(line.split(",")[1]) == 1.0

    def test_rank_with_mc_method(self, tmp_path, graph_file):
        out = tmp_path / "mc.csv"
        rc = _run(["rank", "--graph", graph_file, "--method", "mc",
                   "--model", "asic", "--p", "0.2", "--r", "1.0",
                   "--samples", "50", "--seed", "4", "--threads", "1",
                   "--out", out])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 41

    @pytest.mark.parametrize("command", ["influence", "rank"])
    def test_csv_numbers_parse_as_floats(self, tmp_path, graph_file,
                                         command):
        out = tmp_path / "out.csv"
        rc = _run([command, "--graph", graph_file, "--method", "percolation",
                   "--model", "aslt", "--q", "0.8", "--r", "1.0",
                   "--samples", "50", "--seed", "3", "--threads", "1",
                   "--out", out])
        assert rc == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 40
        for row in rows:
            for value in row.split(","):
                float(value)

    def test_unknown_method_exits_2(self, tmp_path, graph_file):
        with pytest.raises(SystemExit) as exc:
            _run(["rank", "--graph", graph_file, "--method", "eigen",
                  "--out", tmp_path / "x.csv"])
        assert exc.value.code == 2


class TestInputErrors:
    """Unreadable or malformed inputs exit 1 with one ``error:`` line that
    names the file, not a traceback."""

    def _assert_error(self, capsys, rc, *parts):
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        for part in parts:
            assert part in err

    @pytest.mark.parametrize("row", ["2", "2,x,0.1"])
    def test_compare_rank_bad_row(self, tmp_path, capsys, graph_file, row):
        truth = tmp_path / "truth.csv"
        assert _run(["rank", "--graph", graph_file, "--method", "outdegree",
                     "--out", truth]) == 0
        bad = tmp_path / "bad.csv"
        bad.write_text(f"rank,node,score\n1,0,1.0\n{row}\n")
        capsys.readouterr()
        rc = _run(["compare-rank", "--truth", truth, "--candidate", bad,
                   "--k", "2", "--out", tmp_path / "sim.csv"])
        self._assert_error(capsys, rc, f"{bad}: line 3:", repr(row))

    def test_compare_rank_repeated_node(self, tmp_path, capsys):
        truth, cand = tmp_path / "truth.csv", tmp_path / "cand.csv"
        truth.write_text("rank,node,score\n1,5,3.0\n2,6,2.0\n3,7,1.0\n")
        cand.write_text("rank,node,score\n1,5,3.0\n2,5,2.0\n3,7,1.0\n")
        out = tmp_path / "sim.csv"
        rc = _run(["compare-rank", "--truth", truth, "--candidate", cand,
                   "--k", "3", "--out", out])
        self._assert_error(capsys, rc, f"{cand}: line 3: node 5 listed twice")
        assert not out.exists()

    @pytest.mark.parametrize("rows, part", [
        ("foo,0,bar\n7,1\n", "line 2: expected 'rank,node,score'"),
        ("1,0,bar\n2,1,0.5\n", "line 2: expected 'rank,node,score'"),
        ("1,0,1.0\n7,1\n", "line 3: expected 'rank,node,score'"),
        ("1,0,1.0\n2,1,0.5,9\n", "line 3: expected 'rank,node,score'"),
        ("2,1,0.5\n1,0,1.0\n", "line 2: rank 2 on row 1"),
        ("1,0,1.0\n3,1,0.5\n", "line 3: rank 3 on row 2"),
    ])
    def test_compare_rank_checks_every_field(self, tmp_path, capsys, rows,
                                             part):
        truth, cand = tmp_path / "truth.csv", tmp_path / "cand.csv"
        truth.write_text("rank,node,score\n1,0,1.0\n2,1,0.5\n")
        cand.write_text("rank,node,score\n" + rows)
        out = tmp_path / "sim.csv"
        rc = _run(["compare-rank", "--truth", truth, "--candidate", cand,
                   "--k", "2", "--out", out])
        self._assert_error(capsys, rc, f"{cand}: {part}")
        assert not out.exists()

    @staticmethod
    def _per_link_file(tmp_path, p, r):
        graph, params = tmp_path / "g.txt", tmp_path / "params.json"
        # A 3-node cycle plus 0 -> 2: node 2 has two in-links.
        graph.write_text("0 1\n1 2\n2 0\n0 2\n")
        params.write_text(json.dumps({"model": "asic", "mode": "per_link",
                                      "p": p, "r": r}))
        return graph, params

    def test_per_link_file_with_unknown_link(self, tmp_path, capsys):
        links = {"0,1": 0.5, "1,2": 0.5, "2,0": 0.5, "0,2": 0.5}
        graph, params = self._per_link_file(
            tmp_path, dict(links, **{"5,7": 0.5}), links)
        rc = _run(["influence", "--graph", graph, "--model", "asic",
                   "--params", params, "--samples", "10", "--seed", "1",
                   "--threads", "1", "--out", tmp_path / "i.csv"])
        self._assert_error(capsys, rc, f"{params}: p: link (5, 7) is not in "
                           "the graph")

    def test_per_link_file_missing_link(self, tmp_path, capsys):
        links = {"0,1": 0.5, "1,2": 0.5, "2,0": 0.5, "0,2": 0.5}
        graph, params = self._per_link_file(
            tmp_path, links, {k: v for k, v in links.items() if k != "2,0"})
        rc = _run(["influence", "--graph", graph, "--model", "asic",
                   "--params", params, "--samples", "10", "--seed", "1",
                   "--threads", "1", "--out", tmp_path / "i.csv"])
        self._assert_error(capsys, rc,
                           f"{params}: r: no value for link (2, 0)")

    @pytest.mark.parametrize("rate_02, ok", [(2.0, True), (1.0, False)])
    def test_node_delay_with_per_link_file(self, tmp_path, capsys, rate_02,
                                           ok):
        p = {"0,1": 0.5, "1,2": 0.5, "2,0": 0.5, "0,2": 0.5}
        r = {"0,1": 1.0, "1,2": 2.0, "2,0": 3.0, "0,2": rate_02}
        graph, params = self._per_link_file(tmp_path, p, r)
        out = tmp_path / "c.jsonl"
        rc = _run(["simulate", "--graph", graph, "--model", "asic",
                   "--delay", "node-no", "--params", params,
                   "--target-active", "5", "--min-len", "1", "--seed", "2",
                   "--out", out])
        if ok:
            assert rc == 0 and out.read_text().strip()
        else:
            self._assert_error(capsys, rc, "in-link rates of node 2 differ")

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_compare_rank_k_below_one(self, tmp_path, capsys, k):
        ranked = tmp_path / "ranked.csv"
        ranked.write_text("rank,node,score\n1,5,3.0\n2,6,2.0\n")
        with pytest.raises(SystemExit) as exc:
            _run(["compare-rank", "--truth", ranked, "--candidate", ranked,
                  "--k", k, "--out", tmp_path / "sim.csv"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--k must be at least 1" in err
        assert "rankings are empty" not in err

    def test_compare_rank_empty_ranking(self, tmp_path, capsys):
        ranked, empty = tmp_path / "ranked.csv", tmp_path / "empty.csv"
        ranked.write_text("rank,node,score\n1,5,3.0\n")
        empty.write_text("rank,node,score\n")
        with pytest.raises(SystemExit) as exc:
            _run(["compare-rank", "--truth", ranked, "--candidate", empty,
                  "--k", "3", "--out", tmp_path / "sim.csv"])
        assert exc.value.code == 2
        assert "rankings are empty" in capsys.readouterr().err

    def test_missing_graph_file(self, tmp_path, capsys):
        missing = tmp_path / "nosuch.txt"
        rc = _run(["simulate", "--graph", missing, "--model", "asic",
                   "--p", "0.3", "--r", "1.0", "--target-active", "5",
                   "--seed", "5", "--out", tmp_path / "x.jsonl"])
        self._assert_error(capsys, rc, f"{missing}: No such file")

    def test_graph_not_utf8(self, tmp_path, capsys):
        graph = tmp_path / "binary.txt"
        graph.write_bytes(b"\xff0 1\n1 2\n")
        rc = _run(["rank", "--graph", graph, "--method", "outdegree",
                   "--out", tmp_path / "r.csv"])
        self._assert_error(capsys, rc, f"{graph}: not UTF-8 text",
                           "at byte 0")


    @pytest.mark.parametrize("text, part", [
        ('{"model": "asic", "p": 0.2', "not valid JSON: "),
        ('{"p": 0.2}', '"model"'),
        ('{"model": "asic", "mode": "shared", "p": "abc", "r": 1.0}',
         "p must be a number, got 'abc'"),
        ('{"model": "asic", "mode": "shared", "p": [0.5], "r": 1.0}',
         "p must be a number, got [0.5]"),
        ('{"model": "asic", "mode": "shared", "p": 2, "r": 1.0}',
         "p must lie in [0, 1], got 2.0"),
        ('{"model": "asic", "mode": "per_link", "p": 0.5, "r": {"0,1": 1}}',
         'per-link "p" must be an object mapping "u,v" links'),
        ('{"model": "asic", "mode": "per_link", "p": {"0-1": 0.5}, '
         '"r": {"0,1": 1}}', 'per-link "p" must be an object mapping'),
        ('{"model": "asic", "mode": "per_link", "p": {"0,1": "x"}, '
         '"r": {"0,1": 1}}', "p[(0, 1)] must be a number, got 'x'"),
        ('{"model": "asic", "mode": "shared", "p": "0.5", "r": 1.0}',
         "p must be a number, got '0.5'"),
        ('{"model": "asic", "mode": "shared", "p": 0.5, "r": true}',
         "r must be a number, got True"),
    ])
    def test_malformed_params_file(self, tmp_path, capsys, graph_file, text,
                                   part):
        params = tmp_path / "params.json"
        params.write_text(text)
        rc = _run(["influence", "--graph", graph_file, "--model", "asic",
                   "--method", "mc", "--params", params, "--samples", "10",
                   "--seed", "1", "--out", tmp_path / "i.csv"])
        self._assert_error(capsys, rc, f"{params}: ", part)

    @pytest.mark.parametrize("text, part", [
        ('{"a": "x",', "not valid JSON: "),
        ('["a", "x"]', "expected a JSON object"),
        ('{"a": 1}', "cascade a: topic must be a string, got 1"),
    ])
    def test_malformed_topic_labels(self, tmp_path, capsys, text, part):
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n1 2\n")
        casc = tmp_path / "c.jsonl"
        casc.write_text(json.dumps({"id": "a", "events": [[0, 0.0], [1, 1.0]],
                                    "horizon": 2.0}) + "\n")
        labels = tmp_path / "labels.json"
        labels.write_text(text)
        rc = _run(["select", "--graph", graph, "--cascades", casc,
                   "--topic-labels", labels, "--out", tmp_path / "s.json"])
        self._assert_error(capsys, rc, f"{labels}: ", part)


    @pytest.mark.parametrize("record, part", [
        ({"events": [[0, "x"]], "horizon": 2.0}, "line 1: event [0, 'x']"),
        ({"events": 5, "horizon": 2.0}, "line 1: events must be a list"),
        ([[0, 0.0]], "line 1: expected a JSON object, got a list"),
        ({"events": [[0, 0.0, 1.0]], "horizon": 2.0},
         "line 1: event [0, 0.0, 1.0]"),
        ({"events": [[0, 0.0]], "horizon": None},
         "line 1: horizon must be a number, got None"),
        ({"events": [[0, 0.0], [1, 1.0]], "horizon": "2"},
         "line 1: horizon must be a number, got '2'"),
        ({"events": [[1.9, 0.0], [True, 1.0]], "horizon": 2.0},
         "line 1: event [1.9, 0.0]"),
        ({"events": [[0, 0.0], [1, 1.0]], "horizon": 2.0, "topic": ["x"]},
         "line 1: topic must be a string, got ['x']"),
    ])
    @pytest.mark.parametrize("command", ["learn", "select"])
    def test_malformed_cascade_file(self, tmp_path, capsys, record, part,
                                    command):
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n1 2\n")
        casc = tmp_path / "c.jsonl"
        casc.write_text(json.dumps(record) + "\n")
        argv = [command, "--graph", graph, "--cascades", casc,
                "--out", tmp_path / "out.json"]
        rc = _run(argv + (["--model", "asic"] if command == "learn" else []))
        self._assert_error(capsys, rc, f"{casc}: {part}")

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one(self, tmp_path, capsys, graph_file, threads):
        rc = _run(["influence", "--graph", graph_file, "--model", "asic",
                   "--p", "0.2", "--r", "1.0", "--samples", "10", "--seed",
                   "1", "--threads", threads, "--out", tmp_path / "i.csv"])
        self._assert_error(capsys, rc, "threads must be at least 1")


class TestScipyLoadedOnlyBySparseSolvers:
    """Only percolation and betweenness import scipy."""

    _SCRIPT = """
import json, sys
import difflab
from difflab.cli import main

for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""

    def _loaded(self, *commands):
        argvs = [[str(a) for a in argv] for argv in commands]
        proc = _fresh_python("-c", self._SCRIPT, json.dumps(argvs))
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout.decode().splitlines()[-1]

    def _influence(self, graph_file, method, out):
        return ["--graph", graph_file, "--model", "asic", "--p", "0.2",
                "--r", "1.0", "--seed", "4", "--method", method,
                "--samples", "20", "--threads", "1", "--out", out]

    def test_scipy_free_commands(self, tmp_path, graph_file):
        casc, ranked = tmp_path / "c.jsonl", tmp_path / "deg.csv"
        commands = [
            ["simulate", "--graph", graph_file, "--model", "asic",
             "--p", "0.3", "--r", "1.0", "--target-active", "120",
             "--min-len", "3", "--seed", "5", "--out", casc],
            *(["learn", "--graph", graph_file, "--cascades", casc,
               "--model", model, "--mode", mode, "--max-iter", "5",
               "--out", tmp_path / f"{model}-{mode}.json"]
              for model in ("asic", "aslt") for mode in ("shared", "per-link")),
            ["select", "--graph", graph_file, "--cascades", casc,
             "--max-iter", "5", "--out", tmp_path / "s.json"],
            ["influence", *self._influence(graph_file, "mc",
                                           tmp_path / "mc.csv")],
            ["rank", "--graph", graph_file, "--method", "outdegree",
             "--out", ranked],
            ["rank", "--graph", graph_file, "--method", "closeness",
             "--out", tmp_path / "close.csv"],
            ["rank", "--graph", graph_file, "--method", "pagerank",
             "--out", tmp_path / "pagerank.csv"],
            ["compare-rank", "--truth", ranked, "--candidate", ranked,
             "--k", "5", "--out", tmp_path / "sim.csv"],
        ]
        assert self._loaded(*commands) == "[]"

    @pytest.mark.parametrize("solver", ["percolation", "betweenness"])
    def test_sparse_solvers_load_scipy(self, tmp_path, graph_file, solver):
        out = tmp_path / "out.csv"
        command = (
            ["influence", *self._influence(graph_file, solver, out)]
            if solver == "percolation" else
            ["rank", "--graph", graph_file, "--method", solver, "--out", out])
        assert "'scipy.sparse'" in self._loaded(command)


class TestThreadsDefault:
    def test_env_var_fallback(self, monkeypatch):
        from difflab.cli import _default_threads
        monkeypatch.setenv("DIFFLAB_THREADS", "3")
        assert _default_threads() == 3
        monkeypatch.setenv("DIFFLAB_THREADS", "junk")
        assert _default_threads() >= 1
        monkeypatch.delenv("DIFFLAB_THREADS")
        assert _default_threads() >= 1


class TestManifest:
    def test_every_command_writes_its_manifest(self, tmp_path, graph_file):
        def path(name):
            return str(tmp_path / name)

        graph = str(graph_file)
        casc, params, labels = path("c.jsonl"), path("p.json"), path("l.json")
        commands = [
            ("simulate", 5, {graph},
             ["--graph", graph, "--model", "asic", "--p", "0.3", "--r",
              "1.0", "--target-active", "120", "--min-len", "3", "--seed",
              "5", "--out", casc]),
            ("learn", None, {graph, casc},
             ["--graph", graph, "--cascades", casc, "--model", "asic",
              "--max-iter", "5", "--out", params]),
            ("select", None, {graph, casc, labels},
             ["--graph", graph, "--cascades", casc, "--topic-labels", labels,
              "--max-iter", "5", "--out", path("s.json")]),
            ("influence", 4, {graph, params},
             ["--graph", graph, "--model", "asic", "--params", params,
              "--samples", "20", "--seed", "4", "--threads", "1", "--out",
              path("i.csv")]),
            ("rank", 0, {graph},
             ["--graph", graph, "--method", "outdegree", "--out",
              path("deg.csv")]),
            ("rank", 0, {graph},
             ["--graph", graph, "--method", "closeness", "--out",
              path("close.csv")]),
            ("compare-rank", None, {path("deg.csv"), path("close.csv")},
             ["--truth", path("deg.csv"), "--candidate", path("close.csv"),
              "--k", "5", "--out", path("sim.csv")]),
        ]
        for command, seed, inputs, argv in commands:
            if command == "select":
                with open(casc) as fh:
                    first = json.loads(fh.readline())["id"]
                Path(labels).write_text(json.dumps({first: "a"}))
            assert _run([command, *argv]) == 0
            out = argv[argv.index("--out") + 1]
            manifest = _strip_duration(out + ".manifest.json")
            assert (manifest["command"], manifest["seed"],
                    set(manifest["inputs"])) == (command, seed, inputs)
            assert manifest["config"]["out"] == out
            for name, digest in manifest["inputs"].items():
                assert digest == hashlib.sha256(
                    Path(name).read_bytes()).hexdigest()


COMMANDS = ("simulate", "learn", "select", "influence", "rank",
            "compare-rank")


def _command(name, tmp_path, graph_file):
    """The arguments of one run of ``name`` before ``--out``, with the
    inputs it reads written under ``tmp_path / "in"``."""
    inp = tmp_path / "in"
    inp.mkdir()
    casc, params = inp / "c.jsonl", inp / "p.json"
    deg, close = inp / "deg.csv", inp / "close.csv"
    for argv in (["simulate", "--graph", graph_file, "--model", "asic",
                  "--p", "0.3", "--r", "1.0", "--target-active", "120",
                  "--min-len", "3", "--seed", "5", "--out", casc],
                 ["learn", "--graph", graph_file, "--cascades", casc,
                  "--model", "asic", "--max-iter", "5", "--out", params],
                 ["rank", "--graph", graph_file, "--method", "outdegree",
                  "--out", deg],
                 ["rank", "--graph", graph_file, "--method", "closeness",
                  "--out", close]):
        assert _run(argv) == 0
    return {
        "simulate": ["simulate", "--graph", graph_file, "--model", "aslt",
                     "--q", "0.8", "--r", "1.0", "--target-active", "60",
                     "--min-len", "3", "--seed", "6"],
        "learn": ["learn", "--graph", graph_file, "--cascades", casc,
                  "--model", "aslt", "--max-iter", "5"],
        "select": ["select", "--graph", graph_file, "--cascades", casc,
                   "--max-iter", "5"],
        "influence": ["influence", "--graph", graph_file, "--model", "asic",
                      "--params", params, "--samples", "20", "--seed", "4",
                      "--threads", "1"],
        "rank": ["rank", "--graph", graph_file, "--method", "pagerank"],
        "compare-rank": ["compare-rank", "--truth", deg, "--candidate",
                         close, "--k", "5"],
    }[name]


class TestOutputFiles:
    """Each output replaces an existing regular file with a new file, is
    written through a symlink, and one that cannot be written exits 1 with
    one ``error:`` line naming it."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_rerun_writes_new_files_with_equal_bytes(self, tmp_path,
                                                     graph_file, command):
        argv = _command(command, tmp_path, graph_file)
        out, old = tmp_path / "out", tmp_path / "old"
        out.mkdir()
        old.mkdir()
        assert _run([*argv, "--out", out / "result"]) == 0
        written = sorted(p.name for p in out.iterdir())
        assert written == sorted(
            ["result", "result.manifest.json"]
            + (["result.trace.json"] if command == "learn" else []))
        for name in written:
            os.link(out / name, old / name)
        assert _run([*argv, "--out", out / "result"]) == 0
        assert sorted(p.name for p in out.iterdir()) == written
        for name in written:
            assert (out / name).stat().st_ino != (old / name).stat().st_ino
            if name.endswith(".manifest.json"):
                assert _strip_duration(out / name) == _strip_duration(
                    old / name)
            else:
                assert (out / name).read_bytes() == (old / name).read_bytes()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_symlinked_out_is_written_through(self, tmp_path, graph_file,
                                              command):
        argv = _command(command, tmp_path, graph_file)
        plain, target, link = (tmp_path / name
                               for name in ("plain", "target", "link"))
        assert _run([*argv, "--out", plain]) == 0
        target.write_text("stale\n")
        link.symlink_to(target)
        assert _run([*argv, "--out", link]) == 0
        assert link.is_symlink()
        assert target.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("where, reason", [
        ("missing/result", "No such file or directory"),
        ("a_dir", "Is a directory"),
    ])
    def test_unwritable_out_exits_1(self, tmp_path, capsys, graph_file,
                                    command, where, reason):
        argv = _command(command, tmp_path, graph_file)
        (tmp_path / "a_dir").mkdir()
        out = tmp_path / where
        capsys.readouterr()
        assert _run([*argv, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {out}: {reason}\n"

    @pytest.mark.parametrize("sidecar", [".manifest.json", ".trace.json"])
    def test_unwritable_sidecar_exits_1(self, tmp_path, capsys, graph_file,
                                        sidecar):
        argv = _command("learn", tmp_path, graph_file)
        out = tmp_path / "params.json"
        blocked = Path(str(out) + sidecar)
        blocked.mkdir()
        capsys.readouterr()
        assert _run([*argv, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {blocked}: Is a directory\n"


class TestEndToEndReproducibility:
    def test_full_pipeline_reproducible(self, tmp_path, graph_file):
        outs = []
        for tag in ("one", "two"):
            casc = tmp_path / f"{tag}.jsonl"
            params = tmp_path / f"{tag}.params.json"
            infl = tmp_path / f"{tag}.infl.csv"
            assert _run(["simulate", "--graph", graph_file, "--model", "asic",
                         "--p", "0.3", "--r", "1.0", "--target-active", "150",
                         "--min-len", "3", "--seed", "42",
                         "--out", casc]) == 0
            assert _run(["learn", "--graph", graph_file, "--cascades", casc,
                         "--model", "asic", "--out", params]) == 0
            assert _run(["influence", "--graph", graph_file, "--model",
                         "asic", "--method", "percolation", "--params",
                         params, "--samples", "300", "--seed", "42",
                         "--threads", "1", "--out", infl]) == 0
            outs.append((casc.read_bytes(), params.read_bytes(),
                         infl.read_bytes()))
        assert outs[0] == outs[1]


class TestBenchmarkTracerTargets:
    """The benchmark's tracer wraps module attributes by name; a refactor
    that drops one would leave traced runs silently without its spans."""

    def test_every_wrapped_attribute_is_callable(self, monkeypatch):
        import importlib
        import importlib.util

        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        if not path.is_file():
            pytest.skip("perfbench/ is not in this checkout")
        spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                      path)
        tracing = importlib.util.module_from_spec(spec)
        # Its dataclasses look their module up in ``sys.modules``.
        monkeypatch.setitem(sys.modules, spec.name, tracing)
        spec.loader.exec_module(tracing)
        assert tracing.WRAPPED
        for module_name, attr, _ in tracing.WRAPPED:
            module = importlib.import_module(module_name)
            assert callable(getattr(module, attr, None)), (module_name, attr)
