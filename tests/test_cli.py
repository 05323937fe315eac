import json

import pytest

from alternator.cli import main

from conftest import FLIPPED_TREFOIL, TREFOIL


@pytest.fixture
def flip_file(tmp_path):
    path = tmp_path / "flip.pd"
    path.write_text(FLIPPED_TREFOIL + "\n")
    return str(path)


@pytest.fixture
def trefoil_file(tmp_path):
    path = tmp_path / "trefoil.pd"
    path.write_text(TREFOIL + "\n")
    return str(path)


class TestLabel:
    def test_trefoil(self, trefoil_file, capsys):
        assert main(["label", trefoil_file]) == 0
        out = capsys.readouterr().out
        assert "alternating: true" in out
        assert "non-alternating edges: 0" in out

    def test_flipped_trefoil_lists_classes(self, flip_file, capsys):
        assert main(["label", flip_file]) == 0
        out = capsys.readouterr().out
        assert "alternating: false" in out
        assert "edge 1: ++ (positive)" in out
        assert "edge 2: ++ (positive)" in out
        assert "edge 4: -- (negative)" in out
        assert "edge 5: -- (negative)" in out

    def test_json_format(self, flip_file, capsys):
        assert main(["label", flip_file, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "alternator/1"

    def test_malformed_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.pd"
        bad.write_text("X[1,2\n")
        assert main(["label", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line" in err


class TestRun:
    def test_flipped_trefoil_verifies(self, flip_file, capsys):
        assert main(["run", flip_file, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "A{" in out and "A{}" not in out

    def test_alternating_passthrough(self, trefoil_file, capsys):
        assert main(["run", trefoil_file]) == 0
        captured = capsys.readouterr()
        assert "already alternating" in captured.err
        assert captured.out.strip().endswith("A{}")

    def test_strict_mode(self, trefoil_file):
        assert main(["run", trefoil_file, "--strict"]) == 3

    def test_no_merge_annotates_circles(self, flip_file, capsys):
        assert main(["run", flip_file, "--no-merge", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["circles"]) == 1  # matches the recomputed circles

    def test_json_with_report(self, flip_file, capsys):
        assert main(["run", flip_file, "--verify", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["passed"] is True

    def test_emit_graph(self, flip_file, tmp_path, capsys):
        graph = tmp_path / "graph.json"
        assert main(["run", flip_file, "--emit-graph", str(graph)]) == 0
        capsys.readouterr()
        doc = json.loads(graph.read_text())
        assert len(doc["nodes"]) == 7
        assert {l["tag"] for l in doc["links"]} == {"original", "augment"}

    def test_deterministic_output(self, flip_file, capsys):
        main(["run", flip_file])
        first = capsys.readouterr().out
        main(["run", flip_file])
        second = capsys.readouterr().out
        assert first == second

    def test_rejects_own_output(self, flip_file, tmp_path, capsys):
        # run | run --verify: the second run must refuse, not fail to verify
        assert main(["run", flip_file]) == 0
        result = tmp_path / "result.pd"
        result.write_text(capsys.readouterr().out)
        assert main(["run", "--verify", str(result)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "augmenting edges" in captured.err
        assert "alternator verify" in captured.err

    def test_rejects_augment_block_label(self, tmp_path, capsys):
        path = tmp_path / "tagged.pd"
        path.write_text(FLIPPED_TREFOIL + " A{1}\n")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "augmenting edges" in err
        assert "strand changes tag" not in err


class TestGen:
    def test_count_records(self, capsys):
        assert main(["gen", "--strands", "2", "--length", "3",
                     "--count", "4", "--seed", "7"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        assert all(line.startswith("X[") for line in lines)

    def test_seed_stability(self, capsys):
        main(["gen", "--strands", "3", "--length", "9", "--count", "3",
              "--seed", "11"])
        first = capsys.readouterr().out
        main(["gen", "--strands", "3", "--length", "9", "--count", "3",
              "--seed", "11"])
        assert capsys.readouterr().out == first

    def test_invalid_bounds(self, capsys):
        assert main(["gen", "--strands", "1", "--length", "3"]) == 2
        capsys.readouterr()
        assert main(["gen", "--strands", "4", "--length", "2"]) == 2


class TestVerifyCommand:
    def test_pipeline_output_accepted(self, flip_file, tmp_path, capsys):
        main(["run", flip_file])
        result = tmp_path / "result.pd"
        result.write_text(capsys.readouterr().out)
        assert main(["verify", flip_file, str(result)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True

    def test_tampered_output_rejected(self, flip_file, tmp_path, capsys):
        main(["run", flip_file])
        text = capsys.readouterr().out
        # swap one crossing's over/under by rotating its tuple one step
        head, rest = text.split(" ", 1)
        assert head.startswith("X[")
        a, b, c, d = head[2:-1].split(",")
        tampered = f"X[{b},{c},{d},{a}] {rest}"
        result = tmp_path / "tampered.pd"
        result.write_text(tampered)
        assert main(["verify", flip_file, str(result)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is False

    def test_trefoil_with_empty_augmentation(self, trefoil_file, tmp_path, capsys):
        main(["run", trefoil_file])
        result = tmp_path / "result.pd"
        result.write_text(capsys.readouterr().out)
        capsys.readouterr()
        assert main(["verify", trefoil_file, str(result)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["circle_count"] == 0

    def test_parse_error_exits_2(self, flip_file, tmp_path):
        bad = tmp_path / "bad.pd"
        bad.write_text("nope")
        assert main(["verify", flip_file, str(bad)]) == 2


class TestPipeComposition:
    def test_gen_run_verify_chain(self, tmp_path, capsys):
        assert main(["gen", "--strands", "3", "--length", "8",
                     "--count", "5", "--seed", "2"]) == 0
        records = capsys.readouterr().out.strip().splitlines()
        for i, record in enumerate(records):
            src = tmp_path / f"in{i}.pd"
            src.write_text(record + "\n")
            code = main(["run", str(src), "--verify"])
            out = capsys.readouterr().out
            assert code == 0
            dst = tmp_path / f"out{i}.pd"
            dst.write_text(out)
            assert main(["verify", str(src), str(dst)]) == 0
            capsys.readouterr()
