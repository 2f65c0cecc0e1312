"""End-to-end command-line behavior: output formats and exit codes."""

import csv
import io
import json
from pathlib import Path

import pytest
import yaml

from spatialperf import get_device, get_model
from spatialperf.cli import main


def run_cli(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    return exc.value.code, out, err


DECODE_ARGS = ("--model", "gpt2", "--device", "u280", "--quant", "w4a8",
               "--phase", "decode", "--seq-len", "128", "--seq-max", "512")
PREFILL_ARGS = ("--model", "gpt2", "--device", "u280", "--quant", "w4a8",
                "--phase", "prefill", "--seq-len", "128")


class TestEstimate:
    def test_decode_fixture_human(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", *DECODE_ARGS, "--m", "256")
        assert code == 0
        assert "2.009 ms" in out
        assert "binding     sdp" in out
        assert "feasible    yes" in out

    def test_prefill_fixture_human(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", *PREFILL_ARGS, "--m", "256")
        assert code == 0
        assert "102.7 ms" in out
        assert "binding     qkv" in out

    def test_json_document(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", *DECODE_ARGS, "--m", "256", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["model"] == "gpt2" and doc["device"] == "u280"
        assert doc["phase"] == "decode" and doc["m"] == 256
        assert doc["seq_max"] == 512
        assert doc["feasible"] is True
        assert doc["latency"]["seconds"] * doc["freq"] == doc["latency"]["total_cycles"]
        assert doc["latency"]["binding_term"] == "sdp"
        assert doc["constraints"]["compute"]["ok"] is True

    def test_infeasible_point_exits_1(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", *PREFILL_ARGS, "--m", "99999")
        assert code == 1
        assert "feasible    no" in out

    def test_unknown_model_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--model", "nosuch",
                               "--device", "u280", "--m", "16")
        assert code == 2
        assert "unknown model" in err

    def test_missing_model_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--device", "u280", "--m", "16")
        assert code == 2
        assert "--model" in err

    def test_bad_seq_len_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "estimate", *PREFILL_ARGS[:-2],
                             "--seq-len", "0", "--m", "16")
        assert code == 2

    def test_decode_on_multiple_devices_rejected(self, capsys):
        code, _, err = run_cli(capsys, "estimate", *DECODE_ARGS, "--m", "256",
                               "--tp", "2", "--link-bw", "100 Gb/s", "--alpha", "0.5")
        assert code == 2
        assert "decode" in err

    def test_tensor_parallel_needs_link_and_alpha(self, capsys):
        code, _, err = run_cli(capsys, "estimate", *PREFILL_ARGS, "--m", "256",
                               "--tp", "2")
        assert code == 2
        assert "--link-bw" in err
        code, _, err = run_cli(capsys, "estimate", *PREFILL_ARGS, "--m", "256",
                               "--tp", "2", "--link-bw", "100 Gb/s")
        assert code == 2
        assert "--alpha" in err

    def test_freq_override_scales_seconds_not_cycles(self, capsys):
        _, base, _ = run_cli(capsys, "estimate", *PREFILL_ARGS, "--m", "256", "--json")
        _, slow, _ = run_cli(capsys, "estimate", *PREFILL_ARGS, "--m", "256",
                             "--freq", "122.5e6", "--json")
        base_doc, slow_doc = json.loads(base), json.loads(slow)
        assert slow_doc["latency"]["total_cycles"] == base_doc["latency"]["total_cycles"]
        assert slow_doc["latency"]["seconds"] == 2 * base_doc["latency"]["seconds"]

    def test_bandwidth_status_line(self, capsys):
        _, out, _ = run_cli(capsys, "estimate", *PREFILL_ARGS, "--m", "256",
                            "--quant", "w8a8", "-C", "5")
        assert "bound" in out


class TestEntityFiles:
    def test_device_file_override(self, capsys, tmp_path):
        doc = get_device("u280").to_document()
        doc["name"] = "u280-slow"
        doc["freq"] = 122.5e6
        path = tmp_path / "dev.yaml"
        path.write_text(yaml.safe_dump(doc))
        code, out, _ = run_cli(capsys, "estimate", "--model", "gpt2",
                               "--device-file", str(path), "--m", "256", "--json")
        assert code == 0
        parsed = json.loads(out)
        assert parsed["device"] == "u280-slow"
        assert parsed["freq"] == 122.5e6

    def test_model_file_override(self, capsys, tmp_path):
        doc = get_model("gpt2").to_document()
        doc["name"] = "gpt2-deep"
        doc["num_layers"] = 48
        path = tmp_path / "model.yaml"
        path.write_text(yaml.safe_dump(doc))
        _, base, _ = run_cli(capsys, "estimate", *PREFILL_ARGS, "--m", "256", "--json")
        _, deep, _ = run_cli(capsys, "estimate", "--model-file", str(path),
                             "--device", "u280", "--m", "256", "--json")
        assert (json.loads(deep)["latency"]["total_cycles"]
                == 2 * json.loads(base)["latency"]["total_cycles"])

    def test_env_catalog_reaches_cli(self, capsys, tmp_path, monkeypatch):
        doc = get_device("u280").to_document()
        doc["name"] = "lab-card"
        (tmp_path / "lab.yaml").write_text(yaml.safe_dump(doc))
        monkeypatch.setenv("SPATIALPERF_DEVICES", str(tmp_path))
        code, out, _ = run_cli(capsys, "estimate", "--model", "gpt2",
                               "--device", "lab-card", "--m", "256", "--json")
        assert code == 0
        assert json.loads(out)["device"] == "lab-card"


class TestSearchM:
    def test_compute_only_fixture(self, capsys):
        code, out, _ = run_cli(capsys, "search-m", *PREFILL_ARGS,
                               "--constraints", "compute")
        assert code == 0
        assert "max_m       1473" in out
        assert "compute constraint fails first at m=1474" in out

    def test_json_allocation(self, capsys):
        code, out, _ = run_cli(capsys, "search-m", *PREFILL_ARGS,
                               "--constraints", "compute", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["max_m"] == 1473
        assert doc["binding_constraint"] == "compute"
        assert doc["allocation"]["q"] == 1473
        assert doc["allocation"]["f1"] == 5892

    def test_bad_family_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "search-m", *PREFILL_ARGS,
                               "--constraints", "thermal")
        assert code == 2
        assert "--constraints" in err

    def test_infeasible_exits_1(self, capsys, tmp_path):
        doc = get_device("u280").to_document()
        doc["dsp_count"] = 1
        path = tmp_path / "tiny.yaml"
        path.write_text(yaml.safe_dump(doc))
        code, _, err = run_cli(capsys, "search-m", "--model", "gpt2",
                               "--device-file", str(path),
                               "--constraints", "compute")
        assert code == 1
        assert "infeasible" in err

    def test_rebalance_decode_changes_allocation(self, capsys):
        _, plain, _ = run_cli(capsys, "search-m", *DECODE_ARGS,
                              "--constraints", "compute", "--json")
        _, rebal, _ = run_cli(capsys, "search-m", *DECODE_ARGS,
                              "--constraints", "compute", "--json",
                              "--rebalance-decode")
        plain_doc, rebal_doc = json.loads(plain), json.loads(rebal)
        # Single-token balancing starves the score operators, freeing compute.
        assert plain_doc["max_m"] == 1473 and plain_doc["allocation"]["a1"] == 185
        assert rebal_doc["max_m"] == 1503 and rebal_doc["allocation"]["a1"] == 2


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


class TestSweep:
    def test_seq_len_sweep_is_linear(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", *PREFILL_ARGS,
                               "--axis", "seq_len", "--values", "64,128,256",
                               "--m", "256")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["axis_value", "latency_s", "total_cycles", "ii_cycles",
                           "binding_term", "feasible", "max_m", "error"]
        latencies = [float(r[1]) for r in rows[1:]]
        assert latencies[1] == 2 * latencies[0]
        assert latencies[2] == 4 * latencies[0]
        assert all(r[5] == "true" for r in rows[1:])
        assert all(r[6] for r in rows[1:])

    def test_m_axis_drops_max_m_column(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", *PREFILL_ARGS,
                               "--axis", "m", "--values", "128,1473,1474")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["axis_value", "latency_s", "total_cycles", "ii_cycles",
                           "binding_term", "feasible", "error"]
        assert rows[1][5] == "true"
        assert rows[2][5] == "true"
        assert rows[3][5] == "false"   # just past the compute limit
        assert rows[3][1] != ""        # latency still reported

    def test_invalid_point_becomes_error_row(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", *PREFILL_ARGS,
                               "--axis", "weight_bits", "--values", "4,5",
                               "--m", "128")
        assert code == 0
        rows = parse_csv(out)
        assert rows[1][5] == "true" and rows[1][-1] == ""
        # 5-bit weights no longer fit 18 per 72-bit word.
        assert rows[2][5] == "false"
        assert rows[2][1] == ""
        assert rows[2][-1] != ""

    def test_pack_count_widens_feasible_range(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", *DECODE_ARGS,
                               "--axis", "pack_count", "--values", "1,2,9",
                               "--constraints", "ports")
        assert code == 0
        rows = parse_csv(out)
        max_m = [int(r[6]) for r in rows[1:]]
        assert max_m == sorted(max_m)
        assert max_m[0] > 0

    def test_tp_size_sweep_halves_latency(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", *PREFILL_ARGS,
                               "--axis", "tp_size", "--values", "1,2",
                               "--m", "256",
                               "--link-bw", "1e15", "--alpha", "1.0")
        assert code == 0
        rows = parse_csv(out)
        assert float(rows[2][1]) == float(rows[1][1]) / 2

    def test_tp_axis_without_link_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", *PREFILL_ARGS,
                               "--axis", "tp_size", "--values", "1,2", "--m", "256")
        assert code == 2
        assert "--link-bw" in err

    def test_non_integer_values_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", *PREFILL_ARGS,
                               "--axis", "m", "--values", "a,b")
        assert code == 2
        assert "--values" in err


class TestCompare:
    def test_fixed_m_orders_devices(self, capsys):
        code, out, _ = run_cli(capsys, "compare", *DECODE_ARGS[:2], *DECODE_ARGS[4:],
                               "--devices", "u280,vhk158", "--m", "256")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split()[:2] == ["device", "m"]
        assert len(lines) == 3
        assert all("yes" in line for line in lines[1:])

    def test_infeasible_device_exits_1(self, capsys):
        code, out, _ = run_cli(capsys, "compare", *DECODE_ARGS[:2], *DECODE_ARGS[4:],
                               "--devices", "u280,vck5000", "--m", "2048")
        assert code == 1
        assert "no" in out

    def test_unknown_device_partial_table_exits_2(self, capsys):
        code, out, _ = run_cli(capsys, "compare", *DECODE_ARGS[:2], *DECODE_ARGS[4:],
                               "--devices", "u280,nosuch", "--m", "256")
        assert code == 2
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert "unknown device" in out

    def test_searches_m_per_device_by_default(self, capsys):
        code, out, _ = run_cli(capsys, "compare", *PREFILL_ARGS[:2], *PREFILL_ARGS[4:],
                               "--devices", "u280", "--m-limit", "5000")
        assert code == 0
        assert "1473" in out


class TestNonFiniteInput:
    @pytest.mark.parametrize("extra", [
        ("--freq", "nan"),
        ("--freq", "inf"),
        ("--tp", "2", "--link-bw", "nan", "--alpha", "0.8"),
        ("--tp", "2", "--link-bw", "100 Gb/s", "--alpha", "nan"),
    ])
    def test_rejected_with_one_line(self, capsys, extra):
        code, out, err = run_cli(capsys, "estimate", *PREFILL_ARGS, "--m", "256", *extra)
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid value") and err.count("\n") == 1
        assert "Traceback" not in err


class TestReadmeDeviceFile:
    def test_readme_device_block_loads(self, capsys, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        start = readme.index("```yaml\n# mydevice.yaml\n") + len("```yaml\n")
        block = readme[start:readme.index("```", start)]
        path = tmp_path / "mydevice.yaml"
        path.write_text(block)
        code, out, err = run_cli(capsys, "estimate", "--model", "gpt2",
                                 "--device-file", str(path), "--m", "256", "--json")
        assert err == ""
        assert code == 0
        doc = json.loads(out)
        assert doc["device"] == "lab-card"
        assert doc["freq"] == 2.2e8
