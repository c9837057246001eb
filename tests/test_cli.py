"""CLI: subcommands, exit codes, file determinism, CSV schema."""

import numpy as np
import pytest

from alora import load_adapter, load_checkpoint, random_adapter, save_adapter
from alora.cli import main
from alora.costs import CSV_HEADER


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "toy.alre"
    code = main(["gen-model", "--out", str(path), "--seed", "3",
                 "--max-positions", "512"])
    assert code == 0
    return path


class TestGenModel:
    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.alre", tmp_path / "b.alre"
        assert main(["gen-model", "--out", str(a), "--seed", "9"]) == 0
        assert main(["gen-model", "--out", str(b), "--seed", "9"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_default_toy_config(self, tmp_path):
        path = tmp_path / "default.alre"
        main(["gen-model", "--out", str(path), "--seed", "0"])
        config, weights = load_checkpoint(path)
        assert (config.n_layers, config.n_heads, config.d_model,
                config.vocab_size) == (4, 4, 64, 256)
        weights.validate(config)  # load-validate round trip

    def test_bad_dimensions_exit_code_two(self, tmp_path):
        code = main(["gen-model", "--out", str(tmp_path / "x.alre"),
                     "--d-model", "63"])
        assert code == 2

    def test_checkpoint_byte_layout(self, checkpoint):
        # magic, u16 LE version, u32 LE header length, JSON header with the
        # config and an ordered tensor index, then raw f32 LE data
        import json
        import struct
        data = checkpoint.read_bytes()
        assert data[:4] == b"ALRE"
        (version,) = struct.unpack_from("<H", data, 4)
        assert version == 1
        (header_len,) = struct.unpack_from("<I", data, 6)
        header = json.loads(data[10:10 + header_len].decode("utf-8"))
        assert header["config"]["d_model"] == 64
        names = [t["name"] for t in header["tensors"]]
        assert names[0] == "token_embedding"
        assert names[-1] == "unembedding"
        offsets = [t["offset"] for t in header["tensors"]]
        assert offsets == sorted(offsets)
        total = sum(4 * int(np.prod(t["shape"])) for t in header["tensors"])
        assert len(data) == 10 + header_len + total


class TestVerifyCommand:
    def test_fresh_model_passes(self, checkpoint, capsys):
        code = main(["verify", "--checkpoint", str(checkpoint),
                     "--trials", "5", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "kv-prefix-equivalence" in out
        assert "mutation-sensitivity" in out

    def test_zero_trials_vacuous_pass_with_warning(self, checkpoint, capsys):
        code = main(["verify", "--checkpoint", str(checkpoint), "--trials", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "warning" in out.lower()

    def test_missing_checkpoint_exit_code_three(self, tmp_path):
        assert main(["verify", "--checkpoint",
                     str(tmp_path / "missing.alre")]) == 3

    def test_adapter_with_more_layers_exit_code_two(self, checkpoint, tmp_path,
                                                    capsys):
        path = tmp_path / "deep.alad"
        save_adapter(random_adapter(64, 9, rank=4, alpha=8.0, mode="alora",
                                    adapter_id="deep", seed=0,
                                    invocation_sequence=(2, 3)), path)
        code = main(["verify", "--checkpoint", str(checkpoint),
                     "--adapter", str(path), "--trials", "1"])
        assert code == 2
        assert "layer 4" in capsys.readouterr().err

    def test_detected_failure_exit_code_one(self, checkpoint, monkeypatch):
        from alora import cli
        from alora.verify import CheckResult
        monkeypatch.setattr(
            cli, "run_verify",
            lambda engine, seed, trials, spec=None: [CheckResult("kv", False,
                                                                 "boom")])
        assert main(["verify", "--checkpoint", str(checkpoint),
                     "--trials", "1"]) == 1


class TestBenchCommand:
    BENCH_ARGS = ["--prompt-lengths", "32,64", "--answer-tokens", "8",
                  "--eval-tokens", "4", "--n-adapters", "1,2",
                  "--repetitions", "2", "--seed", "5"]

    def test_csv_schema_and_exactness(self, checkpoint, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--checkpoint", str(checkpoint),
                     "--out", str(out)] + self.BENCH_ARGS)
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        # 2 lengths x 2 adapter counts x 2 reps x 2 modes
        assert len(lines) == 1 + 16
        for line in lines[1:]:
            parts = line.split(",")
            measured_first, predicted = int(parts[5]), int(parts[9])
            measured_bytes, predicted_bytes = int(parts[7]), int(parts[10])
            assert measured_first == predicted
            assert measured_bytes == predicted_bytes

    def test_deterministic_modulo_wall_ns(self, checkpoint, tmp_path):
        outs = []
        for name in ("one.csv", "two.csv"):
            path = tmp_path / name
            assert main(["bench", "--checkpoint", str(checkpoint),
                         "--out", str(path)] + self.BENCH_ARGS) == 0
            outs.append(path.read_text())
        strip = lambda text: [
            ",".join(p for i, p in enumerate(line.split(",")) if i != 8)
            for line in text.strip().split("\n")]
        assert strip(outs[0]) == strip(outs[1])

    def test_repetitions_identical_flops(self, checkpoint, tmp_path):
        out = tmp_path / "bench.csv"
        main(["bench", "--checkpoint", str(checkpoint), "--out", str(out)]
             + self.BENCH_ARGS)
        by_cell = {}
        for line in out.read_text().strip().split("\n")[1:]:
            parts = line.split(",")
            by_cell.setdefault((parts[0], parts[2], parts[4]), set()).add(parts[5])
        assert all(len(v) == 1 for v in by_cell.values())

    def test_ratio_grows_with_prompt_length(self, checkpoint, tmp_path):
        out = tmp_path / "bench.csv"
        main(["bench", "--checkpoint", str(checkpoint), "--out", str(out),
              "--prompt-lengths", "32,128", "--answer-tokens", "8",
              "--eval-tokens", "4", "--n-adapters", "1",
              "--repetitions", "1", "--seed", "2"])
        flops = {}
        for line in out.read_text().strip().split("\n")[1:]:
            parts = line.split(",")
            flops[(parts[0], int(parts[2]))] = int(parts[5])
        t_caches = sorted({t for _, t in flops})
        ratios = [flops[("lora", t)] / flops[("alora", t)] for t in t_caches]
        assert ratios[0] < ratios[1]

    def test_plan_exceeding_positions_exit_code_two(self, checkpoint):
        assert main(["bench", "--checkpoint", str(checkpoint),
                     "--prompt-lengths", "4096"]) == 2


class TestTrainCommand:
    def test_tiny_run_writes_adapter_and_metrics(self, checkpoint, tmp_path):
        adapter_path = tmp_path / "adapter.alad"
        metrics_path = tmp_path / "metrics.csv"
        code = main(["train", "--checkpoint", str(checkpoint),
                     "--out", str(adapter_path),
                     "--metrics-out", str(metrics_path),
                     "--task", "copy-key", "--steps", "4",
                     "--batch-size", "2", "--train-examples", "16",
                     "--eval-examples", "4", "--seed", "0"])
        assert code == 0
        spec = load_adapter(adapter_path, d_model=64)
        assert spec.mode == "alora"
        assert spec.invocation_sequence == (2, 3)
        lines = metrics_path.read_text().strip().split("\n")
        assert lines[0] == "step,loss,eval_exact_match"
        assert len(lines) == 1 + 4

    def test_trained_adapter_feeds_verify(self, checkpoint, tmp_path, capsys):
        adapter_path = tmp_path / "adapter.alad"
        assert main(["train", "--checkpoint", str(checkpoint),
                     "--out", str(adapter_path), "--task", "copy-key",
                     "--steps", "3", "--batch-size", "2",
                     "--train-examples", "8", "--eval-examples", "2",
                     "--seed", "1"]) == 0
        code = main(["verify", "--checkpoint", str(checkpoint),
                     "--adapter", str(adapter_path), "--trials", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "loaded-adapter-kv" in out

    def test_dataset_file_round_trip(self, checkpoint, tmp_path):
        from alora import make_synthetic_task, write_dataset
        data = make_synthetic_task("copy_key", 20, seed=1)
        ds_path = tmp_path / "data.jsonl"
        write_dataset(ds_path, data)
        adapter_path = tmp_path / "adapter.alad"
        code = main(["train", "--checkpoint", str(checkpoint),
                     "--out", str(adapter_path), "--dataset", str(ds_path),
                     "--steps", "3", "--batch-size", "2", "--seed", "0"])
        assert code == 0
        assert adapter_path.exists()


class TestPrecisionEnv:
    def test_f64_precision_accepted(self, checkpoint, monkeypatch, capsys):
        monkeypatch.setenv("ALORA_PRECISION", "f64")
        assert main(["verify", "--checkpoint", str(checkpoint),
                     "--trials", "2"]) == 0

    def test_invalid_precision_exit_code_two(self, checkpoint, monkeypatch):
        monkeypatch.setenv("ALORA_PRECISION", "f16")
        assert main(["verify", "--checkpoint", str(checkpoint),
                     "--trials", "1"]) == 2
