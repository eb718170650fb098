"""CLI tests: every subcommand end to end on a small dataset, artifact
contents, and CLI-vs-API agreement."""

import argparse
import csv
import json
import logging
import re
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from etp import cli, metrics, pipeline
from etp.data import SUBTOKEN_MODES, DataError, load_jsonl
from etp.losses import WEIGHTING_MODES
from etp.models import ModelOptions
from etp.pipeline import TrainConfig

from helpers import BLAS_VARS, blas_env_point, logging_point

TINY_TRAIN = dict(
    epochs="2",
    patience="2",
    batch_size="4",
    learning_rate="5e-3",
    embed_dim="8",
    enc_hidden="6",
    enc_layers="1",
    task_hidden="8",
    token_gru_hidden="6",
    span_hidden="4",
)


def write_cfg(path: Path, **extra) -> Path:
    lines = [f"{k} = {v}" for k, v in {**TINY_TRAIN, **extra}.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def gen_args(out, seed=11, n=24, extra=()):
    return [
        "gen-data",
        "--out",
        str(out),
        "--n",
        str(n),
        "--n-val",
        "8",
        "--n-test",
        "8",
        "--vocab",
        "40",
        "--doc-len",
        "8",
        "12",
        "--phrase-len",
        "2",
        "3",
        "--seed",
        str(seed),
        *extra,
    ]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "ds"
    assert cli.main(gen_args(out)) == 0
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data_dir):
    tmp = tmp_path_factory.mktemp("run")
    cfg = write_cfg(tmp / "cfg.txt")
    out = tmp / "run"
    rc = cli.main(
        ["train", "--data", str(data_dir), "--out", str(out), "--config", str(cfg), "--seed", "3"]
    )
    assert rc == 0
    return out


class TestGenData:
    def test_deterministic_bytes(self, tmp_path):
        for sub in ("a", "b"):
            assert cli.main(gen_args(tmp_path / sub, seed=7)) == 0
        for name in ("train.jsonl", "val.jsonl", "test.jsonl", "vocab.txt", "labels.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_refuses_nonempty_without_force(self, tmp_path):
        out = tmp_path / "ds"
        assert cli.main(gen_args(out)) == 0
        assert cli.main(gen_args(out)) == 1
        assert cli.main(gen_args(out, extra=["--force"])) == 0

    def test_pair_task_instances_have_queries(self, tmp_path):
        out = tmp_path / "pair"
        assert cli.main(gen_args(out, extra=["--pair-task"])) == 0
        instances, label_map = load_jsonl(out / "train.jsonl")
        assert all(inst.query for inst in instances)
        assert set(label_map) == {"refuted", "supported"}


class TestTrain:
    def test_artifacts_written(self, run_dir):
        for name in (
            "config.txt",
            "train_config.txt",
            "explainer.npz",
            "predictor.npz",
            "stage1_metrics.csv",
            "stage2_metrics.csv",
            "metrics.json",
            "metrics.txt",
            "predictions.jsonl",
            "val_metrics.json",
        ):
            assert (run_dir / name).exists(), name

    def test_lambda_zero_loss_equals_task_loss_per_epoch(self, tmp_path, data_dir):
        cfg = write_cfg(tmp_path / "cfg.txt")
        out = tmp_path / "run0"
        rc = cli.main(
            [
                "train",
                "--data",
                str(data_dir),
                "--out",
                str(out),
                "--config",
                str(cfg),
                "--lambda",
                "0",
            ]
        )
        assert rc == 0
        with open(out / "stage1_metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            assert float(row["l_loss"]) == float(row["l_task"])

    def test_same_seed_identical_metrics_json(self, tmp_path, data_dir):
        cfg = write_cfg(tmp_path / "cfg.txt")
        payloads = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            rc = cli.main(
                [
                    "train",
                    "--data",
                    str(data_dir),
                    "--out",
                    str(out),
                    "--config",
                    str(cfg),
                    "--seed",
                    "9",
                ]
            )
            assert rc == 0
            payloads.append((out / "metrics.json").read_bytes())
        assert payloads[0] == payloads[1]

    def test_span_head_produces_complete_report(self, tmp_path, data_dir):
        cfg = write_cfg(tmp_path / "cfg.txt", epochs="1")
        out = tmp_path / "span_run"
        rc = cli.main(
            [
                "train",
                "--data",
                str(data_dir),
                "--out",
                str(out),
                "--config",
                str(cfg),
                "--head",
                "span",
            ]
        )
        assert rc == 0
        report = json.loads((out / "metrics.json").read_text())
        for key in ("macro_f1", "token_f1", "iou_f1", "auprc", "comprehensiveness", "sufficiency"):
            assert report[key] is not None

    def test_flag_overrides_config_file(self, tmp_path, data_dir):
        cfg = write_cfg(tmp_path / "cfg.txt", epochs="1", lam="3.0")
        out = tmp_path / "override"
        rc = cli.main(
            [
                "train",
                "--data",
                str(data_dir),
                "--out",
                str(out),
                "--config",
                str(cfg),
                "--lambda",
                "0.25",
            ]
        )
        assert rc == 0
        stored = pipeline.parse_flat_config((out / "train_config.txt").read_text())
        assert float(stored["lam"]) == 0.25
        assert int(stored["epochs"]) == 1


    @pytest.mark.parametrize("flag, value", [("--lambda", "nan"), ("--lr", "inf")])
    def test_non_finite_lambda_or_lr_is_clear_error(
        self, tmp_path, data_dir, caplog, flag, value
    ):
        out = tmp_path / "run"
        with caplog.at_level(logging.ERROR, logger="etp.cli"):
            rc = cli.main(["train", "--data", str(data_dir), "--out", str(out), flag, value])
        assert rc == 1
        assert not out.exists()
        assert any("must be finite" in r.getMessage() for r in caplog.records)

    @pytest.mark.parametrize(
        "flags, config, message",
        [
            (["--embed-dim", "0"], {}, "embed_dim must be >= 1"),
            (["--dropout", "1.0"], {}, "dropout must be in [0, 1)"),
            (["--wildcard", ""], {}, "token '' cannot be serialized"),
            (["--wildcard", "<pad>"], {}, "wildcard '<pad>' collides with a reserved token"),
            ([], {"subtoken_mode": "bigram"}, "unknown subtoken mode 'bigram'"),
            ([], {"max_len": "0"}, "max_len must be >= 1"),
        ],
        ids=["embed-dim", "dropout", "empty-wildcard", "reserved-wildcard", "subtokens", "max-len"],
    )
    def test_bad_value_is_rejected_before_any_output(
        self, tmp_path, data_dir, caplog, flags, config, message
    ):
        cfg = write_cfg(tmp_path / "cfg.txt", **config)
        out = tmp_path / "run"
        rc = cli.main(["train", "--data", str(data_dir), "--out", str(out), "--config", str(cfg),
                       *flags])
        assert rc == 1
        assert not out.exists()
        assert message in caplog.text

    @pytest.mark.parametrize("wildcard", ["#", " x", "a#b", "?"])
    def test_a_run_loads_with_every_wildcard_train_accepts(
        self, tmp_path, data_dir, caplog, wildcard
    ):
        # train_config.txt drops a '#' and what follows it, and whitespace at either end
        cfg = write_cfg(tmp_path / "cfg.txt", epochs="1")
        out = tmp_path / "run"
        rc = cli.main(["train", "--data", str(data_dir), "--out", str(out), "--config", str(cfg),
                       "--wildcard", wildcard])
        assert rc == (0 if wildcard == "?" else 1)
        if rc:
            assert not out.exists()
            assert f"wildcard {wildcard!r} would not read back from train_config.txt" in caplog.text
            return
        rc = cli.main(["predict", "--run", str(out), "--data", str(data_dir / "test.jsonl"),
                       "--out", str(tmp_path / "preds.jsonl")])
        assert rc == 0

    @pytest.mark.parametrize(
        "text",
        ["[1, 2]", '{"0": "x"}', '{"0": 0, "1": 5}'],
        ids=["array", "string-class", "class-gap"],
    )
    def test_bad_labels_json_names_the_file(self, tmp_path, data_dir, caplog, text):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        (data / "labels.json").write_text(text + "\n")
        cfg = write_cfg(tmp_path / "cfg.txt")
        rc = cli.main(["train", "--data", str(data), "--out", str(tmp_path / "run"),
                       "--config", str(cfg)])
        assert rc == 1
        assert f"{data / 'labels.json'}: labels must map each raw label to a class" in caplog.text


class TestPredictAndEval:
    def test_predict_writes_jsonl(self, tmp_path, run_dir, data_dir):
        out = tmp_path / "preds.jsonl"
        rc = cli.main(
            ["predict", "--run", str(run_dir), "--data", str(data_dir / "test.jsonl"), "--out", str(out)]
        )
        assert rc == 0
        preds = cli.read_predictions(out)
        instances, _ = load_jsonl(data_dir / "test.jsonl")
        assert set(preds) == {inst.uid for inst in instances}
        first = preds[instances[0].uid]
        assert set(first) >= {"id", "label", "rationale", "spans", "scores"}

    def test_eval_matches_library_call(self, tmp_path, run_dir, data_dir):
        out = tmp_path / "evaldir"
        rc = cli.main(
            ["eval", "--run", str(run_dir), "--data", str(data_dir / "test.jsonl"), "--out", str(out)]
        )
        assert rc == 0
        report_cli = json.loads((out / "metrics.json").read_text())
        state = pipeline.load_run(run_dir)
        instances, _ = load_jsonl(data_dir / "test.jsonl", state.label_map)
        report_api = json.loads(pipeline.evaluate(state, instances).to_json())
        assert report_cli == report_api

    def test_predict_on_an_empty_split_writes_an_empty_file(self, tmp_path, run_dir):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "preds.jsonl"
        assert cli.main(["predict", "--run", str(run_dir), "--data", str(empty), "--out", str(out)]) == 0
        assert out.read_text() == ""

    @pytest.mark.parametrize("source", ["run", "predictions"])
    def test_eval_refuses_an_empty_split(self, tmp_path, run_dir, caplog, source):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        given = run_dir if source == "run" else empty
        with caplog.at_level(logging.ERROR, logger="etp.cli"):
            rc = cli.main(["eval", "--data", str(empty), f"--{source}", str(given),
                           "--out", str(tmp_path / "e")])
        assert rc == 1
        assert "nothing to score" in caplog.text

    def test_gold_as_predictions_scores_perfect_agreement(self, tmp_path, data_dir):
        instances, label_map = load_jsonl(data_dir / "test.jsonl")
        preds_path = tmp_path / "gold_preds.jsonl"
        with preds_path.open("w") as fh:
            for inst in instances:
                fh.write(
                    json.dumps(
                        {
                            "id": inst.uid,
                            "label": inst.label_raw,
                            "rationale": [int(v) for v in inst.rationale_mask],
                            "spans": [list(s) for s in inst.rationale_spans],
                            "scores": [float(v) for v in inst.rationale_mask],
                        }
                    )
                    + "\n"
                )
        out = tmp_path / "golde"
        rc = cli.main(
            [
                "eval",
                "--data",
                str(data_dir / "test.jsonl"),
                "--predictions",
                str(preds_path),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        report = json.loads((out / "metrics.json").read_text())
        assert report["token_f1"] == 1.0
        assert report["iou_f1"] == 1.0
        assert report["macro_f1"] == 1.0
        assert report["auprc"] == 1.0
        assert report["comprehensiveness"] is None

    def test_empty_rationale_predictions(self, tmp_path, run_dir, data_dir):
        instances, _ = load_jsonl(data_dir / "test.jsonl")
        preds_path = tmp_path / "empty_preds.jsonl"
        with preds_path.open("w") as fh:
            for inst in instances:
                fh.write(
                    json.dumps(
                        {
                            "id": inst.uid,
                            "label": inst.label_raw,
                            "rationale": [0] * len(inst.document),
                        }
                    )
                    + "\n"
                )
        out = tmp_path / "emptye"
        rc = cli.main(
            [
                "eval",
                "--run",
                str(run_dir),
                "--data",
                str(data_dir / "test.jsonl"),
                "--predictions",
                str(preds_path),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        report = json.loads((out / "metrics.json").read_text())
        assert report["token_f1"] == 0.0
        assert report["comprehensiveness"] == 0.0

    def test_run_predictions_rescored_reproduce_train_metrics(self, tmp_path, run_dir, data_dir):
        out = tmp_path / "rescored"
        rc = cli.main(
            [
                "eval",
                "--run",
                str(run_dir),
                "--data",
                str(data_dir / "test.jsonl"),
                "--predictions",
                str(run_dir / "predictions.jsonl"),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert (out / "metrics.json").read_bytes() == (run_dir / "metrics.json").read_bytes()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("label", "no-such-class", "unknown label"),
            ("label", None, "missing label"),
            ("scores", [0.5], "scores"),
            ("spans", [[3, 1]], "span"),
            ("spans", [[0, 99]], "span"),
            ("spans", [[None, 2]], "span"),
            ("spans", [[0.9, 2.7]], "a span is not a [start, end] integer pair"),
            ("spans", [[True, 3]], "a span is not a [start, end] integer pair"),
            ("spans", [["1", "3"]], "a span is not a [start, end] integer pair"),
            # a callable gives the field's value from the document length
            ("rationale", lambda n: [0.5, 1] + [0] * (n - 2), "rationale entries must be 0 or 1"),
            ("rationale", lambda n: [2, 1] + [0] * (n - 2), "rationale entries must be 0 or 1"),
            ("scores", lambda n: [None, 1] + [0] * (n - 2), "scores must be an array of finite"),
            ("scores", lambda n: ["a", 1] + [0] * (n - 2), "scores must be an array of finite"),
        ],
        ids=[
            "unknown-label",
            "missing-label",
            "scores-length",
            "inverted-span",
            "span-past-end",
            "span-not-a-pair",
            "span-float",
            "span-bool",
            "span-string",
            "rationale-fraction",
            "rationale-two",
            "scores-null",
            "scores-string",
        ],
    )
    def test_bad_prediction_is_data_error_naming_id(
        self, tmp_path, data_dir, caplog, field, value, message
    ):
        instances, _ = load_jsonl(data_dir / "test.jsonl")
        bad_uid = instances[1].uid
        preds_path = tmp_path / "bad_preds.jsonl"
        with preds_path.open("w") as fh:
            for inst in instances:
                obj = {
                    "id": inst.uid,
                    "label": inst.label_raw,
                    "rationale": [int(v) for v in inst.rationale_mask],
                }
                if inst.uid == bad_uid:
                    obj[field] = value(len(inst.document)) if callable(value) else value
                    if value is None:
                        del obj[field]
                fh.write(json.dumps(obj) + "\n")
        rc = cli.main(
            [
                "eval",
                "--data",
                str(data_dir / "test.jsonl"),
                "--predictions",
                str(preds_path),
                "--out",
                str(tmp_path / "bad"),
            ]
        )
        assert rc == 1
        assert f"prediction {bad_uid}: " in caplog.text
        assert message in caplog.text

    @pytest.mark.parametrize("with_run", [False, True], ids=["predictions", "run"])
    def test_data_directory_is_clear_error(self, tmp_path, run_dir, data_dir, caplog, with_run):
        run = ["--run", str(run_dir)] if with_run else []
        rc = cli.main(["eval", *run, "--data", str(data_dir), "--predictions",
                       str(run_dir / "predictions.jsonl"), "--out", str(tmp_path / "e")])
        assert rc == 1
        assert "--data must point at a JSONL split file" in caplog.text

    def test_missing_run_dir_is_clear_error(self, tmp_path, data_dir):
        rc = cli.main(
            [
                "eval",
                "--run",
                str(tmp_path / "nonexistent"),
                "--data",
                str(data_dir / "test.jsonl"),
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert rc == 1

    @pytest.mark.parametrize(
        "line, message",
        [
            ("5", "line is not a JSON object"),
            ('["a", [0]]', "line is not a JSON object"),
            ('{"id": 7, "rationale": []}', "'id' must be a string"),
            (None, "duplicate id"),
        ],
        ids=["number", "array", "non-string-id", "duplicate-id"],
    )
    def test_malformed_prediction_line_names_file_and_line(
        self, tmp_path, data_dir, caplog, line, message
    ):
        instances, _ = load_jsonl(data_dir / "test.jsonl")
        records = [
            json.dumps({"id": inst.uid, "label": inst.label_raw,
                        "rationale": [int(v) for v in inst.rationale_mask]})
            for inst in instances
        ]
        records.insert(2, records[0] if line is None else line)
        preds_path = tmp_path / "preds.jsonl"
        preds_path.write_text("\n".join(records) + "\n")
        rc = cli.main(["eval", "--data", str(data_dir / "test.jsonl"),
                       "--predictions", str(preds_path), "--out", str(tmp_path / "e")])
        assert rc == 1
        assert f"{preds_path}:3: {message}" in caplog.text

    @pytest.mark.parametrize("reader", ["load_jsonl", "read_predictions"])
    @pytest.mark.parametrize(
        "line, message",
        [
            ("{not json", "invalid JSON"),
            ("5", "line is not a JSON object"),
            ('["a", [0]]', "line is not a JSON object"),
            ("", None),
        ],
        ids=["invalid-json", "number", "array", "blank"],
    )
    def test_both_jsonl_readers_share_line_handling(self, tmp_path, reader, line, message):
        # one record that fits both the dataset and the predictions schema
        def record(uid):
            return json.dumps({"id": uid, "document": ["w"], "label": 0, "evidences": [],
                               "rationale": [0]})

        path = tmp_path / "lines.jsonl"
        path.write_text("\n".join([record("a"), line, record("b")]) + "\n")
        read = {"load_jsonl": lambda p: load_jsonl(p)[0], "read_predictions": cli.read_predictions}
        if message is None:
            assert len(read[reader](path)) == 2
        else:
            with pytest.raises(DataError, match=f"^{re.escape(str(path))}:2: {message}"):
                read[reader](path)

    def test_swapped_checkpoints_are_clear_error(self, tmp_path, run_dir, data_dir, caplog):
        swapped = tmp_path / "run"
        swapped.mkdir()
        for path in run_dir.iterdir():
            if path.is_file():
                swapped.joinpath(path.name).write_bytes(path.read_bytes())
        (swapped / "explainer.npz").write_bytes((run_dir / "predictor.npz").read_bytes())
        (swapped / "predictor.npz").write_bytes((run_dir / "explainer.npz").read_bytes())
        rc = cli.main(["predict", "--run", str(swapped), "--data", str(data_dir / "test.jsonl"),
                       "--out", str(tmp_path / "p.jsonl")])
        assert rc == 1
        assert "holds a 'predictor' model, expected 'explainer'" in caplog.text
        assert not (tmp_path / "p.jsonl").exists()


    def test_cut_checkpoint_is_clear_error(self, tmp_path, run_dir, data_dir, caplog):
        cut = tmp_path / "run"
        shutil.copytree(run_dir, cut)
        data = (cut / "explainer.npz").read_bytes()
        (cut / "explainer.npz").write_bytes(data[:3000])
        out = tmp_path / "p.jsonl"
        rc = cli.main(["predict", "--run", str(cut), "--data", str(data_dir / "test.jsonl"),
                       "--out", str(out)])
        assert rc == 1
        assert f"{cut / 'explainer.npz'}: not a readable checkpoint" in caplog.text
        assert not out.exists()

    def test_replaced_vocabulary_token_is_clear_error(self, tmp_path, run_dir, data_dir, caplog):
        edited = tmp_path / "run"
        shutil.copytree(run_dir, edited)
        tokens = (edited / "vocab.txt").read_text().splitlines()
        tokens[10] = "replaced"
        (edited / "vocab.txt").write_text("\n".join(tokens) + "\n")
        out = tmp_path / "p.jsonl"
        rc = cli.main(["predict", "--run", str(edited), "--data", str(data_dir / "test.jsonl"),
                       "--out", str(out)])
        assert rc == 1
        assert "vocab.txt is not the vocabulary explainer.npz was trained on" in caplog.text
        assert not out.exists()

    def test_checkpoints_without_a_vocabulary_digest_still_load(self, tmp_path, run_dir, data_dir):
        legacy = tmp_path / "run"
        shutil.copytree(run_dir, legacy)
        for name in ("explainer.npz", "predictor.npz"):
            with np.load(legacy / name) as zf:
                arrays = {key: zf[key] for key in zf.files}
            meta = json.loads(str(arrays["meta"][()]))
            assert meta["config"].pop("vocab_digest")
            arrays["meta"] = np.array(json.dumps(meta, sort_keys=True))
            np.savez(legacy / name, **arrays)
        outs = [tmp_path / "new.jsonl", tmp_path / "legacy.jsonl"]
        for run, out in zip((run_dir, legacy), outs):
            rc = cli.main(["predict", "--run", str(run), "--data", str(data_dir / "test.jsonl"),
                           "--out", str(out)])
            assert rc == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("train_config.txt", lambda text: text.replace("head = token", "head = span")),
            ("vocab.txt", lambda text: text.replace("<unk>\n", "<unk>\ninserted\n")),
            ("train_config.txt", lambda text: text.replace("threshold = 0.5", "threshold = 2.0")),
            ("train_config.txt", lambda text: text.replace("embed_dim = 8", "embed_dim = 999")),
        ],
        ids=["head", "vocab-token", "threshold", "embed-dim"],
    )
    def test_run_directory_that_disagrees_with_itself_is_clear_error(
        self, tmp_path, run_dir, data_dir, caplog, name, edit
    ):
        edited = tmp_path / "run"
        shutil.copytree(run_dir, edited)
        text = (edited / name).read_text()
        assert edit(text) != text
        (edited / name).write_text(edit(text))
        out = tmp_path / "p.jsonl"
        rc = cli.main(["predict", "--run", str(edited), "--data", str(data_dir / "test.jsonl"),
                       "--out", str(out)])
        assert rc == 1
        assert f"run directory {edited}: " in caplog.text
        assert not out.exists()


class TestSweep:
    def test_single_point_equals_train_plus_eval(self, tmp_path, data_dir):
        cfg = write_cfg(tmp_path / "cfg.txt", epochs="1")
        sweep_out = tmp_path / "sweep"
        rc = cli.main(
            [
                "sweep",
                "--data",
                str(data_dir),
                "--out",
                str(sweep_out),
                "--grid",
                "1.0",
                "--config",
                str(cfg),
                "--seed",
                "5",
            ]
        )
        assert rc == 0
        with open(sweep_out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        # the sweep point persisted a full run; its val metrics must agree
        val_report = json.loads((sweep_out / "lambda_1" / "val_metrics.json").read_text())
        assert float(rows[0]["macro_f1"]) == val_report["macro_f1"]
        assert float(rows[0]["token_f1"]) == val_report["token_f1"]
        selected = json.loads((sweep_out / "selected.json").read_text())
        assert selected["lambda"] == 1.0

    def test_criterion_column_is_rowwise_sum_and_argmax(self, tmp_path, data_dir):
        cfg = write_cfg(tmp_path / "cfg.txt", epochs="1")
        sweep_out = tmp_path / "sweep2"
        rc = cli.main(
            [
                "sweep",
                "--data",
                str(data_dir),
                "--out",
                str(sweep_out),
                "--grid",
                "0.5,2.0",
                "--config",
                str(cfg),
            ]
        )
        assert rc == 0
        with open(sweep_out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["lambda"]) for r in rows] == [0.5, 2.0]
        for row in rows:
            assert float(row["criterion"]) == float(row["macro_f1"]) + float(row["token_f1"])
            assert row["error"] == ""
        selected = json.loads((sweep_out / "selected.json").read_text())
        best = max(rows, key=lambda r: float(r["criterion"]))
        assert selected["lambda"] == float(best["lambda"])

    def test_failed_point_row_records_its_error(self, tmp_path, data_dir, monkeypatch):
        run_one = cli._run_one

        def fail_at_two(data, run_dir, cfg):
            if cfg.lam == 2.0:
                raise RuntimeError("injected failure, with a comma")
            return run_one(data, run_dir, cfg)

        monkeypatch.setattr(cli, "_run_one", fail_at_two)
        cfg = write_cfg(tmp_path / "cfg.txt", epochs="1")
        sweep_out = tmp_path / "sweep"
        rc = cli.main(["sweep", "--data", str(data_dir), "--out", str(sweep_out),
                       "--grid", "0.5,2.0", "--config", str(cfg)])
        assert rc == 0
        with open(sweep_out / "sweep.csv", newline="") as fh:
            scored, failed = list(csv.DictReader(fh))
        assert scored["error"] == "" and float(scored["macro_f1"]) >= 0.0
        assert failed["lambda"] == "2.0"
        assert failed["error"] == "injected failure, with a comma"
        assert all(failed[c] == "" for c in cli.SWEEP_COLUMNS[1:-1])
        assert json.loads((sweep_out / "selected.json").read_text())["lambda"] == 0.5

    @pytest.mark.parametrize("grid", ["nan", "1,nan"])
    def test_non_finite_grid_point_is_clear_error(self, tmp_path, data_dir, caplog, grid):
        sweep_out = tmp_path / "sweep"
        with caplog.at_level(logging.ERROR, logger="etp.cli"):
            rc = cli.main(
                ["sweep", "--data", str(data_dir), "--out", str(sweep_out), f"--grid={grid}"]
            )
        assert rc == 1
        assert not sweep_out.exists()
        assert any("lambda must be finite" in r.getMessage() for r in caplog.records)

    def test_bad_model_option_is_rejected_before_any_point(self, tmp_path, data_dir, caplog):
        sweep_out = tmp_path / "sweep"
        rc = cli.main(["sweep", "--data", str(data_dir), "--out", str(sweep_out),
                       "--dropout", "1.0"])
        assert rc == 1
        assert not sweep_out.exists()
        assert "dropout must be in [0, 1)" in caplog.text

    def test_failed_point_logs_its_traceback(self, tmp_path, caplog):
        payload = {"cfg": TrainConfig(), "lam": 1.0, "index": 0, "out": str(tmp_path),
                   "data": str(tmp_path / "missing"), "criterion": "token_f1"}
        with caplog.at_level(logging.ERROR, logger="etp.cli"):
            row = cli._sweep_point(payload)
        assert row["lambda"] == 1.0 and row["error"]
        (record,) = [r for r in caplog.records if r.name == "etp.cli"]
        assert record.exc_info is not None

    def _worker_env(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_sweep_point", blas_env_point)
        out = tmp_path / "sweep"
        argv = ["sweep", "--data", str(tmp_path), "--out", str(out), "--grid", "1,2"]
        cli.main(argv + ["--workers", "2"])
        with open(out / "sweep.csv", newline="") as fh:
            return [row["error"] for row in csv.DictReader(fh)]

    def test_pool_workers_get_one_blas_thread(self, tmp_path, monkeypatch):
        for var in BLAS_VARS:
            monkeypatch.delenv(var, raising=False)
        assert self._worker_env(tmp_path, monkeypatch) == ["1 1 1", "1 1 1"]

    def test_pool_workers_keep_the_users_thread_count(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "3")
        assert self._worker_env(tmp_path, monkeypatch) == ["2 1 3", "2 1 3"]


    def test_pool_workers_log_like_the_parent(self, tmp_path, monkeypatch, capfd):
        monkeypatch.setattr(cli, "_sweep_point", logging_point)
        out = tmp_path / "sweep"
        rc = cli.main(["sweep", "--data", str(tmp_path), "--out", str(out), "--grid", "1,2",
                       "--workers", "2"])
        assert rc == 1  # every stand-in point reports an error
        err = capfd.readouterr().err
        for lam in (1, 2):
            assert f"INFO etp.cli: point lambda={lam} ran" in err


class TestParser:
    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_training_flags_cover_every_config_field(self, command):
        (subparsers,) = [
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        actions = {a.dest: a for a in subparsers.choices[command]._actions}
        assert {f.name for f in fields(TrainConfig)} <= set(actions)
        assert actions["head"].choices == ModelOptions.HEADS
        assert actions["exp_weighting"].choices == WEIGHTING_MODES
        assert actions["subtoken_mode"].choices == SUBTOKEN_MODES

    def test_unknown_command_exits_nonzero(self):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-data", "--out", "d"],
            ["predict", "--run", "r", "--data", "d.jsonl", "--out", "p.jsonl"],
            ["eval", "--data", "d.jsonl", "--out", "e"],
        ],
        ids=["gen-data", "predict", "eval"],
    )
    def test_config_flag_only_on_training_commands(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--config", str(tmp_path / "cfg.txt")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    def test_config_keys_for_other_commands_are_ignored(self, tmp_path, data_dir):
        # a shared config file may carry generator/path keys; train only
        # consumes its own fields
        shared = write_cfg(tmp_path / "shared.txt", epochs="1")
        with shared.open("a") as fh:
            fh.write("vocab_size = 40\ndata = somewhere\n")
        rc = cli.main(
            [
                "train",
                "--data",
                str(data_dir),
                "--out",
                str(tmp_path / "r"),
                "--config",
                str(shared),
            ]
        )
        assert rc == 0

    def test_ignored_config_keys_are_warned_about(self, tmp_path, caplog):
        cfg_file = write_cfg(tmp_path / "typo.txt", lamda="3", vocab_size="40")
        args = cli.build_parser().parse_args(
            ["train", "--data", "d", "--out", "o", "--config", str(cfg_file)]
        )
        with caplog.at_level(logging.WARNING, logger="etp.cli"):
            cfg = cli._train_config(args)
        assert cfg.lam == TrainConfig().lam
        (message,) = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert message.endswith(": lamda, vocab_size")

    def test_malformed_config_line_fails_cleanly(self, tmp_path, data_dir):
        bad = tmp_path / "bad.txt"
        bad.write_text("this is not a key value line\n")
        rc = cli.main(
            [
                "train",
                "--data",
                str(data_dir),
                "--out",
                str(tmp_path / "r2"),
                "--config",
                str(bad),
            ]
        )
        assert rc == 1

    def test_config_value_of_the_wrong_type_names_its_key_and_file(self, tmp_path, data_dir, caplog):
        cfg = write_cfg(tmp_path / "c.txt", epochs="abc")
        out = tmp_path / "run"
        rc = cli.main(["train", "--data", str(data_dir), "--out", str(out), "--config", str(cfg)])
        assert rc == 1
        assert not out.exists()
        assert f"{cfg}: config key 'epochs': 'abc' is not an int" in caplog.text
