import csv
import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from conftest import worker_cobot_graph
from cpssperso import cli, dqn
from cpssperso.cli import main, moving_average
from cpssperso.meta_model import RelationKind, graph_to_dict
from cpssperso.rl_core import (
    QTable,
    evaluate_policy,
    greedy_policy,
    load_qtable,
    optimistic_initial_value,
    replacing,
    save_qtable,
)

pytestmark = pytest.mark.usefixtures("chdir_tmp")


@pytest.fixture
def chdir_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


@pytest.fixture
def quick_config(workshop_config, write_config, tmp_path):
    """The shipped config shrunk to test-friendly training sizes."""
    doc = json.loads(json.dumps(workshop_config))
    doc["output_dir"] = str(tmp_path / "runs")
    doc["run_id"] = "quick"
    doc["schedule"]["episodes"] = 60
    doc["schedule"]["decay_steps"] = 48
    doc["dqn"]["total_steps"] = 400
    doc["dqn"]["epsilon"]["decay_steps"] = 300
    return doc


def three_machines(doc: dict) -> None:
    """Turn a workshop config into three machines, the middle one not
    influencing the worker, that degrade often enough to matter."""
    doc["env"]["contexts"] = [
        {"id": "machine1", "influences_worker": True},
        {"id": "machine2", "influences_worker": False},
        {"id": "machine3", "influences_worker": True},
    ]
    doc["env"]["machine_degrade_p"] = 0.2


class TestClassify:
    def test_workshop_graph_is_true_cpss(self, workshop_graph_path, capsys):
        assert main(["classify", str(workshop_graph_path)]) == 0
        out = capsys.readouterr().out
        assert "true CPSS" in out and "A1" in out
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["is_true_cpss"] is True

    def test_physical_only_graph_is_sos_not_cpss(self, rp_only_graph_path, capsys):
        assert main(["classify", str(rp_only_graph_path)]) == 0
        out = capsys.readouterr().out
        assert "SoS, not a true CPSS" in out

    def test_invalid_graph_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "nodes": [{"id": "a", "components": [{"kind": "Cyber"}]}],
            "edges": [{"from": "a", "to": "missing", "kind": "RC"}],
        }))
        assert main(["classify", str(bad)]) == 2
        assert "dangling_endpoint" in capsys.readouterr().out

    def test_malformed_file_exits_3(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["classify", str(bad)]) == 3

    def test_missing_file_exits_3(self, tmp_path):
        assert main(["classify", str(tmp_path / "nope.json")]) == 3

    def test_non_utf8_file_exits_3(self, tmp_path):
        bad = tmp_path / "graph.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert main(["classify", str(bad)]) == 3

    def test_component_free_graph_exits_2(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"nodes": [], "edges": []}))
        assert main(["classify", str(empty)]) == 2

    @pytest.mark.parametrize("command", ["classify", "validate"])
    def test_string_independence_flag_exits_3(self, tmp_path, capsys, command):
        """A worker that is not operationally independent makes the pair no
        SoS; the string "false" must not read as true and make it one."""
        doc = graph_to_dict(worker_cobot_graph(RelationKind.RS))
        doc["nodes"][0]["operational_independence"] = False
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(doc))
        if command == "classify":
            assert main(["classify", str(graph)]) == 0
            assert "not a SoS" in capsys.readouterr().out
        doc["nodes"][0]["operational_independence"] = "false"
        graph.write_text(json.dumps(doc))
        assert main([command, str(graph)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: nodes[0].operational_independence must be true or false, got 'false'"
        ]


class TestValidate:
    def test_well_formed_graph(self, workshop_graph_path, capsys):
        assert main(["validate", str(workshop_graph_path)]) == 0
        assert "well-formed" in capsys.readouterr().out

    def test_violations_listed(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "nodes": [
                {"id": "cb1", "components": [{"kind": "Cyber"}]},
                {"id": "cb1", "components": [{"kind": "Cyber"}]},
            ],
            "edges": [],
        }))
        assert main(["validate", str(bad)]) == 2
        assert "duplicate_id(cb1)" in capsys.readouterr().out


class TestTrain:
    def test_tabular_run_writes_artifacts(self, quick_config, write_config):
        path = write_config(quick_config)
        assert main(["train", str(path), "--agent", "tabular"]) == 0
        run_dir = Path(quick_config["output_dir"]) / "quick"
        assert (run_dir / "metrics.csv").exists()
        assert (run_dir / "qtable.bin").exists()
        manifest = json.loads((run_dir / "run.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["agent"] == "tabular"
        assert manifest["config"]["schedule"]["episodes"] == 60
        assert len(manifest["config_hash"]) == 64
        with open(run_dir / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 60
        assert list(rows[0]) == ["episode", "return", "epsilon", "max_abs_td_error", "seed"]

    def test_repeated_runs_are_byte_identical(self, quick_config, write_config):
        path = write_config(quick_config)
        run_dir = Path(quick_config["output_dir"]) / "quick"
        blobs = []
        for _ in range(2):
            assert main(["train", str(path), "--agent", "tabular"]) == 0
            blobs.append((run_dir / "metrics.csv").read_bytes())
        assert blobs[0] == blobs[1]

    # sha256 of the tabular outputs on quick_config and on its three-machine
    # variant.  A change to the env, its caches or the state encoders must keep
    # these outputs byte-identical.
    PINNED_TABULAR = {
        "full": {
            "metrics.csv": "7dcefa2d0e6de0f510453882a2248fc31b3f475effef1feea99cda3278c60210",
            "qtable.bin": "4173355682fbf5b0e99bf2aadf66d029a82e94bd7396b773267f09d336ab400a",
        },
        "partial": {
            "metrics.csv": "b8b59e928631a3e41fbf23fd7bba862bd48643eb58db64f7f33fc9070fe71cf2",
            "qtable.bin": "5b434f3a9c3f5f210fa32355027fae2adb6c55c37e799440078ff384eedc6a2d",
        },
        "k3-full": {
            "metrics.csv": "f0c13865a714ac807fe3119959bec0869a8e92022de47f066aee8cd5b99735dd",
            "qtable.bin": "6b4086d212b693cad810eb8db8bf69ae80d8e4fcbc08688cfe1fe42fb94d5962",
        },
        "k3-partial": {
            "metrics.csv": "0c17607d13ed4e04ce67640b4e88c822acca95f5120fb743877c36cf6215bbb2",
            "qtable.bin": "4ba7d82f8e9191ee8f0994b02004f2bf1af942bc275b16a22b20077250233c10",
        },
    }

    @pytest.mark.parametrize("case", list(PINNED_TABULAR))
    def test_tabular_outputs_match_pinned_hashes(self, quick_config, write_config, case):
        if case.startswith("k3-"):
            three_machines(quick_config)
        path = write_config(quick_config)
        argv = ["train", str(path), "--agent", "tabular"] + (["--partial-obs"] if case.endswith("partial") else [])
        assert main(argv) == 0
        run_dir = Path(quick_config["output_dir"]) / "quick"
        digests = {
            name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
            for name in self.PINNED_TABULAR[case]
        }
        assert digests == self.PINNED_TABULAR[case]

    # sha256 of the DQN outputs on the same four configs.  These also pin the
    # draw order of the env, the exploration and the replay streams, which a
    # comparison of two runs of the same code cannot see.  The network's
    # matmuls go through BLAS, so the bytes may differ on another BLAS build;
    # the digests were taken with numpy 2.4.6 and its bundled OpenBLAS 0.3.31.
    PINNED_DQN = {
        "k1-full": {
            "metrics.csv": "4ba70379e009fd577e69b2fa71a16b79ad3d561911566fc29d643e3adcf59512",
            "network.bin": "5e01add900c47b592f43745fe20470fd273c78404c0391135a1685156d29cf66",
        },
        "k1-partial": {
            "metrics.csv": "44faf42576f84d3900c14743942def7e0dcae76f2c70c61cf853c4448c50aefa",
            "network.bin": "9e658269ac270e2fa2e9882c3829355189fbd17556b6959e38b78d3282b2de41",
        },
        "k3-full": {
            "metrics.csv": "b56cd65640e00ad4e77b4804f6d2e52f3de5fa275476c44fa6ba8009af965dac",
            "network.bin": "ac2c2778747b72cf643cb149e2846cabda259e2109443238d78d8e530a175fb8",
        },
        "k3-partial": {
            "metrics.csv": "ebf0a12b4cfcffad9c81bbe9607384eefb855c0738b820141036436aba393122",
            "network.bin": "4cd25c01d2c405f244f84c23a27fb4295ca38d7645dc291f7e833ed09d1fefe2",
        },
    }

    @pytest.mark.parametrize("case", list(PINNED_DQN))
    def test_dqn_outputs_match_pinned_hashes(self, quick_config, write_config, case):
        if case.startswith("k3-"):
            three_machines(quick_config)
        path = write_config(quick_config)
        argv = ["train", str(path), "--agent", "dqn"] + (["--partial-obs"] if case.endswith("partial") else [])
        assert main(argv) == 0
        run_dir = Path(quick_config["output_dir"]) / "quick"
        digests = {
            name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
            for name in self.PINNED_DQN[case]
        }
        assert digests == self.PINNED_DQN[case]

    def test_dqn_run_writes_network(self, quick_config, write_config):
        path = write_config(quick_config)
        assert main(["train", str(path), "--agent", "dqn"]) == 0
        run_dir = Path(quick_config["output_dir"]) / "quick"
        assert (run_dir / "network.bin").exists()
        with open(run_dir / "metrics.csv", newline="") as fh:
            header = fh.readline().strip()
        assert header == "step,episode_return,loss,epsilon"

    def test_partial_obs_flag_accepted(self, quick_config, write_config):
        path = write_config(quick_config)
        assert main(["train", str(path), "--agent", "tabular", "--partial-obs"]) == 0

    def test_buffer_smaller_than_batch_exits_2(self, quick_config, write_config):
        quick_config["dqn"]["buffer_capacity"] = 8
        path = write_config(quick_config)
        assert main(["train", str(path), "--agent", "dqn"]) == 2

    def test_invalid_weights_exit_2(self, quick_config, write_config):
        quick_config["env"]["weights"]["w_worker"] = 0.1
        path = write_config(quick_config)
        assert main(["train", str(path), "--agent", "tabular"]) == 2

    @pytest.mark.parametrize(
        "section, value",
        [
            ("dqn", {"epsilon": 0.1}),
            ("dqn", []),
            ("schedule", [1]),
            ("env", []),
            ("schedule", {"episdoes": 10}),
            ("dqn", {"totl_steps": 5}),
            ("dqn", {"epsilon": {"strat": 1.0}}),
            # integer fields take neither fractions nor booleans
            ("env", {"horizon": 2.5}),
            ("env", {"horizon": True}),
            ("schedule", {"episodes": 10.7}),
            ("dqn", {"batch": True, "buffer_capacity": 32}),
            # numeric fields take neither booleans nor strings
            ("env", {"noise_p": True}),
            ("env", {"horizon": "7"}),
            ("schedule", {"learning_rate": "0.5"}),
            ("dqn", {"hidden": ["16", 8]}),
            ("schedule", {"initial_q": "0.5"}),
            ("schedule", {"initial_q": float("inf")}),
            ("schedule", {"initial_q": 10**400}),
            # over the DQN memory budget
            ("dqn", {"hidden": [10**12]}),
            ("dqn", {"hidden": [10**6, 10**6]}),
            ("dqn", {"buffer_capacity": 10**12, "total_steps": 10**12}),
            # the top level takes only its own keys, and strings where a string goes
            ("schedul", {"episodes": 3}),
            ("output_dir", 3),
            ("output_dir", ["x"]),
            ("run_id", [1]),
            ("env", {"contexts": [{"id": 5, "influences_worker": True}]}),
            ("objectives", [{"id": "perso", "owner": "cobot1", "metric": "m", "direction": "maximize"}] * 2),
        ],
        ids=[
            "dqn-epsilon-number", "dqn-list", "schedule-list", "env-list",
            "schedule-typo", "dqn-typo", "dqn-epsilon-typo",
            "env-fraction", "env-bool", "schedule-fraction", "dqn-bool",
            "env-float-bool", "env-int-string", "schedule-float-string",
            "dqn-hidden-string", "initial-q-string", "initial-q-infinite", "initial-q-huge",
            "dqn-hidden-huge", "dqn-hidden-wide", "dqn-replay-huge",
            "top-level-typo", "output-dir-number", "output-dir-list", "run-id-list",
            "context-id-number", "objective-id-duplicate",
        ],
    )
    @pytest.mark.parametrize("seed_override", [False, True], ids=["config-seed", "seed-override"])
    def test_bad_section_exits_2(self, quick_config, write_config, monkeypatch, capsys, section, value, seed_override):
        if seed_override:
            monkeypatch.setenv("CPSSPERSO_SEED", "3")
        quick_config[section] = value
        path = write_config(quick_config)
        assert main(["train", str(path), "--agent", "tabular"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize(
        "roles",
        [
            {"user": 5, "device": "cobot1"},
            {"user": "worker1", "device": "cobot1", "bogus": 1},
            {"user": "worker1"},
            "x",
        ],
        ids=["user-number", "unknown-key", "no-device", "not-an-object"],
    )
    def test_bad_roles_exits_2_and_writes_nothing(self, quick_config, write_config, tmp_path, capsys, roles):
        quick_config["roles"] = roles
        path = write_config(quick_config)
        assert main(["train", str(path), "--agent", "tabular"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: bad roles section: ")
        assert [p.name for p in tmp_path.rglob("*")] == [path.name]

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda doc: doc.update(roles={"user": "worker1"}), "bad roles section: roles.device is required"),
            (lambda doc: doc["env"]["contexts"][0].pop("id"), "bad env section: env.contexts[0].id is required"),
            (
                lambda doc: doc["objectives"][0].pop("direction"),
                "bad objectives section: objectives[0].direction is required",
            ),
        ],
        ids=["roles-device", "context-id", "objective-direction"],
    )
    def test_missing_key_is_named_by_its_path(self, quick_config, write_config, capsys, edit, error):
        edit(quick_config)
        path = write_config(quick_config)
        assert main(["train", str(path), "--agent", "tabular"]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {error}"]

    def test_every_key_reads_back_from_its_field(self, workshop_config):
        """Each key of `schedule`, `dqn` and `dqn.epsilon` is the name of the
        field that holds its value."""
        cfg = cli.parse_experiment_config(workshop_config)
        sections = [
            (workshop_config["schedule"], cfg.schedule),
            (workshop_config["dqn"], cfg.dqn),
            (workshop_config["dqn"]["epsilon"], cfg.dqn.epsilon),
        ]
        for raw, parsed in sections:
            for key, value in raw.items():
                if key == "epsilon":
                    continue  # the nested object, read as the third section
                if value == "optimistic":
                    value = optimistic_initial_value(cfg.env_params)
                expected = tuple(value) if isinstance(value, list) else value
                assert getattr(parsed, key) == expected, key

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda dqn: dqn.update(batch=2.5), "dqn.batch"),
            (lambda dqn: dqn.update(lr=True), "dqn.lr"),
            (lambda dqn: dqn["epsilon"].update(start="x"), "dqn.epsilon.start"),
        ],
        ids=["batch-fraction", "lr-bool", "epsilon-start-string"],
    )
    def test_error_names_the_config_key(self, quick_config, write_config, capsys, edit, key):
        edit(quick_config["dqn"])
        path = write_config(quick_config)
        assert main(["train", str(path), "--agent", "dqn"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: bad dqn section: {key} must be")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda o: o.update(weight=0.8),  # the weights live in env.weights
            lambda o: o.update(ownr=o.pop("owner")),
            lambda o: o.pop("metric"),
        ],
        ids=["weight", "typo", "missing"],
    )
    def test_bad_objective_exits_2(self, quick_config, write_config, edit):
        edit(quick_config["objectives"][-1])
        path = write_config(quick_config)
        assert main(["train", str(path), "--agent", "tabular"]) == 2

    def test_unparseable_config_exits_3(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("{,}")
        assert main(["train", str(bad), "--agent", "tabular"]) == 3

    def test_non_utf8_config_exits_3(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert main(["train", str(bad), "--agent", "tabular"]) == 3

    def test_uncreatable_output_dir_exits_3(self, quick_config, write_config, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, not a directory")
        quick_config["output_dir"] = str(blocker / "runs")
        path = write_config(quick_config)
        assert main(["train", str(path), "--agent", "tabular"]) == 3

    @pytest.mark.parametrize("blocked", ["under-a-file", "is-a-file"])
    @pytest.mark.parametrize(
        "argv, owner, name",
        [
            (["train", "CONFIG", "--agent", "tabular"], cli, "train_tabular"),
            (["train", "CONFIG", "--agent", "dqn"], dqn, "train_dqn"),
            (["sweep", "CONFIG", "--param", "env.noise_p", "--values", "0.1"], cli, "sweep_param"),
        ],
        ids=["tabular", "dqn", "sweep"],
    )
    def test_uncreatable_output_dir_exits_3_before_any_work(
        self, quick_config, write_config, tmp_path, monkeypatch, capsys, blocked, argv, owner, name
    ):
        """The run directory is checked before training or sweeping, with
        one ``error:`` line, and nothing is created."""
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, not a directory")
        quick_config["output_dir"] = str(blocker / "runs" if blocked == "under-a-file" else tmp_path)
        quick_config["run_id"] = "blocker"
        path = write_config(quick_config)

        def no_work(*args, **kwargs):
            raise AssertionError(f"{name} ran before the run directory was checked")

        monkeypatch.setattr(owner, name, no_work)
        before = sorted(tmp_path.rglob("*"))
        assert main([str(path) if a == "CONFIG" else a for a in argv]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "blocker" in err[0]
        assert sorted(tmp_path.rglob("*")) == before
        assert blocker.read_text() == "a regular file, not a directory"

    @pytest.mark.parametrize(
        "edit, env_seed",
        [
            (lambda doc: doc["env"].update(seed=-1), None),
            (lambda doc: doc["dqn"].update(seed=-1), None),
            (lambda doc: None, "-3"),
        ],
        ids=["env-seed", "dqn-seed", "seed-env-var"],
    )
    @pytest.mark.parametrize("agent", ["tabular", "dqn"])
    def test_negative_seed_exits_2(self, quick_config, write_config, monkeypatch, capsys, edit, env_seed, agent):
        if env_seed is not None:
            monkeypatch.setenv("CPSSPERSO_SEED", env_seed)
        edit(quick_config)
        path = write_config(quick_config)
        assert main(["train", str(path), "--agent", agent]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "non-negative" in err[0]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda dqn: dqn.update(hidden=[-1]),
            lambda dqn: dqn.update(hidden=[0]),
            lambda dqn: dqn.update(hidden=[16, 0]),
            lambda dqn: dqn["epsilon"].update(decay_steps=-1),
        ],
        ids=["hidden-negative", "hidden-zero", "hidden-second-zero", "decay-negative"],
    )
    def test_bad_dqn_value_exits_2(self, quick_config, write_config, capsys, edit):
        edit(quick_config["dqn"])
        path = write_config(quick_config)
        assert main(["train", str(path), "--agent", "dqn"]) == 2
        assert not (Path(quick_config["output_dir"]) / "quick" / "network.bin").exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: bad dqn section:")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["env"]["weights"].update(w_team=float("nan")),
            lambda doc: doc["env"].setdefault("rewards", {}).update(worker_match=float("inf")),
            lambda doc: doc["env"].setdefault("rewards", {}).update(context_unsafe=float("-inf")),
            lambda doc: doc["dqn"].update(lr=float("nan")),
            # finite rewards whose return bound, doubled, overflows
            lambda doc: doc["env"].update(
                contexts=[{"id": f"machine{i}", "influences_worker": True} for i in range(3)],
                rewards={"context_unsafe": -1.7e308},
            ),
            lambda doc: (
                doc["env"].update(rewards={"worker_match": 1e307, "worker_mismatch": -1e307}),
                doc["schedule"].update(initial_q=0),
            ),
        ],
        ids=[
            "weight-nan", "reward-infinity", "reward-minus-infinity", "dqn-lr-nan",
            "context-reward-overflow", "worker-reward-overflow",
        ],
    )
    def test_non_finite_float_exits_2(self, quick_config, write_config, capsys, edit):
        # json writes these as NaN and Infinity, which json.load reads back
        edit(quick_config)
        path = str(write_config(quick_config))
        sweep = ["sweep", path, "--param", "env.noise_p", "--values", "0.1", "--agent", "vi"]
        for argv in (["train", path, "--agent", "tabular"], ["train", path, "--agent", "dqn"], sweep):
            assert main(argv) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: bad") and "finite" in err[0]
            assert not (Path(quick_config["output_dir"]) / "quick").exists()

    def test_divergence_exits_2_naming_the_step(self, quick_config, write_config, capsys):
        quick_config["dqn"].update(lr=1e6, total_steps=2000)
        path = write_config(quick_config)
        assert main(["train", str(path), "--agent", "dqn"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "diverged" in err[0]
        assert "at step " in err[0]
        assert not (Path(quick_config["output_dir"]) / "quick").exists()

    def test_buffer_capacity_far_above_the_steps_runs(self, quick_config, write_config):
        # the replay allocates rows for the steps the run takes, not the capacity
        quick_config["dqn"].update(buffer_capacity=10**12, total_steps=64)
        path = write_config(quick_config)
        assert main(["train", str(path), "--agent", "dqn"]) == 0
        assert (Path(quick_config["output_dir"]) / "quick" / "network.bin").exists()

    def test_batch_above_the_steps_runs(self, quick_config, write_config):
        # no update can run, so no batch-sized buffer is allocated
        quick_config["dqn"].update(batch=10**9, buffer_capacity=10**9, total_steps=100)
        path = write_config(quick_config)
        assert main(["train", str(path), "--agent", "dqn"]) == 0

    def test_seed_env_var_overrides_config(self, quick_config, write_config, monkeypatch):
        monkeypatch.setenv("CPSSPERSO_SEED", "123")
        path = write_config(quick_config)
        assert main(["train", str(path), "--agent", "tabular"]) == 0
        manifest = json.loads(
            (Path(quick_config["output_dir"]) / "quick" / "run.json").read_text()
        )
        assert manifest["seed"] == 123

    def test_run_reproducible_from_manifest_alone(self, quick_config, write_config, tmp_path):
        path = write_config(quick_config)
        assert main(["train", str(path), "--agent", "tabular"]) == 0
        run_dir = Path(quick_config["output_dir"]) / "quick"
        original = (run_dir / "metrics.csv").read_bytes()
        manifest = json.loads((run_dir / "run.json").read_text())
        replay_doc = dict(manifest["config"], output_dir=str(tmp_path / "replay"))
        replay_cfg = write_config(replay_doc, "replay.json")
        assert main(["train", str(replay_cfg), "--agent", manifest["agent"]]) == 0
        replayed = (tmp_path / "replay" / "quick" / "metrics.csv").read_bytes()
        assert replayed == original


class TestRecordPins:
    """sha256 of the run record, the eval summary and the train stdout on
    quick_config with a relative ``output_dir``, so that no byte depends on
    the temporary directory.  A change to how a run is recorded must keep
    every one of these outputs byte-identical."""

    PINNED_RUN_JSON = {
        "tabular": "1e76f4bd5bc817f6099b7802227e56f9483b1b0e3aee67c106e8eea39d0ad925",
        "dqn": "5a9cb95cc00a6c4ed25172506ff8400d1a340ac962b9b24bbac99179d1735730",
    }
    # the summary holds no path, so this is also TestEvaluate's tabular-k1 pin
    PINNED_EVAL_JSON = "ffaca50f7429d0625dbcccf867dd17950b4c887d7e75b5bcc054e245e74a7893"
    PINNED_TRAIN_STDOUT = "78481674c23b00e8be3e68bdd99169769f76c4954d029e527c0bff9e13409ad2"

    @pytest.fixture
    def config_path(self, quick_config, write_config):
        quick_config["output_dir"] = "runs"
        return write_config(quick_config)

    @pytest.mark.parametrize("agent", list(PINNED_RUN_JSON))
    def test_run_json_matches_pinned_hash(self, config_path, agent):
        assert main(["train", str(config_path), "--agent", agent]) == 0
        digest = hashlib.sha256(Path("runs/quick/run.json").read_bytes()).hexdigest()
        assert digest == self.PINNED_RUN_JSON[agent]

    def test_eval_json_matches_pinned_hash(self, config_path):
        assert main(["train", str(config_path), "--agent", "tabular"]) == 0
        assert main(["evaluate", "runs/quick/qtable.bin", str(config_path), "--episodes", "20"]) == 0
        digest = hashlib.sha256(Path("runs/quick/qtable_eval.json").read_bytes()).hexdigest()
        assert digest == self.PINNED_EVAL_JSON

    def test_train_stdout_matches_pinned_hash(self, config_path, capsys):
        capsys.readouterr()
        assert main(["train", str(config_path), "--agent", "tabular"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert digest == self.PINNED_TRAIN_STDOUT


class TestRunId:
    """``run_id`` names one directory under ``output_dir``: any value that is
    not one path component exits 2 before anything is written."""

    BAD = ["", ".", "..", "../escaped", "a/b", "a\\b", "a\0b"]

    @pytest.mark.parametrize("run_id", BAD)
    @pytest.mark.parametrize(
        "argv",
        [["train", "--agent", "tabular"], ["sweep", "--param", "env.noise_p", "--values", "0.1,0.2"]],
        ids=["train", "sweep"],
    )
    def test_bad_run_id_exits_2_and_writes_nothing(self, quick_config, write_config, tmp_path, capsys, run_id, argv):
        quick_config["run_id"] = run_id
        path = write_config(quick_config)
        assert main([argv[0], str(path), *argv[1:]]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "run_id" in err[0]
        assert [p.name for p in tmp_path.rglob("*")] == [path.name]

    def test_one_component_runs(self, quick_config, write_config, tmp_path):
        quick_config["run_id"] = "run..1 x"
        quick_config["schedule"]["episodes"] = 2
        path = write_config(quick_config)
        assert main(["train", str(path), "--agent", "tabular"]) == 0
        assert (tmp_path / "runs" / "run..1 x" / "run.json").is_file()


class TestEvaluate:
    def _trained_run(self, quick_config, write_config):
        path = write_config(quick_config)
        assert main(["train", str(path), "--agent", "tabular"]) == 0
        return path, Path(quick_config["output_dir"]) / "quick"

    def test_summary_written_and_printed(self, quick_config, write_config, capsys):
        cfg, run_dir = self._trained_run(quick_config, write_config)
        assert main(["evaluate", str(run_dir / "qtable.bin"), str(cfg), "--episodes", "5"]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(payload) == {
            "episodes", "mean_return", "worker_match_rate", "safety_violation_rate",
        }
        assert (run_dir / "qtable_eval.json").exists()

    def test_zero_episodes_is_empty_summary(self, quick_config, write_config, capsys):
        cfg, run_dir = self._trained_run(quick_config, write_config)
        assert main(["evaluate", str(run_dir / "qtable.bin"), str(cfg), "--episodes", "0"]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload == {"episodes": 0}

    def test_shape_mismatch_exits_2(self, quick_config, write_config, tmp_path):
        cfg = write_config(quick_config)
        wrong = tmp_path / "wrong.bin"
        save_qtable(QTable(np.zeros((72, 3))), 0.95, wrong)
        assert main(["evaluate", str(wrong), str(cfg), "--episodes", "2"]) == 2

    def test_missing_artifact_exits_3(self, quick_config, write_config, tmp_path):
        cfg = write_config(quick_config)
        assert main(["evaluate", str(tmp_path / "none.bin"), str(cfg)]) == 3

    @pytest.mark.parametrize("magic", [b"QTB1", b"MLP1", b"QTB2"])
    def test_truncated_artifact_exits_2(self, quick_config, write_config, tmp_path, magic):
        cfg = write_config(quick_config)
        truncated = tmp_path / "truncated.bin"
        truncated.write_bytes(magic + b"\x01\x00")
        assert main(["evaluate", str(truncated), str(cfg)]) == 2

    def test_negative_episodes_exit_2(self, quick_config, write_config, capsys):
        cfg, run_dir = self._trained_run(quick_config, write_config)
        capsys.readouterr()
        assert main(["evaluate", str(run_dir / "qtable.bin"), str(cfg), "--episodes", "-3"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--episodes" in err[0]
        assert not (run_dir / "qtable_eval.json").exists()
        assert main(["sweep", str(cfg), "--param", "env.noise_p", "--values", "0.1", "--episodes", "-1"]) == 2
        assert not (run_dir / "sweep_env_noise_p.csv").exists()

    def test_unwritable_summary_exits_3(self, quick_config, write_config):
        cfg, run_dir = self._trained_run(quick_config, write_config)
        (run_dir / "qtable_eval.json").mkdir()
        assert main(["evaluate", str(run_dir / "qtable.bin"), str(cfg), "--episodes", "2"]) == 3

    def test_partial_obs_artifact_evaluates_through_the_channel(self, quick_config, write_config, capsys):
        """The run manifest of a ``--partial-obs`` artifact makes evaluate act
        on the observation, as the policy was trained to."""
        path = write_config(quick_config)
        assert main(["train", str(path), "--agent", "tabular", "--partial-obs"]) == 0
        artifact = Path(quick_config["output_dir"]) / "quick" / "qtable.bin"
        assert main(["evaluate", str(artifact), str(path), "--episodes", "20"]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload == json.loads(artifact.with_name("qtable_eval.json").read_text())
        cfg = cli.load_experiment_config(path)
        policy = greedy_policy(load_qtable(artifact)[0])
        seen = asdict(evaluate_policy(cfg.env_params, cfg.profile, policy, 20, partial_obs=True))
        true = asdict(evaluate_policy(cfg.env_params, cfg.profile, policy, 20))
        assert payload == seen != true

    @pytest.mark.parametrize(
        "manifest",
        [
            "{",
            "[]",
            '{"artifact_files": ["qtable.bin"]}',
            '{"artifact_files": ["qtable.bin"], "partial_obs": 1}',
            # a string or an object that "contains" the name, and a list
            # whose other entry is not a name
            '{"artifact_files": "old-qtable.bin.bak", "partial_obs": true}',
            '{"artifact_files": {"qtable.bin": 1}, "partial_obs": true}',
            '{"artifact_files": ["qtable.bin", 1], "partial_obs": true}',
        ],
        ids=[
            "truncated", "not-an-object", "no-partial-obs", "not-a-bool",
            "files-a-string", "files-an-object", "files-not-all-names",
        ],
    )
    def test_bad_manifest_exits_2(self, quick_config, write_config, manifest, capsys):
        cfg, run_dir = self._trained_run(quick_config, write_config)
        (run_dir / "run.json").write_text(manifest)
        assert main(["evaluate", str(run_dir / "qtable.bin"), str(cfg), "--episodes", "2"]) == 2
        assert "run.json: " in capsys.readouterr().err
        assert not (run_dir / "qtable_eval.json").exists()

    def test_manifest_of_another_artifact_is_not_read(self, quick_config, write_config, capsys):
        path = write_config(quick_config)
        assert main(["train", str(path), "--agent", "tabular"]) == 0
        run_dir = Path(quick_config["output_dir"]) / "quick"
        assert main(["evaluate", str(run_dir / "qtable.bin"), str(path), "--episodes", "20"]) == 0
        first = capsys.readouterr().out.strip().splitlines()[-1]
        assert main(["train", str(path), "--agent", "dqn", "--partial-obs"]) == 0
        assert main(["evaluate", str(run_dir / "qtable.bin"), str(path), "--episodes", "20"]) == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == first
        cfg = cli.load_experiment_config(path)
        policy = greedy_policy(load_qtable(run_dir / "qtable.bin")[0])
        seen = evaluate_policy(cfg.env_params, cfg.profile, policy, 20, partial_obs=True)
        assert json.loads(first) != asdict(seen)

    def test_network_artifact_evaluates(self, quick_config, write_config, capsys):
        path = write_config(quick_config)
        assert main(["train", str(path), "--agent", "dqn"]) == 0
        run_dir = Path(quick_config["output_dir"]) / "quick"
        assert main(["evaluate", str(run_dir / "network.bin"), str(path), "--episodes", "3"]) == 0

    # sha256 of the evaluate summary of each artifact, trained on quick_config
    # and on its three-machine variant: pins the rollouts that score a policy,
    # their match and violation counts, and the greedy readout of a network.
    PINNED_EVAL = {
        "tabular-k1": "ffaca50f7429d0625dbcccf867dd17950b4c887d7e75b5bcc054e245e74a7893",
        "tabular-k3": "ffaca50f7429d0625dbcccf867dd17950b4c887d7e75b5bcc054e245e74a7893",
        "dqn-k1": "75f0de22a4fc3f2b5a90dd0a394e08da23ec7abc06afac4d9bf3dbd86ce7b0aa",
        "dqn-k3": "75f0de22a4fc3f2b5a90dd0a394e08da23ec7abc06afac4d9bf3dbd86ce7b0aa",
    }

    @pytest.mark.parametrize("case", list(PINNED_EVAL))
    def test_summary_matches_pinned_hash(self, quick_config, write_config, case):
        agent, machines = case.split("-")
        if machines == "k3":
            three_machines(quick_config)
        path = write_config(quick_config)
        assert main(["train", str(path), "--agent", agent]) == 0
        artifact = Path(quick_config["output_dir"]) / "quick" / f"{'qtable' if agent == 'tabular' else 'network'}.bin"
        assert main(["evaluate", str(artifact), str(path), "--episodes", "20"]) == 0
        summary = artifact.with_name(artifact.stem + "_eval.json")
        assert hashlib.sha256(summary.read_bytes()).hexdigest() == self.PINNED_EVAL[case]

    # the trained policies above never act unsafely, so this random q-table on
    # the three-machine config pins a summary that counts violations
    PINNED_RANDOM_EVAL = "2ede0512af2334a207b6b6181e51a66aa42b13bb5c9863110c6f064f9a261e2e"

    def test_random_table_summary_matches_pinned_hash(self, quick_config, write_config, tmp_path):
        three_machines(quick_config)
        path = write_config(quick_config)
        artifact = tmp_path / "random.bin"
        save_qtable(QTable(np.random.default_rng(0).random((36 << 3, 5))), 0.95, artifact)
        assert main(["evaluate", str(artifact), str(path), "--episodes", "20"]) == 0
        summary = json.loads((tmp_path / "random_eval.json").read_text())
        assert summary["safety_violation_rate"] > 0
        digest = hashlib.sha256((tmp_path / "random_eval.json").read_bytes()).hexdigest()
        assert digest == self.PINNED_RANDOM_EVAL


class TestSweep:
    def test_three_values_three_rows(self, quick_config, write_config, capsys):
        path = write_config(quick_config)
        code = main([
            "sweep", str(path),
            "--param", "env.weights.w_worker",
            "--values", "0.6,1.0,2.0",
            "--episodes", "3",
        ])
        assert code == 0
        out_path = Path(quick_config["output_dir"]) / "quick" / "sweep_env_weights_w_worker.csv"
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["value"]) for r in rows] == [0.6, 1.0, 2.0]
        match = [float(r["match_rate"]) for r in rows]
        assert all(a <= b + 1e-12 for a, b in zip(match, match[1:]))

    # sha256 of the value-iteration sweep CSV on the three-machine config:
    # pins the exact model, its solution and the rollouts that score it.
    PINNED_VI_SWEEP = "12b560610294c609ad42ef885ca2b8964bce497bcc43b25201ad7d7bea227506"

    def test_vi_sweep_matches_pinned_hash(self, quick_config, write_config):
        three_machines(quick_config)
        path = write_config(quick_config)
        argv = ["sweep", str(path), "--param", "env.noise_p", "--values", "0.1,0.3", "--agent", "vi"]
        assert main(argv) == 0
        out_path = Path(quick_config["output_dir"]) / "quick" / "sweep_env_noise_p.csv"
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == self.PINNED_VI_SWEEP

    # sha256 of the learners' sweep CSVs on the same config: pins the greedy
    # readout of a trained q-table and network and the rollouts that score it.
    PINNED_LEARNER_SWEEP = {
        "tabular": "e7b73c024def2f59d42baab929dc18a4376a0a8cff72d6501c91054f5ad996d6",
        "dqn": "a828882a20b2d77658f3823f3da860ad89e9db9ecb8288c950a959b98576bbfc",
    }

    @pytest.mark.parametrize("agent", list(PINNED_LEARNER_SWEEP))
    def test_learner_sweep_matches_pinned_hash(self, quick_config, write_config, agent):
        three_machines(quick_config)
        path = write_config(quick_config)
        argv = ["sweep", str(path), "--param", "env.noise_p", "--values", "0.1,0.3", "--agent", agent]
        assert main(argv) == 0
        out_path = Path(quick_config["output_dir"]) / "quick" / "sweep_env_noise_p.csv"
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == self.PINNED_LEARNER_SWEEP[agent]

    def test_a_vi_point_builds_the_reward_cells_three_times(self, quick_config, write_config, reward_cells_calls):
        """Once for the solved model, once for the evaluation env's model and
        once for the exact match rate."""
        path = write_config(quick_config)
        argv = ["sweep", str(path), "--param", "env.noise_p", "--values", "0.3", "--agent", "vi", "--episodes", "2"]
        assert main(argv) == 0
        assert len(reward_cells_calls) == 3

    def test_negative_seed_value_exits_2(self, quick_config, write_config, capsys):
        path = write_config(quick_config)
        assert main(["sweep", str(path), "--param", "env.seed", "--values", "-1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "non-negative" in err[0]

    def test_swept_seed_takes_the_swept_value(self, quick_config, monkeypatch):
        # each point derives its seeds from the base seed, except the swept key
        seeds = []
        evaluate = cli.evaluate_policy

        def spy(params, profile, policy, episodes):
            seeds.append(params.seed)
            return evaluate(params, profile, policy, episodes)

        monkeypatch.setattr(cli, "evaluate_policy", spy)
        cli.sweep_param(cli.parse_experiment_config(quick_config), "env.seed", [5, 5, 6], episodes=2)
        assert seeds == [5, 5, 6]

    def test_empty_values_exit_2(self, quick_config, write_config):
        path = write_config(quick_config)
        assert main(["sweep", str(path), "--param", "env.gamma", "--values", ""]) == 2

    def test_non_numeric_key_exits_2(self, quick_config, write_config):
        path = write_config(quick_config)
        assert main(["sweep", str(path), "--param", "run_id", "--values", "1,2"]) == 2

    def test_unknown_key_exits_2(self, quick_config, write_config):
        path = write_config(quick_config)
        assert main(["sweep", str(path), "--param", "env.bogus", "--values", "1"]) == 2

    def test_non_numeric_values_exit_2(self, quick_config, write_config):
        path = write_config(quick_config)
        for param, values in [
            ("env.gamma", "0.9,abc"),
            ("env.horizon", "inf"),  # an infinite value on an integer key
            ("env.horizon", "2.5"),  # a fraction on an integer key
            ("schedule.episodes", "inf"),
            ("dqn.total_steps", "inf"),
        ]:
            assert main(["sweep", str(path), "--param", param, "--values", values]) == 2, param
        quick_config["schedule"]["episodes"] = float("inf")  # written as Infinity
        path = write_config(quick_config)
        assert main(["train", str(path), "--agent", "tabular"]) == 2

    def test_point_over_the_dqn_memory_budget_exits_2(self, quick_config, write_config, capsys):
        quick_config["dqn"]["buffer_capacity"] = 10**12
        path = write_config(quick_config)
        assert main(["sweep", str(path), "--param", "dqn.total_steps", "--values", "10,1e12"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "budget" in err[0]

    @pytest.mark.parametrize("values", ["nan", "inf", "0.4,-inf"])
    def test_non_finite_value_on_a_float_key_exits_2(self, quick_config, write_config, capsys, values):
        path = write_config(quick_config)
        assert main(["sweep", str(path), "--param", "env.weights.w_team", "--values", values]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "finite" in err[0]


#: Each writer of an output, called on one path.
WRITERS = {
    "csv": lambda path: cli._write_csv(path, ("a", "b"), [(1, 2.5)]),
    "manifest": lambda path: cli._write_manifest(path, {"episodes": 0}),
    "qtable": lambda path: save_qtable(QTable(np.ones((3, 2))), 0.9, path),
    "network": lambda path: dqn.save_params(dqn.init_mlp([4, 3, 2], np.random.default_rng(0)), path),
}


class TestOutputsLandWhole:
    """Every output is written to a temporary file beside it and moved onto
    its name by ``os.replace``, so an interrupted run leaves no part of a
    file that ``evaluate`` would load."""

    @staticmethod
    def fail(src, dst):
        raise OSError(f"cannot move {src} onto {dst}")

    @pytest.fixture
    def failing_replace(self, monkeypatch):
        monkeypatch.setattr(os, "replace", self.fail)

    @pytest.mark.parametrize("writer", list(WRITERS))
    def test_a_failed_replace_leaves_no_file(self, tmp_path, failing_replace, writer):
        with pytest.raises(OSError, match="cannot move"):
            WRITERS[writer](tmp_path / "out.bin")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("writer", list(WRITERS))
    def test_a_failed_replace_keeps_the_old_file(self, tmp_path, failing_replace, writer):
        (tmp_path / "out.bin").write_bytes(b"old")
        with pytest.raises(OSError, match="cannot move"):
            WRITERS[writer](tmp_path / "out.bin")
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
        assert (tmp_path / "out.bin").read_bytes() == b"old"

    @pytest.mark.parametrize("writer", list(WRITERS))
    def test_writes_only_the_final_file(self, tmp_path, writer):
        WRITERS[writer](tmp_path / "out.bin")
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_an_error_while_writing_removes_the_temporary_file(self, tmp_path):
        with pytest.raises(KeyboardInterrupt):
            with replacing(tmp_path / "out.bin") as fh:
                fh.write(b"part")
                raise KeyboardInterrupt
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "CONFIG", "--agent", "tabular"],
            ["train", "CONFIG", "--agent", "dqn"],
            ["sweep", "CONFIG", "--param", "env.noise_p", "--values", "0.1", "--episodes", "1"],
        ],
        ids=["tabular", "dqn", "sweep"],
    )
    def test_a_command_whose_replace_fails_exits_3_and_leaves_no_output(
        self, quick_config, write_config, failing_replace, argv
    ):
        path = write_config(quick_config)
        assert main([str(path) if a == "CONFIG" else a for a in argv]) == 3
        run_dir = Path(quick_config["output_dir"]) / "quick"
        assert [p.name for p in run_dir.iterdir()] == []

    def test_an_evaluate_whose_replace_fails_leaves_no_summary(self, quick_config, write_config, monkeypatch):
        path = write_config(quick_config)
        assert main(["train", str(path), "--agent", "tabular"]) == 0
        run_dir = Path(quick_config["output_dir"]) / "quick"
        before = sorted(p.name for p in run_dir.iterdir())
        monkeypatch.setattr(os, "replace", self.fail)
        assert main(["evaluate", str(run_dir / "qtable.bin"), str(path), "--episodes", "2"]) == 3
        assert sorted(p.name for p in run_dir.iterdir()) == before


class TestNoFullStateSolve:
    """No command reaches the full-state solver (``no_full_state_solver``):
    training and evaluation step through transition rows, and ``sweep
    --agent vi`` solves the lumped chain."""

    @pytest.mark.parametrize(
        "commands, outputs",
        [
            (
                [["train", "CONFIG", "--agent", "tabular"], ["evaluate", "RUN/qtable.bin", "CONFIG", "--episodes", "2"]],
                ["metrics.csv", "qtable.bin", "qtable_eval.json", "run.json"],
            ),
            (
                [["train", "CONFIG", "--agent", "dqn"], ["evaluate", "RUN/network.bin", "CONFIG", "--episodes", "2"]],
                ["metrics.csv", "network.bin", "network_eval.json", "run.json"],
            ),
            (
                [["sweep", "CONFIG", "--param", "env.noise_p", "--values", "0.1", "--agent", "vi", "--episodes", "2"]],
                ["sweep_env_noise_p.csv"],
            ),
        ],
        ids=["tabular", "dqn", "sweep"],
    )
    @pytest.mark.usefixtures("no_full_state_solver")
    def test_on_three_machines(self, quick_config, write_config, commands, outputs):
        three_machines(quick_config)
        quick_config["dqn"]["total_steps"] = 64
        path = write_config(quick_config)
        run_dir = Path(quick_config["output_dir"]) / "quick"
        for argv in commands:
            assert main([str(path) if a == "CONFIG" else a.replace("RUN", str(run_dir)) for a in argv]) == 0
        assert sorted(p.name for p in run_dir.iterdir()) == outputs


class TestEmitPlotData:
    def _write_metrics(self, run_dir, returns):
        run_dir.mkdir(parents=True, exist_ok=True)
        with open(run_dir / "metrics.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["episode", "return", "epsilon", "max_abs_td_error", "seed"])
            for i, r in enumerate(returns):
                writer.writerow([i, r, 0.1, 0.0, 7])

    def test_toy_moving_average_matches_hand_computation(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        self._write_metrics(run_dir, [1, 2, 3, 4, 5])
        assert main(["emit-plot-data", str(run_dir), "--window", "3"]) == 0
        with open(run_dir / "learning_curve.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["smoothed_return"]) for r in rows] == [1.0, 1.5, 2.0, 3.0, 4.0]

    def test_window_larger_than_data_gives_single_row(self, tmp_path):
        run_dir = tmp_path / "run"
        self._write_metrics(run_dir, [1, 2, 3, 4, 5])
        assert main(["emit-plot-data", str(run_dir), "--window", "100"]) == 0
        with open(run_dir / "learning_curve.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["smoothed_return"]) == 3.0

    def test_full_run_emits_row_per_episode(self, quick_config, write_config):
        path = write_config(quick_config)
        assert main(["train", str(path), "--agent", "tabular"]) == 0
        run_dir = Path(quick_config["output_dir"]) / "quick"
        assert main(["emit-plot-data", str(run_dir), "--window", "10"]) == 0
        with open(run_dir / "learning_curve.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 60
        assert list(rows[0]) == ["episode", "return", "smoothed_return"]

    def test_missing_metrics_exits_2(self, tmp_path):
        assert main(["emit-plot-data", str(tmp_path / "empty")]) == 2

    @pytest.mark.parametrize("window", ["0", "-1"])
    def test_window_below_one_exits_2(self, tmp_path, window):
        run_dir = tmp_path / "run"
        self._write_metrics(run_dir, [1, 2, 3])
        assert main(["emit-plot-data", str(run_dir), "--window", window]) == 2

    @pytest.mark.parametrize(
        "bad_row", ["2,not-a-number,0.1,0.0,7\n", "2\n"], ids=["non-numeric", "short-row"]
    )
    def test_bad_return_value_exits_3(self, tmp_path, bad_row):
        run_dir = tmp_path / "run"
        self._write_metrics(run_dir, [1, 2])
        with open(run_dir / "metrics.csv", "a", newline="") as fh:
            fh.write(bad_row)
        assert main(["emit-plot-data", str(run_dir), "--window", "2"]) == 3


def test_moving_average_trailing_window():
    assert moving_average([2.0, 4.0, 6.0, 8.0], 2) == [2.0, 3.0, 5.0, 7.0]
