"""The ``python -m repro`` flag surface and the campaign CLI end to end.

Three guarantees:

* **Flag surface** — every subcommand declares exactly the options
  recorded in :data:`FLAG_SURFACE` (option strings, dest, default,
  choices, nargs, type, required).  Help text is free to change; a flag
  added, renamed or removed, or a changed default, is not.
* **``campaign reliability``** — a saved sweep spec resumed through
  ``--spec`` reproduces the ``--json`` report byte for byte without
  touching the store, ``--report-only`` re-aggregates the same report,
  and the report equals the library's ``dumps_reliability``.
* **Error boundary** — a :class:`~repro.core.errors.ReproError` raised
  under a subcommand leaves ``main`` as ``SystemExit("error: …")``
  rather than a traceback.
"""

from __future__ import annotations

import argparse

import pytest

from repro.__main__ import _build_parser, main
from repro.campaign import (
    dumps_reliability,
    expand_scenarios,
    loads_sweep,
    reliability_from_store,
)

# --- flag surface -----------------------------------------------------------

# One row per argparse action:
# (option_strings, dest, default, choices, nargs, type, required).
# Keyed by the subcommand path ("" is the top-level parser).
FLAG_SURFACE = {
    "": [
        (("--trace",), "trace", None, None, None, None, False),
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, False),
        (("-q",), "log_quiet", 0, None, 0, None, False),
        (("-v", "--verbose"), "verbosity", 0, None, 0, None, False),
        ((), "command", None, ("campaign", "classify", "experiments", "export", "lint", "obs", "render", "simulate"), "A...", None, True),
    ],
    "campaign": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, False),
        ((), "campaign_command", None, ("quarantine", "reliability", "report", "run", "status", "store", "watch"), "A...", None, True),
    ],
    "campaign quarantine": [
        (("--requeue",), "requeue", None, None, "+", None, False),
        (("--requeue-all",), "requeue_all", False, None, 0, None, False),
        (("--show",), "show", None, None, None, None, False),
        (("--store",), "store", None, None, None, None, True),
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, False),
    ],
    "campaign reliability": [
        (("--backend",), "backend", "auto", ("auto", "numpy", "numba"), None, None, False),
        (("--batch",), "batch", 16, None, None, "int", False),
        (("--cycles",), "cycles", 200, None, None, "int", False),
        (("--drain",), "drain", False, None, 0, None, False),
        (("--draws",), "draws", 8, None, None, "int", False),
        (("--fault-seed-base",), "fault_seed_base", 0, None, None, "int", False),
        (("--heartbeat",), "heartbeat", None, None, None, "float", False),
        (("--hotspot-fraction",), "hotspot_fraction", 0.25, None, None, "float", False),
        (("--json",), "json", None, None, None, None, False),
        (("--max-faults",), "max_faults", None, None, None, "int", False),
        (("--networks",), "networks", ["omega", "extra_stage_omega"], None, "+", None, False),
        (("--on-error",), "on_error", "quarantine", ("abort", "quarantine"), None, None, False),
        (("--policy",), "policy", "drop", ("drop", "block"), None, None, False),
        (("--rate",), "rate", 0.9, None, None, "float", False),
        (("--report-only",), "report_only", False, None, 0, None, False),
        (("--resume",), "resume", False, None, 0, None, False),
        (("--retries",), "retries", 2, None, None, "int", False),
        (("--save-spec",), "save_spec", None, None, None, None, False),
        (("--spec",), "spec", None, None, None, None, False),
        (("--stages",), "stages", 4, None, None, "int", False),
        (("--store",), "store", None, None, None, None, True),
        (("--task-timeout",), "task_timeout", None, None, None, "float", False),
        (("--threshold",), "threshold", 0.99, None, None, "float", False),
        (("--trace",), "trace", "==SUPPRESS==", None, None, None, False),
        (("--traffic",), "traffic", "uniform", ("bitrev", "hotspot", "transpose", "uniform"), None, None, False),
        (("--workers",), "workers", 1, None, None, "int", False),
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, False),
    ],
    "campaign report": [
        (("--baseline",), "baseline", None, None, None, None, False),
        (("--json",), "json", None, None, None, None, False),
        (("--reliability",), "reliability", False, None, 0, None, False),
        (("--spec",), "spec", None, None, None, None, False),
        (("--store",), "store", None, None, None, None, True),
        (("--threshold",), "threshold", 0.99, None, None, "float", False),
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, False),
    ],
    "campaign run": [
        (("--backend",), "backend", "auto", ("auto", "numpy", "numba"), None, None, False),
        (("--batch",), "batch", 16, None, None, "int", False),
        (("--cycles",), "cycles", 200, None, None, "int", False),
        (("--drain",), "drain", False, None, 0, None, False),
        (("--fault-cells",), "fault_cells", [0], None, "+", "int", False),
        (("--fault-links",), "fault_links", [0], None, "+", "int", False),
        (("--fault-seed-base",), "fault_seed_base", 0, None, None, "int", False),
        (("--heartbeat",), "heartbeat", None, None, None, "float", False),
        (("--hotspot-fraction",), "hotspot_fraction", 0.25, None, None, "float", False),
        (("--on-error",), "on_error", "quarantine", ("abort", "quarantine"), None, None, False),
        (("--policy",), "policy", "drop", ("drop", "block"), None, None, False),
        (("--quiet",), "quiet", False, None, 0, None, False),
        (("--rates",), "rates", [1.0], None, "+", "float", False),
        (("--resume",), "resume", False, None, 0, None, False),
        (("--retries",), "retries", 2, None, None, "int", False),
        (("--save-spec",), "save_spec", None, None, None, None, False),
        (("--seeds",), "seeds", [0], None, "+", "int", False),
        (("--spec",), "spec", None, None, None, None, False),
        (("--stages",), "stages", [4], None, "+", "int", False),
        (("--store",), "store", None, None, None, None, True),
        (("--task-timeout",), "task_timeout", None, None, None, "float", False),
        (("--topologies",), "topologies", None, None, "+", None, False),
        (("--trace",), "trace", "==SUPPRESS==", None, None, None, False),
        (("--traffic",), "traffic", ["uniform"], ("bitrev", "hotspot", "transpose", "uniform"), "+", None, False),
        (("--workers",), "workers", 1, None, None, "int", False),
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, False),
    ],
    "campaign status": [
        (("--cycles",), "cycles", 200, None, None, "int", False),
        (("--drain",), "drain", False, None, 0, None, False),
        (("--fault-cells",), "fault_cells", [0], None, "+", "int", False),
        (("--fault-links",), "fault_links", [0], None, "+", "int", False),
        (("--fault-seed-base",), "fault_seed_base", 0, None, None, "int", False),
        (("--hotspot-fraction",), "hotspot_fraction", 0.25, None, None, "float", False),
        (("--metrics",), "metrics", None, None, None, None, False),
        (("--policy",), "policy", "drop", ("drop", "block"), None, None, False),
        (("--rates",), "rates", [1.0], None, "+", "float", False),
        (("--seeds",), "seeds", [0], None, "+", "int", False),
        (("--spec",), "spec", None, None, None, None, False),
        (("--stages",), "stages", [4], None, "+", "int", False),
        (("--store",), "store", None, None, None, None, True),
        (("--topologies",), "topologies", None, None, "+", None, False),
        (("--traffic",), "traffic", ["uniform"], ("bitrev", "hotspot", "transpose", "uniform"), "+", None, False),
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, False),
    ],
    "campaign store": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, False),
        ((), "store_command", None, ("repair", "verify"), "A...", None, True),
    ],
    "campaign store repair": [
        (("--store",), "store", None, None, None, None, True),
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, False),
    ],
    "campaign store verify": [
        (("--sidecars",), "sidecars", False, None, 0, None, False),
        (("--store",), "store", None, None, None, None, True),
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, False),
    ],
    "campaign watch": [
        (("--interval",), "interval", 0.5, None, None, "float", False),
        (("--once",), "once", False, None, 0, None, False),
        (("--store",), "store", None, None, None, None, True),
        (("--timeout",), "timeout", None, None, None, "float", False),
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, False),
    ],
    "classify": [
        (("--file",), "file", None, None, None, None, False),
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, False),
        ((), "n", 4, None, "?", "int", False),
        ((), "name", None, ("baseline", "flip", "indirect_binary_cube", "modified_data_manipulator", "omega", "reverse_baseline"), "?", None, False),
    ],
    "experiments": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, False),
        ((), "ids", None, None, "*", None, True),
    ],
    "export": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, False),
        ((), "n", None, None, None, "int", True),
        ((), "name", None, ("baseline", "flip", "indirect_binary_cube", "modified_data_manipulator", "omega", "reverse_baseline"), None, None, True),
        ((), "output", None, None, None, None, True),
    ],
    "lint": [
        (("--format",), "fmt", "text", ("text", "json"), None, None, False),
        (("--rule",), "rules", None, None, None, None, False),
        (("--strict",), "strict", False, None, 0, None, False),
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, False),
        ((), "paths", None, None, "*", None, True),
    ],
    "obs": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, False),
        ((), "obs_command", None, ("bench-compare", "critical-path", "diff", "flame", "summary", "tree"), "A...", None, True),
    ],
    "obs bench-compare": [
        (("--baseline",), "baseline", "benchmarks/baselines.json", None, None, None, False),
        (("--strict",), "strict", False, None, 0, None, False),
        (("--tolerance",), "tolerance", 0.5, None, None, "float", False),
        (("--update",), "update", False, None, 0, None, False),
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, False),
        ((), "bench_files", None, None, "+", None, True),
    ],
    "obs critical-path": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, False),
        ((), "trace_file", None, None, None, None, True),
    ],
    "obs diff": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, False),
        ((), "trace_a", None, None, None, None, True),
        ((), "trace_b", None, None, None, None, True),
    ],
    "obs flame": [
        (("--out",), "out", None, None, None, None, False),
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, False),
        ((), "trace_file", None, None, None, None, True),
    ],
    "obs summary": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, False),
        ((), "trace_file", None, None, None, None, True),
    ],
    "obs tree": [
        (("--depth",), "depth", None, None, None, "int", False),
        (("--limit",), "limit", 16, None, None, "int", False),
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, False),
        ((), "trace_file", None, None, None, None, True),
    ],
    "render": [
        (("--file",), "file", None, None, None, None, False),
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, False),
        ((), "n", 4, None, "?", "int", False),
        ((), "name", None, ("baseline", "flip", "indirect_binary_cube", "modified_data_manipulator", "omega", "reverse_baseline"), "?", None, False),
    ],
    "simulate": [
        (("--backend",), "backend", "auto", ("auto", "numpy", "numba"), None, None, False),
        (("--cycles",), "cycles", 200, None, None, "int", False),
        (("--drain",), "drain", False, None, 0, None, False),
        (("--fault-links",), "fault_links", 0, None, None, "int", False),
        (("--fault-seed",), "fault_seed", None, None, None, "int", False),
        (("--faults",), "faults", 0, None, None, "int", False),
        (("--file",), "file", None, None, None, None, False),
        (("--hotspot-fraction",), "hotspot_fraction", 0.25, None, None, "float", False),
        (("--json",), "json", None, None, None, None, False),
        (("--network",), "network", None, None, None, None, False),
        (("--param",), "param", None, None, None, None, False),
        (("--policy",), "policy", "drop", ("drop", "block"), None, None, False),
        (("--rate",), "rate", 1.0, None, None, "float", False),
        (("--save-scenario",), "save_scenario", None, None, None, None, False),
        (("--scenario",), "scenario", None, None, None, None, False),
        (("--seed",), "seed", 0, None, None, "int", False),
        (("--stages",), "stages", None, None, None, "int", False),
        (("--trace",), "trace", "==SUPPRESS==", None, None, None, False),
        (("--traffic",), "traffic", "uniform", ("bitrev", "hotspot", "transpose", "uniform"), None, None, False),
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, False),
        ((), "n", 4, None, "?", "int", False),
        ((), "name", None, ("baseline", "baseline_k", "benes", "benes_variant", "extra_stage_cube", "extra_stage_omega", "flip", "indirect_binary_cube", "modified_data_manipulator", "omega", "omega_3dp", "omega_k", "reverse_baseline"), "?", None, False),
    ],
}


def _surface(parser: argparse.ArgumentParser, path: tuple = ()) -> dict:
    """``{subcommand path: sorted action rows}`` of a parser tree."""
    out: dict = {}
    rows = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(_surface(sub, (*path, name)))
            choices = tuple(sorted(action.choices))
        else:
            choices = None if action.choices is None else tuple(action.choices)
        rows.append((
            tuple(action.option_strings),
            action.dest,
            action.default,
            choices,
            action.nargs,
            None if action.type is None else action.type.__name__,
            action.required,
        ))
    out[" ".join(path)] = sorted(rows, key=repr)
    return out


class TestFlagSurface:
    def test_every_subcommand_keeps_its_flags(self):
        surface = _surface(_build_parser())
        assert sorted(surface) == sorted(FLAG_SURFACE)
        for command, rows in FLAG_SURFACE.items():
            assert surface[command] == rows, command

    def test_every_leaf_binds_a_handler(self):
        parser = _build_parser()
        groups = {"", "campaign", "campaign store", "obs"}
        for command in sorted(set(FLAG_SURFACE) - groups):
            args = parser.parse_args(
                [*command.split(), *_required_args(command)]
            )
            assert callable(args.handler), command


def _required_args(command: str) -> list[str]:
    """Just enough positional/required arguments to parse ``command``."""
    need = {
        "export": ["omega", "4", "out.json"],
        "obs diff": ["a.jsonl", "b.jsonl"],
        "obs bench-compare": ["BENCH.json"],
    }
    if command in need:
        return need[command]
    if command.startswith("obs "):
        return ["trace.jsonl"]
    if command.startswith("campaign "):
        return ["--store", "s.jsonl"]
    return []


# --- campaign reliability ---------------------------------------------------

SWEEP = [
    "--networks", "omega", "extra_stage_omega", "--stages", "3",
    "--draws", "2", "--max-faults", "2", "--cycles", "20",
]


def _reliability(*argv: str) -> int:
    return main(["campaign", "reliability", *argv])


class TestReliabilityCli:
    @pytest.fixture()
    def swept(self, tmp_path):
        """One tiny sweep: ``(store, saved spec, --json report)``."""
        store = tmp_path / "rel.jsonl"
        spec = tmp_path / "sweep.json"
        report = tmp_path / "rel-a.json"
        assert _reliability(
            *SWEEP, "--store", str(store), "--save-spec", str(spec),
            "--json", str(report),
        ) == 0
        return store, spec, report

    def test_resume_from_saved_spec_is_byte_identical(self, swept, tmp_path):
        store, spec, report = swept
        before = store.read_bytes()
        again = tmp_path / "rel-b.json"
        assert _reliability(
            "--spec", str(spec), "--store", str(store), "--resume",
            "--json", str(again),
        ) == 0
        assert again.read_bytes() == report.read_bytes()
        assert store.read_bytes() == before

    def test_report_only_writes_the_same_json(self, swept, tmp_path, capsys):
        store, _, report = swept
        capsys.readouterr()
        again = tmp_path / "rel-report-only.json"
        assert _reliability(
            *SWEEP, "--store", str(store), "--report-only",
            "--json", str(again),
        ) == 0
        assert again.read_bytes() == report.read_bytes()
        assert "sweep complete" not in capsys.readouterr().out

    def test_json_is_the_library_report(self, swept):
        store, spec, report = swept
        sweep = loads_sweep(spec.read_text(encoding="utf-8"))
        hashes = {s.digest for s in expand_scenarios(sweep.to_campaign())}
        expected = dumps_reliability(
            reliability_from_store(
                store,
                hashes=hashes,
                threshold=sweep.threshold,
                baseline=sweep.baseline_label(),
            ),
            indent=2,
        )
        assert report.read_text(encoding="utf-8") == expected

    def test_report_only_on_empty_store_fails(self, tmp_path, capsys):
        assert _reliability(
            *SWEEP, "--store", str(tmp_path / "none.jsonl"), "--report-only"
        ) == 1
        assert "no records of this sweep" in capsys.readouterr().out

    def test_invalid_sweep_saves_no_spec(self, tmp_path):
        spec = tmp_path / "sweep.json"
        with pytest.raises(SystemExit, match=r"rate must be in \(0, 1\]"):
            _reliability(
                *SWEEP, "--rate", "1.5", "--store", str(tmp_path / "s.jsonl"),
                "--save-spec", str(spec),
            )
        assert not spec.exists()


# --- error boundary ---------------------------------------------------------


class TestErrorBoundary:
    def test_bad_rate_exits_with_a_message(self):
        with pytest.raises(SystemExit, match="injection rate") as err:
            main(["simulate", "omega", "3", "--rate", "2"])
        assert str(err.value.code).startswith("error: ")

    def test_bad_batch_exits_with_a_message(self, tmp_path):
        with pytest.raises(SystemExit, match="error: batch must be >= 1"):
            main([
                "campaign", "run", "--topologies", "omega", "--stages", "3",
                "--cycles", "10", "--store", str(tmp_path / "s.jsonl"),
                "--batch", "0", "--quiet",
            ])

    def test_non_empty_store_without_resume_exits(self, tmp_path):
        argv = [
            "campaign", "run", "--topologies", "omega", "--stages", "3",
            "--cycles", "10", "--store", str(tmp_path / "s.jsonl"),
            "--quiet",
        ]
        assert main(argv) == 0
        with pytest.raises(SystemExit, match="already holds results"):
            main(argv)
